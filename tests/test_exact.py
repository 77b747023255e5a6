"""Exact lattice arithmetic: parsing, canonical forms, digit classes, tail maps."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chameleon.errors import ParseError
from chameleon.exact import (
    NAdic,
    as_fraction,
    digit_class,
    format_rational,
    is_nadic,
    is_smooth,
    keep_last_digits,
    parse_integer,
    parse_rational,
    power_exponent,
    ratio_exponent,
    reduce_to_circle,
    to_nadic,
    trailing_zeros,
)

BASES = (2, 3, 5, 10)


def to_nadic_oracle(q, n: int):
    """The Fraction loop to_nadic replaced: scale by n until integral, then
    strip surplus factors of n."""
    if not is_smooth(q.denominator, n):
        return None
    if q == 0:
        return NAdic(n, 0, 0)
    e, scaled = 0, q
    while scaled.denominator != 1:
        scaled *= n
        e += 1
    a = scaled.numerator
    while e > 0 and a % n == 0:
        a //= n
        e -= 1
    return NAdic(n, a, e)


def lattice_points(n: int, max_mantissa: int = 400, max_exponent: int = 6):
    """Strategy over the ring generated by 1/n (signed, unreduced inputs)."""
    return st.builds(
        lambda a, e: Fraction(a, n**e),
        st.integers(-max_mantissa, max_mantissa),
        st.integers(0, max_exponent),
    )


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/4", Fraction(3, 4)),
            ("-7/16", Fraction(-7, 16)),
            ("5", Fraction(5)),
            ("0", Fraction(0)),
            ("  9/8 ", Fraction(9, 8)),
        ],
    )
    def test_parse_round_trips_through_format(self, text, expected):
        value = parse_rational(text)
        assert value == expected
        assert parse_rational(format_rational(value)) == value

    @pytest.mark.parametrize("text", [
        "", "1/0", "three", "1//2", "2/", None, "0.5", "1e3", "1_0/3", "+2",
        "- 3", "3/-4", "3 / 4", "-", "/2", "1/0_0",
        "\u0663", "\u0663/\u0664", "3/\u0664", "-\u0663/4", "\uff13", "\u09ea/5",
    ])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    @pytest.mark.parametrize("text,expected", [
        ("0", 0), ("42", 42), ("-7", -7), (" 12 ", 12), ("007", 7),
    ])
    def test_integer_reader_takes_ascii_digits(self, text, expected):
        assert parse_integer(text) == expected

    @pytest.mark.parametrize("text", [
        "", "-", "+2", "1_0", "2.0", "2 3", "\u0663", "-\u0663", "1\u0663", "\uff13",
        "\u09ea",
    ])
    def test_integer_reader_rejects_other_text(self, text):
        """'\u0663' (ARABIC-INDIC DIGIT THREE) and the other Unicode decimal
        digits pass ``str.isdecimal`` and ``int``, but are not a decimal
        integer literal."""
        assert parse_integer(text) is None

    def test_format_uses_solidus_only_when_needed(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(Fraction(0)) == "0"

    def test_as_fraction_accepts_ints_and_fractions(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)

    def test_as_fraction_rejects_bools_and_floats(self):
        with pytest.raises(TypeError):
            as_fraction(True)
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestSmoothness:
    @pytest.mark.parametrize("n", BASES)
    def test_is_smooth_matches_brute_force(self, n):
        for d in range(1, 300):
            reachable = d
            for _ in range(40):
                from math import gcd

                g = gcd(reachable, n)
                if g == 1:
                    break
                while reachable % g == 0:
                    reachable //= g
            assert is_smooth(d, n) == (reachable == 1), (n, d)

    @pytest.mark.parametrize("n", BASES)
    def test_power_exponent_on_true_powers(self, n):
        for k in range(0, 7):
            assert power_exponent(Fraction(n**k), n) == k
            assert power_exponent(Fraction(1, n**k), n) == -k

    def test_power_exponent_rejects_non_powers(self):
        assert power_exponent(Fraction(3), 2) is None
        assert power_exponent(Fraction(6), 2) is None
        assert power_exponent(Fraction(3, 2), 2) is None
        assert power_exponent(Fraction(0), 2) is None
        assert power_exponent(Fraction(-4), 2) is None

    def test_power_exponent_base_ten(self):
        assert power_exponent(Fraction(100), 10) == 2
        assert power_exponent(Fraction(1, 1000), 10) == -3
        assert power_exponent(Fraction(20), 10) is None

    @pytest.mark.parametrize("n", BASES)
    def test_ratio_exponent_on_unreduced_pairs(self, n):
        for num in range(1, 70):
            for den in range(1, 70):
                want = next((k for k in range(-7, 8)
                             if Fraction(num, den) == Fraction(n)**k), None)
                assert ratio_exponent(num, den, n) == want, (num, den)

    @pytest.mark.parametrize("n", BASES)
    def test_trailing_zeros_counts_factors(self, n):
        for k in range(0, 6):
            for unit in (1, n + 1, 2 * n + 1):
                value = unit * n**k
                if unit % n == 0:
                    continue
                assert trailing_zeros(value, n) == k

    def test_trailing_zeros_rejects_zero(self):
        with pytest.raises(ValueError):
            trailing_zeros(0, 2)

    @pytest.mark.parametrize("n", (1, 0))
    def test_bases_below_two_are_rejected(self, n):
        for q in (Fraction(2), Fraction(1), Fraction(1, 2)):
            with pytest.raises(ValueError):
                power_exponent(q, n)
        with pytest.raises(ValueError):
            trailing_zeros(4, n)
        with pytest.raises(ValueError):
            ratio_exponent(2, 1, n)


class TestNAdicForm:
    @pytest.mark.parametrize("n", BASES)
    @given(data=st.data())
    def test_to_nadic_round_trip_and_canonical(self, n, data):
        q = data.draw(lattice_points(n))
        form = to_nadic(q, n)
        assert form is not None
        assert form.value == q
        assert form.base == n
        assert form.exponent >= 0
        if form.exponent > 0:
            assert form.mantissa % n != 0

    @pytest.mark.parametrize(
        "q,n",
        [
            (Fraction(1, 3), 2),
            (Fraction(1, 6), 2),
            (Fraction(1, 10), 3),
            (Fraction(2, 7), 5),
            (Fraction(1, 3), 10),
        ],
    )
    def test_to_nadic_off_lattice(self, q, n):
        assert to_nadic(q, n) is None
        assert not is_nadic(q, n)

    @pytest.mark.parametrize("n", BASES + (4, 6, 12))
    @given(numerator=st.integers(-10**6, 10**6),
           denominator=st.integers(1, 10**6) | st.builds(
               lambda a, e: a * 6**e, st.integers(1, 40), st.integers(0, 8)))
    def test_to_nadic_matches_the_fraction_loop(self, n, numerator, denominator):
        q = Fraction(numerator, denominator)
        expected = to_nadic_oracle(q, n)
        assert to_nadic(q, n) == expected
        assert is_nadic(q, n) is (expected is not None)

    @pytest.mark.parametrize("n", (1, 0, -2))
    @pytest.mark.parametrize("q", (Fraction(1, 3), Fraction(1, 2), Fraction(3), 0))
    def test_bases_below_two_are_rejected(self, n, q):
        for test in (is_nadic, to_nadic, digit_class):
            with pytest.raises(ValueError, match="base must be at least 2"):
                test(q, n)

    def test_nadic_validates_canonical_form(self):
        with pytest.raises(ValueError):
            NAdic(base=2, mantissa=2, exponent=1)  # reducible
        with pytest.raises(ValueError):
            NAdic(base=2, mantissa=1, exponent=-1)
        with pytest.raises(ValueError):
            NAdic(base=1, mantissa=1, exponent=0)
        assert NAdic(base=2, mantissa=4, exponent=0).value == 4


class TestDigitClass:
    @pytest.mark.parametrize("n", BASES)
    @given(data=st.data())
    def test_additive_homomorphism(self, n, data):
        a = data.draw(lattice_points(n))
        b = data.draw(lattice_points(n))
        lhs = digit_class(a + b, n)
        rhs = (digit_class(a, n) + digit_class(b, n)) % (n - 1) if n > 2 else 0
        assert lhs == rhs

    @pytest.mark.parametrize("n", BASES)
    @given(data=st.data())
    def test_multiplicative_homomorphism(self, n, data):
        a = data.draw(lattice_points(n))
        b = data.draw(lattice_points(n))
        lhs = digit_class(a * b, n)
        rhs = (digit_class(a, n) * digit_class(b, n)) % (n - 1) if n > 2 else 0
        assert lhs == rhs

    @pytest.mark.parametrize("n", BASES)
    def test_base_maps_to_one(self, n):
        assert digit_class(Fraction(n), n) == 1 % (n - 1)
        assert digit_class(Fraction(1, n), n) == 1 % (n - 1)

    def test_base_two_class_is_always_zero(self):
        for numerator in range(-20, 20):
            for exponent in range(0, 5):
                assert digit_class(Fraction(numerator, 2**exponent), 2) == 0

    def test_known_values_base_three(self):
        assert digit_class(Fraction(1, 3), 3) == 1
        assert digit_class(Fraction(2, 3), 3) == 0
        assert digit_class(Fraction(1), 3) == 1
        assert digit_class(Fraction(5, 9), 3) == 1

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            digit_class(Fraction(1, 3), 2)
        with pytest.raises(ValueError):
            digit_class(Fraction(1, 2), 3)


class TestCircleReduction:
    @pytest.mark.parametrize("r", (1, 2, 4, 9))
    @given(q=st.fractions(max_denominator=64))
    def test_reduce_lands_in_window_and_is_periodic(self, r, q):
        reduced = reduce_to_circle(q, r)
        assert 0 <= reduced < r
        assert (q - reduced) % r == 0
        assert reduce_to_circle(q + r, r) == reduced
        assert reduce_to_circle(q - 3 * r, r) == reduced


class TestKeepLastDigits:
    @staticmethod
    def draw_deep_mantissa(data, n: int, depth: int) -> int:
        """A mantissa coprime to n, below (n-1)*n**depth (exact exponent)."""
        upper = (n - 1) * n**depth
        head = data.draw(st.integers(0, upper // n - 1))
        tail = data.draw(st.integers(1, n - 1))
        return head * n + tail

    @pytest.mark.parametrize("n", (2, 3, 5))
    @given(data=st.data())
    def test_formula_on_deep_points(self, n, data):
        k = data.draw(st.integers(0, 4))
        extra = data.draw(st.integers(1, 3))
        mantissa = self.draw_deep_mantissa(data, n, k + extra)
        q = Fraction(mantissa, n ** (k + extra))
        kept = keep_last_digits(q, k, n).value
        assert kept == Fraction(mantissa % ((n - 1) * n**k), n**k)

    @pytest.mark.parametrize("n", (2, 3, 5))
    @given(data=st.data())
    def test_commutes_with_multiplication_map(self, n, data):
        """Dropping leading digits first or after multiplying by the base
        gives the same tail, provided the point is deeper than the window."""
        k = data.draw(st.integers(0, 3))
        extra = data.draw(st.integers(2, 4))
        mantissa = self.draw_deep_mantissa(data, n, k + extra)
        q = Fraction(mantissa, n ** (k + extra))
        image = reduce_to_circle(q * n, n - 1)
        kept_then_mapped = reduce_to_circle(
            keep_last_digits(q, k + 1, n).value * n, n - 1
        )
        assert keep_last_digits(image, k, n) == keep_last_digits(kept_then_mapped, k, n)

    def test_window_and_depth_validation(self):
        with pytest.raises(ValueError):
            keep_last_digits(Fraction(3, 2), 1, 2)  # outside the circle window
        with pytest.raises(ValueError):
            keep_last_digits(Fraction(1, 2), 2, 2)  # shallower than the window
        with pytest.raises(ValueError):
            keep_last_digits(Fraction(1, 3), 1, 2)  # off-lattice

    def test_depth_zero_keeps_nothing(self):
        assert keep_last_digits(Fraction(5, 8), 0, 2).value == 0
        assert keep_last_digits(Fraction(7, 9), 0, 3).value == Fraction(1)
