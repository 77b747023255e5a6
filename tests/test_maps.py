"""Piecewise-affine circle and line maps: algebra, break values, classification."""

from __future__ import annotations

import bisect
import random
from fractions import Fraction

import pytest

from chameleon.breaks import pl_criterion
from chameleon.conjugacy import partition_from_expanding_map
from chameleon.errors import BudgetExceeded, NotAPowerRatio, ParseError
from chameleon.exact import reduce_to_circle
from chameleon.interpolate import interpolate_line, random_dyadic_homeomorphism
from chameleon.maps import (
    AffinePiece,
    EndTranslations,
    PLCircleMap,
    PLLineMap,
    break_value,
    classify,
    coset_shift,
    map_from_dict,
    map_to_dict,
    multiplication_map,
    orbit,
    sum_of_breaks,
)
from conftest import circle_map_data

F = Fraction


def random_circle_map(rng: random.Random) -> PLCircleMap:
    """A random dyadic circle homeomorphism, sometimes composed with others."""
    h = random_dyadic_homeomorphism(rng, max_breaks=5, grid_exponent=4)
    if rng.random() < 0.5:
        h = h.compose(PLCircleMap.rotation(1, F(rng.randrange(0, 16), 16)))
    return h


def random_dyadics(rng: random.Random, count: int):
    return [F(rng.randrange(0, 2**7), 2**7) for _ in range(count)]


# Reference for PLCircleMap's stored lift: walks the window again on every
# call and evaluates un-normalised constructor data directly.


def reference_window_values(bs, ss, value0):
    """Lift values at each boundary over the window starting at bs[0]."""
    values = [value0]
    for i in range(len(bs) - 1):
        values.append(values[-1] + ss[i] * (bs[i + 1] - bs[i]))
    return values


def reference_eval_raw(bs, ss, values, x, r, d):
    """Evaluate un-normalised data at a circle point x in [0, r)."""
    shifted = x < bs[0]
    lifted = x + r if shifted else x
    i = bisect.bisect_right(bs, lifted) - 1
    value = values[i] + ss[i] * (lifted - bs[i])
    return value - d * r if shifted else value


def reference_canonical_form(r, d, bs, ss, value_at_first):
    """(boundaries, slopes, value_at_first) after merging and anchoring."""
    values = reference_window_values(bs, ss, reduce_to_circle(value_at_first, r))
    keep = [i for i in range(len(bs)) if ss[i] != ss[i - 1]]
    if not keep:
        anchor = reference_eval_raw(bs, ss, values, F(0), r, d)
        return (F(0),), (F(d),), reduce_to_circle(anchor, r)
    new_bs = tuple(bs[i] for i in keep)
    new_ss = tuple(ss[i] for i in keep)
    new_v0 = reference_eval_raw(bs, ss, values, new_bs[0], r, d)
    return new_bs, new_ss, reduce_to_circle(new_v0, r)


def reference_lift_piece(r, d, bs, ss, value0, x) -> AffinePiece:
    """The branch of the canonical lift owning the real point x."""
    k = (x - bs[0]) // r
    window_x = x - k * r
    values = reference_window_values(bs, ss, value0)
    i = bisect.bisect_right(bs, window_x) - 1
    s = ss[i]
    return AffinePiece(s, values[i] - s * bs[i] + k * r * (d - s))


def reference_window_pieces(r, bs, ss, value0):
    values = reference_window_values(bs, ss, value0)
    ends = bs[1:] + (bs[0] + r,)
    return [(b, e, AffinePiece(s, v - s * b))
            for b, e, s, v in zip(bs, ends, ss, values)]


def random_raw_circle_data(rng: random.Random):
    """Valid, often un-normalised constructor arguments on an 1/8 grid.

    Some slopes repeat across a boundary (redundant boundaries), some maps are
    break-free with a first boundary above 0, and the value at the first
    boundary ranges over several circumferences.
    """
    r = rng.randint(1, 3)
    d = rng.randint(1, 3)
    grid = [F(j, 8) for j in range(8 * r)]
    bs = sorted(rng.sample(grid, rng.randint(1, min(5, len(grid)))))
    gaps = [b2 - b1 for b1, b2 in zip(bs, bs[1:])] + [bs[0] + r - bs[-1]]
    if rng.random() < 0.25:
        weights = [F(1)] * len(bs)  # break-free: every slope equals d
    else:
        weights = [F(rng.randint(1, 4), rng.choice((1, 2))) for _ in bs]
        for i in range(1, len(bs)):
            if rng.random() < 0.3:
                weights[i] = weights[i - 1]  # a redundant boundary
    scale = d * r / sum(w * g for w, g in zip(weights, gaps))
    ss = [w * scale for w in weights]
    value_at_first = F(rng.randrange(-48 * r, 48 * r), 16)
    return r, d, tuple(bs), tuple(ss), value_at_first


# References for PLCircleMap.compose and invert: the candidate-set compose,
# which collects inner's boundaries and every preimage of an outer break,
# sorts them and evaluates both maps at each, and the inverse read off
# evaluate and right_slope.  Both build through the validated constructor.


def reference_compose(outer: PLCircleMap, inner: PLCircleMap) -> PLCircleMap:
    r = outer.circumference
    candidates = set(inner.boundaries)
    outer_breaks = outer.breakpoints or (outer.boundaries[0],)
    for start, end, branch in inner.window_pieces():
        lo, hi = branch(start), branch(end)
        for beta in outer_breaks:
            k = (lo - beta) // r
            if beta + k * r < lo:
                k += 1
            while beta + k * r < hi:
                x = (beta + k * r - branch.intercept) / branch.slope
                candidates.add(reduce_to_circle(x, r))
                k += 1
    bs = sorted(candidates)
    ss = []
    for b in bs:
        inner_s = inner.right_slope(b)
        ss.append(inner_s * outer.right_slope(inner.evaluate(b)))
    value0 = outer.evaluate(inner.evaluate(bs[0]))
    return PLCircleMap(r, outer.degree * inner.degree, tuple(bs), tuple(ss), value0)


def reference_invert(m: PLCircleMap) -> PLCircleMap:
    pairs = sorted((m.evaluate(b), 1 / m.right_slope(b), b) for b in m.boundaries)
    return PLCircleMap(m.circumference, 1, tuple(v for v, _, _ in pairs),
                       tuple(s for _, s, _ in pairs), pairs[0][2])


def raw_circle_pair(rng: random.Random):
    """Two validated maps from random raw data of one circumference."""
    r, *outer = random_raw_circle_data(rng)
    while True:
        r2, *inner = random_raw_circle_data(rng)
        if r2 == r:
            return PLCircleMap(r, *outer), PLCircleMap(r, *inner)


def roundtrip_maps(seed: int):
    """(h, g, rebuilt) of one roundtrip: g = h(2x)h^-1 and the conjugator
    that the PL criterion rebuilds from g's recovered partition."""
    rng = random.Random(seed)
    h = random_dyadic_homeomorphism(rng, max_breaks=8, grid_exponent=5)
    g = reference_compose(reference_compose(h, multiplication_map(2)),
                          reference_invert(h))
    verdict = pl_criterion(g, partition_from_expanding_map(g))
    assert verdict.is_pl
    return h, g, verdict.conjugator


class TestStoredLift:
    """The lift kept at construction agrees with the former per-call walk."""

    @staticmethod
    def sample_points(r, raw_bs, m):
        points = set(raw_bs) | set(m.boundaries)
        ends = m.boundaries[1:] + (m.boundaries[0] + r,)
        points |= {(a + b) / 2 for a, b in zip(m.boundaries, ends)}
        points |= {(a + b) / 2 for a, b in zip(raw_bs, raw_bs[1:] + (raw_bs[0] + r,))}
        points |= {F(0), F(r) - F(1, 1000), F(1, 3)}
        return sorted(points | {x + k * r for x in points for k in (-2, -1, 1, 3)})

    def check_against_reference(self, r, d, bs, ss, value_at_first):
        m = PLCircleMap(r, d, bs, ss, value_at_first)
        cbs, css, cv0 = reference_canonical_form(r, d, bs, ss, value_at_first)
        assert (m.boundaries, m.slopes, m.value_at_first) == (cbs, css, cv0)
        assert list(m.window_pieces()) == reference_window_pieces(r, cbs, css, cv0)
        raw_values = reference_window_values(bs, ss, reduce_to_circle(value_at_first, r))
        for x in self.sample_points(r, bs, m):
            piece = reference_lift_piece(r, d, cbs, css, cv0, x)
            assert m.right_slope(x) == piece.slope
            assert m.lift_value(x) == piece(x)
            circle_x = reduce_to_circle(x, r)
            raw_image = reference_eval_raw(bs, ss, raw_values, circle_x, r, d)
            assert m.evaluate(x) == reduce_to_circle(raw_image, r)
            assert m.evaluate(x) == reduce_to_circle(piece(x), r)

    def test_seeded_raw_data_matches_reference(self):
        rng = random.Random(2024)
        for _ in range(150):
            self.check_against_reference(*random_raw_circle_data(rng))

    def test_redundant_boundaries(self):
        # Slope 1 on [0, 1/2) split at 1/4; slope 3 on [1/2, 1) split at 3/4.
        bs = (F(0), F(1, 4), F(1, 2), F(3, 4))
        ss = (F(1), F(1), F(3), F(3))
        self.check_against_reference(1, 2, bs, ss, F(5, 8))
        m = PLCircleMap(1, 2, bs, ss, F(5, 8))
        assert m.boundaries == (F(0), F(1, 2))

    def test_break_free_data_with_positive_first_boundary(self):
        bs = (F(1, 4), F(3, 2))
        ss = (F(3), F(3))
        self.check_against_reference(2, 3, bs, ss, F(1, 8))
        m = PLCircleMap(2, 3, bs, ss, F(1, 8))
        # F(0) = F(1/4) - 3 * 1/4, reduced to [0, 2).
        assert (m.boundaries, m.slopes, m.value_at_first) == ((F(0),), (F(3),), F(11, 8))

    def test_value_at_first_outside_the_circle(self):
        bs = (F(1, 8), F(5, 8))
        ss = (F(1, 2), F(3, 2))
        for value in (F(-17, 4), F(7), F(3, 2) - 5):
            self.check_against_reference(1, 1, bs, ss, value)
        assert PLCircleMap(1, 1, bs, ss, F(-17, 4)).value_at_first == F(3, 4)


class TestEvaluate:
    """``evaluate`` reduces once, bisects once and does one multiply-add;
    the reduced lift value is the oracle."""

    @staticmethod
    def oracle(m, x):
        r = m.circumference
        return reduce_to_circle(m.lift_value(reduce_to_circle(x, r)), r)

    @staticmethod
    def maps():
        rng = random.Random(1507)
        found = [PLCircleMap(*random_raw_circle_data(rng)[:4], F(rng.randrange(-40, 40), 8))
                 for _ in range(60)]
        found += [multiplication_map(2), multiplication_map(3), multiplication_map(4, 2),
                  PLCircleMap.identity(2), PLCircleMap.rotation(3, F(7, 4))]
        for _ in range(6):
            h = random_circle_map(rng)
            found += [h, h.compose(multiplication_map(2)).compose(h.invert())]
        # Degree 2 with its first boundary above 0 and a value wrapping past r.
        found.append(PLCircleMap(1, 2, (F(1, 4), F(3, 4)), (F(1), F(3)), F(7, 8)))
        return found

    def test_matches_the_reduced_lift(self):
        maps = self.maps()
        assert any(m.boundaries[0] > 0 and m.degree > 1 for m in maps)
        assert any(m.piece_count == 1 for m in maps)
        for m in maps:
            r, bs = m.circumference, m.boundaries
            ends = bs[1:] + (bs[0] + r,)
            points = set(bs) | {(a + b) / 2 for a, b in zip(bs, ends)}
            points |= {bs[0] / 2, F(0), r - F(1, 1000), F(1, 3)}
            points |= {x + k * r for x in set(points) for k in (-3, -1, 1, 2)}
            for x in sorted(points):
                got = m.evaluate(x)
                assert type(got) is Fraction and 0 <= got < r
                assert got == self.oracle(m, x)

    def test_int_and_str_inputs(self):
        for m in self.maps():
            r = m.circumference
            for x in (0, 1, r, -1, -r - 1, 2 * r + 1):
                assert m.evaluate(x) == self.oracle(m, F(x))
                assert type(m.evaluate(x)) is Fraction
            for text in ("1/3", "-5/8", f"{4 * r + 1}/4", " 7/16 "):
                assert m.evaluate(text) == self.oracle(m, F(text.strip()))


class TestConstructors:
    def test_multiplication_map_doubles_on_unit_circle(self):
        nu = multiplication_map(2)
        assert nu.circumference == 1
        assert nu.degree == 2
        assert nu.piece_count == 1
        assert nu.breakpoints == ()
        assert nu.evaluate(F(3, 8)) == F(3, 4)
        assert nu.evaluate(F(5, 8)) == F(1, 4)

    def test_multiplication_map_base_three(self):
        nu = multiplication_map(3)
        assert nu.circumference == 2
        assert nu.evaluate(F(5, 3)) == F(1)
        assert nu.evaluate(F(1)) == F(1)

    def test_multiplication_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            multiplication_map(1)

    def test_identity_and_rotation(self):
        ident = PLCircleMap.identity(1)
        rot = PLCircleMap.rotation(1, F(1, 4))
        assert ident.evaluate(F(1, 3)) == F(1, 3)
        assert rot.evaluate(F(7, 8)) == F(1, 8)
        assert rot.degree == 1
        assert PLCircleMap.rotation(1, F(0)) == ident

    def test_iterate_matches_degree_powers(self):
        nu = multiplication_map(2)
        assert nu.iterate(3) == multiplication_map(8, circumference=1)
        assert nu.iterate(1) == nu
        with pytest.raises(ValueError):
            nu.iterate(0)

    def test_lift_is_equivariant(self):
        nu = multiplication_map(2)
        for x in (F(0), F(1, 4), F(7, 8)):
            assert nu.lift_value(x + 1) == nu.lift_value(x) + nu.degree

    def test_line_affine_and_profile(self):
        f = PLLineMap.affine(F(2), F(1, 2))
        assert f.evaluate(F(3, 4)) == F(2)
        g = PLLineMap.from_profile([F(0), F(1)], [F(1), F(2), F(1)], F(0), F(0))
        assert g.evaluate(F(-1)) == F(-1)
        assert g.evaluate(F(1, 2)) == F(1)
        assert g.evaluate(F(2)) == F(3)

    @pytest.mark.parametrize("circumference, degree", [
        (True, True), (1, 2.0), (1.0, 2), (F(1), 2), (1, F(2)), ("1", 2), (1, True),
    ])
    def test_circle_sizes_must_be_plain_integers(self, circumference, degree):
        with pytest.raises(ValueError):
            PLCircleMap(circumference, degree, (F(0),), (F(degree),), F(0))

    def test_positive_slopes_required(self):
        with pytest.raises(ValueError):
            PLLineMap.affine(F(-1), F(0))
        with pytest.raises(ValueError):
            PLLineMap.affine(F(0), F(0))


class TestCanonicalForm:
    def test_redundant_boundary_is_normalised_away(self):
        plain = multiplication_map(2)
        padded = PLCircleMap(1, 2, (F(0), F(1, 2)), (F(2), F(2)), F(0))
        assert padded == plain
        assert padded.piece_count == 1

    def test_dict_round_trip_preserves_equality(self):
        rng = random.Random(11)
        for _ in range(10):
            m = random_circle_map(rng)
            clone = map_from_dict(map_to_dict(m))
            assert clone == m
            assert map_to_dict(clone) == map_to_dict(m)

    def test_circle_dict_without_pieces_is_malformed(self):
        with pytest.raises(ParseError):
            map_from_dict({"space": "circle", "circumference": 1, "degree": 2,
                           "pieces": []})

    @pytest.mark.parametrize("field, value", [
        ("circumference", 1.5), ("degree", 2.9), ("circumference", "1"),
        ("circumference", True),
    ])
    def test_circle_dict_with_a_non_integer_size_is_malformed(self, field, value):
        data = map_to_dict(multiplication_map(2))
        data[field] = value
        with pytest.raises(ParseError):
            map_from_dict(data)

    def test_circle_dict_with_a_redundant_boundary(self):
        """The pieces are checked as given, so a split piece is accepted and
        merged."""
        data = {"space": "circle", "circumference": 1, "degree": 1, "pieces": [
            {"start": "0", "slope": "1/2", "intercept": "0"},
            {"start": "1/4", "slope": "1/2", "intercept": "0"},
            {"start": "1/2", "slope": "3/2", "intercept": "-1/2"},
        ]}
        m = map_from_dict(data)
        assert m == PLCircleMap(1, 1, (F(0), F(1, 2)), (F(1, 2), F(3, 2)), F(0))

    def test_circle_dict_discontinuous_after_a_merge(self):
        """A jump between pieces of one slope is refused, though merging the
        pieces would hide it."""
        data = {"space": "circle", "circumference": 1, "degree": 1, "pieces": [
            {"start": "0", "slope": "1", "intercept": "0"},
            {"start": "1/4", "slope": "1", "intercept": "0"},
            {"start": "1/2", "slope": "1", "intercept": "5"},
        ]}
        with pytest.raises(ParseError, match="piece at 1/2 is discontinuous"):
            map_from_dict(data)

    def test_line_dict_round_trip(self):
        f = PLLineMap.from_profile([F(0), F(1)], [F(1), F(2), F(1)], F(0), F(0))
        assert map_from_dict(map_to_dict(f)) == f

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_line_dict_with_a_non_bool_orientation_is_malformed(self, value):
        f = PLLineMap.from_profile([F(0), F(1)], [F(1), F(2), F(1)], F(0), F(0))
        data = dict(map_to_dict(f), reversed=value)
        with pytest.raises(ParseError, match="reversed true or false"):
            map_from_dict(data)

    @pytest.mark.parametrize("field,value", [
        # Iterated character by character, "12" would read as breakpoints 1, 2.
        ("breakpoints", "12"),
        ("pieces", {"slope": "1", "intercept": "0"}),
    ])
    def test_line_dict_with_non_list_fields_is_malformed(self, field, value):
        f = PLLineMap.from_profile([F(1), F(2)], [F(1), F(2), F(1)], F(0), F(0))
        data = dict(map_to_dict(f), **{field: value})
        with pytest.raises(ParseError, match="breakpoints and pieces must be lists"):
            map_from_dict(data)


class TestCompositionAlgebra:
    def test_compose_evaluates_outer_after_inner(self):
        rng = random.Random(23)
        for _ in range(25):
            outer, inner = random_circle_map(rng), random_circle_map(rng)
            composed = outer.compose(inner)
            for x in random_dyadics(rng, 8):
                assert composed.evaluate(x) == outer.evaluate(inner.evaluate(x))

    def test_compose_with_noninvertible_model(self):
        rng = random.Random(29)
        nu = multiplication_map(2)
        for _ in range(10):
            h = random_circle_map(rng)
            conjugate = h.compose(nu).compose(h.invert())
            assert conjugate.degree == 2
            for x in random_dyadics(rng, 6):
                assert conjugate.evaluate(x) == h.evaluate(
                    nu.evaluate(h.invert().evaluate(x))
                )

    def test_invert_is_an_involution(self):
        rng = random.Random(37)
        for _ in range(15):
            h = random_circle_map(rng)
            assert h.invert().invert() == h
            assert h.compose(h.invert()) == PLCircleMap.identity(1)
            assert h.invert().compose(h) == PLCircleMap.identity(1)

    def test_line_compose_and_invert(self):
        f = PLLineMap.from_profile([F(0), F(1)], [F(1), F(2), F(1)], F(0), F(0))
        g = PLLineMap.affine(F(2), F(-1))
        composed = f.compose(g)
        for x in (F(-2), F(0), F(3, 4), F(5, 2)):
            assert composed.evaluate(x) == f.evaluate(g.evaluate(x))
        assert f.invert().compose(f) == PLLineMap.identity()


class TestMergeCompose:
    """The merge-sweep compose and the lift-read invert against the
    references, on everything they store."""

    def test_seeded_raw_pairs_match_reference(self):
        rng = random.Random(909)
        for _ in range(400):
            outer, inner = raw_circle_pair(rng)
            for a, b in ((outer, inner), (inner, outer), (outer, outer)):
                assert circle_map_data(a.compose(b)) == circle_map_data(
                    reference_compose(a, b))

    @pytest.mark.parametrize("seed", range(16))
    def test_roundtrip_pairs_match_reference(self, seed):
        h, g, rebuilt = roundtrip_maps(seed)
        nu = multiplication_map(2)
        h_nu = h.compose(nu)
        pairs = ((h, nu), (h_nu, h.invert()), (rebuilt, nu), (g, rebuilt))
        for outer, inner in pairs:
            assert circle_map_data(outer.compose(inner)) == circle_map_data(
                reference_compose(outer, inner))
        assert circle_map_data(h_nu.compose(h.invert())) == circle_map_data(g)

    @pytest.mark.parametrize("inner", [
        # Piece ends 1/4 and 1 (the lift at the boundary 1/2, and one lap).
        PLCircleMap(1, 1, (F(0), F(1, 2)), (F(1, 2), F(3, 2)), F(0)),
        # Degree 2: piece ends 1/2 and 2, past the first lap.
        PLCircleMap(1, 2, (F(0), F(1, 2)), (F(1), F(3)), F(0)),
        # The first piece starts on an outer boundary.
        PLCircleMap.rotation(1, F(1, 4)),
        PLCircleMap(1, 1, (F(1, 8), F(5, 8)), (F(1, 2), F(3, 2)), F(1, 4)),
    ])
    def test_outer_boundary_on_an_inner_piece_end(self, inner):
        outer = PLCircleMap(1, 1, (F(0), F(1, 4), F(1, 2)), (F(2), F(1), F(1, 2)),
                            F(0))
        lifted_breaks = {b + k for b in outer.boundaries for k in range(3)}
        assert lifted_breaks & {piece(end) for _, end, piece in inner.window_pieces()}
        composite = outer.compose(inner)
        assert circle_map_data(composite) == circle_map_data(
            reference_compose(outer, inner))
        assert list(composite.boundaries) == sorted(set(composite.boundaries))
        for x in [F(j, 16) for j in range(16)]:
            assert composite.evaluate(x) == outer.evaluate(inner.evaluate(x))

    def test_break_free_composites(self):
        nu = multiplication_map(3, circumference=2)
        rotation = PLCircleMap.rotation(2, F(3, 4))
        for outer, inner in ((nu, rotation), (rotation, nu), (nu, nu)):
            composite = outer.compose(inner)
            assert composite.breakpoints == ()
            assert circle_map_data(composite) == circle_map_data(
                reference_compose(outer, inner))

    def test_invert_matches_validated_constructor(self):
        rng = random.Random(911)
        maps = [random_circle_map(rng) for _ in range(40)]
        maps += [h for seed in range(3) for h in roundtrip_maps(seed)[::2]]
        while len(maps) < 200:
            r, d, *data = random_raw_circle_data(rng)
            if d == 1:
                maps.append(PLCircleMap(r, d, *data))
        for m in maps:
            assert circle_map_data(m.invert()) == circle_map_data(reference_invert(m))

    def test_no_validation_or_evaluation(self, circle_map_calls):
        h, g, rebuilt = roundtrip_maps(0)
        nu = multiplication_map(2)
        circle_map_calls.clear()
        h.compose(nu).compose(h.invert())
        g.compose(rebuilt)
        rebuilt.compose(nu)
        g.iterate(2)
        assert circle_map_calls == []


class TestBreakValues:
    def test_smooth_maps_have_zero_breaks_everywhere(self):
        nu = multiplication_map(2)
        for x in (F(0), F(1, 3), F(5, 8)):
            assert break_value(nu, x) == 0

    def test_chain_rule_on_random_pairs(self):
        rng = random.Random(41)
        for _ in range(40):
            outer, inner = random_circle_map(rng), random_circle_map(rng)
            composed = outer.compose(inner)
            probes = set(inner.breakpoints)
            inner_inverse = inner.invert()
            probes.update(inner_inverse.evaluate(b) for b in outer.breakpoints)
            probes.update(random_dyadics(rng, 4))
            for x in probes:
                assert break_value(composed, x) == break_value(
                    inner, x
                ) + break_value(outer, inner.evaluate(x))

    def test_inverse_negates_break_values(self):
        rng = random.Random(43)
        for _ in range(20):
            h = random_circle_map(rng)
            inverse = h.invert()
            for x in h.breakpoints:
                assert break_value(inverse, h.evaluate(x)) == -break_value(h, x)

    def test_sum_of_breaks_vanishes(self):
        rng = random.Random(47)
        for _ in range(25):
            assert sum_of_breaks(random_circle_map(rng)) == 0

    def test_sum_of_breaks_vanishes_on_examples(self, examples):
        for _, g, _ in examples.values():
            assert sum_of_breaks(g) == 0

    def test_line_break_values_need_explicit_base(self):
        f = PLLineMap.from_profile([F(0)], [F(1), F(4)], F(0), F(0))
        with pytest.raises(ValueError):
            break_value(f, F(0))
        assert break_value(f, F(0), 2) == 2
        assert break_value(f, F(0), 4) == 1
        assert sum_of_breaks(f, 2) == 2

    def test_non_power_ratio_is_refused(self):
        f = PLLineMap.from_profile([F(0)], [F(1), F(3, 2)], F(0), F(0))
        with pytest.raises(NotAPowerRatio):
            break_value(f, F(0), 2)


class TestOrbits:
    def test_orbit_enters_cycle(self):
        nu = multiplication_map(2)
        result = orbit(nu, F(1, 6))
        assert result.prefix == (F(1, 6),)
        assert result.cycle == (F(1, 3), F(2, 3))
        assert result.points == (F(1, 6), F(1, 3), F(2, 3))

    def test_orbit_at_fixed_point(self):
        nu = multiplication_map(2)
        result = orbit(nu, F(0))
        assert result.prefix == ()
        assert result.cycle == (F(0),)

    def test_orbit_transient_into_fixed_point(self):
        nu = multiplication_map(2)
        result = orbit(nu, F(5, 16))
        assert result.prefix == (F(5, 16), F(5, 8), F(1, 4), F(1, 2))
        assert result.cycle == (F(0),)

    def test_orbit_respects_step_budget(self):
        nu = multiplication_map(2)
        with pytest.raises(BudgetExceeded) as info:
            orbit(nu, F(1, 2**40), max_steps=5)
        assert info.value.limit == 5
        assert info.value.partial[0] == F(1, 2**40)
        assert len(info.value.partial) == 6  # the start plus five steps


class TestClassification:
    def test_model_map_is_local_homeomorphism_only(self):
        report = classify(multiplication_map(2), 2)
        assert report.space == "circle"
        assert report.base == 2
        assert report.items == (True, True, True, True, True)
        assert report.satisfies_all
        assert report.group_tags == frozenset({"Tbar_n_r"})

    def test_random_homeomorphisms_are_invertible_members(self):
        rng = random.Random(53)
        for _ in range(10):
            h = random_dyadic_homeomorphism(rng, max_breaks=5, grid_exponent=4)
            report = classify(h, 2)
            assert report.satisfies_all
            assert report.group_tags == frozenset({"Tbar_n_r", "T_n_r", "BT_n_r"})

    def test_off_lattice_rotation_fails_preservation(self):
        report = classify(PLCircleMap.rotation(1, F(1, 3)), 2)
        assert report.items == (True, True, True, True, False)
        assert not report.satisfies_all
        assert report.group_tags == frozenset()

    def test_unit_rotation_base_three_misses_zero_class(self):
        report = classify(PLCircleMap.rotation(2, F(1)), 3)
        assert report.group_tags == frozenset({"Tbar_n_r", "T_n_r"})

    def test_line_identity_carries_every_line_tag(self):
        report = classify(PLLineMap.identity(), 3)
        assert report.space == "line"
        assert report.group_tags == frozenset({"PL_n", "BPL_n", "F_n", "Aff_n"})
        assert report.end_translations == EndTranslations(F(0), F(0))

    def test_affine_map_is_single_branch_only(self):
        report = classify(PLLineMap.affine(F(3), F(2)), 3)
        assert report.group_tags == frozenset({"PL_n", "Aff_n"})
        assert report.end_translations is None

    def test_translations_need_multiples_of_base_minus_one(self):
        by_two = classify(PLLineMap.affine(F(1), F(2)), 3)
        by_one = classify(PLLineMap.affine(F(1), F(1)), 3)
        assert "F_n" in by_two.group_tags
        assert "F_n" not in by_one.group_tags

    def test_interpolants_are_boundedly_supported(self):
        f = interpolate_line(3, [F(0), F(2, 3)], [F(0), F(2)])
        report = classify(f, 3)
        assert report.group_tags == frozenset({"PL_n", "BPL_n", "F_n"})
        assert report.end_translations == EndTranslations(F(0), F(0))
        assert report.coset_shift == 0


class TestCosetShift:
    def test_translation_classes_base_three(self):
        for amount in range(-4, 5):
            f = PLLineMap.affine(F(1), F(amount))
            assert coset_shift(f, 3) == amount % 2

    def test_shift_adds_under_composition(self):
        rng = random.Random(59)
        pool = [
            PLLineMap.affine(F(1), F(a)) for a in range(-3, 4)
        ] + [
            PLLineMap.affine(F(3), F(2)),
            PLLineMap.affine(F(1, 3), F(4, 3)),
            interpolate_line(3, [F(0), F(2, 3)], [F(0), F(2)]),
        ]
        for _ in range(30):
            f, g = rng.choice(pool), rng.choice(pool)
            assert coset_shift(f.compose(g), 3) == (
                coset_shift(f, 3) + coset_shift(g, 3)
            ) % 2

    def test_inverse_negates_shift(self):
        f = PLLineMap.affine(F(1), F(1))
        assert coset_shift(f.invert(), 3) == (-coset_shift(f, 3)) % 2
