"""Prefix-block laws: decomposition, per-sequence checks and exhaustive scans."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chameleon import blocks
from chameleon.blocks import (
    BlockLawReport,
    exhaustive_scan,
    prefix_blocks,
    verify_block_laws,
)
from chameleon.errors import BadLength, BudgetExceeded


def sliced_universal(seq, depth):
    """Oracle for the all-pairs law, by raw list slicing only."""
    for bits in range(1, depth + 1):
        size = len(seq) >> bits
        blocks = [list(seq[i:i + size]) for i in range(0, len(seq), size)]
        for even in blocks[0::2]:
            for odd in blocks[1::2]:
                if even != odd:
                    return False
    return True


power_of_two_sequences = st.integers(1, 4).flatmap(
    lambda depth: st.lists(
        st.integers(-2, 2), min_size=2**depth, max_size=2**depth
    )
)


class TestPrefixBlocks:
    def test_structure(self):
        seq = (5, 1, 4, 1, 5, 9, 2, 6)
        for bits in (1, 2, 3):
            blocks = prefix_blocks(seq, bits)
            assert len(blocks) == 2**bits
            size = len(seq) >> bits
            rebuilt = []
            for prefix, block in enumerate(blocks):
                assert block.prefix == prefix
                assert block.bits == bits
                assert block.values == seq[prefix * size:(prefix + 1) * size]
                assert block.parity == ("odd" if prefix % 2 else "even")
                rebuilt.extend(block.values)
            assert tuple(rebuilt) == seq

    def test_parity_alternates(self):
        blocks = prefix_blocks((0,) * 16, 3)
        assert [b.parity for b in blocks] == ["even", "odd"] * 4

    def test_width_bounds(self):
        with pytest.raises(BadLength):
            prefix_blocks((1, 2, 3, 4), 0)
        with pytest.raises(BadLength):
            prefix_blocks((1, 2, 3, 4), 3)
        # A bool is not taken for 1, nor 1.0 for 1.
        for bits in (True, 1.0, "1"):
            with pytest.raises(ValueError, match="prefix width must be an integer"):
                prefix_blocks((1, 2, 3, 4), bits)

    def test_length_must_be_a_power_of_two(self):
        with pytest.raises(BadLength):
            prefix_blocks((1, 2, 3), 1)
        with pytest.raises(BadLength):
            prefix_blocks((), 1)


class TestVerifyBlockLaws:
    def test_exhaustive_small_shapes(self):
        """Every sequence of lengths 4 and 8 over three symbols satisfies
        both laws, and the all-pairs flag matches the slicing oracle."""
        for length in (4, 8):
            depth = length.bit_length() - 1
            for seq in itertools.product((-1, 0, 1), repeat=length):
                report = verify_block_laws(seq)
                assert report.consistent
                assert report.universal == sliced_universal(seq, depth)
                assert report.constant == (len(set(seq)) == 1)
                assert report.existential == (not report.universal)

    @given(power_of_two_sequences)
    def test_random_sequences_are_consistent(self, seq):
        report = verify_block_laws(seq)
        assert report.consistent
        assert report.constant == (len(set(seq)) == 1)
        depth = len(seq).bit_length() - 1
        assert report.universal == sliced_universal(seq, depth)

    def test_single_entry_sequence(self):
        report = verify_block_laws([7])
        assert report.constant and report.universal and report.chained
        assert report.consistent

    def test_rejects_bad_lengths(self):
        with pytest.raises(BadLength):
            verify_block_laws([1, 2, 3])
        with pytest.raises(BadLength):
            verify_block_laws([])

    def test_report_shape(self):
        report = verify_block_laws((3, 3, 3, 3))
        assert isinstance(report, BlockLawReport)
        assert (report.constant, report.universal,
                report.existential, report.chained) == (True, True, False, True)


class TestExhaustiveScan:
    @pytest.mark.parametrize("length", (2, 4, 8))
    @pytest.mark.parametrize("alphabet", ((0, 1), (-1, 0, 1), (0, 1, 2, 3)))
    def test_tallies(self, length, alphabet):
        """Every sequence is checked, all but the constant ones are
        nonconstant, and no law fails."""
        report = exhaustive_scan(length, alphabet)
        assert report.checked == len(alphabet)**length
        assert report.nonconstant == report.checked - len(alphabet)
        assert report.violations == ()

    def test_full_depth_five_shape_reference(self):
        report = exhaustive_scan(16, (-1, 0, 1))
        assert report.checked == 3**16
        assert report.nonconstant == 3**16 - 3
        assert report.violations == ()

    def test_full_depth_five_shape_default(self):
        report = exhaustive_scan(16)
        assert report.alphabet == (-1, 0, 1)
        assert report.checked == 3**16
        assert report.nonconstant == 3**16 - 3
        assert report.violations == ()

    def test_single_entry_shape(self):
        report = exhaustive_scan(1, (-1, 0, 1))
        assert report.checked == 3
        assert report.nonconstant == 0
        assert report.violations == ()

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            exhaustive_scan(4, ())
        with pytest.raises(ValueError):
            exhaustive_scan(4, (1, 1))

    def test_length_validation(self):
        for length in (6, 0, -4):
            with pytest.raises(BadLength):
                exhaustive_scan(length)
        # A bool is not taken for 1, nor 2.0 for 2.
        for length in (True, False, 2.0, "2"):
            with pytest.raises(ValueError, match="scan length must be an integer"):
                exhaustive_scan(length, (0, 1))

    def test_tallies_match_brute_force(self):
        """Independently recount constants and violations for one shape."""
        report = exhaustive_scan(4, (0, 1, 2))
        seen = nonconstant = 0
        for seq in itertools.product((0, 1, 2), repeat=4):
            seen += 1
            if len(set(seq)) > 1:
                nonconstant += 1
            assert verify_block_laws(seq).consistent
        assert (seen, nonconstant) == (report.checked, report.nonconstant)


class TestTruthSets:
    @pytest.mark.parametrize("length", (2, 4, 8))
    @pytest.mark.parametrize("base", (2, 3, 4))
    def test_match_per_sequence_laws(self, length, base):
        """The codes on which each law holds are exactly those of the
        sequences on which ``verify_block_laws`` finds it holds."""
        want = (set(), set(), set())
        for seq in itertools.product(range(base), repeat=length):
            code = sum(digit * base**i for i, digit in enumerate(seq))
            report = verify_block_laws(seq)
            for found, holds in zip(want, (report.constant, report.universal,
                                           report.chained)):
                if holds:
                    found.add(code)
        assert blocks._truth_sets(length, base) == want

    def test_single_symbol(self):
        assert blocks._truth_sets(8, 1) == ({0}, {0}, {0})

    def test_violations_are_reported_in_code_order(self, monkeypatch):
        """A code in a law's truth set but not among the constants is a
        violation, spelled in the alphabet, least significant entry first."""
        monkeypatch.setattr(blocks, "_truth_sets",
                            lambda length, base: ({0}, {0, 5}, {0, 1}))
        report = exhaustive_scan(4, ("a", "b", "c"))
        assert report.checked == 81
        assert report.nonconstant == 80
        assert report.violations == (("b", "a", "a", "a"), ("c", "b", "a", "a"))

    def test_oversized_shapes_are_refused_up_front(self):
        with pytest.raises(BudgetExceeded) as info:
            exhaustive_scan(16, range(6))  # 6**8 candidate codes
        assert info.value.limit == blocks.MAX_SCAN_CANDIDATES == 2**20

    def test_budget_counts_candidate_codes(self, monkeypatch):
        monkeypatch.setattr(blocks, "MAX_SCAN_CANDIDATES", 81)
        assert exhaustive_scan(8, range(3)).checked == 3**8
        with pytest.raises(BudgetExceeded) as info:
            exhaustive_scan(8, range(4))
        assert info.value.limit == 81


class TestLazyNumpy:
    def test_package_import_leaves_numpy_unloaded(self):
        """Neither importing the package nor scanning loads numpy: the
        package has no third-party runtime dependency."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "import chameleon\n"
             "print('numpy' in sys.modules)\n"
             "r = chameleon.exhaustive_scan(8, (-1, 0, 1))\n"
             "print(r.checked, len(r.violations))\n"
             "print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.split() == ["False", "6561", "0", "False"]
