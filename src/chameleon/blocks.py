"""Prefix-block laws for halved integer sequences.

A sequence whose length is a power of two splits, for each prefix width
``w`` between 1 and ``log2(len)``, into ``2**w`` contiguous blocks, each
indexed by the ``w``-bit prefix of the positions it covers.  A block is
*even* or *odd* according to the last bit of its prefix.  Two facts tie
these blocks to constancy:

* the sequence is constant exactly when, at every width, every even
  block equals every odd block; and
* a chained schedule that compares only the two leading blocks at each
  width (one even/odd comparison per width) already detects every
  non-constant sequence.

This module provides the block decomposition, a per-sequence check of
both laws, and an exhaustive scan over all sequences of a given length
and alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from .errors import BadLength, BudgetExceeded

__all__ = [
    "PrefixBlock",
    "BlockLawReport",
    "ScanReport",
    "prefix_blocks",
    "verify_block_laws",
    "exhaustive_scan",
]


def _check_int(value, name: str) -> None:
    """Refuse a bool or a non-``int`` with ValueError; BadLength checks ranges."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _log2_length(count: int) -> int:
    """Return ``log2(count)`` for a power-of-two ``count``, else refuse."""
    if count < 1 or count & (count - 1):
        raise BadLength(f"sequence length must be a power of two, got {count}")
    return count.bit_length() - 1


@dataclass(frozen=True)
class PrefixBlock:
    """One contiguous block of a halved sequence.

    ``prefix`` is the block's index among the ``2**bits`` blocks, read as
    the shared ``bits``-bit position prefix; its last bit gives the
    block's parity tag.
    """

    prefix: int
    bits: int
    values: Tuple[int, ...]

    @property
    def parity(self) -> str:
        return "odd" if self.prefix & 1 else "even"


def prefix_blocks(values: Sequence[int], bits: int) -> Tuple[PrefixBlock, ...]:
    """Split ``values`` into ``2**bits`` equal contiguous blocks.

    The sequence length must be a power of two, and ``bits`` must lie in
    ``[1, log2(len(values))]``; block ``p`` covers positions
    ``[p * size, (p + 1) * size)`` where ``size = len(values) >> bits``.
    A ``bits`` that is a bool or not an ``int`` is refused with ValueError.
    """
    _check_int(bits, "prefix width")
    seq = tuple(values)
    depth = _log2_length(len(seq))
    if not 1 <= bits <= depth:
        raise BadLength(
            f"prefix width must lie in [1, {depth}] for length {len(seq)}, got {bits}"
        )
    size = len(seq) >> bits
    return tuple(
        PrefixBlock(prefix, bits, seq[prefix * size : (prefix + 1) * size])
        for prefix in range(1 << bits)
    )


@dataclass(frozen=True)
class BlockLawReport:
    """Outcome of the two block laws on a single sequence.

    ``constant``    -- every entry equals the first.
    ``universal``   -- at every prefix width, every even block equals
                       every odd block.
    ``existential`` -- at some width, some even block differs from some
                       odd block (the negation of ``universal``).
    ``chained``     -- at every width the two leading blocks agree.
    ``consistent``  -- ``universal`` and ``chained`` both coincide with
                       ``constant`` and ``existential`` with its negation,
                       as the laws assert they must.
    """

    constant: bool
    universal: bool
    existential: bool
    chained: bool

    @property
    def consistent(self) -> bool:
        return (
            self.universal == self.constant
            and self.existential == (not self.constant)
            and self.chained == self.constant
        )


def verify_block_laws(values: Sequence[int]) -> BlockLawReport:
    """Evaluate both block laws on one sequence of power-of-two length."""
    seq = tuple(values)
    depth = _log2_length(len(seq))
    constant = all(v == seq[0] for v in seq)
    universal = True
    for bits in range(1, depth + 1):
        blocks = prefix_blocks(seq, bits)
        evens = [b.values for b in blocks if b.parity == "even"]
        odds = [b.values for b in blocks if b.parity == "odd"]
        if not all(e == o for e in evens for o in odds):
            universal = False
            break
    chained = True
    for bits in range(1, depth + 1):
        size = len(seq) >> bits
        if seq[0:size] != seq[size : 2 * size]:
            chained = False
            break
    return BlockLawReport(constant, universal, not universal, chained)


@dataclass(frozen=True)
class ScanReport:
    """Result of an exhaustive law scan over one sequence shape.

    ``checked`` counts the sequences enumerated, ``nonconstant`` counts
    those that are not constant, and ``violations`` lists any sequences
    on which a law failed (always empty when the laws hold).
    """

    length: int
    alphabet: Tuple[int, ...]
    checked: int
    nonconstant: int
    violations: Tuple[Tuple[int, ...], ...]


MAX_SCAN_CANDIDATES = 2**20  # most candidate codes one exhaustive scan enumerates


def _truth_sets(length: int, base: int) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
    """Codes of ``length``-digit base-``base`` sequences on which each law holds.

    A sequence is identified with the integer whose base-``base`` digits,
    least significant first, are its entries.  Returns the sets of codes
    below ``base**length`` that are ``constant``, ``universal`` and
    ``chained``, in that order; ``length`` is a power of two of at least
    2 and ``base`` is positive.

    With ``H = base**(length // 2)``, every code is ``hi * H + lo`` with
    ``hi, lo < H``, and the two leading blocks agree at width 1 exactly
    when ``hi == lo``, that is for the ``H`` codes ``b * (H + 1)``.  All
    blocks are equal at width 1 on the same codes, and so are the
    constants ``c * repunit``, since ``repunit = (H + 1) * repunit(length
    // 2)``.  Every code on which a law holds is thus one of these
    candidates, and only they are tested, at every width:

    * a sequence is constant exactly when its code is a multiple of the
      repunit ``(base**length - 1) // (base - 1)``;
    * all ``2**bits`` blocks at one width are equal exactly when the code
      is ``b * T`` for a single block code ``b < base**size``, where ``T``
      is the block-tiling repunit ``(base**length - 1) // (base**size - 1)``;
    * the two leading blocks agree exactly when the code is congruent to
      its quotient by ``base**size`` modulo ``base**size``.

    Refuses with ``BudgetExceeded`` when ``H`` exceeds
    ``MAX_SCAN_CANDIDATES``, before any code is enumerated.
    """
    if base == 1:
        return frozenset({0}), frozenset({0}), frozenset({0})
    half = base ** (length // 2)
    if half > MAX_SCAN_CANDIDATES:
        raise BudgetExceeded(
            f"scan of length {length} over {base} symbols has {half} candidate codes, "
            f"budget is {MAX_SCAN_CANDIDATES}",
            limit=MAX_SCAN_CANDIDATES,
        )
    total = half * half
    repunit = (total - 1) // (base - 1)
    widths = []
    size = length
    while size > 1:
        size //= 2
        modulus = base**size
        widths.append((modulus, (total - 1) // (modulus - 1)))
    constant, universal, chained = set(), set(), set()
    for code in range(0, total, half + 1):
        if code % repunit == 0:
            constant.add(code)
        if all(code % tiling == 0 and code // tiling < modulus for modulus, tiling in widths):
            universal.add(code)
        if all((code // modulus) % modulus == code % modulus for modulus, _ in widths):
            chained.add(code)
    return frozenset(constant), frozenset(universal), frozenset(chained)


def _scan(length: int, base: int) -> Tuple[int, int, List[Tuple[int, ...]]]:
    """Tally both block laws over all ``base**length`` digit sequences.

    The laws are read off the exact truth sets of ``_truth_sets``, which
    enumerates only the ``base**(length // 2)`` codes whose two halves
    agree: on every other code ``constant``, ``universal`` and
    ``chained`` are all false, which agrees with the laws, so no other
    code can be a violation.  ``length`` is a power of two of at least 2
    and ``base`` is positive.  Returns ``(checked, nonconstant,
    violations)`` where violations are digit tuples (least significant
    position first), in ascending code order, on which a law disagreed
    with constancy.
    """
    constant, universal, chained = _truth_sets(length, base)
    checked = base**length
    violations: List[Tuple[int, ...]] = []
    for code in sorted((universal ^ constant) | (chained ^ constant)):
        digits = []
        for _ in range(length):
            digits.append(code % base)
            code //= base
        violations.append(tuple(digits))
    return checked, checked - len(constant), violations


def exhaustive_scan(length: int, alphabet: Sequence[int] = (-1, 0, 1)) -> ScanReport:
    """Verify both block laws on every sequence of ``length`` symbols.

    Covers all ``len(alphabet) ** length`` sequences over the given
    distinct symbols: evaluates ``constant``, ``universal`` and
    ``chained`` on each through their exact truth sets, and records any
    sequence where the laws disagree with constancy.  Returns the tally;
    ``violations`` is empty exactly when the laws hold over the whole
    shape.  Refuses with ``BudgetExceeded`` (``limit`` set to
    ``MAX_SCAN_CANDIDATES``) when ``len(alphabet) ** (length // 2)``
    exceeds that budget, with ``BadLength`` when ``length`` is not a power
    of two, and with ValueError when it is a bool or not an ``int``.
    """
    _check_int(length, "scan length")
    symbols = tuple(alphabet)
    if not symbols or len(set(symbols)) != len(symbols):
        raise ValueError("alphabet symbols must be nonempty and distinct")
    depth = _log2_length(length)
    if depth == 0:
        # Single-entry sequences are constant and admit no comparisons.
        return ScanReport(length, symbols, len(symbols), 0, ())
    checked, nonconstant, raw = _scan(length, len(symbols))
    violations = tuple(tuple(symbols[d] for d in digits) for digits in raw)
    return ScanReport(length, symbols, checked, nonconstant, violations)


def active_backend() -> str:
    """Name of the block-law scanner, for environment records.

    ``exhaustive_scan`` has one scanner, the exact truth-set scan in
    plain Python integers, so this is always ``"reference"``.
    """
    return "reference"
