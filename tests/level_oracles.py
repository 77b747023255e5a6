"""The exact ``Fraction`` level tower, kept as the oracle for the integer one.

``LevelChain`` refines levels as integer numerators over one denominator and
``Conjugator.check`` sweeps the lift's pieces once; these are the per-vertex
``Fraction`` versions they replaced.  ``refine`` measures each interval's
proportions on the level itself, where the chain uses the partition's slope
ratios, so the two agree exactly while the vertex law holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from chameleon.errors import NotMarkov
from chameleon.maps import PLCircleMap
from chameleon.markov import PartitionLevelTable


def standard_level_table(n: int, k: int) -> PartitionLevelTable:
    """Vertices i/n^k of the uniform base-n grid on the circle [0, n-1)."""
    if n < 2 or k < 0:
        raise ValueError("need base >= 2 and level >= 0")
    count = (n - 1) * n**k
    return PartitionLevelTable(
        level=k,
        values=tuple(Fraction((n - 1) * i, count) for i in range(count)),
        circumference=n - 1,
    )


def derive(table: PartitionLevelTable, g: PLCircleMap) -> PartitionLevelTable:
    """One refinement: insert the n-1 extra g-preimages inside each interval.

    Verifies the vertex permutation law g(T[N]) = T[n*N mod M] first and
    refuses with the failing index when the table is not g-compatible; also
    requires every breakpoint of g to be a table vertex already, so g is
    affine on each interval.
    """
    if g.circumference != table.circumference:
        raise ValueError("table and map live on different circles")
    value_set = set(table.values)
    for b in g.breakpoints:
        if b not in value_set:
            raise NotMarkov(f"map breaks at {b}, which is not a level-{table.level} vertex",
                            index=-1)
    witness = law_witness(table.values, g)
    if witness is not None:
        N, _, got = witness
        raise NotMarkov(f"vertex {N} maps to {got}, expected vertex "
                        f"{(g.degree * N) % len(table)}", index=N)
    return refine(table, g.degree)


def law_witness(vals, g: PLCircleMap) -> Optional[tuple]:
    """The first vertex N with g(T[N]) != T[n*N mod M], as (N, want, got),
    for the vertex values T of one level."""
    M = len(vals)
    for N in range(M):
        want, got = vals[(g.degree * N) % M], g.evaluate(vals[N])
        if got != want:
            return N, want, got
    return None


def refine(table: PartitionLevelTable, n: int) -> PartitionLevelTable:
    """Split each interval into n in the proportions of the n intervals its
    branch covers; no map is consulted."""
    vals = table.values
    M = len(vals)
    new_values = []
    for N in range(M):
        new_values.append(vals[N])
        length = table.interval_length(N)
        block = [table.interval_length((n * N + l) % M) for l in range(n)]
        span = sum(block)
        acc = Fraction(0)
        for l in range(n - 1):
            acc += block[l]
            new_values.append(vals[N] + length * acc / span)
    return PartitionLevelTable(level=table.level + 1, values=tuple(new_values),
                               circumference=table.circumference)
