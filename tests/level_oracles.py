"""The exact ``Fraction`` partition data and level tower, kept as the oracle
for the integer ones.

``AffineMarkovPartition`` keeps its weights as integers and forms its cut
points and slopes on first read, and ``build_expanding_map`` tests one slope
per run between breaks; ``eager_endpoints``, ``eager_slopes`` and
``build_by_interval`` are the per-interval ``Fraction`` versions they
replaced.  ``LevelChain`` refines levels as integer numerators over one
denominator and ``Conjugator.check`` sweeps the lift's pieces once; the rest
are the per-vertex ``Fraction`` versions those replaced.  ``refine`` measures
each interval's proportions on the level itself, where the chain uses the
partition's slope ratios, so the two agree exactly while the vertex law
holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from chameleon.errors import (
    BudgetExceeded,
    EndpointNotNAdic,
    NotAVertex,
    NotMarkov,
    SlopeNotPowerOfN,
)
from chameleon.exact import is_nadic, power_exponent
from chameleon.maps import PLCircleMap, orbit
from chameleon.markov import (
    AffineMarkovPartition,
    PartitionLevelTable,
    build_expanding_map,
)


def eager_endpoints(P: AffineMarkovPartition) -> tuple[Fraction, ...]:
    """Cut i at unit * (w_0 + ... + w_{i-1})."""
    unit, acc, cuts = Fraction(P.base - 1, sum(P.lengths)), 0, []
    for v in P.lengths:
        cuts.append(unit * acc)
        acc += v
    return tuple(cuts)


def eager_slopes(P: AffineMarkovPartition) -> tuple[Fraction, ...]:
    """Slope i = block_i / w_i, block i summing the base-many weights from
    index n*i on, cyclically."""
    n, w, p = P.base, P.lengths, P.interval_count
    return tuple(Fraction(sum(w[(n * i + l) % p] for l in range(n)), w[i])
                 for i in range(p))


def build_by_interval(P: AffineMarkovPartition) -> tuple[PLCircleMap, tuple]:
    """The expanding map of P and its break values, testing every interval's
    slope and every cut point."""
    n, p, r = P.base, P.interval_count, P.base - 1
    endpoints, slopes = eager_endpoints(P), eager_slopes(P)
    exponents = []
    for i, s in enumerate(slopes):
        e = power_exponent(s, n)
        if e is None:
            raise SlopeNotPowerOfN(f"interval {i} has slope {s}, not a power of {n}",
                                   index=i, slope=s)
        exponents.append(e)
    for i, x in enumerate(endpoints):
        if not is_nadic(x, n):
            raise EndpointNotNAdic(f"cut point {i} at {x} is not a base-{n} fraction",
                                   index=i, value=x)
    # Cut 0 is the point 0, which the map fixes.
    g = PLCircleMap(r, n, endpoints, slopes, 0)
    breaks = tuple((endpoints[i], exponents[i] - exponents[i - 1]) for i in range(p)
                   if slopes[i] != slopes[i - 1])
    return g, breaks


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


def fraction_recovery(g: PLCircleMap, max_refinements: int = 20) -> AffineMarkovPartition:
    """``partition_from_expanding_map`` on ``Fraction``s: the landing walk
    keyed by the points themselves, and the inverse branches x = a*y + b
    formed as ``Fraction``s before they are put over one denominator."""
    r, n = g.circumference, g.degree
    if n < 2:
        raise ValueError("need an expanding map of degree at least 2")
    if g.evaluate(Fraction(0)) != 0:
        raise ValueError("the map must fix 0")
    max_steps = 4096
    landing = {Fraction(0): 1}
    for b in g.breakpoints:
        walk, seen, current = [], set(), b
        while current not in landing and current not in seen and len(walk) <= max_steps:
            seen.add(current)
            walk.append(current)
            current = g.evaluate(current)
        length = len(walk) + landing.get(current, 0)
        if length > max_steps:
            orbit(g, b, max_steps=max_steps)
        if current not in landing:
            raise NotAVertex(
                f"breakpoint {b} never reaches the fixed point, so pullbacks "
                "of 0 cannot place it on a vertex",
                point=b,
            )
        landing.update((q, length - i) for i, q in enumerate(walk))
    rounds = max((landing[b] - 1 for b in g.breakpoints), default=0)
    if rounds > max_refinements:
        raise BudgetExceeded(
            f"breakpoints not covered after {max_refinements} pullbacks",
            limit=max_refinements,
        )
    if n > 2:
        rounds = max(rounds, 1)
    lifted = g._lifted_boundaries(0)
    at, value, slope = next(lifted)
    shift = value - slope * at
    pieces = [(at, value - shift, slope)]
    while pieces[-1][0] < r:
        at, value, slope = next(lifted)
        pieces.append((at, value - shift, slope))
    alphas = [1 / s for _, _, s in pieces[:-1]]
    betas = [c - lo * a for (c, lo, _), a in zip(pieces, alphas)]
    A = lcm(*(a.denominator for a in alphas))
    B = lcm(*(b.denominator for b in betas), *(lo.denominator for _, lo, _ in pieces))
    factors = [a.numerator * (A // a.denominator) for a in alphas]
    lows = [lo.numerator * (B // lo.denominator) for _, lo, _ in pieces]
    offsets = [b.numerator * (B // b.denominator) for b in betas]
    level, scale = [0], 1
    for _ in range(rounds):
        thresholds = [lo * scale for lo in lows]
        lap = r * B * scale
        scale *= A
        terms = [b * scale for b in offsets]
        fresh, j = [], 0
        factor, term, following = factors[0], terms[0], thresholds[1]
        for w in range(n):
            base = w * lap
            for v in level:
                y = v + base
                while y >= following:
                    j += 1
                    factor, term, following = factors[j], terms[j], thresholds[j + 1]
                fresh.append(factor * y + term)
        level = fresh
    weights = [b - a for a, b in zip(level, level[1:])]
    weights.append(r * B * scale - level[-1])
    unit = gcd(*weights)
    P = AffineMarkovPartition(n, [w // unit for w in weights])
    rebuilt, _ = build_expanding_map(P)
    if rebuilt != g:
        raise NotMarkov("recovered cut points do not rebuild the map", index=-1)
    return P
