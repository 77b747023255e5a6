"""Conjugators between multiplication by n and partition-built expanding maps.

Every affine Markov partition whose expanding map g exists is combinatorially
conjugate to plain multiplication by n on the same circle: the conjugacy h
sends the uniform grid refinements of the source circle to the partition's
vertex tables, level by level.  This module evaluates h exactly on grid
points, inverts it on vertices, brackets it everywhere else with nested
enclosures, certifies the vertex law to any depth, and extracts h in closed
form when the partition pairs up.  Evaluation descends the partition's
integer inverse-branch table; recovery pulls 0 back through a map's.
Forward, ``inverse_value`` and recovery's orbit walk take g's integer step.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import ne, sub
from typing import Optional

from .errors import (
    BudgetExceeded,
    FixedPointsNotVertices,
    NeutralBranch,
    NotAVertex,
    NotMarkov,
    NotPL,
    OddCount,
    ParseError,
    ReconstructionMismatch,
)
from .exact import _check_depth, as_fraction, is_nadic, is_smooth, parse_integer, to_nadic
from .maps import MAX_ORBIT_STEPS, PLCircleMap, _walk, reduce_to_circle
from .markov import (
    AffineMarkovPartition,
    LevelChain,
    PartitionLevelTable,
    _descend,
    _inverse_branches,
    _pullback,
    build_expanding_map,
)

DEFAULT_MEMO_DEPTH = 16


def default_memo_depth() -> int:
    """Table depth budget: CHAMELEON_MAX_DEPTH when set, else 16.

    Raises ``ParseError`` when the variable is not a non-negative integer.
    """
    raw = os.environ.get("CHAMELEON_MAX_DEPTH")
    if raw is None:
        return DEFAULT_MEMO_DEPTH
    depth = parse_integer(raw)
    if depth is None or depth < 0:
        raise ParseError(
            f"CHAMELEON_MAX_DEPTH must be a non-negative integer, got {raw!r}"
        )
    return depth


@dataclass(frozen=True)
class Enclosure:
    """One bracketing step: the grid interval around the query and the vertex
    interval its image is trapped in."""

    depth: int
    source: tuple[Fraction, Fraction]
    image: tuple[Fraction, Fraction]

    @property
    def width(self) -> Fraction:
        return self.image[1] - self.image[0]


@dataclass(frozen=True)
class ConjugacyCheck:
    """Outcome of verifying the vertex permutation law to a depth."""

    passed: bool
    depth: int
    witness: Optional[tuple[int, int, Fraction, Fraction]]  # depth, index, want, got

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class EqualityCounterexample:
    """A base-n point of the target circle that the conjugator provably does
    not reach from the base-n points of the source."""

    point: Fraction
    source_point: Optional[Fraction]
    kind: str  # "grid-point" | "periodic-point"


@dataclass(frozen=True)
class ImageStatusReport:
    """Whether the conjugator maps base-n points into, and onto, base-n points."""

    base: int
    depth: int
    subset_holds: bool
    counterexample: Optional[EqualityCounterexample]

    @property
    def equality_refuted(self) -> bool:
        return self.counterexample is not None


class Conjugator:
    """The increasing circle map carrying the uniform grid tower onto a
    partition's vertex tower, fixing 0 and intertwining multiplication by n
    with the partition's expanding map."""

    def __init__(self, partition: AffineMarkovPartition,
                 max_depth: Optional[int] = None):
        if max_depth is None:
            max_depth = default_memo_depth()
        else:
            _check_depth(max_depth, "max_depth")
        self.partition = partition
        self.map, _ = build_expanding_map(partition)
        self.max_depth = max_depth
        self.chain = LevelChain(partition)

    def source_vertex(self, index: int, depth: int) -> Fraction:
        """The source-circle grid point paired with vertex (index, depth)."""
        _check_depth(index, "source index")
        _check_depth(depth, "source depth")
        P = self.partition
        return Fraction(P.circumference * index, P.interval_count * P.base**depth)

    def evaluate(self, q) -> Fraction:
        """Exact image of a source grid point.

        Refuses with FixedPointsNotVertices when q is not on the source grid
        at any depth, and with BudgetExceeded when it first appears beyond
        the depth budget.
        """
        P = self.partition
        n, p, r = P.base, P.interval_count, P.circumference
        q = reduce_to_circle(as_fraction(q), r)
        grid = to_nadic(q * p / r, n)  # source index over n**depth
        if grid is None:
            raise FixedPointsNotVertices(
                f"{q} is never a source grid point for {p} intervals on "
                f"circumference {r}"
            )
        if grid.exponent > self.max_depth:
            raise BudgetExceeded(
                f"grid point {q} first appears at depth {grid.exponent}, budget is "
                f"{self.max_depth}",
                limit=self.max_depth,
            )
        return _descend(P, grid.mantissa, grid.exponent)

    def inverse_value(self, x) -> Fraction:
        """The source grid point mapped to a vertex x, searching all depths
        within budget; refuses with NotAVertex otherwise.  Each integer step
        of g lowers the depth by one, and its lift's laps past r are the
        source index's base-n digits.  A point y is cut j when y*W/r is the
        integer prefix sum cum[j]."""
        P = self.partition
        n, p, r = P.base, P.interval_count, P.circumference
        W, cum = P.total_weight, P.prefix_sums
        x = reduce_to_circle(as_fraction(x), r)
        if not is_nadic(x, n):
            raise NotAVertex(f"{x} is not a base-{n} fraction, so not a vertex",
                             point=x)
        step = self.map._image
        digits, yn, yd = 0, x.numerator, x.denominator
        for depth in range(self.max_depth + 1):
            # y < r, so weight < W = cum[p] and cum[j] is defined.
            weight, rest = divmod(yn * W, yd * r)
            if not rest:
                j = bisect.bisect_left(cum, weight)
                if cum[j] == weight:
                    return Fraction(r * (p * digits + j), p * n**depth)
            w, yn, yd = step(yn, yd)
            digits = n * digits + w
        raise NotAVertex(
            f"{x} is not a vertex at any depth up to {self.max_depth}", point=x
        )

    def enclosure(self, q, width) -> Enclosure:
        """Nested vertex brackets around the image of any circle point,
        refined until the bracket is at most the requested width."""
        P = self.partition
        n, p, r = P.base, P.interval_count, P.circumference
        q = reduce_to_circle(as_fraction(q), r)
        width = as_fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        best = None
        for depth in range(self.max_depth + 1):
            count = p * n**depth
            index = (q * count / r).__floor__()
            best = Enclosure(
                depth=depth,
                source=(Fraction(r * index, count), Fraction(r * (index + 1), count)),
                image=(_descend(P, index, depth), _descend(P, index + 1, depth)),
            )
            if best.width <= width:
                return best
        raise BudgetExceeded(
            f"bracket width {best.width} after depth {self.max_depth}, wanted "
            f"{width}",
            limit=self.max_depth,
            partial=best,
        )

    def check(self, depth: int) -> ConjugacyCheck:
        """Verify the vertex permutation law g(T[N]) = T[n*N mod M] on the
        level-``depth`` table.  Level t is every n^(depth-t)-th vertex of it,
        so the law holds on every shallower level too."""
        witness = _law_witness(self.chain.table(depth), self.map)
        if witness is None:
            return ConjugacyCheck(True, depth, None)
        return ConjugacyCheck(False, depth, (depth, *witness))


def _law_witness(level: PartitionLevelTable, g: PLCircleMap) -> Optional[tuple]:
    """The first vertex N with g(T[N]) != T[n*N mod M], as (N, want, got).

    One pointer over the lift's pieces walks the sorted level.  On a piece
    with start B/D, lift value V/D there and slope sn/sd, the lift scaled
    by the level's denominator E is (u + v*X)/q at X, with u = E*(V*sd -
    sn*B), v = sn*D and q = D*sd.  So vertex X lands on the level's lattice
    exactly when q divides u + v*X, and on vertex Y when the quotient is Y
    mod r*E.  Fractions are formed only for the witness.
    """
    X, E = level.numerators, level.denominator
    n, M = g.degree, len(X)
    D = g._den
    lap = g.circumference * E
    # (start threshold, u, v, q) for the pieces from the one owning 0 to
    # the first boundary at or past r, whose threshold stops the pointer.
    pieces = [(-(-B * E // D), E * (V * sd - sn * B), sn * D, D * sd)
              for B, V, (sn, sd) in g._pieces_from_zero()]
    j, (start, u, v, q), following = 0, pieces[0], pieces[1][0]
    for N, x in enumerate(X):
        if not start <= x < lap:  # only a level out of order: restart at 0
            x %= lap
            j, (start, u, v, q), following = 0, pieces[0], pieces[1][0]
        while x >= following:
            j += 1
            (start, u, v, q), following = pieces[j], pieces[j + 1][0]
        image, rest = divmod(u + v * x, q)
        want = X[n * N % M]
        if rest or image % lap != want:
            return N, Fraction(want, E), g.evaluate(Fraction(X[N], E))
    return None


def _uneven_block(P: AffineMarkovPartition) -> Optional[int]:
    """The first cut s = n*i mod p whose block, intervals s ... s+n-1
    (mod p), holds unequal weights; None when every block is even.

    The pairing interpolant h is affine from source interval i onto cut
    interval i, and the branch of g = ``build_expanding_map(P)`` over cut
    interval i is affine onto that block.  So g*h is affine on source
    interval i, while h*nu_n is affine there exactly when the block's
    weights agree, and the two agree at the interval's ends.  Hence h
    intertwines nu_n with g exactly when every block is even.  When n
    divides p the blocks start at the multiples of n, so comparing slices
    passes every even partition.
    """
    n, p, w = P.base, P.interval_count, P.lengths
    if p % n == 0 and all(w[t::n] == w[0::n] for t in range(1, n)):
        return None
    for i in range(p):
        s = n * i % p
        if any(w[(s + t) % p] != w[s] for t in range(1, n)):
            return s
    return None


def _unequal_pair(P: AffineMarkovPartition) -> Optional[int]:
    """Base 2: the first even cut 2*i with w[2*i] != w[2*i+1], or None."""
    if P.base != 2:
        raise ValueError("the pairing test is specific to base 2")
    p = P.interval_count
    if p == 1:
        return None  # one interval is the whole circle; the conjugator is trivial
    if p % 2 != 0:
        raise OddCount(f"{p} intervals cannot pair up")
    return _uneven_block(P)


def equal_pairs(P: AffineMarkovPartition) -> bool:
    """Whether consecutive intervals pair up with equal weights (base 2).

    This is exactly the condition for the conjugator to be piecewise linear
    with finitely many pieces: it is the base-2 case of the block test by
    which the pairing interpolant intertwines doubling with the map.
    """
    return _unequal_pair(P) is None


def _weight_changes(P: AffineMarkovPartition) -> list[int]:
    """The cuts i with w[i] != w[i-1], in order."""
    w = P.lengths
    return list(compress(range(P.interval_count), map(ne, w, w[-1:] + w[:-1])))


def _pairing_interpolant(P: AffineMarkovPartition) -> PLCircleMap:
    """The circle map sending source grid point i*r/p to cut i, affine in
    between, so with slope p*w[i]/W on source interval i and a boundary
    only where the weight changes.  Over the denominator p*W, grid point i
    is r*i*W and cut i is r*p*cum[i], so the map is built from integers."""
    p, r, W, w, cum = (P.interval_count, P.circumference, P.total_weight, P.lengths,
                       P.prefix_sums)
    keep = _weight_changes(P) or [0]
    slopes = []
    for i in keep:
        common = gcd(p * w[i], W)
        slopes.append((p * w[i] // common, W // common))
    return PLCircleMap._from_lift(r, 1, p * W, [r * i * W for i in keep], slopes,
                                  [r * p * cum[i] for i in keep])


def _pairing_conjugator(P: AffineMarkovPartition) -> PLCircleMap:
    """The pairing interpolant, which is the conjugator exactly when it
    intertwines multiplication by n with the map of P; refuses with
    ReconstructionMismatch otherwise.  The intertwining is decided on the
    integer weights (``_uneven_block``), with no map composed."""
    if _uneven_block(P) is not None:
        raise ReconstructionMismatch(
            "pairing map fails to intertwine the expanding map with the model"
        )
    return _pairing_interpolant(P)


def extract_pl_h(conj: Conjugator) -> PLCircleMap:
    """The conjugator as an explicit piecewise-linear circle map.

    Only exists when the partition pairs up; then the pairing interpolant,
    vertex i at height i/p, is the whole conjugator.  Pairing up is the
    base-2 block test of ``_uneven_block``, so the one weight check that
    finds an unequal pair also verifies the intertwining.
    """
    P = conj.partition
    bad = _unequal_pair(P)
    if bad is not None:
        left, right = P.lengths[bad], P.lengths[bad + 1]
        raise NotPL(
            f"intervals {bad} and {bad + 1} have different weights {left} and {right}",
            witness=(bad, (left, right)),
        )
    return _pairing_interpolant(P)


def periodic_points(m: PLCircleMap, power: int) -> tuple[Fraction, ...]:
    """All circle points fixed by the power-fold composite of m.

    Refuses with NeutralBranch when some composite branch is pointwise fixed
    (slope one, shift zero mod the circumference), since the set is then
    infinite.
    """
    _check_depth(power, "power", 1)
    comp = m.iterate(power)
    r = comp.circumference
    found = set()
    for start, end, branch in comp.window_pieces():
        s, c = branch.slope, branch.intercept
        if s == 1:
            if reduce_to_circle(c, r) == 0:
                raise NeutralBranch(
                    f"branch on [{reduce_to_circle(start, r)}, "
                    f"{reduce_to_circle(end, r)}) is pointwise fixed",
                    interval=(reduce_to_circle(start, r), reduce_to_circle(end, r)),
                )
            continue
        # Solve s*x + c = x + k*r for integer k with start <= x < end.  x
        # grows with k when s > 1 and shrinks when s < 1, so k steps that
        # way from the first solution at or past start until x reaches end.
        d = s - 1
        step = 1 if d > 0 else -1
        a = d * start + c  # k*r at x = start
        k = -(-a // r) if d > 0 else a // r
        while (x := (k * r - c) / d) < end:
            found.add(reduce_to_circle(x, r))
            k += step
    return tuple(sorted(found))


def nadic_image_status(conj: Conjugator, depth: int) -> ImageStatusReport:
    """Does the conjugator map base-n points to base-n points, and onto them?

    The subset direction is certified vertex by vertex to the given depth.
    For the reverse direction the report carries a counterexample when one is
    found: either a vertex whose source grid point is not base-n, or a
    base-n periodic point of the expanding map whose source must be outside
    the base-n points (every non-fixed short-period point of plain
    multiplication is).
    """
    P = conj.partition
    n, p, r = P.base, P.interval_count, P.circumference
    # Past the vertex budget, refuses before deriving a level.  Vertex N of
    # level t is vertex N * n**(depth - t) of this deepest level.
    level = conj.chain.table(depth)
    X, D = level.numerators, level.denominator
    # x / D is base-n exactly when the part of D coprime to n divides x.
    coprime, common = D, gcd(D, n)
    while common > 1:
        coprime //= common
        common = gcd(coprime, common)
    nadic = [x % coprime == 0 for x in X]
    subset_holds = all(nadic)
    # The source point r*N / (p*n**t) is base-n exactly when p / gcd(p, r*N)
    # is n-smooth, which depends on N mod p only.
    source_nadic = [is_smooth(p // gcd(p, r * N), n) for N in range(p)]
    counterexample = None
    if not all(source_nadic):
        for t in range(depth + 1):
            stride = n ** (depth - t)
            for N in range(p * n**t):
                if not source_nadic[N % p] and nadic[N * stride]:
                    counterexample = EqualityCounterexample(
                        point=Fraction(X[N * stride], D),
                        source_point=Fraction(r * N, p * n**t),
                        kind="grid-point",
                    )
                    break
            if counterexample is not None:
                break
    if counterexample is None:
        for x in periodic_points(conj.map, 2):
            if conj.map.evaluate(x) != x and is_nadic(x, n):
                counterexample = EqualityCounterexample(
                    point=x, source_point=None, kind="periodic-point"
                )
                break
    return ImageStatusReport(
        base=n, depth=depth, subset_holds=subset_holds,
        counterexample=counterexample,
    )


def partition_from_expanding_map(g: PLCircleMap,
                                 max_refinements: int = 20) -> AffineMarkovPartition:
    """Recover an affine Markov partition from an expanding map fixing 0.

    The cuts are the pullback g^-K(0) for the fewest K that puts every
    breakpoint on a cut and leaves at least n - 1 intervals; the gaps,
    reduced to coprime integers, are the weights.  The recovered partition
    is verified to rebuild g exactly.

    The pullback runs through the inverse branches of the lift of g fixing 0,
    in the integer branch table that ``LevelChain`` and ``vertex_value`` use
    (``markov._inverse_branches``, ``markov._pullback``).  The breakpoint
    orbits that set K go through ``maps._walk`` with a shared memo, and the
    rebuild is the one ``build_expanding_map`` keeps on the partition.
    """
    _check_depth(max_refinements, "max_refinements")
    r, n = g.circumference, g.degree
    if n < 2:
        raise ValueError("need an expanding map of degree at least 2")
    if g._image(0, 1)[1]:
        raise ValueError("the map must fix 0")
    # A breakpoint lies in some pullback of 0 exactly when its forward orbit
    # lands on 0; otherwise no amount of refinement can cover it.  The walks
    # share one memo and stop at points already known to land on 0.  After
    # normalisation every boundary of a map with breaks is a breakpoint.
    D = g._den
    breakpoints = []
    for b in g._bnums if len(g._bnums) > 1 else ():
        c = gcd(b, D)
        breakpoints.append((b // c, D // c))
    landing = {(0, 1): 1}  # point -> length of its orbit, which ends at 0
    for b in breakpoints:
        if b in landing:  # on an earlier breakpoint's orbit
            continue
        walk, end = _walk(g, b, MAX_ORBIT_STEPS, landing)
        if end not in landing:
            raise NotAVertex(
                f"breakpoint {Fraction(*b)} never reaches the fixed point, so "
                "pullbacks of 0 cannot place it on a vertex",
                point=Fraction(*b),
            )
        length = len(walk) + landing[end]
        landing.update(zip(walk, range(length, length - len(walk), -1)))
    # b lies in g^-k(0) exactly when g^k(b) = 0, and the pullbacks are
    # nested because 0 is fixed.  A break-free map of degree n >= 3 needs
    # one pullback to leave the n - 1 intervals a partition needs.
    rounds = max(map(landing.__getitem__, breakpoints), default=1) - 1
    if rounds > max_refinements:
        raise BudgetExceeded(
            f"breakpoints not covered after {max_refinements} pullbacks",
            limit=max_refinements,
        )
    if n > 2:
        rounds = max(rounds, 1)
    branches = _inverse_branches(g._pieces_from_zero())
    level, scale = [0], 1  # numerators over D*A^k; scale is A^k
    for _ in range(rounds):
        level = _pullback(level, scale, D, r, n, branches)
        scale *= branches[0]
    weights = list(map(sub, level[1:], level))
    weights.append(r * D * scale - level[-1])
    unit = gcd(*weights)
    P = AffineMarkovPartition(n, [w // unit for w in weights])
    rebuilt, _ = build_expanding_map(P)
    if rebuilt != g:
        raise NotMarkov("recovered cut points do not rebuild the map", index=-1)
    return P
