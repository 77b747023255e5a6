"""The exact ``Fraction`` partition data and level tower, kept as the oracle
for the integer ones.

``AffineMarkovPartition`` keeps its weights as integers and forms its cut
points and slopes on each read, and ``build_expanding_map`` tests one slope
per run between breaks; ``eager_endpoints``, ``eager_slopes`` and
``build_by_interval`` are the per-interval ``Fraction`` versions they
replaced.  ``LevelChain`` pulls each level back through the partition's
integer inverse-branch table (``markov._inverse_branches`` and
``markov._pullback``), ``vertex_value`` descends the same table one branch
per level, and ``Conjugator.check`` sweeps the lift's pieces once; the rest
are the per-vertex ``Fraction`` versions those replaced.  ``refine``
measures each interval's proportions on the level itself, where the chain
uses the partition's branches, so the two agree exactly while the vertex
law holds.  ``fraction_descend`` divides by one ``Fraction`` slope per
level.

``PLCircleMap`` keeps its boundaries and lift values as integer numerators
over one denominator and its slopes as integer pairs; ``FractionCircleMap``
is the ``Fraction`` class it replaced, with every construction path and
query, and ``fraction_recovery`` walks and pulls back on it, where
``partition_from_expanding_map`` pulls back through the same branch table
as ``LevelChain``.

``maps._walk`` walks orbits on reduced integer pairs through the one
integer step ``PLCircleMap._image``, for ``orbit`` and for recovery, and
``Conjugator.inverse_value`` steps the same pairs, reading its digits off
the step's laps; ``fraction_orbit`` is the ``Fraction`` walk ``orbit``
replaced, one ``evaluate`` per step, and ``lift_inverse`` the inverse
through a dict keyed by every cut point, walking the oracle map's
``lift_value``.

``pl_criterion`` lets the break sums decide and returns the pairing
interpolant of ``conjugacy._pairing_conjugator`` as the conjugator;
``break_sum_rebuild`` is the rebuild from the sums it replaced, which
breaks over the shallow vertices, solves the initial slope and integrates
the boundaries.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, Optional

from chameleon.breaks import (
    BreakAssignment,
    CriterionVerdict,
    _cut_walker,
    break_sum_table,
)
from chameleon.errors import (
    BudgetExceeded,
    EndpointNotNAdic,
    NotAVertex,
    NotInvertible,
    NotMarkov,
    ReconstructionMismatch,
    SlopeNotPowerOfN,
)
from chameleon.exact import (
    as_fraction,
    format_rational,
    is_nadic,
    power_exponent,
    reduce_to_circle,
)
from chameleon.maps import AffinePiece, OrbitResult, PLCircleMap, multiplication_map
from chameleon.markov import (
    AffineMarkovPartition,
    PartitionLevelTable,
    build_expanding_map,
    stable_level,
)


ZERO = Fraction(0)
ONE = Fraction(1)


class FractionCircleMap:
    """``PLCircleMap`` as it was kept on ``Fraction``s, the oracle for the
    integer one.

    Stored data: integer ``circumference`` r, integer ``degree`` d, a strictly
    increasing tuple ``boundaries`` in [0, r), a matching tuple of positive
    ``slopes`` (slope i rules the arc from boundary i to the next boundary,
    counterclockwise), and the value at the first boundary, reduced to [0, r).
    The lift over the window [b0, b0 + r) is continuous and rises by d*r; its
    value at each boundary is computed once here and kept privately.

    Construction normalises: boundaries whose two sides share a slope are
    merged, and a break-free map is anchored at 0.  The boundary point itself
    belongs to the piece on its right.
    """

    __slots__ = ("circumference", "degree", "boundaries", "slopes", "value_at_first",
                 "_lift")

    def __init__(self, circumference, degree, boundaries, slopes, value_at_first):
        r = int(circumference)
        d = int(degree)
        if r < 1 or r != circumference:
            raise ValueError("circumference must be a positive integer")
        if d < 1 or d != degree:
            raise ValueError("degree must be a positive integer")
        bs = tuple([as_fraction(b) for b in boundaries])
        ss = tuple([as_fraction(s) for s in slopes])
        if not bs or len(bs) != len(ss):
            raise ValueError("need one slope per boundary, at least one of each")
        if any(not (0 <= b < r) for b in bs):
            raise ValueError("boundaries must be reduced to [0, r)")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if any(s <= 0 for s in ss):
            raise ValueError("slopes must be positive")
        # The lift at each boundary over the window [b0, b0 + r).
        lift = [reduce_to_circle(as_fraction(value_at_first), r)]
        for i in range(len(bs) - 1):
            lift.append(lift[-1] + ss[i] * (bs[i + 1] - bs[i]))
        total = lift[-1] + ss[-1] * (bs[0] + r - bs[-1]) - lift[0]
        if total != d * r:
            raise ValueError(
                f"slopes integrate to {total}, expected degree*circumference {d * r}"
            )

        # Normalise: keep only boundaries where the slope actually changes;
        # a break-free map keeps its first one.
        keep = [i for i in range(len(bs)) if ss[i] != ss[i - 1]] or [0]
        self._anchor(r, d, tuple([bs[i] for i in keep]), tuple([ss[i] for i in keep]),
                     [lift[i] for i in keep])

    def _anchor(self, r: int, d: int, bs: tuple, ss: tuple, lift) -> None:
        """Store normal data: a single boundary is a break-free map, whose
        slope is forced to equal the degree and which is anchored at 0, and
        the lift is shifted by a multiple of r into [0, r) at its start."""
        if len(bs) == 1:
            bs, ss, lift = (ZERO,), (Fraction(d),), [lift[0] - d * bs[0]]
        shift = lift[0] // r * r
        self.circumference = r
        self.degree = d
        self.boundaries = bs
        self.slopes = ss
        self._lift = tuple([v - shift for v in lift] if shift else lift)
        self.value_at_first = self._lift[0]

    @classmethod
    def _from_lift(cls, circumference: int, degree: int, boundaries, slopes,
                   lift) -> "FractionCircleMap":
        """A map from data that is already normal, with no check.

        ``boundaries`` are strictly increasing in [0, r), cyclically adjacent
        ``slopes`` differ (or there is one boundary), and ``lift`` holds the
        values of a lift continuous over [b0, b0 + r) at the boundaries.
        """
        m = cls.__new__(cls)
        m._anchor(circumference, degree, tuple(boundaries), tuple(slopes), lift)
        return m

    @classmethod
    def of(cls, m) -> "FractionCircleMap":
        """The oracle copy of a ``PLCircleMap``, from its ``Fraction`` data."""
        return cls._from_lift(m.circumference, m.degree, m.boundaries, m.slopes, m._lift)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, circumference: int) -> "FractionCircleMap":
        return cls(circumference, 1, (ZERO,), (ONE,), ZERO)

    @classmethod
    def rotation(cls, circumference: int, amount) -> "FractionCircleMap":
        return cls(circumference, 1, (ZERO,), (ONE,),
                   reduce_to_circle(as_fraction(amount), circumference))

    # -- basic queries --------------------------------------------------------

    @property
    def piece_count(self) -> int:
        return len(self.boundaries)

    def _piece_index(self, lifted: Fraction) -> int:
        """Index of the piece owning a point of the window [b0, b0 + r)."""
        i = bisect.bisect_right(self.boundaries, lifted) - 1
        return i if i >= 0 else len(self.boundaries) - 1

    def lift_value(self, x) -> Fraction:
        """Value of the lift normalised by F(b0) = value_at_first, at any real x."""
        x = as_fraction(x)
        r = self.circumference
        b0 = self.boundaries[0]
        k = (x - b0) // r
        window_x = x - k * r
        i = self._piece_index(window_x)
        base = self._lift[i] + self.slopes[i] * (window_x - self.boundaries[i])
        return base + k * self.degree * r

    def evaluate(self, x) -> Fraction:
        """Image of the circle point x, reduced to [0, r).

        A point x below b0 is read on the last piece at x + r, where the lift
        is d*r higher; reducing mod r drops the difference.
        """
        r, bs = self.circumference, self.boundaries
        x = as_fraction(x)
        laps = x // r
        if laps:
            x -= laps * r
        i = bisect.bisect_right(bs, x) - 1
        y = self._lift[i] + self.slopes[i] * (x - bs[i] if i >= 0 else x + r - bs[i])
        laps = y // r
        return y - laps * r if laps else y

    def __call__(self, x) -> Fraction:
        return self.evaluate(x)

    def lift_piece(self, x) -> AffinePiece:
        """The affine branch of the lift that owns the real point x."""
        x = as_fraction(x)
        r = self.circumference
        b0 = self.boundaries[0]
        k = (x - b0) // r
        window_x = x - k * r
        i = self._piece_index(window_x)
        # F(t) = lift[i] + s*(t - b_i) on the window; shifting by k*r adds k*d*r.
        s = self.slopes[i]
        intercept = self._lift[i] - s * self.boundaries[i] + k * r * (self.degree - s)
        return AffinePiece(s, intercept)

    def right_slope(self, x) -> Fraction:
        x = reduce_to_circle(as_fraction(x), self.circumference)
        lifted = x if x >= self.boundaries[0] else x + self.circumference
        return self.slopes[self._piece_index(lifted)]

    def left_slope(self, x) -> Fraction:
        x = reduce_to_circle(as_fraction(x), self.circumference)
        lifted = x if x > self.boundaries[0] else x + self.circumference
        i = self._piece_index(lifted)
        if self.boundaries[i] == lifted:
            i -= 1  # the piece strictly to the left (cyclically)
        return self.slopes[i]

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Boundaries where the slope genuinely changes (all of them after
        normalisation, except the anchor of a break-free map)."""
        return tuple([
            b for i, b in enumerate(self.boundaries)
            if self.slopes[i] != self.slopes[i - 1]
        ])

    def window_pieces(self) -> Iterator[tuple[Fraction, Fraction, AffinePiece]]:
        """Triples (start, end, branch) covering the window [b0, b0 + r)."""
        r = self.circumference
        for i, b in enumerate(self.boundaries):
            end = self.boundaries[i + 1] if i + 1 < len(self.boundaries) else self.boundaries[0] + r
            s = self.slopes[i]
            yield b, end, AffinePiece(s, self._lift[i] - s * b)

    # -- algebra ---------------------------------------------------------------

    def _lifted_boundaries(self, y: Fraction) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        """Triples (c_j + k*r, lift value there, slope on the right) over the
        lifted boundaries in order, from the one owning the real point y on;
        the lift value is G(c_j) + k*d*r."""
        r, cs, lift, ss = self.circumference, self.boundaries, self._lift, self.slopes
        k = (y - cs[0]) // r
        j = bisect.bisect_right(cs, y - k * r) - 1
        while True:
            if k:
                shift, rise = k * r, k * self.degree * r
                for c, v, t in zip(cs[j:], lift[j:], ss[j:]):
                    yield c + shift, v + rise, t
            else:
                yield from zip(cs[j:], lift[j:], ss[j:])
            j, k = 0, k + 1

    def compose(self, inner: "FractionCircleMap") -> "FractionCircleMap":
        """The composite self(inner(x)) as a circle map.

        One merge sweep: inner's window pieces in order against one pointer
        over this map's lifted boundaries.  A boundary is kept only where
        the composite slope changes, with its lift value read off directly.
        """
        if not isinstance(inner, FractionCircleMap):
            raise TypeError("can only compose circle maps with circle maps")
        if inner.circumference != self.circumference:
            raise ValueError("circumference mismatch")
        r = self.circumference
        degree = self.degree * inner.degree
        ends = inner._lift[1:] + (inner._lift[0] + inner.degree * r,)
        outer = self._lifted_boundaries(inner._lift[0])
        at, value, t = next(outer)
        after = next(outer)
        bs, ss, lift = [], [], []
        for b, s, lo, hi in zip(inner.boundaries, inner.slopes, inner._lift, ends):
            # An outer boundary at the end of the last piece is at this
            # piece's start, so the pointer steps past it here.
            while after[0] <= lo:
                (at, value, t), after = after, next(outer)
            slope = s * t
            if not ss or slope != ss[-1]:
                bs.append(b)
                ss.append(slope)
                lift.append(value + t * (lo - at))
            while after[0] < hi:
                (at, value, t), after = after, next(outer)
                slope = s * t
                if slope != ss[-1]:
                    bs.append(b + (at - lo) / s)
                    ss.append(slope)
                    lift.append(value)
        if len(ss) > 1 and ss[-1] == ss[0]:
            del bs[0], ss[0], lift[0]
        # The window [b0, b0 + r) may pass r; rotate that part to the front.
        w = bisect.bisect_left(bs, r)
        return FractionCircleMap._from_lift(
            r, degree,
            [b - r for b in bs[w:]] + bs[:w],
            ss[w:] + ss[:w],
            [v - degree * r for v in lift[w:]] + lift[:w],
        )

    def invert(self) -> "FractionCircleMap":
        """Inverse homeomorphism; defined for degree-one maps only.

        Its breaks sit at the images of the breaks, where its lift takes the
        original boundaries; images past r wrap to the front.
        """
        if self.degree != 1:
            raise NotInvertible(
                f"degree {self.degree} circle maps are not injective"
            )
        r = self.circumference
        w = bisect.bisect_left(self._lift, r)
        return FractionCircleMap._from_lift(
            r, 1,
            [v - r for v in self._lift[w:]] + list(self._lift[:w]),
            [1 / s for s in self.slopes[w:] + self.slopes[:w]],
            [b - r for b in self.boundaries[w:]] + list(self.boundaries[:w]),
        )

    def iterate(self, power: int) -> "FractionCircleMap":
        """Compose the map with itself the given number of times (power >= 1)."""
        if power < 1:
            raise ValueError("power must be at least 1")
        result = self
        for _ in range(power - 1):
            result = result.compose(self)
        return result

    # -- equality / repr --------------------------------------------------------

    def _key(self):
        return (self.circumference, self.degree, self.boundaries, self.slopes,
                self.value_at_first)

    def __eq__(self, other):
        if not isinstance(other, FractionCircleMap):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = ", ".join(
            f"{format_rational(b)}:{format_rational(s)}"
            for b, s in zip(self.boundaries, self.slopes)
        )
        return (f"FractionCircleMap(r={self.circumference}, deg={self.degree}, "
                f"[{parts}], f({format_rational(self.boundaries[0])})="
                f"{format_rational(self.value_at_first)})")


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


def level_table(level: int, values, circumference: int) -> PartitionLevelTable:
    """The level table of the given ``Fraction`` vertex values, as numerators
    over their least common denominator."""
    D = lcm(*(v.denominator for v in values))
    return PartitionLevelTable(level, tuple([v.numerator * (D // v.denominator)
                                             for v in values]), D, circumference)


def standard_level_table(n: int, k: int) -> PartitionLevelTable:
    """Vertices i/n^k of the uniform base-n grid on the circle [0, n-1)."""
    if n < 2 or k < 0:
        raise ValueError("need base >= 2 and level >= 0")
    count = (n - 1) * n**k
    return level_table(k, [Fraction((n - 1) * i, count) for i in range(count)], n - 1)


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
    return level_table(table.level + 1, new_values, table.circumference)


@lru_cache(maxsize=64)
def _eager_data(P: AffineMarkovPartition) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The cut points and slopes of P, formed once per partition."""
    return eager_endpoints(P), eager_slopes(P)


def fraction_descend(P: AffineMarkovPartition, index: int, depth: int) -> Fraction:
    """The conjugator at lifted source grid index ``index`` of ``depth``, one
    ``Fraction`` inverse branch per level: on cut interval i the lift of the
    partition's map is affine with slope s_i and sends cut i to the lifted
    cut n*i, that is e[n*i mod p] + r*floor(n*i/p)."""
    n, p, r = P.base, P.interval_count, P.circumference
    e, slopes = _eager_data(P)
    wraps, index = divmod(index, p * n**depth)
    branches = []
    for k in range(depth, 0, -1):
        # n*q has the same index one level up, lifted past r by w.
        i = index // n**k
        w, index = divmod(index, p * n**(k - 1))
        branches.append((i, w - n * i // p))
    x = e[index]
    for i, w in reversed(branches):
        x = e[i] + (x + w * r - e[n * i % p]) / slopes[i]
    return x + wraps * r


def fraction_orbit(m, x, max_steps: int = 4096) -> OrbitResult:
    """``orbit`` in ``Fraction``s, one ``evaluate`` per step, on a
    ``PLCircleMap`` or its ``FractionCircleMap`` oracle."""
    x = reduce_to_circle(as_fraction(x), m.circumference)
    seen: dict[Fraction, int] = {}
    points: list[Fraction] = []
    current = x
    for _ in range(max_steps + 1):
        if current in seen:
            cut = seen[current]
            return OrbitResult(tuple(points[:cut]), tuple(points[cut:]))
        seen[current] = len(points)
        points.append(current)
        current = m.evaluate(current)
    raise BudgetExceeded(
        f"orbit of {format_rational(x)} found no cycle within {max_steps} steps",
        limit=max_steps,
        partial=tuple(points),
    )


@lru_cache(maxsize=4)
def _cuts_and_lift(P: AffineMarkovPartition, g: PLCircleMap):
    """The cut dict of P and the oracle lift of g, formed once per pair."""
    return {e: j for j, e in enumerate(eager_endpoints(P))}, FractionCircleMap.of(g).lift_value


def lift_inverse(conj, x) -> Fraction:
    """``Conjugator.inverse_value`` through a dict keyed by every cut point,
    walking the lift of the oracle copy of the conjugator's map."""
    P = conj.partition
    n, p, r = P.base, P.interval_count, P.circumference
    x = reduce_to_circle(as_fraction(x), r)
    if not is_nadic(x, n):
        raise NotAVertex(f"{x} is not a base-{n} fraction, so not a vertex", point=x)
    cuts, lift = _cuts_and_lift(P, conj.map)
    digits, y = 0, x
    for depth in range(conj.max_depth + 1):
        if y in cuts:
            return Fraction(r * (p * digits + cuts[y]), p * n**depth)
        w, y = divmod(lift(y), r)
        digits = n * digits + w
    raise NotAVertex(f"{x} is not a vertex at any depth up to {conj.max_depth}",
                     point=x)


def fraction_recovery(g: PLCircleMap, max_refinements: int = 20,
                      max_steps: int = 4096) -> AffineMarkovPartition:
    """``partition_from_expanding_map`` on ``Fraction``s, run on the oracle
    copy of g: the landing walk keyed by the points themselves, re-walked
    with ``fraction_orbit`` past the step budget, and the inverse branches
    x = a*y + b formed as ``Fraction``s before they are put over one
    denominator."""
    r, n = g.circumference, g.degree
    if n < 2:
        raise ValueError("need an expanding map of degree at least 2")
    target, g = g, FractionCircleMap.of(g)
    if g.evaluate(Fraction(0)) != 0:
        raise ValueError("the map must fix 0")
    landing = {Fraction(0): 1}
    for b in g.breakpoints:
        walk, seen, current = [], set(), b
        while current not in landing and current not in seen and len(walk) <= max_steps:
            seen.add(current)
            walk.append(current)
            current = g.evaluate(current)
        length = len(walk) + landing.get(current, 0)
        if length > max_steps:
            fraction_orbit(g, b, max_steps)
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
    if rebuilt != target:
        raise NotMarkov("recovered cut points do not rebuild the map", index=-1)
    return P


def break_sum_rebuild(P: AffineMarkovPartition, g: PLCircleMap) -> CriterionVerdict:
    """The positive ``pl_criterion`` verdict rebuilt from the break sums, for
    a base-2 partition with a constant table and its own map g.

    The defect of each shallow vertex prescribes a break at the height of
    that vertex, the initial slope is solved exactly from the requirement
    that the pieces close up around the circle, and the rebuilt map is
    verified to intertwine doubling with g.
    """
    K = stable_level(P)
    if P.base != 2 or build_expanding_map(P)[0] != g:
        raise ValueError("the rebuild is for base 2 and the partition's own map")
    table = break_sum_table(P)
    _, walk = _cut_walker(P)
    if not table.is_constant:
        raise ValueError("the rebuild needs a constant table")
    common = table.sequence()[0] if table.entries else 0
    # The shallow vertices (i, K) with i even, as cuts.
    m = P.power_exponent
    shallow = range(0, 2**m, 2**(m - K + 1))
    assignment = BreakAssignment(entries=tuple(sorted(
        (P.cut(c), common - v) for c, v in zip(shallow, walk(shallow))
        if v != common
    )))
    total = sum(v for _, v in assignment.entries)
    if total != 0:
        raise ReconstructionMismatch(f"break budget sums to {total}, expected 0")
    heights = [(x, b) for x, b in assignment.entries if x != 0]
    # Segment j runs between consecutive heights (0 and 1 padding the ends)
    # and carries slope m * 2^(cumulative break above it).
    cuts = [Fraction(0)] + [x for x, _ in heights] + [Fraction(1)]
    cumulative = [0]
    for _, b in heights:
        cumulative.append(cumulative[-1] + b)
    m = sum((cuts[j + 1] - cuts[j]) * Fraction(2)**(-cumulative[j])
            for j in range(len(cuts) - 1))
    if power_exponent(m, 2) is None:
        raise ReconstructionMismatch(f"initial slope solves to {m}, not a power of 2")
    boundaries = [Fraction(0)]
    slopes = []
    for j in range(len(cuts) - 1):
        s = m * Fraction(2)**cumulative[j]
        slopes.append(s)
        if j < len(cuts) - 2:
            boundaries.append(boundaries[-1] + (cuts[j + 1] - cuts[j]) / s)
    rebuilt = PLCircleMap(1, 1, tuple(boundaries), tuple(slopes), Fraction(0))
    if rebuilt.compose(multiplication_map(2)) != g.compose(rebuilt):
        raise ReconstructionMismatch(
            "rebuilt conjugator fails to intertwine doubling with the map"
        )
    return CriterionVerdict(
        is_pl=True, stable_level=K, table=table, witness=None,
        witness_values=None, conjugator=rebuilt, initial_slope=m,
        assignment=assignment,
    )
