"""Piecewise-affine maps of the line and the circle with exact rational data.

Two representations:

* ``PLLineMap`` — a homeomorphism of the real line: an increasing piecewise
  affine bijection, optionally post-composed with the reflection x -> -x.
  Finitely many breakpoints; the two unbounded end pieces are affine.
* ``PLCircleMap`` — a continuous, orientation preserving, locally increasing
  map of the circle R/rZ of integer circumference r, of topological degree
  d >= 1.  Degree one maps are homeomorphisms; higher degree maps are the
  covering maps this package revolves around.

Both normalise on construction (zero-break boundaries are merged, values are
reduced), so structural equality coincides with equality as functions.

The public ``PLCircleMap`` constructor validates and normalises whatever it
is given.  Three paths skip that work because their data is already normal
by construction and the checks would only repeat what they know:
``PLCircleMap.compose`` (one merge sweep that keeps a boundary only where the
composite slope changes), ``PLCircleMap.invert`` (the images of the breaks,
whose lift values are the original boundaries) and
``markov.build_expanding_map`` (the breaks of a partition, whose lift values
are read off the cut permutation).  They build through the private
``PLCircleMap._from_lift``, which only anchors the data; the tests compare
each with the validated constructor on the same data.

Tuples on hot paths are built from lists.  ``tuple()`` of a generator or of
``zip`` starts from ten slots and resizes, so such a tuple is drawn from one
size's free list and returned to another's, where it stays until a full
collection; built from a list, it is drawn and returned at its own size.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import (
    BudgetExceeded,
    InconsistentResidue,
    NotAPowerRatio,
    NotInvertible,
    ParseError,
)
from .exact import (
    as_fraction,
    digit_class,
    format_rational,
    is_nadic,
    is_smooth,
    power_exponent,
    reduce_to_circle,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class AffinePiece:
    """One affine branch x -> slope * x + intercept with positive slope."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", as_fraction(self.slope))
        object.__setattr__(self, "intercept", as_fraction(self.intercept))
        if self.slope <= 0:
            raise ValueError("piece slopes must be positive")

    def __call__(self, x) -> Fraction:
        return self.slope * as_fraction(x) + self.intercept

    def inverted(self) -> "AffinePiece":
        return AffinePiece(1 / self.slope, -self.intercept / self.slope)

    def after(self, other: "AffinePiece") -> "AffinePiece":
        """The composite self(other(x))."""
        return AffinePiece(self.slope * other.slope,
                           self.slope * other.intercept + self.intercept)


# ---------------------------------------------------------------------------
# circle maps


class PLCircleMap:
    """Orientation preserving piecewise affine circle map of degree >= 1.

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
                   lift) -> "PLCircleMap":
        """A map from data that is already normal, with no check.

        ``boundaries`` are strictly increasing in [0, r), cyclically adjacent
        ``slopes`` differ (or there is one boundary), and ``lift`` holds the
        values of a lift continuous over [b0, b0 + r) at the boundaries.
        """
        m = cls.__new__(cls)
        m._anchor(circumference, degree, tuple(boundaries), tuple(slopes), lift)
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, circumference: int) -> "PLCircleMap":
        return cls(circumference, 1, (ZERO,), (ONE,), ZERO)

    @classmethod
    def rotation(cls, circumference: int, amount) -> "PLCircleMap":
        return cls(circumference, 1, (ZERO,), (ONE,),
                   reduce_to_circle(as_fraction(amount), circumference))

    @classmethod
    def from_pairs(cls, circumference, degree, boundary_slope_pairs, value_at_first_boundary):
        """Build from unsorted cyclic (boundary, slope) data.

        Pairs are sorted by boundary; ``value_at_first_boundary`` must be the
        value at the smallest boundary after sorting.
        """
        pairs = sorted(
            (reduce_to_circle(as_fraction(b), circumference), as_fraction(s))
            for b, s in boundary_slope_pairs
        )
        bs = tuple(b for b, _ in pairs)
        ss = tuple(s for _, s in pairs)
        return cls(circumference, degree, bs, ss, value_at_first_boundary)

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

    def compose(self, inner: "PLCircleMap") -> "PLCircleMap":
        """The composite self(inner(x)) as a circle map.

        One merge sweep: inner's window pieces in order against one pointer
        over this map's lifted boundaries.  A boundary is kept only where
        the composite slope changes, with its lift value read off directly.
        """
        if not isinstance(inner, PLCircleMap):
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
        return PLCircleMap._from_lift(
            r, degree,
            [b - r for b in bs[w:]] + bs[:w],
            ss[w:] + ss[:w],
            [v - degree * r for v in lift[w:]] + lift[:w],
        )

    def invert(self) -> "PLCircleMap":
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
        return PLCircleMap._from_lift(
            r, 1,
            [v - r for v in self._lift[w:]] + list(self._lift[:w]),
            [1 / s for s in self.slopes[w:] + self.slopes[:w]],
            [b - r for b in self.boundaries[w:]] + list(self.boundaries[:w]),
        )

    def iterate(self, power: int) -> "PLCircleMap":
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
        if not isinstance(other, PLCircleMap):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = ", ".join(
            f"{format_rational(b)}:{format_rational(s)}"
            for b, s in zip(self.boundaries, self.slopes)
        )
        return (f"PLCircleMap(r={self.circumference}, deg={self.degree}, "
                f"[{parts}], f({format_rational(self.boundaries[0])})="
                f"{format_rational(self.value_at_first)})")


# ---------------------------------------------------------------------------
# line maps


class PLLineMap:
    """Piecewise affine homeomorphism of the real line.

    ``breakpoints`` is a strictly increasing (possibly empty) tuple;
    ``pieces`` has one more entry than ``breakpoints`` and lists the affine
    branches left to right (the first and last rule the unbounded ends).
    Adjacent pieces agree at their shared breakpoint, slopes are positive,
    and ``reversed_orientation`` post-composes with x -> -x.
    """

    __slots__ = ("breakpoints", "pieces", "reversed_orientation")

    def __init__(self, breakpoints, pieces, reversed_orientation: bool = False):
        bs = tuple(as_fraction(b) for b in breakpoints)
        ps = tuple(p if isinstance(p, AffinePiece) else AffinePiece(*p) for p in pieces)
        if len(ps) != len(bs) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for i, b in enumerate(bs):
            if ps[i](b) != ps[i + 1](b):
                raise ValueError(f"pieces disagree at breakpoint {b}")
        # Normalise: merge identical adjacent pieces.
        keep_bs, keep_ps = [], [ps[0]]
        for i, b in enumerate(bs):
            if ps[i + 1] != keep_ps[-1]:
                keep_bs.append(b)
                keep_ps.append(ps[i + 1])
        self.breakpoints = tuple(keep_bs)
        self.pieces = tuple(keep_ps)
        self.reversed_orientation = bool(reversed_orientation)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls) -> "PLLineMap":
        return cls((), (AffinePiece(1, 0),))

    @classmethod
    def affine(cls, slope, intercept) -> "PLLineMap":
        return cls((), (AffinePiece(slope, intercept),))

    @classmethod
    def from_profile(cls, breakpoints, slopes, anchor_x, anchor_value,
                     reversed_orientation: bool = False) -> "PLLineMap":
        """Build the increasing part from slopes plus one point on the graph.

        ``slopes`` has one more entry than ``breakpoints``; ``anchor_x`` may
        be any real, and the continuous increasing function through
        (anchor_x, anchor_value) with those slopes is returned.
        """
        bs = [as_fraction(b) for b in breakpoints]
        ss = [as_fraction(s) for s in slopes]
        if len(ss) != len(bs) + 1:
            raise ValueError("need exactly one more slope than breakpoints")
        anchor_x = as_fraction(anchor_x)
        anchor_value = as_fraction(anchor_value)
        i = bisect.bisect_right(bs, anchor_x)
        # Intercept of the piece owning the anchor, then propagate outward.
        intercepts = [None] * len(ss)
        intercepts[i] = anchor_value - ss[i] * anchor_x
        for j in range(i + 1, len(ss)):
            b = bs[j - 1]
            value = ss[j - 1] * b + intercepts[j - 1]
            intercepts[j] = value - ss[j] * b
        for j in range(i - 1, -1, -1):
            b = bs[j]
            value = ss[j + 1] * b + intercepts[j + 1]
            intercepts[j] = value - ss[j] * b
        pieces = tuple(AffinePiece(s, c) for s, c in zip(ss, intercepts))
        return cls(tuple(bs), pieces, reversed_orientation)

    # -- queries -----------------------------------------------------------------

    def _increasing_piece_index(self, x: Fraction) -> int:
        return bisect.bisect_right(self.breakpoints, x)

    def increasing_value(self, x) -> Fraction:
        x = as_fraction(x)
        return self.pieces[self._increasing_piece_index(x)](x)

    def evaluate(self, x) -> Fraction:
        v = self.increasing_value(x)
        return -v if self.reversed_orientation else v

    def __call__(self, x) -> Fraction:
        return self.evaluate(x)

    def right_slope(self, x) -> Fraction:
        s = self.pieces[self._increasing_piece_index(as_fraction(x))].slope
        return s  # magnitude; orientation handled by the flag

    def left_slope(self, x) -> Fraction:
        x = as_fraction(x)
        i = bisect.bisect_left(self.breakpoints, x)
        return self.pieces[i].slope

    def _reflected_increasing(self) -> "PLLineMap":
        """The increasing map x -> -inc(-x) (conjugate by reflection)."""
        bs = tuple(-b for b in reversed(self.breakpoints))
        ps = []
        for piece in reversed(self.pieces):
            ps.append(AffinePiece(piece.slope, -piece.intercept))
        return PLLineMap(bs, tuple(ps))

    # -- algebra ------------------------------------------------------------------

    def compose(self, inner: "PLLineMap") -> "PLLineMap":
        """The composite self(inner(x))."""
        if not isinstance(inner, PLLineMap):
            raise TypeError("can only compose line maps with line maps")
        outer_inc = self._reflected_increasing() if inner.reversed_orientation else self
        # Increasing parts compose; orientation flags add mod 2.
        f, g = inner, outer_inc
        breaks = set(f.breakpoints)
        f_values = [f.increasing_value(b) for b in f.breakpoints]
        for beta in g.breakpoints:
            i = bisect.bisect_left(f_values, beta)
            piece = f.pieces[i]
            breaks.add((beta - piece.intercept) / piece.slope)
        bs = sorted(breaks)
        pieces = []
        probes = []
        if bs:
            probes.append(bs[0] - 1)
            probes.extend(bs)
        else:
            probes.append(ZERO)
        for x in probes:
            fp = f.pieces[f._increasing_piece_index(x)]
            gp = g.pieces[g._increasing_piece_index(fp(x))]
            pieces.append(gp.after(fp))
        return PLLineMap(tuple(bs), tuple(pieces),
                         self.reversed_orientation ^ inner.reversed_orientation)

    def invert(self) -> "PLLineMap":
        """Inverse homeomorphism (always defined for line maps)."""
        values = [self.increasing_value(b) for b in self.breakpoints]
        inv_pieces = tuple(p.inverted() for p in self.pieces)
        inv = PLLineMap(tuple(values), inv_pieces)
        if self.reversed_orientation:
            inv = inv._reflected_increasing()
        return PLLineMap(inv.breakpoints, inv.pieces, self.reversed_orientation)

    # -- equality / repr -------------------------------------------------------------

    def _key(self):
        return (self.breakpoints, self.pieces, self.reversed_orientation)

    def __eq__(self, other):
        if not isinstance(other, PLLineMap):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        bs = ", ".join(format_rational(b) for b in self.breakpoints)
        flag = ", reversed" if self.reversed_orientation else ""
        return f"PLLineMap(breaks=[{bs}], {len(self.pieces)} pieces{flag})"


def multiplication_map(n: int, circumference: int | None = None) -> PLCircleMap:
    """The degree-n circle map x -> n*x on the circle of circumference n-1
    (or any given circumference)."""
    if n < 2:
        raise ValueError("the multiplier must be at least 2")
    r = circumference if circumference is not None else n - 1
    return PLCircleMap(r, n, (ZERO,), (Fraction(n),), ZERO)


# ---------------------------------------------------------------------------
# break values and orbits


def break_value(m, x, n: int | None = None) -> int:
    """Exponent k with (right slope / left slope)(x) == n**k.

    For circle maps the base defaults to circumference + 1 (the setting where
    the slope group is generated by the degree); line maps require ``n``.
    """
    if n is None:
        if isinstance(m, PLCircleMap):
            n = m.circumference + 1
        else:
            raise ValueError("line maps need the slope base passed explicitly")
    ratio = m.right_slope(x) / m.left_slope(x)
    k = power_exponent(ratio, n)
    if k is None:
        raise NotAPowerRatio(
            f"slope ratio {format_rational(ratio)} at {format_rational(as_fraction(x))} "
            f"is not an integral power of {n}"
        )
    return k


def sum_of_breaks(m, n: int | None = None) -> int:
    """Sum of break values over all breakpoints of the map."""
    return sum(break_value(m, x, n) for x in m.breakpoints)


@dataclass(frozen=True)
class OrbitResult:
    """A forward orbit split into its transient prefix and its cycle."""

    prefix: tuple[Fraction, ...]
    cycle: tuple[Fraction, ...]

    @property
    def points(self) -> tuple[Fraction, ...]:
        return self.prefix + self.cycle


def orbit(m: PLCircleMap, x, max_steps: int = 4096) -> OrbitResult:
    """Forward orbit of a circle point until it enters a cycle.

    Raises BudgetExceeded (with the prefix so far attached) if no repeat is
    seen within ``max_steps`` applications.
    """
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


# ---------------------------------------------------------------------------
# membership classification


@dataclass(frozen=True)
class EndTranslations:
    """Integer multiples of n-1 translated by the two unbounded end pieces."""

    left: Fraction
    right: Fraction


@dataclass(frozen=True)
class MembershipReport:
    """Which of the five defining properties hold, and the group tags they imply.

    Items, numbered as usual: (1) piecewise affine with finitely many breaks,
    (2) orientation preserving, (3) all slopes integral powers of n,
    (4) all breakpoints in Z[1/n], (5) Z[1/n] mapped into itself.
    """

    base: int
    space: str  # "line" or "circle"
    items: tuple[bool, bool, bool, bool, bool]
    group_tags: frozenset[str]
    end_translations: EndTranslations | None
    coset_shift: int | None

    @property
    def satisfies_all(self) -> bool:
        return all(self.items)


def classify(m, n: int) -> MembershipReport:
    """Classify a map against the base-n piecewise-affine group hierarchy.

    Line maps can earn tags PL_n (items 1-5), BPL_n (identity outside a
    bounded interval), F_n (end pieces translate by multiples of n-1) and
    Aff_n (a single affine branch).  Circle maps of circumference r earn
    Tbar_n_r (the local-homeomorphism monoid), plus T_n_r when invertible and
    BT_n_r when additionally the zero digit-class sublattice is preserved.
    """
    if n < 2:
        raise ValueError("base must be at least 2")
    tags: set[str] = set()
    if isinstance(m, PLLineMap):
        item2 = not m.reversed_orientation
        slopes = [p.slope for p in m.pieces]
        intercepts = [p.intercept for p in m.pieces]
        item3 = all(power_exponent(s, n) is not None for s in slopes)
        item4 = all(is_nadic(b, n) for b in m.breakpoints)
        item5 = all(
            is_smooth(s.denominator, n) and is_nadic(c, n)
            for s, c in zip(slopes, intercepts)
        )
        items = (True, item2, item3, item4, item5)
        end_translations = None
        shift = None
        if all(items):
            tags.add("PL_n")
            first, last = m.pieces[0], m.pieces[-1]
            if first.slope == 1 and last.slope == 1:
                left = first.intercept
                right = last.intercept
                if left % (n - 1) == 0 and right % (n - 1) == 0:
                    tags.add("F_n")
                    end_translations = EndTranslations(left=left, right=right)
                    if left == 0 and right == 0:
                        tags.add("BPL_n")
            if len(m.pieces) == 1:
                tags.add("Aff_n")
            shift = coset_shift(m, n)
        return MembershipReport(n, "line", items, frozenset(tags),
                                end_translations, shift)

    if isinstance(m, PLCircleMap):
        item3 = all(power_exponent(s, n) is not None for s in m.slopes)
        item4 = all(is_nadic(b, n) for b in m.breakpoints)
        item5 = all(
            is_smooth(p.slope.denominator, n) and is_nadic(p.intercept, n)
            for _, _, p in m.window_pieces()
        )
        items = (True, True, item3, item4, item5)
        if all(items):
            tags.add("Tbar_n_r")
            if m.degree == 1:
                tags.add("T_n_r")
                if _preserves_zero_class(m, n):
                    tags.add("BT_n_r")
        return MembershipReport(n, "circle", items, frozenset(tags), None, None)

    raise TypeError(f"not a piecewise affine map: {m!r}")


def _preserves_zero_class(m: PLCircleMap, n: int) -> bool:
    """Whether the image of the zero digit-class sublattice stays inside it.

    A circle point of the base-n lattice lies in the projected zero-class
    sublattice exactly when gcd(n-1, r) divides its digit class; for a map
    with base-n affine data each branch shifts digit classes by the class of
    its intercept, so preservation means every branch intercept has class
    divisible by gcd(n-1, r).
    """
    from math import gcd

    g = gcd(n - 1, m.circumference)
    if g == 1:
        return True
    return all(
        digit_class(p.intercept, n) % g == 0 for _, _, p in m.window_pieces()
    )


def coset_shift(m: PLLineMap, n: int) -> int:
    """The constant amount (mod n-1) by which the map shifts digit classes.

    Evaluated at one base-n sample point and verified at two more of
    different classes; a disagreement raises InconsistentResidue (possible
    only when the map fails the lattice-preservation properties).
    """
    if n == 2:
        samples = [ZERO, ONE, Fraction(1, 2)]
    else:
        samples = [ZERO, ONE, Fraction(1, n)]
    shifts = []
    for x in samples:
        y = m.evaluate(x)
        if not is_nadic(y, n):
            raise InconsistentResidue(
                f"image {format_rational(y)} of {format_rational(x)} leaves the base-{n} lattice"
            )
        shifts.append((digit_class(y, n) - digit_class(x, n)) % (n - 1))
    if len(set(shifts)) != 1:
        raise InconsistentResidue(
            f"digit-class shift differs between sample points: {shifts}"
        )
    return shifts[0]


# ---------------------------------------------------------------------------
# serialization


def map_to_dict(m) -> dict:
    """JSON-ready description of a line or circle map."""
    if isinstance(m, PLCircleMap):
        return {
            "space": "circle",
            "circumference": m.circumference,
            "degree": m.degree,
            "pieces": [
                {
                    "start": format_rational(start),
                    "slope": format_rational(branch.slope),
                    "intercept": format_rational(branch.intercept),
                }
                for start, _, branch in m.window_pieces()
            ],
        }
    if isinstance(m, PLLineMap):
        return {
            "space": "line",
            "breakpoints": [format_rational(b) for b in m.breakpoints],
            "pieces": [
                {
                    "slope": format_rational(p.slope),
                    "intercept": format_rational(p.intercept),
                }
                for p in m.pieces
            ],
            "reversed": m.reversed_orientation,
        }
    raise TypeError(f"not a piecewise affine map: {m!r}")


def map_from_dict(data: dict):
    """Inverse of ``map_to_dict``; validates continuity and closure."""
    try:
        space = data["space"]
        if space == "circle":
            r, d = data["circumference"], data["degree"]
            if any(isinstance(v, bool) or not isinstance(v, int) for v in (r, d)):
                raise ParseError(
                    "malformed map description: circumference and degree must be integers"
                )
            pieces = data["pieces"]
            if not pieces:
                raise ParseError("malformed map description: a circle map needs pieces")
            bs = tuple(as_fraction(p["start"]) for p in pieces)
            ss = tuple(as_fraction(p["slope"]) for p in pieces)
            cs = tuple(as_fraction(p["intercept"]) for p in pieces)
            value0 = ss[0] * bs[0] + cs[0]
            m = PLCircleMap(r, d, bs, ss, value0)
            # The stored intercepts must reproduce the same lift.
            for (start, _, branch), c in zip(m.window_pieces(), cs):
                if branch.intercept != c:
                    raise ParseError(
                        f"piece at {format_rational(start)} is discontinuous with its neighbours"
                    )
            return m
        if space == "line":
            bs = tuple(as_fraction(b) for b in data["breakpoints"])
            ps = tuple(
                AffinePiece(as_fraction(p["slope"]), as_fraction(p["intercept"]))
                for p in data["pieces"]
            )
            return PLLineMap(bs, ps, bool(data.get("reversed", False)))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed map description: {exc}") from exc
    raise ParseError(f"unknown map space {data.get('space')!r}")
