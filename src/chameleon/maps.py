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

A ``PLCircleMap`` is kept as integers: its boundaries and its lift's values
at them as numerators over their least common denominator D, and its slopes
as reduced integer pairs.  ``_image``, the one integer step, finds a
point's piece with one bisection and returns the lift there as laps past r
and a reduced pair; ``evaluate``, ``lift_value`` and the one orbit walker
``_walk`` read it.  ``compose`` sweeps numerators over a common multiple of
both maps' denominators and reduces once at the end, and ``invert`` swaps
the boundary and lift numerators.  The ``Fraction`` tuples ``boundaries``,
``slopes`` and ``value_at_first`` are formed on first read.

The public ``PLCircleMap`` constructor validates and normalises whatever it
is given.  Three paths skip that work because their data is already normal
by construction and the checks would only repeat what they know:
``PLCircleMap.compose`` (one merge sweep that keeps a boundary only where the
composite slope changes), ``PLCircleMap.invert`` (the images of the breaks,
whose lift values are the original boundaries) and
``markov.build_expanding_map`` (the breaks of a partition, whose lift values
are read off the cut permutation).  They build through the private
``PLCircleMap._from_lift``, which only anchors the data and puts it over its
least denominator; the tests compare each with the validated constructor on
the same data.

Tuples on hot paths are built from lists.  ``tuple()`` of a generator or of
``zip`` starts from ten slots and resizes, so such a tuple is drawn from one
size's free list and returned to another's, where it stays until a full
collection; built from a list, it is drawn and returned at its own size.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator

from .errors import (
    BudgetExceeded,
    InconsistentResidue,
    NotAPowerRatio,
    NotInvertible,
    ParseError,
)
from .exact import (
    _check_depth,
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
MAX_ORBIT_STEPS = 4096  # default step budget of an orbit walk


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

    Data: integer ``circumference`` r, integer ``degree`` d, a strictly
    increasing tuple ``boundaries`` in [0, r), a matching tuple of positive
    ``slopes`` (slope i rules the arc from boundary i to the next boundary,
    counterclockwise), and the value at the first boundary, reduced to [0, r).
    The lift over the window [b0, b0 + r) is continuous and rises by d*r.

    The map is kept as integers: D, the least common denominator of the
    boundaries and of the lift's values at them; the numerators of both over
    D; and each slope as a reduced (numerator, denominator) pair.  Since D is
    least, these integers are as canonical as the ``Fraction`` data, which
    ``boundaries``, ``slopes`` and ``value_at_first`` form on first read.

    Construction normalises: boundaries whose two sides share a slope are
    merged, and a break-free map is anchored at 0.  The boundary point itself
    belongs to the piece on its right.
    """

    __slots__ = ("circumference", "degree", "_den", "_bnums", "_lnums", "_slope_pairs",
                 "_boundaries", "_slopes", "_lift_values")

    def __init__(self, circumference, degree, boundaries, slopes, value_at_first):
        r, d = circumference, degree
        if isinstance(r, bool) or not isinstance(r, int) or r < 1:
            raise ValueError("circumference must be a positive integer")
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise ValueError("degree must be a positive integer")
        bs = [as_fraction(b) for b in boundaries]
        ss = [as_fraction(s) for s in slopes]
        if not bs or len(bs) != len(ss):
            raise ValueError("need one slope per boundary, at least one of each")
        # The boundaries as numerators over their least common denominator E.
        E = lcm(*[b.denominator for b in bs])
        B = [b.numerator * (E // b.denominator) for b in bs]
        if min(B) < 0 or max(B) >= r * E:
            raise ValueError("boundaries must be reduced to [0, r)")
        if any(b2 <= b1 for b1, b2 in zip(B, B[1:])):
            raise ValueError("boundaries must be strictly increasing")
        pairs = [(s.numerator, s.denominator) for s in ss]
        if any(sn <= 0 for sn, _ in pairs):
            raise ValueError("slopes must be positive")
        # The lift at each boundary over the window [b0, b0 + r), as
        # numerators over Q, a multiple of E times each slope's denominator
        # and of the value's denominator.
        v0 = as_fraction(value_at_first)
        Q = lcm(E * lcm(*[sd for _, sd in pairs]), v0.denominator)
        unit = Q // E
        lift = [v0.numerator * (Q // v0.denominator) % (r * Q)]
        for (sn, sd), b1, b2 in zip(pairs, B, B[1:]):
            lift.append(lift[-1] + sn * (unit // sd) * (b2 - b1))
        sn, sd = pairs[-1]
        total = lift[-1] + sn * (unit // sd) * (B[0] + r * E - B[-1]) - lift[0]
        if total != d * r * Q:
            raise ValueError(
                f"slopes integrate to {Fraction(total, Q)}, expected "
                f"degree*circumference {d * r}"
            )

        # Normalise: keep only boundaries where the slope actually changes;
        # a break-free map keeps its first one.
        keep = [i for i in range(len(B)) if pairs[i] != pairs[i - 1]] or [0]
        self._anchor(r, d, Q, [B[i] * unit for i in keep], [pairs[i] for i in keep],
                     [lift[i] for i in keep])

    def _anchor(self, r: int, d: int, den: int, bnums, pairs, lnums) -> None:
        """Store normal data given over the common denominator ``den``.

        A single boundary is a break-free map, whose slope is forced to equal
        the degree and which is anchored at 0; the lift is shifted by a
        multiple of r into [0, r) at its start; and the numerators are put
        over the least common denominator.
        """
        if len(bnums) == 1:
            bnums, pairs, lnums = [0], [(d, 1)], [lnums[0] - d * bnums[0]]
        lap = r * den
        shift = lnums[0] // lap * lap
        if shift:
            lnums = [v - shift for v in lnums]
        common = gcd(den, *bnums, *lnums)
        if common > 1:
            den //= common
            bnums = [b // common for b in bnums]
            lnums = [v // common for v in lnums]
        self.circumference = r
        self.degree = d
        self._den = den
        self._bnums = tuple(bnums)
        self._slope_pairs = tuple(pairs)
        self._lnums = tuple(lnums)
        self._boundaries = self._slopes = self._lift_values = None

    @classmethod
    def _from_lift(cls, circumference: int, degree: int, den: int, bnums, slope_pairs,
                   lnums) -> "PLCircleMap":
        """A map from integer data that is already normal, with no check.

        Over the common denominator ``den``, ``bnums`` are strictly increasing
        in [0, r*den), ``lnums`` hold the values of a lift continuous over
        [b0, b0 + r) at the boundaries, and the reduced positive
        ``slope_pairs`` differ cyclically from their neighbours (or there is
        one boundary).
        """
        m = cls.__new__(cls)
        m._anchor(circumference, degree, den, bnums, slope_pairs, lnums)
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, circumference: int) -> "PLCircleMap":
        return cls(circumference, 1, (ZERO,), (ONE,), ZERO)

    @classmethod
    def rotation(cls, circumference: int, amount) -> "PLCircleMap":
        return cls(circumference, 1, (ZERO,), (ONE,),
                   reduce_to_circle(as_fraction(amount), circumference))

    # -- the Fraction data, formed on first read --------------------------------

    @property
    def boundaries(self) -> tuple[Fraction, ...]:
        if self._boundaries is None:
            den = self._den
            self._boundaries = tuple([Fraction(b, den) for b in self._bnums])
        return self._boundaries

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        if self._slopes is None:
            self._slopes = tuple([Fraction(sn, sd) for sn, sd in self._slope_pairs])
        return self._slopes

    @property
    def _lift(self) -> tuple[Fraction, ...]:
        """The lift's values at the boundaries over the window [b0, b0 + r)."""
        if self._lift_values is None:
            den = self._den
            self._lift_values = tuple([Fraction(v, den) for v in self._lnums])
        return self._lift_values

    @property
    def value_at_first(self) -> Fraction:
        return self._lift[0]

    # -- basic queries --------------------------------------------------------

    @property
    def piece_count(self) -> int:
        return len(self._bnums)

    def lift_value(self, x) -> Fraction:
        """Value of the lift normalised by F(b0) = value_at_first, at any real
        x: the step on x mod r, plus d*r for each lap of x past r."""
        x = as_fraction(x)
        r, xn, xd = self.circumference, x.numerator, x.denominator
        laps, yn, yd = self._image(xn, xd)
        return Fraction((laps + xn // (r * xd) * self.degree) * r * yd + yn, yd)

    def evaluate(self, x) -> Fraction:
        """Image of the circle point x, reduced to [0, r)."""
        x = as_fraction(x)
        _, yn, yd = self._image(x.numerator, x.denominator)
        return Fraction(yn, yd)

    def _image(self, xn: int, xd: int) -> tuple[int, int, int]:
        """The one integer step: for the point xn/xd (xd > 0) reduced to
        [0, r), the lift's value there as (laps, yn, yd), that is laps*r +
        yn/yd with the image yn/yd a reduced pair in [0, r).

        Reduced into [0, r) and scaled by D, the point is t/xd, and it lies on
        piece i exactly when B_i <= floor(t/xd).  A point below b0 is read on
        the last piece at x + r, where the lift is d*r higher, so its laps are
        lowered by d.
        """
        den, bnums, r = self._den, self._bnums, self.circumference
        lap = r * den * xd
        t = xn * den % lap
        i = bisect.bisect_right(bnums, t // xd) - 1
        laps = 0
        if i < 0:
            t += lap
            laps = -self.degree
        sn, sd = self._slope_pairs[i]
        q = den * sd * xd
        rise, y = divmod(self._lnums[i] * sd * xd + sn * (t - bnums[i] * xd), r * q)
        common = gcd(y, q)
        return laps + rise, y // common, q // common

    def __call__(self, x) -> Fraction:
        return self.evaluate(x)

    def right_slope(self, x) -> Fraction:
        x = as_fraction(x)
        den = self._den
        at = x.numerator * den // x.denominator % (self.circumference * den)
        return self.slopes[bisect.bisect_right(self._bnums, at) - 1]

    def left_slope(self, x) -> Fraction:
        # The piece strictly to the left of x (cyclically) is the last one
        # whose boundary lies below x, that is below ceil(x*D).
        x = as_fraction(x)
        xd = x.denominator
        at = -(-(x.numerator % (self.circumference * xd)) * self._den // xd)
        return self.slopes[bisect.bisect_left(self._bnums, at) - 1]

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Boundaries where the slope genuinely changes: after normalisation
        all of them, except the anchor of a break-free map."""
        return self.boundaries if len(self._bnums) > 1 else ()

    def window_pieces(self) -> Iterator[tuple[Fraction, Fraction, AffinePiece]]:
        """Triples (start, end, branch) covering the window [b0, b0 + r)."""
        bs, ss, lift = self.boundaries, self.slopes, self._lift
        ends = bs[1:] + (bs[0] + self.circumference,)
        for b, end, s, v in zip(bs, ends, ss, lift):
            yield b, end, AffinePiece(s, v - s * b)

    def _pieces_from_zero(self) -> list[tuple[int, int, tuple[int, int]]]:
        """The lift's pieces over [0, r), from the one owning 0, then the
        first boundary at or past r, as (start, lift value there, slope pair)
        with the start and value as numerators over D."""
        bnums, lnums, pairs = self._bnums, self._lnums, self._slope_pairs
        lap = self.circumference * self._den
        rise = self.degree * lap
        pieces = list(zip(bnums, lnums, pairs))
        if bnums[0]:
            pieces.insert(0, (bnums[-1] - lap, lnums[-1] - rise, pairs[-1]))
        pieces.append((bnums[0] + lap, lnums[0] + rise, pairs[0]))
        return pieces

    # -- algebra ---------------------------------------------------------------

    def compose(self, inner: "PLCircleMap") -> "PLCircleMap":
        """The composite self(inner(x)) as a circle map.

        One merge sweep: inner's window pieces in order against one pointer
        over this map's lifted boundaries.  A boundary is kept only where
        the composite slope changes, with its lift value read off directly.
        All of it runs on numerators over Q, the lcm of both denominators
        times inner's slope numerators and this map's slope denominators:
        the gap between one of inner's lift values and one of this map's
        boundaries is then a multiple of both, so a new boundary and a new
        lift value are integers over Q.  The result is put over its least
        denominator once, at the end.
        """
        if not isinstance(inner, PLCircleMap):
            raise TypeError("can only compose circle maps with circle maps")
        if inner.circumference != self.circumference:
            raise ValueError("circumference mismatch")
        r = self.circumference
        degree = self.degree * inner.degree
        Q = (lcm(inner._den, self._den) * lcm(*[sn for sn, _ in inner._slope_pairs])
             * lcm(*[td for _, td in self._slope_pairs]))
        lap, rise = r * Q, self.degree * r * Q
        inner_scale, outer_scale = Q // inner._den, Q // self._den
        starts = [b * inner_scale for b in inner._bnums]
        lows = [v * inner_scale for v in inner._lnums]
        highs = lows[1:] + [lows[0] + inner.degree * lap]
        # This map's lifted boundaries c_j + k*r and lift values there
        # G(c_j) + k*d*r, over the laps from the one holding inner's first
        # lift value to the one past its last.
        cs = [c * outer_scale for c in self._bnums]
        vs = [v * outer_scale for v in self._lnums]
        first = (lows[0] - cs[0]) // lap
        laps = range(first, first + inner.degree + 2)
        ats = [c + k * lap for k in laps for c in cs]
        values = [v + k * rise for k in laps for v in vs]
        pairs = self._slope_pairs * len(laps)
        m = bisect.bisect_right(ats, lows[0]) - 1
        at, after = ats[m], ats[m + 1]
        bs, ss, lift = [], [], []
        for b, (sn, sd), lo, hi in zip(starts, inner._slope_pairs, lows, highs):
            # An outer boundary at the end of the last piece is at this
            # piece's start, so the pointer steps past it here.
            while after <= lo:
                m += 1
                at, after = after, ats[m + 1]
            tn, td = pairs[m]
            common = gcd(sn * tn, sd * td)
            slope = sn * tn // common, sd * td // common
            if not ss or slope != ss[-1]:
                bs.append(b)
                ss.append(slope)
                lift.append(values[m] + (lo - at) // td * tn)
            while after < hi:
                m += 1
                at, after = after, ats[m + 1]
                tn, td = pairs[m]
                common = gcd(sn * tn, sd * td)
                slope = sn * tn // common, sd * td // common
                if slope != ss[-1]:
                    bs.append(b + (at - lo) // sn * sd)
                    ss.append(slope)
                    lift.append(values[m])
        if len(ss) > 1 and ss[-1] == ss[0]:
            del bs[0], ss[0], lift[0]
        # The window [b0, b0 + r) may pass r; rotate that part to the front.
        w = bisect.bisect_left(bs, lap)
        return PLCircleMap._from_lift(
            r, degree, Q,
            [b - lap for b in bs[w:]] + bs[:w],
            ss[w:] + ss[:w],
            [v - degree * lap for v in lift[w:]] + lift[:w],
        )

    def invert(self) -> "PLCircleMap":
        """Inverse homeomorphism; defined for degree-one maps only.

        Its breaks sit at the images of the breaks, where its lift takes the
        original boundaries; images past r wrap to the front.  Boundaries and
        lift values swap, so the denominator stays the same.
        """
        if self.degree != 1:
            raise NotInvertible(
                f"degree {self.degree} circle maps are not injective"
            )
        r, bnums, lnums, pairs = self.circumference, self._bnums, self._lnums, self._slope_pairs
        lap = r * self._den
        w = bisect.bisect_left(lnums, lap)
        return PLCircleMap._from_lift(
            r, 1, self._den,
            [v - lap for v in lnums[w:]] + list(lnums[:w]),
            [(sd, sn) for sn, sd in pairs[w:] + pairs[:w]],
            [b - lap for b in bnums[w:]] + list(bnums[:w]),
        )

    def iterate(self, power: int) -> "PLCircleMap":
        """Compose the map with itself the given number of times (power >= 1)."""
        _check_depth(power, "power", 1)
        result = self
        for _ in range(power - 1):
            result = result.compose(self)
        return result

    # -- equality / repr --------------------------------------------------------

    def _key(self):
        return (self.circumference, self.degree, self._den, self._bnums,
                self._slope_pairs, self._lnums[0])

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


def _walk(m: PLCircleMap, start: tuple[int, int], max_steps: int,
          landing: dict) -> tuple[list, tuple[int, int]]:
    """The forward orbit of the reduced pair ``start`` under m, on reduced
    pairs: its points up to the first that repeats one of them or is a key
    of ``landing`` (point -> length of its orbit), and that point.

    Raises BudgetExceeded, with the orbit's first max_steps + 1 points as
    ``partial``, when the orbit has more than ``max_steps`` points before its
    first repeat; past a point of ``landing``, it walks on to fill them.
    """
    step = m._image
    seen, points, current = set(), [], start
    while current not in seen and len(points) <= max_steps:
        if current in landing and len(points) + landing[current] <= max_steps:
            break
        seen.add(current)
        points.append(current)
        _, yn, yd = step(*current)
        current = yn, yd
    if len(points) > max_steps:
        raise BudgetExceeded(
            f"orbit of {format_rational(Fraction(*start))} found no cycle within "
            f"{max_steps} steps",
            limit=max_steps,
            partial=tuple([Fraction(*q) for q in points]),
        )
    return points, current


def orbit(m: PLCircleMap, x, max_steps: int = MAX_ORBIT_STEPS) -> OrbitResult:
    """Forward orbit of a circle point until it enters a cycle.

    One ``_walk`` on reduced pairs; the points become ``Fraction``s at the
    end.  Raises BudgetExceeded (with the prefix so far attached) if no
    repeat is seen within ``max_steps`` applications.
    """
    _check_depth(max_steps, "max_steps")
    x = as_fraction(x)
    xd = x.denominator
    points, end = _walk(m, (x.numerator % (m.circumference * xd), xd), max_steps, {})
    cut = points.index(end)
    points = [Fraction(*q) for q in points]
    return OrbitResult(tuple(points[:cut]), tuple(points[cut:]))


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
            bs = [as_fraction(p["start"]) for p in pieces]
            ss = [as_fraction(p["slope"]) for p in pieces]
            cs = [as_fraction(p["intercept"]) for p in pieces]
            value = ss[0] * bs[0] + cs[0]
            m = PLCircleMap(r, d, bs, ss, value)
            # Every piece as given, before any merging, must continue the
            # lift of the pieces before it.
            for i in range(1, len(bs)):
                value += ss[i - 1] * (bs[i] - bs[i - 1])
                if ss[i] * bs[i] + cs[i] != value:
                    raise ParseError(
                        f"piece at {format_rational(bs[i])} is discontinuous with its neighbours"
                    )
            return m
        if space == "line":
            breakpoints, pieces = data["breakpoints"], data["pieces"]
            reversed_ = data.get("reversed", False)
            if not (isinstance(breakpoints, list) and isinstance(pieces, list)
                    and isinstance(reversed_, bool)):
                raise ParseError("malformed map description: breakpoints and pieces "
                                 "must be lists, reversed true or false")
            bs = tuple(as_fraction(b) for b in breakpoints)
            ps = tuple(AffinePiece(as_fraction(p["slope"]), as_fraction(p["intercept"]))
                       for p in pieces)
            return PLLineMap(bs, ps, reversed_)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed map description: {exc}") from exc
    raise ParseError(f"unknown map space {data.get('space')!r}")
