"""Interpolation inside the base-n piecewise-affine groups.

Given finite point data in the zero digit-class lattice, these constructors
produce maps whose slopes are integral powers of n and whose breaks lie in
Z[1/n], by subdividing matched segments into base-n grid pieces and splitting
pieces n-for-one until the two sides pair up.  The same engine drives line
interpolation, interval surgery, and circle interpolation.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import (
    BadCyclicOrder,
    NonzeroCosetShift,
    NotInDelta,
    NotIncreasing,
)
from .exact import as_fraction, digit_class, format_rational, to_nadic
from .maps import (
    PLCircleMap,
    PLLineMap,
    classify,
    reduce_to_circle,
)


def _require_delta(q: Fraction, n: int) -> None:
    nad = to_nadic(q, n)
    if nad is None:
        raise NotInDelta(f"{format_rational(q)} is not a base-{n} fraction")
    if n > 2 and nad.mantissa % (n - 1) != 0:
        raise NotInDelta(
            f"{format_rational(q)} has digit class {nad.mantissa % (n - 1)}, expected 0"
        )


def _segment_pieces(n: int, a: Fraction, b: Fraction,
                    c: Fraction, d: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Piece data (start, slope) mapping [a, b] onto [c, d] with power-of-n slopes.

    Both widths must be base-n fractions of equal digit class: each side is cut
    into grid pieces (count = mantissa of its width), and the side with fewer
    pieces has its leftmost longest piece split n-for-one until the counts
    agree — each split adds n-1 pieces, and the counts start congruent
    mod n-1, so the loop terminates.
    """
    assert a < b and c < d
    wa, wc = to_nadic(b - a, n), to_nadic(d - c, n)
    assert wa is not None and wc is not None
    assert (wa.mantissa - wc.mantissa) % (n - 1) == 0, "digit classes must match"

    def split_until(width: Fraction, count: int, target: int) -> list[Fraction]:
        # Splitting the leftmost largest of ``count`` equal pieces n-for-one
        # until at least ``target`` pieces exist walks the current coarsest
        # level left to right, so the result is always a finer prefix before
        # a coarse suffix; build that directly.  The counts stay congruent
        # mod n-1, so the prefix lands exactly on the target.
        if count >= target:
            return [width] * count
        splits = -((count - target) // (n - 1))
        while splits >= count:
            splits -= count
            count *= n
            width /= n
        return [width / n] * (splits * n) + [width] * (count - splits)

    src = split_until(Fraction(1, n**wa.exponent), wa.mantissa, wc.mantissa)
    dst = split_until(Fraction(1, n**wc.exponent), wc.mantissa, len(src))
    out = []
    start = a
    for ls, ld in zip(src, dst):
        out.append((start, ld / ls))
        start += ls
    assert start == b
    return out


def _chain_pieces(n: int, xs, ys) -> list[tuple[Fraction, Fraction]]:
    """Piece data mapping each [xs[i], xs[i+1]] onto [ys[i], ys[i+1]], in order."""
    pieces: list[tuple[Fraction, Fraction]] = []
    for a, b, c, d in zip(xs, xs[1:], ys, ys[1:]):
        pieces.extend(_segment_pieces(n, a, b, c, d))
    return pieces


def interpolate_line(n: int, xs, ys) -> PLLineMap:
    """Increasing line map through (xs[i], ys[i]) that is the identity far out.

    All nodes must be strictly increasing elements of the zero digit-class
    lattice of Z[1/n].  The result has power-of-n slopes, base-n breakpoints,
    and agrees with the identity outside a bounded interval (the node range
    padded by n-1 on each side), so it classifies into the bounded-support
    group for base n.
    """
    xs = tuple(as_fraction(x) for x in xs)
    ys = tuple(as_fraction(y) for y in ys)
    if len(xs) != len(ys) or not xs:
        raise ValueError("need the same nonzero number of sources and targets")
    for seq, label in ((xs, "source"), (ys, "target")):
        if any(q2 <= q1 for q1, q2 in zip(seq, seq[1:])):
            raise NotIncreasing(f"{label} nodes must be strictly increasing")
        for q in seq:
            _require_delta(q, n)
    pad = n - 1
    lo = min(xs[0], ys[0]) - pad
    hi = max(xs[-1], ys[-1]) + pad
    pieces = _chain_pieces(n, (lo,) + xs + (hi,), (lo,) + ys + (hi,))
    breakpoints = [start for start, _ in pieces] + [hi]
    slopes = [Fraction(1)] + [s for _, s in pieces] + [Fraction(1)]
    return PLLineMap.from_profile(tuple(breakpoints), tuple(slopes), lo, lo)


def match_on_interval(n: int, f: PLLineMap, a, b) -> PLLineMap:
    """A bounded-support base-n map agreeing with f on all of [a, b].

    The interval is widened to the surrounding multiples of n-1, an
    interpolant through the widened endpoints is built, and f's own pieces
    are spliced in between.  Requires f to preserve the base-n lattice with
    zero digit-class shift (otherwise no bounded-support map can agree with
    it on an interval).
    """
    a, b = as_fraction(a), as_fraction(b)
    if a >= b:
        raise ValueError("need a nonempty interval")
    if f.reversed_orientation:
        raise ValueError("can only match orientation-preserving maps")
    report = classify(f, n)
    if not (report.items[2] and report.items[3] and report.items[4]):
        raise ValueError("map must have power-of-n slopes and base-n breaks and lattice image")
    # Items 1-5 hold, so classify has computed the shift.
    if report.coset_shift != 0:
        raise NonzeroCosetShift(
            f"map shifts digit classes by {report.coset_shift}, cannot match with bounded support"
        )
    pad = n - 1
    wide_a = pad * (a // pad)
    wide_b = pad * (-((-b) // pad))  # ceiling to a multiple of n-1
    fa, fb = f.evaluate(wide_a), f.evaluate(wide_b)
    scaffold = interpolate_line(n, (wide_a, wide_b), (fa, fb))
    breaks = sorted(
        {q for q in scaffold.breakpoints if q <= wide_a or q >= wide_b}
        | {wide_a, wide_b}
        | {q for q in f.breakpoints if wide_a < q < wide_b}
    )
    slopes = []
    probes = [breaks[0] - 1] + breaks
    for x in probes:
        source = f if wide_a <= x < wide_b else scaffold
        slopes.append(source.right_slope(x))
    return PLLineMap.from_profile(tuple(breaks), tuple(slopes), wide_a, fa)


def _nadic_in_open(alpha: Fraction, beta: Fraction, n: int,
                   cls: int | None = None) -> Fraction:
    """A base-n fraction strictly inside (alpha, beta), optionally of a given
    digit class mod n-1."""
    assert alpha < beta
    need = (n - 1) if cls is not None else 1
    j = 0
    while Fraction(need + 1, n**j) >= beta - alpha:
        j += 1
    scale = n**j
    l = (alpha * scale).__floor__() + 1
    if cls is not None:
        l += (cls - l) % (n - 1)
    result = Fraction(l, scale)
    assert alpha < result < beta
    return result


def interpolate_circle(n: int, circumference: int, points, targets) -> PLCircleMap:
    """A degree-one circle map carrying each point into its target arc.

    ``points`` are distinct circle points; ``targets`` are arcs given as
    (start, end) pairs traversed counterclockwise, pairwise disjoint and in
    the same cyclic order as the points.  The result is an invertible base-n
    circle map that preserves the projected zero digit-class sublattice.
    """
    r = circumference
    pts = [reduce_to_circle(as_fraction(q), r) for q in points]
    arcs = [(reduce_to_circle(as_fraction(lo), r), reduce_to_circle(as_fraction(hi), r))
            for lo, hi in targets]
    if len(pts) != len(arcs) or not pts:
        raise ValueError("need the same nonzero number of points and target arcs")
    if len(set(pts)) != len(pts):
        raise BadCyclicOrder("points must be distinct")
    for lo, hi in arcs:
        if lo == hi:
            raise BadCyclicOrder("target arcs must have nonempty interior")

    # Rotate both sequences so the points are in ascending position order.
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    pts = [pts[i] for i in order]
    arcs = [arcs[i] for i in order]
    k = len(pts)

    # Lift the target arcs into one ascending window; overlap or misorder
    # is a cyclic-order failure.
    lifted_arcs: list[tuple[Fraction, Fraction]] = []
    for i, (lo, hi) in enumerate(arcs):
        length = reduce_to_circle(hi - lo, r)
        if length == 0:
            length = Fraction(r)
        if i == 0:
            start = lo
        else:
            prev_end = lifted_arcs[-1][1]
            start = prev_end + reduce_to_circle(lo - prev_end, r)
        lifted_arcs.append((start, start + length))
    if lifted_arcs[-1][1] > lifted_arcs[0][0] + r:
        raise BadCyclicOrder("target arcs overlap or wind past a full turn")

    # Brackets around each point, and representative sub-targets whose lifted
    # endpoints match the brackets' digit classes (so each chained segment is
    # interpolable and the result shifts classes by zero).
    gaps = [pts[(i + 1) % k] - pts[i] for i in range(k - 1)] + [pts[0] + r - pts[-1]]
    eps = min(gaps) / 4
    xs: list[Fraction] = []  # a_i, b_i around pts[i]
    ys: list[Fraction] = []  # c_i, d_i in the target interior
    for i in range(k):
        a = _nadic_in_open(pts[i] - eps, pts[i], n)
        b = _nadic_in_open(pts[i], pts[i] + eps, n)
        lo, hi = lifted_arcs[i]
        mid = (lo + hi) / 2
        c = _nadic_in_open(lo, mid, n, cls=digit_class(a, n))
        d = _nadic_in_open(mid, hi, n, cls=digit_class(b, n))
        xs += (a, b)
        ys += (c, d)

    # Chain: bracket segments alternate with gap segments, closing up after
    # one full turn on each side.
    pieces = _chain_pieces(n, xs + [xs[0] + r], ys + [ys[0] + r])
    return _circle_from_lifted_pieces(r, 1, pieces, ys[0])


def _circle_from_lifted_pieces(r: int, degree: int,
                               pieces: list[tuple[Fraction, Fraction]],
                               value_at_first: Fraction) -> PLCircleMap:
    """Assemble a circle map from lifted (start, slope) pieces covering one
    window, anchored by the lift value at the first piece start."""
    starts = [start for start, _ in pieces]
    # Walk the lift to get the value at each start, then re-anchor at the
    # smallest reduced boundary.
    values = [value_at_first]
    for i in range(1, len(pieces)):
        values.append(values[-1] + pieces[i - 1][1] * (starts[i] - starts[i - 1]))
    data = sorted(
        (reduce_to_circle(s, r), slope, v)
        for (s, slope), v in zip(pieces, values)
    )
    boundaries = tuple([b for b, _, _ in data])
    slopes = tuple([s for _, s, _ in data])
    return PLCircleMap(r, degree, boundaries, slopes, data[0][2])


def random_dyadic_homeomorphism(rng: random.Random, max_breaks: int = 6,
                                grid_exponent: int = 5) -> PLCircleMap:
    """A random invertible base-2 circle map on circumference 1 fixing 0.

    Source and target nodes are drawn from the dyadic grid of the given
    exponent and joined segment by segment with the interpolation engine, so
    the result has power-of-two slopes and dyadic breakpoints.
    """
    count = rng.randint(1, max_breaks)
    scale = 1 << grid_exponent
    xs = sorted(rng.sample(range(1, scale), count))
    ys = sorted(rng.sample(range(1, scale), count))
    chain_x = [Fraction(0)] + [Fraction(v, scale) for v in xs] + [Fraction(1)]
    chain_y = [Fraction(0)] + [Fraction(v, scale) for v in ys] + [Fraction(1)]
    pieces = _chain_pieces(2, chain_x, chain_y)
    return _circle_from_lifted_pieces(1, 1, pieces, Fraction(0))
