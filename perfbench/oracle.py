"""Exact reference computations the benchmark checks the program against.

Nothing here imports ``chameleon``: each function recomputes a quantity
from the raw input data with ``fractions.Fraction`` alone, so a wrong
answer from the program cannot also be a wrong expectation.

* ``Descent`` evaluates a partition's conjugator at source grid points by
  walking inverse branches of the expanding map, O(depth) operations per
  point.  It supplies the expected answers and the inputs of the
  conjugator queries.
* ``CircleHomeomorphism`` evaluates a circle map of circumference 1 from
  its boundaries, slopes and first value, and gives its break exponents.
  The certify workload uses it to predict the orbit-merge scan.
* ``LineInterpolant`` rebuilds the piece layout of a base-n line
  interpolant segment by segment, so the benchmark can evaluate it and
  count the raw pieces the program emits before merging them.
"""

from __future__ import annotations

from fractions import Fraction


def nadic(q: Fraction, n: int) -> tuple[int, int]:
    """(mantissa, exponent) with q = mantissa / n**exponent and the mantissa
    not divisible by n unless the exponent is 0."""
    e = 0
    while q.denominator != 1:
        q *= n
        e += 1
    m = q.numerator
    while e > 0 and m % n == 0:
        m //= n
        e -= 1
    return m, e


class Descent:
    """The conjugator from multiplication by n to a partition's map.

    The conjugator h sends source interval i onto partition interval i and
    satisfies h(n*q mod r) = g(h(q)), so with i = floor(q*p/r),
    h(q) = e_i + ((h(n*q mod r) - g(e_i)) mod r) / s_i, where g(e_i) is the
    cut point with index n*i mod p.
    """

    def __init__(self, base: int, lengths) -> None:
        n, p = base, len(lengths)
        total = sum(lengths)
        self.base, self.count, self.circumference = n, p, n - 1
        unit = Fraction(n - 1, total)
        acc, cuts = 0, []
        for w in lengths:
            cuts.append(unit * acc)
            acc += w
        self.cuts = cuts
        self.slopes = [
            Fraction(sum(lengths[(n * i + l) % p] for l in range(n)), lengths[i])
            for i in range(p)
        ]

    def source(self, index: int, depth: int) -> Fraction:
        """Source grid point ``index`` of depth ``depth``."""
        return Fraction(self.circumference * index, self.count * self.base**depth)

    def value(self, index: int, depth: int) -> Fraction:
        """h at source grid point ``index`` of depth ``depth``."""
        n, p, r = self.base, self.count, self.circumference
        size = p * n**depth
        if index == size:
            return Fraction(r)
        chain = []
        while depth > 0:
            chain.append(index // n**depth)
            depth -= 1
            index %= p * n**depth
        x = self.cuts[index]
        for i in reversed(chain):
            x = self.cuts[i] + ((x - self.cuts[(n * i) % p]) % r) / self.slopes[i]
        return x

    def bracket(self, q: Fraction, depth: int) -> tuple[int, Fraction, Fraction]:
        """Index of the depth-``depth`` source interval holding q and the
        image of its two ends."""
        k = (q * self.count * self.base**depth / self.circumference).__floor__()
        return k, self.value(k, depth), self.value(k + 1, depth)


def _power_of_two_exponent(q: Fraction) -> int:
    k = q.numerator.bit_length() - q.denominator.bit_length()
    if q != Fraction(2) ** k:
        raise ValueError(f"{q} is not a power of two")
    return k


class CircleHomeomorphism:
    """A piecewise linear homeomorphism h of the circle R/Z, given by its
    boundaries b_0 < ... < b_{k-1} in [0, 1), the slope s_i on the arc from
    b_i to the next boundary, and h(b_0)."""

    def __init__(self, boundaries, slopes, value_at_first) -> None:
        self.ends = [*boundaries, boundaries[0] + 1]
        self.slopes = list(slopes)
        self.starts = [Fraction(value_at_first)]
        for i, s in enumerate(self.slopes):
            self.starts.append(self.starts[-1] + s * (self.ends[i + 1] - self.ends[i]))

    def value(self, u: Fraction) -> Fraction:
        t = u if u >= self.ends[0] else u + 1
        i = max(j for j in range(len(self.slopes)) if self.ends[j] <= t)
        return (self.starts[i] + self.slopes[i] * (t - self.ends[i])) % 1

    def break_exponent(self, u: Fraction) -> int:
        """k with right slope / left slope = 2**k at u (0 off the boundaries)."""
        if u not in self.ends[:-1]:
            return 0
        i = self.ends.index(u)
        return _power_of_two_exponent(self.slopes[i] / self.slopes[i - 1])

    def merge_violations(self, level: int) -> list:
        """The orbit-merge violations of g = h(2x)h^-1 among the vertices
        h(j / 2**level), as (left, right, left sum - right sum).

        The break exponent of g at h(u) is beta(2u) - beta(u), with beta the
        break exponent of h, so the break total along the g-orbit of h(u)
        up to the point h(w) telescopes to beta(w) - beta(u).  The doubling
        orbits of dyadic points all reach 0, which h fixes, so every pair of
        vertices meets, and the totals of h(u) and h(v) at a common point
        differ by beta(v) - beta(u), whichever common point is taken.
        """
        us = [Fraction(j, 2**level) for j in range(2**level)]
        beta = [self.break_exponent(u) for u in us]
        xs = [self.value(u) for u in us]
        return [(xs[a], xs[b], beta[b] - beta[a])
                for a in range(len(us)) for b in range(a + 1, len(us)) if beta[a] != beta[b]]


def _runs(unit: Fraction, count: int, target: int, n: int):
    """Widths of the pieces one side of a segment is cut into, as
    (fine count, fine width, coarse count, coarse width): splitting the
    leftmost coarsest piece n-for-one until ``target`` pieces exist leaves
    a prefix of fine pieces before the coarse ones."""
    if count >= target:
        return 0, unit / n, count, unit
    splits = -((count - target) // (n - 1))
    while splits >= count:
        splits -= count
        count *= n
        unit /= n
    return splits * n, unit / n, count - splits, unit


class _Segment:
    def __init__(self, n: int, a: Fraction, b: Fraction, c: Fraction, d: Fraction):
        ma, ea = nadic(b - a, n)
        mc, ec = nadic(d - c, n)
        self.a, self.c = a, c
        self.src = _runs(Fraction(1, n**ea), ma, mc, n)
        target = self.src[0] + self.src[2]
        self.dst = _runs(Fraction(1, n**ec), mc, target, n)
        self.pieces = target

    @staticmethod
    def _start(runs, j: int) -> Fraction:
        fine, fine_w, _, coarse_w = runs
        return j * fine_w if j <= fine else fine * fine_w + (j - fine) * coarse_w

    def value(self, t: Fraction) -> Fraction:
        fine, fine_w, _, coarse_w = self.src
        u = t - self.a
        if u < fine * fine_w:
            j = (u / fine_w).__floor__()
        else:
            j = fine + ((u - fine * fine_w) / coarse_w).__floor__()
        offset = u - self._start(self.src, j)
        src_w = fine_w if j < fine else coarse_w
        dst_w = self.dst[1] if j < self.dst[0] else self.dst[3]
        return self.c + self._start(self.dst, j) + offset * dst_w / src_w


class LineInterpolant:
    """The increasing base-n line map through the nodes, equal to the
    identity outside the node range padded by n-1 on both sides."""

    def __init__(self, n: int, xs, ys) -> None:
        pad = n - 1
        lo = min(xs[0], ys[0]) - pad
        hi = max(xs[-1], ys[-1]) + pad
        cx, cy = (lo, *xs, hi), (lo, *ys, hi)
        self.segments = [
            _Segment(n, cx[i], cx[i + 1], cy[i], cy[i + 1]) for i in range(len(cx) - 1)
        ]
        self.ends = cx
        self.raw_pieces = sum(s.pieces for s in self.segments)

    def value(self, t: Fraction) -> Fraction:
        if t < self.ends[0] or t >= self.ends[-1]:
            return t
        i = max(j for j in range(len(self.ends) - 1) if self.ends[j] <= t)
        return self.segments[i].value(t)
