"""Affine Markov partitions for degree-n expanding circle maps.

A partition is a cyclic sequence of positive integer weights on the
circumference-(n-1) circle.  When every induced branch slope is a power of n
and every cut point is a base-n fraction, the partition builds an expanding
map conjugate to multiplication by n.  Level k+1 of its vertex tower is
the pullback of level k through the affine inverse branches of a lift fixing
0, kept in one integer table (``_inverse_branches``, swept by ``_pullback``):
``LevelChain`` refines through the partition's own branches, ``vertex_value``
descends them one per level, and recovery pulls 0 back through a map's.
Each level is one ``PartitionLevelTable`` of integer numerators over one
denominator, read through ``LevelChain.table``; its ``Fraction`` values are
formed only when read.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from math import gcd, lcm
from operator import mul, ne, sub

from .errors import (
    BudgetExceeded,
    ClassMismatch,
    EndpointNotNAdic,
    NotPowerForm,
    ParseError,
    SlopeNotPowerOfN,
)
from .exact import _check_depth, is_nadic, is_smooth, ratio_exponent, trailing_zeros
from .maps import PLCircleMap


class AffineMarkovPartition:
    """Cyclic integer weights cutting the circumference-(base-1) circle.

    The partition is kept as integers: the weights, their prefix sums (cut i
    is ``r * prefix_sums[i] / W``, W the total weight) and the blocks.  The
    ``Fraction`` tuples ``endpoints`` and ``slopes`` and the ``unit`` are
    formed on each read;
    its map and its lift's inverse branches are formed on first use and kept.
    """

    __slots__ = ("base", "lengths", "interval_count", "total_weight", "circumference",
                 "prefix_sums", "blocks", "power_exponent", "_break_indices", "_branches",
                 "_built")

    def __init__(self, base: int, lengths) -> None:
        if isinstance(base, bool) or not isinstance(base, int) or base < 2:
            raise ValueError("base must be an integer >= 2")
        lengths = tuple(lengths)
        # One pass over the types and one over the values, both in C; only
        # weights that fail one take the per-weight checks, in their order.
        if set(map(type, lengths)) != {int} or min(lengths) <= 0:
            if any(isinstance(v, bool) or not isinstance(v, int) for v in lengths):
                raise ValueError("interval weights must be plain integers")
            if len(lengths) >= base - 1 and any(v <= 0 for v in lengths):
                raise ValueError("interval weights must be positive integers")
        if len(lengths) < base - 1:
            raise ValueError(
                f"need at least base-1={base - 1} intervals, got {len(lengths)}"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "lengths", lengths)
        p = len(lengths)
        cum = tuple(accumulate(lengths, initial=0))
        total = cum[p]
        object.__setattr__(self, "interval_count", p)
        object.__setattr__(self, "total_weight", total)
        object.__setattr__(self, "circumference", base - 1)
        object.__setattr__(self, "prefix_sums", cum)
        object.__setattr__(self, "_branches", None)
        object.__setattr__(self, "_built", None)
        # Block i is the total weight of the base-many intervals that the
        # branch over interval i stretches across: the weight between the
        # lifted cuts n*i and n*(i+1), where lifted cut k sits at weight
        # floor(k/p)*W + cum[k mod p].  When n divides p, block i starts at
        # cut n*i mod p, a multiple of n, and the blocks repeat with period
        # p/n as the sums of n consecutive weights.
        if p % base == 0:
            blocks = tuple(list(map(sub, cum[base::base], cum[:-1:base])) * base)
        else:
            lifted = [k // p * total + cum[k % p] for k in range(0, base * p + 1, base)]
            blocks = tuple(list(map(sub, lifted[1:], lifted)))
        object.__setattr__(self, "blocks", blocks)
        # Slope i = block_i / w_i differs from slope i-1 exactly when the
        # cross products of the integers differ.
        object.__setattr__(self, "_break_indices", tuple(list(compress(range(p), map(
            ne, map(mul, blocks, lengths[-1:] + lengths[:-1]),
            map(mul, blocks[-1:] + blocks[:-1], lengths))))))
        # power form: p = (base-1) * base**m
        m, q = 0, p
        if p % (base - 1) == 0:
            q = p // (base - 1)
            while q % base == 0:
                q //= base
                m += 1
        object.__setattr__(self, "power_exponent", m if q == 1 else None)

    @property
    def unit(self) -> Fraction:
        """The length of one unit of weight, r / W."""
        return Fraction(self.circumference, self.total_weight)

    @property
    def endpoints(self) -> tuple[Fraction, ...]:
        """The cut points, formed on each read."""
        return tuple([self.cut(i) for i in range(self.interval_count)])

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        """The branch slopes block_i / w_i, formed on each read."""
        return tuple([Fraction(b, v) for b, v in zip(self.blocks, self.lengths)])

    def cut(self, i: int) -> Fraction:
        """Cut point i, read off the prefix sums alone."""
        return Fraction(self.circumference * self.prefix_sums[i], self.total_weight)

    def __setattr__(self, name, value):  # pragma: no cover - frozen
        raise AttributeError("partition objects are immutable")

    @property
    def is_power_form(self) -> bool:
        return self.power_exponent is not None

    def break_indices(self) -> tuple[int, ...]:
        """The cuts where the slope changes, computed once at construction."""
        return self._break_indices

    def to_dict(self) -> dict:
        return {"base": self.base, "lengths": list(self.lengths)}

    @classmethod
    def from_dict(cls, data: dict) -> "AffineMarkovPartition":
        if not isinstance(data, dict):
            raise ParseError("partition document must be a JSON object")
        try:
            base = data["base"]
            lengths = data["lengths"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"partition document missing field: {exc}") from exc
        if not isinstance(base, int) or isinstance(base, bool):
            raise ParseError("'base' must be an integer")
        if (not isinstance(lengths, list) or not lengths
                or any(not isinstance(v, int) or isinstance(v, bool) or v <= 0
                       for v in lengths)):
            raise ParseError("'lengths' must be a nonempty list of positive integers")
        try:
            return cls(base, lengths)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "AffineMarkovPartition":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def _key(self):
        return (self.base, self.lengths)

    def __eq__(self, other):
        return isinstance(other, AffineMarkovPartition) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"AffineMarkovPartition(base={self.base}, lengths={list(self.lengths)})"


class BuildReport:
    """What the expanding-map construction established beyond the partition:
    the break value at each cut where the slope changes.

    The build keeps them on cut indices, as (index, value) pairs in
    ``breaks``; ``break_values`` names each cut by its point, as
    ``(Fraction, value)`` pairs formed on first read.
    """

    __slots__ = ("breaks", "_cuts", "_break_values")

    def __init__(self, breaks: tuple[tuple[int, int], ...], r: int, W: int,
                 prefix_sums: tuple[int, ...]) -> None:
        self.breaks = breaks
        self._cuts = r, W, prefix_sums
        self._break_values = None

    @property
    def break_values(self) -> tuple[tuple[Fraction, int], ...]:
        if self._break_values is None:
            r, W, cum = self._cuts
            self._break_values = tuple([(Fraction(r * cum[i], W), v) for i, v in self.breaks])
        return self._break_values

    def __eq__(self, other):
        if not isinstance(other, BuildReport):
            return NotImplemented
        return self.break_values == other.break_values

    def __hash__(self):
        return hash(self.break_values)

    def __repr__(self):
        return f"BuildReport(break_values={self.break_values!r})"


def build_expanding_map(P: AffineMarkovPartition) -> tuple[PLCircleMap, BuildReport]:
    """The degree-n expanding map whose branch over interval i stretches it
    across the next base-many intervals, with a report of its invariants.

    Refuses when a branch slope is not a power of the base or a cut point is
    not a base-n fraction — in either case no base-n map realizes the
    partition.  The pair is built once per partition and kept on it, so
    every later call returns the same objects; a refusal keeps nothing and
    is raised again on the next call.
    """
    if P._built is None:
        object.__setattr__(P, "_built", _build(P))
    return P._built


def _build(P: AffineMarkovPartition) -> tuple[PLCircleMap, BuildReport]:
    """The work of ``build_expanding_map``, done once per partition."""
    n, p, r = P.base, P.interval_count, P.circumference
    blocks, w = P.blocks, P.lengths
    break_indices = P.break_indices()
    # The slope is constant from one break to the next, so one test per run
    # covers every interval.  The run through index 0 goes first and the
    # others follow in order of their starts, so a refusal names the first
    # bad interval.
    starts = break_indices if break_indices[:1] == (0,) else (0,) + break_indices
    exponents = {}
    for i in starts:
        e = ratio_exponent(blocks[i], w[i], n)
        if e is None:
            s = Fraction(blocks[i], w[i])
            raise SlopeNotPowerOfN(
                f"interval {i} has slope {s}, not a power of {n}",
                index=i, slope=s,
            )
        exponents[i] = e
    # Cut points are integer multiples of the unit r/W, so they are all
    # base-n fractions when it is one.
    if not is_smooth(P.total_weight // gcd(P.total_weight, r), n):
        for i in range(p):
            x = P.cut(i)
            if not is_nadic(x, n):
                raise EndpointNotNAdic(
                    f"cut point {i} at {x} is not a base-{n} fraction",
                    index=i, value=x,
                )
    # The map's breaks are the cuts where the slope changes (a break-free
    # partition gives multiplication by n).
    bnums, lnums, pairs = zip(*_lift_triples(P, break_indices or (0,)))
    g = PLCircleMap._from_lift(r, n, P.total_weight, bnums, pairs, lnums)
    # The break at a cut is the change of exponent from the run before it.
    ex = [exponents[i] for i in break_indices]
    breaks = tuple(list(zip(break_indices, map(sub, ex, ex[-1:] + ex[:-1]))))
    return g, BuildReport(breaks, r, P.total_weight, P.prefix_sums)


def _lift_triples(P: AffineMarkovPartition, cuts) -> list[tuple[int, int, tuple[int, int]]]:
    """(start, lift value, reduced slope pair) of the partition's lift at
    the given cuts, over W: cut i is r*cum[i], sent to the lifted cut n*i at
    weight floor(n*i/p)*W + cum[n*i mod p], with slope block_i / w_i."""
    n, p, r, W = P.base, P.interval_count, P.circumference, P.total_weight
    cum, blocks, w = P.prefix_sums, P.blocks, P.lengths
    triples = []
    for i in cuts:
        q, j = divmod(n * i, p)
        b, v = blocks[i % p], w[i % p]
        common = gcd(b, v)
        triples.append((r * cum[i], r * (q * W + cum[j]), (b // common, v // common)))
    return triples


def _inverse_branches(pieces) -> tuple[int, list[int], list[int], list[int]]:
    """(A, factors, offsets, lows): the inverse branches of a lift fixing 0,
    from its (start, lift value, reduced slope pair) over one denominator D,
    from the piece owning 0 to the first boundary at or past r.  A is the lcm
    of the slope numerators and lows the lift values less the lift at 0.  The
    branch x = c + (y - lo)*sd/sn, with y = Y/(D*A^(k-1)) and x = X/(D*A^k),
    is X = f*Y + A^(k-1)*offset: f = sd*A/sn, and the offset is c*A - f*lo."""
    at, value, (sn, sd) = pieces[0]
    shift = (value * sd - at * sn) // sd  # the lift at 0, a multiple of r*D
    lows = [v - shift for _, v, _ in pieces]
    branches = pieces[:-1]
    A = lcm(*[sn for _, _, (sn, _) in branches])
    factors = [sd * (A // sn) for _, _, (sn, sd) in branches]
    offsets = [c * A - f * lo for (c, _, _), f, lo in zip(branches, factors, lows)]
    return A, factors, offsets, lows


def _pullback(level, scale: int, D: int, r: int, n: int, branches) -> list[int]:
    """Level k from the m sorted vertices L of level k - 1 in [0, r), given
    as numerators over D*scale with scale = A^(k-1).  Vertex t is the branch
    image of L[t mod m] + r*floor(t/m); those targets increase with t, so one
    pointer finds each branch, and the level comes out sorted, over D*scale*A."""
    _, factors, offsets, lows = branches
    thresholds = [lo * scale for lo in lows]
    terms = [b * scale for b in offsets]
    lap = r * D * scale
    fresh, j = [], 0
    append = fresh.append
    factor, term, following = factors[0], terms[0], thresholds[1]
    for base in range(0, n * lap, lap):
        for v in level:
            y = v + base
            while y >= following:
                j += 1
                factor, term, following = factors[j], terms[j], thresholds[j + 1]
            append(factor * y + term)
    return fresh


def _partition_branches(P: AffineMarkovPartition) -> tuple:
    """The inverse branches of the partition's lift, one per interval, kept."""
    if P._branches is None:
        object.__setattr__(P, "_branches", _inverse_branches(
            _lift_triples(P, range(P.interval_count + 1))))
    return P._branches


@dataclass(frozen=True, eq=False)
class PartitionLevelTable:
    """Sorted vertex values of one refinement depth as integer numerators
    over one denominator: vertex N is ``numerators[N] / denominator``, on
    the circle of circumference r.  The ``Fraction`` tuple ``values`` is
    formed on first read; equality and hashing read it, with the level and
    the circumference."""

    level: int
    numerators: tuple[int, ...]
    denominator: int
    circumference: int

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        D = self.denominator
        return tuple([Fraction(x, D) for x in self.numerators])

    def __len__(self) -> int:
        return len(self.numerators)

    def interval_length(self, i: int) -> Fraction:
        X, m, D = self.numerators, len(self.numerators), self.denominator
        i %= m
        if i == m - 1:
            return Fraction(self.circumference * D + X[0] - X[i], D)
        return Fraction(X[i + 1] - X[i], D)

    def _key(self):
        return (self.level, self.values, self.circumference)

    def __eq__(self, other):
        return isinstance(other, PartitionLevelTable) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


MAX_TABLE_VERTICES = 2**20  # largest vertex level read whole


def _check_vertex_budget(count: int, n: int, depth: int) -> None:
    """Refuse a level of count*n**depth vertices past MAX_TABLE_VERTICES.
    One of at least 2**(2*b) vertices, b the budget's bit length, is refused
    without forming its count: that takes seconds at depth 10**9, and has
    too many digits to print from depth ~14,300 in base 2.  As
    n**depth >= 2**(depth * (n.bit_length() - 1)), the depth tells."""
    limit = MAX_TABLE_VERTICES
    deep = depth * (n.bit_length() - 1) >= 2 * limit.bit_length()
    if deep or count * n**depth > limit:
        total = f"{count}*{n}**{depth}" if deep else count * n**depth
        raise BudgetExceeded(
            f"level {depth} has {total} vertices, budget is {limit}", limit=limit,
        )


class LevelChain:
    """Lazily refined tower of vertex tables for one partition.

    Only whole-level reads need it, through ``table``; single vertices come
    from the inverse-branch descent of ``vertex_value``.  Each level is the
    pullback of the last through the partition's own inverse branches, one
    per cut interval, so no map is consulted and the vertex law holds by
    construction.  With A the lcm of the reduced slope numerators and W the
    total weight, level k is kept as integer numerators over W*A^k.  Levels
    past the vertex budget are refused before anything is refined.  The
    lock guards refinement only: two threads that race to read a table's
    ``values`` first build equal tuples.
    """

    def __init__(self, partition: AffineMarkovPartition):
        self.partition = partition
        r = partition.circumference
        numerators = tuple([r * c for c in partition.prefix_sums[:-1]])
        self._tables = [PartitionLevelTable(0, numerators, partition.total_weight, r)]
        self._lock = threading.Lock()

    def table(self, depth: int) -> PartitionLevelTable:
        """The level-``depth`` vertex table, refined on first request."""
        _check_depth(depth, "refinement depth")
        P = self.partition
        n, r, W = P.base, P.circumference, P.total_weight
        _check_vertex_budget(P.interval_count, n, depth)
        with self._lock:
            tables = self._tables
            while len(tables) <= depth:
                last, branches = tables[-1], _partition_branches(P)
                fresh = _pullback(last.numerators, last.denominator // W, W, r, n, branches)
                tables.append(PartitionLevelTable(last.level + 1, tuple(fresh),
                                                  last.denominator * branches[0], r))
            return tables[depth]


@dataclass(frozen=True)
class VertexRef:
    """A vertex named by (index, level); index i at level k is the point
    x(i, k), with the alias x(i, k) = x(n*i, k+1)."""

    index: int
    level: int

    def __post_init__(self):
        _check_depth(self.index, "vertex index")
        _check_depth(self.level, "vertex level")


def reduce_ref(ref: VertexRef, n: int) -> VertexRef:
    """Canonical form: divide out n from the index while the level allows."""
    i, k = ref.index, ref.level
    while k > 0 and i % n == 0:
        i //= n
        k -= 1
    if i == ref.index and k == ref.level:
        return ref
    return VertexRef(i, k)


def fixed_point_class(ref: VertexRef, n: int) -> int:
    """Residue class mod n-1 of the canonical index; vertices in the same
    class share a grid orbit."""
    if n == 2:
        return 0
    return reduce_ref(ref, n).index % (n - 1)


def _descend(P: AffineMarkovPartition, index: int, depth: int) -> Fraction:
    """The conjugator at lifted source grid index ``index`` of ``depth``.

    The conjugator h sends source interval i onto cut interval i, and its lift
    satisfies h(n*q) = G(h(q)) for the partition's lift G.  So level k is one
    inverse branch of G: its index, index mod p*n^k, lies on cut interval
    part // n^k, past r by part // (p*n^(k-1)) laps, and index p*n^depth
    gives r.  The walk runs on numerators over W*A^k and forms one
    ``Fraction`` at the end.
    """
    n, p, r, W = P.base, P.interval_count, P.circumference, P.total_weight
    A, factors, offsets, _ = _partition_branches(P)
    wraps, index = divmod(index, p * n**depth)
    x, scale = r * P.prefix_sums[index % p], 1  # numerator over W*scale
    for k in range(1, depth + 1):
        part = index % (p * n**k)
        i, laps = part // n**k, part // (p * n**(k - 1))
        x = factors[i] * (x + laps * r * W * scale) + scale * offsets[i]
        scale *= A
    return Fraction(x + wraps * r * W * scale, W * scale)


def _source_index(P: AffineMarkovPartition, index: int, level: int) -> tuple[int, int]:
    """Source grid (index, depth) of vertex ``index`` at ``level``: power-form
    levels count from the base grid, whose level m holds the cut points."""
    m = P.power_exponent or 0
    return index * P.base**max(m - level, 0), max(level - m, 0)


def vertex_value(P: AffineMarkovPartition, ref: VertexRef) -> Fraction:
    """The circle point a vertex reference names.

    For power-form partitions, level k indexes the (base-1)*n^k vertices of
    the k-th refinement of the base grid: levels up to the power exponent
    stride through the cut points.  For other partitions, level counts
    refinements of the cut points directly.  The value is read off P by
    inverse-branch descent.
    """
    n = P.base
    ref = reduce_ref(ref, n)
    i, k = ref.index, ref.level
    if P.is_power_form:
        if i >= (n - 1) * n**k:
            raise ValueError(f"index {i} out of range for level {k}")
    elif i >= P.interval_count * n**k:
        raise ValueError(f"index {i} out of range for depth {k}")
    return _descend(P, *_source_index(P, i, k))


def interval_length_at(P: AffineMarkovPartition, level: int, index: int) -> Fraction:
    """Length of the level interval starting at the given vertex index, which
    is taken modulo the level's vertex count; read off P like vertex_value."""
    _check_depth(level, "refinement level")
    start, depth = _source_index(P, index, level)
    end, _ = _source_index(P, index + 1, level)
    return _descend(P, end, depth) - _descend(P, start, depth)


def stable_level(P: AffineMarkovPartition) -> int:
    """The refinement level from which the vertex pattern of breaks repeats.

    Only defined for power-form partitions; it is the smallest K such that
    every break index is divisible by n^(m-K), that is such that n^(m-K)
    divides their gcd with n^m.
    """
    m = P.power_exponent
    if m is None:
        raise NotPowerForm(
            f"{P.interval_count} intervals is not (base-1)*base^m for base {P.base}"
        )
    n = P.base
    return m - trailing_zeros(gcd(n**m, *P.break_indices()), n)


def natural_slope(P: AffineMarkovPartition, a: VertexRef, c: VertexRef) -> Fraction:
    """Ratio of stable-level interval lengths at two vertices of one grid
    class — the derivative the partition's conjugator must have if it moves
    vertex a to vertex c."""
    n = P.base
    K = stable_level(P)
    a, c = reduce_ref(a, n), reduce_ref(c, n)
    for ref in (a, c):
        if ref.index >= (n - 1) * n**ref.level:
            raise ValueError(f"index {ref.index} out of range for level {ref.level}")
    ca, cc = fixed_point_class(a, n), fixed_point_class(c, n)
    if ca != cc:
        raise ClassMismatch(
            f"vertices lie in different grid classes {ca} and {cc} mod {n - 1}",
            left=ca, right=cc,
        )
    la = interval_length_at(P, a.level + K, a.index * n**K)
    lc = interval_length_at(P, c.level + K, c.index * n**K)
    return lc / la
