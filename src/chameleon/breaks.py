"""Break-value calculus along forward orbits of expanding circle maps.

The central quantity is the iterated break sum of a point: the total of the
break values (base-n logs of slope ratios) collected along its forward orbit.
It is finite exactly when the orbit's eventual cycle carries no breaks, it is
constant on grid classes from the stable refinement level onward, and for
base 2 its constancy across the newest vertices decides whether the
partition's conjugator is piecewise linear.  The sums only decide: a PL
conjugator breaks only over cut points, so it is the pairing interpolant
that ``conjugacy`` builds, sending grid point i/p to cut i.  That it
intertwines doubling with the map is checked on the integer weights
(``conjugacy._pairing_conjugator``), not by composing maps.

``break_sum_table`` builds the table in one pass over the cut indices of a
power-form partition (``_cut_walker``), and ``pl_criterion`` and
``find_break_sum_discrepancy`` read it; ``orbit_merge_violations`` walks each
vertex's ``orbit``.  Both take the break at a cut from the build's report.
``iterated_break_sum`` and ``coboundary_check`` take any circle map, so they
walk ``orbit`` and add ``break_value`` along it, in Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import add
from typing import Optional

from .conjugacy import _pairing_conjugator, _weight_changes
from .errors import DivergentCycle, DivergentFixedPoint
from .exact import _check_depth, as_fraction, is_nadic, ratio_exponent
from .maps import (
    MAX_ORBIT_STEPS,
    PLCircleMap,
    break_value,
    classify,
    map_to_dict,
    orbit,
    reduce_to_circle,
)
from .markov import (
    AffineMarkovPartition,
    VertexRef,
    build_expanding_map,
    _check_vertex_budget,
    reduce_ref,
    stable_level,
    vertex_value,
)


def _cut_walker(P: AffineMarkovPartition, K: Optional[int] = None):
    """The stable level K of P, and break sums at cut points of P named by
    index; ``break_sum_table`` and ``pl_criterion`` call it.

    Building the map g of P refuses first, then ``stable_level``; a caller
    that has done both passes K.  The walker is for power form only,
    p = (n-1)*n^m.  g sends cut c to cut n*c mod p, and its break at cut c
    is the build's break value there (0 off the break cuts).  That step
    raises the n-adic valuation of c by one until it reaches m, and the
    multiples of n^m are its fixed points, so the orbit of c ends within m
    steps at cut n^m*(c mod (n-1)).  One pass from valuation m - 1 down,
    one slice per digit, therefore sums every cut.  Each of the n - 1 fixed
    points is checked once, and a request refuses at its first cut whose
    fixed point carries a break.
    """
    if K is None:
        build_expanding_map(P)
        K = stable_level(P)
    _, report = build_expanding_map(P)
    n, p, m = P.base, P.interval_count, P.power_exponent
    weights = [0] * p
    for c, value in report.breaks:
        weights[c] = value
    # The cuts c = n^v*(t + n*k) of valuation v, for each digit t, in one
    # slice each.  Their images n*c mod p are n^(v+1)*((t + n*k) mod L),
    # with L = p/n^(v+1), so below valuation m - 1 they are the slice
    # n^(v+1)*(t + n*j), j < L/n, repeated n times; at valuation m - 1 they
    # are fixed points, whose sum is 0.
    sums = [0] * p
    for v in range(m - 1, -1, -1):
        step = n**v
        for t in range(1, n):
            here = slice(step * t, p, n * step)
            if v == m - 1:
                sums[here] = weights[here]
            else:
                images = sums[n * step * t::n * n * step] * n
                sums[here] = list(map(add, weights[here], images))
    top = n**m
    divergent = any(weights[top * a] for a in range(n - 1))

    def walk(cuts) -> list[int]:
        for c in cuts if divergent else ():
            end = top * (c % (n - 1))
            if weights[end]:
                raise DivergentFixedPoint(
                    f"orbit of {P.cut(c)} ends at fixed point {P.cut(end)} with "
                    f"break value {weights[end]}",
                    point=P.cut(end), break_value=weights[end],
                )
        return [sums[c] for c in cuts]

    return K, walk


def iterated_break_sum(g: PLCircleMap, x, max_steps: int = MAX_ORBIT_STEPS) -> int:
    """Total break value collected along the forward orbit of x.

    One ``orbit`` walk of x gives it: the sum is over the walk's prefix, and
    is defined exactly when every point of the walk's cycle has zero break
    value; refuses with DivergentFixedPoint or DivergentCycle otherwise.
    When the map has base-n breaks, power-of-n slopes, and preserves the
    base-n lattice, points outside the lattice never meet a break, so their
    sum is 0 without walking the orbit.
    """
    _check_depth(max_steps, "max_steps")
    n = g.circumference + 1
    x = reduce_to_circle(as_fraction(x), g.circumference)
    # Under classify items 3-5 an off-lattice orbit never meets a break.
    if not is_nadic(x, n) and all(classify(g, n).items[2:]):
        return 0
    walk = orbit(g, x, max_steps)
    cycle_breaks = tuple([break_value(g, c, n) for c in walk.cycle])
    if any(cycle_breaks):
        if len(walk.cycle) == 1:
            raise DivergentFixedPoint(
                f"orbit of {x} ends at fixed point {walk.cycle[0]} with "
                f"break value {cycle_breaks[0]}",
                point=walk.cycle[0], break_value=cycle_breaks[0],
            )
        raise DivergentCycle(
            f"orbit of {x} enters the cycle {walk.cycle} with break values "
            f"{cycle_breaks}",
            cycle=walk.cycle, break_values=cycle_breaks,
        )
    return sum(break_value(g, q, n) for q in walk.prefix)


@dataclass(frozen=True)
class BreakSumTable:
    """Iterated break sums at the newest vertices of the stable level.

    ``entries`` maps each stable-level vertex index not divisible by the base
    to its break sum; together with the reduction law (the sum at any vertex
    of level at least the stable level depends only on its index modulo the
    stable vertex count) this determines the sum at every vertex from the
    stable level onward.  An empty table (stable level 0) means the sum is
    identically zero.
    """

    base: int
    stable_level: int
    entries: tuple[tuple[int, int], ...]

    def value_at(self, ref: VertexRef) -> int:
        reduced = reduce_ref(ref, self.base)
        if self.stable_level == 0:
            return 0
        if reduced.level < self.stable_level:
            raise ValueError(
                f"vertex first appears at level {reduced.level}, below the "
                f"stable level {self.stable_level}; the reduction law does "
                f"not reach it"
            )
        idx = reduced.index % ((self.base - 1) * self.base**self.stable_level)
        # Entries run over the non-multiples of the base in order.
        pos = idx - idx // self.base - 1
        if 0 <= pos < len(self.entries) and self.entries[pos][0] == idx:
            return self.entries[pos][1]
        raise ValueError(f"no entry for reduced index {idx}")

    def sequence(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)

    @property
    def is_constant(self) -> bool:
        return len({v for _, v in self.entries}) <= 1


def break_sum_table(P: AffineMarkovPartition) -> BreakSumTable:
    """Break sums at all newest stable-level vertices of the partition.

    Requires the map of P, so ``build_expanding_map``'s refusals come first;
    then the power form (otherwise the stable level does not exist) and
    finite sums at every one of those vertices; divergence refusals
    propagate.
    """
    return _table(P, *_cut_walker(P))


def _table(P: AffineMarkovPartition, K: int, walk) -> BreakSumTable:
    """The table of stable level K from the cut walker of P."""
    # K is at most the power exponent, so vertex (i, K) is cut i * n^(m-K).
    n, p = P.base, P.interval_count
    if K == 0:
        return BreakSumTable(base=n, stable_level=K, entries=())
    # The indices not divisible by n, and their cuts.
    q = (n - 1) * n**K
    indices, cuts = list(range(q)), list(range(0, p, p // q))
    del indices[::n], cuts[::n]
    # Built from a list: see the note on hot tuples in ``maps``.
    return BreakSumTable(base=n, stable_level=K, entries=tuple(list(zip(indices, walk(cuts)))))


def coboundary_check(g: PLCircleMap, xs) -> bool:
    """Whether the break value equals the step difference of break sums,
    break(x) = sum(x) - sum(g(x)), at every sample point."""
    n = g.circumference + 1
    for x in xs:
        x = reduce_to_circle(as_fraction(x), g.circumference)
        lhs = break_value(g, x, n)
        rhs = iterated_break_sum(g, x) - iterated_break_sum(g, g.evaluate(x))
        if lhs != rhs:
            return False
    return True


@dataclass(frozen=True)
class OrbitMergeViolation:
    """Two points whose forward orbits meet carrying different break totals."""

    left: Fraction
    right: Fraction
    meeting_point: Fraction
    left_sum: int
    right_sum: int


def orbit_merge_violations(g: PLCircleMap, P: AffineMarkovPartition,
                           level_bound: int) -> tuple[OrbitMergeViolation, ...]:
    """All vertex pairs up to a level whose orbits meet with unequal break
    totals accumulated up to the first common point.

    An empty result certifies the merge identity on the tested range only;
    whether a violation is reported at the first meeting or any later one is
    immaterial, since after the merge both orbits collect identical terms.
    Each vertex is walked once with ``orbit``, adding the build's break
    values.  ``g`` must be the map ``build_expanding_map(P)`` returns; any
    other map is refused with ValueError, and a level past the vertex budget
    with BudgetExceeded before any vertex is read.
    """
    _check_depth(level_bound, "level bound")
    built, report = build_expanding_map(P)
    if built != g:
        raise ValueError("g must be the map build_expanding_map(P) returns")
    n = P.base
    # Level 0 holds the cut points, or the n - 1 grid points in power form.
    count = P.interval_count if P.power_exponent is None else n - 1
    _check_vertex_budget(count, n, level_bound)
    points = [vertex_value(P, VertexRef(i, level_bound))
              for i in range(count * n**level_bound)]
    walks = [orbit(g, x).points for x in points]
    firsts = [{q: j for j, q in enumerate(w)} for w in walks]
    # totals[k][i] is the break total over walks[k][:i].
    breaks = dict(report.break_values)
    totals = [list(accumulate((breaks.get(q, 0) for q in w[:-1]), initial=0))
              for w in walks]
    violations = []
    for a, b in combinations(range(len(points)), 2):
        # The first common point: least i + j, then least i.
        meets = [(i + firsts[b][q], i) for i, q in enumerate(walks[a]) if q in firsts[b]]
        if not meets:
            continue
        steps, i = min(meets)
        left_sum, right_sum = totals[a][i], totals[b][steps - i]
        if left_sum != right_sum:
            violations.append(OrbitMergeViolation(
                left=points[a], right=points[b], meeting_point=walks[a][i],
                left_sum=left_sum, right_sum=right_sum,
            ))
    return tuple(violations)


@dataclass(frozen=True)
class BreakAssignment:
    """Finitely supported integer break budget on circle points."""

    entries: tuple[tuple[Fraction, int], ...]

    def value_at(self, x) -> int:
        x = as_fraction(x)
        for pt, v in self.entries:
            if pt == x:
                return v
        return 0


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the base-2 piecewise-linearity decision.

    The break sums decide.  A positive verdict carries the conjugator, which
    is then the pairing interpolant, with its initial slope and its breaks
    at the cut points; a negative one carries two stable-level vertices
    whose break sums differ.
    """

    is_pl: bool
    stable_level: int
    table: BreakSumTable
    witness: Optional[tuple[VertexRef, VertexRef]]
    witness_values: Optional[tuple[int, int]]
    conjugator: Optional[PLCircleMap]
    initial_slope: Optional[Fraction]
    assignment: Optional[BreakAssignment]

    def __bool__(self) -> bool:
        return self.is_pl

    def as_dict(self) -> dict:
        if self.is_pl:
            return {
                "outcome": "pl",
                "stable_level": self.stable_level,
                "initial_slope": str(self.initial_slope),
                "conjugator": map_to_dict(self.conjugator),
                "assignment": [[str(x), v] for x, v in self.assignment.entries],
            }
        return {
            "outcome": "not-pl",
            "stable_level": self.stable_level,
            "witness_indices": [self.witness[0].index, self.witness[1].index],
            "witness_values": list(self.witness_values),
        }


def pl_criterion(g: PLCircleMap, P: AffineMarkovPartition) -> CriterionVerdict:
    """Decide whether the partition's conjugator is piecewise linear (base 2).

    The conjugator is PL exactly when the break sum is constant across the
    newest stable-level vertices, so the sums decide.  On success the
    conjugator is the pairing interpolant ``conjugacy._pairing_conjugator``
    builds, verified to intertwine doubling with g: the sums prescribe
    breaks only over shallow vertices, which are cut points, so a PL
    conjugator is affine on every source interval of the p-grid.  Since g
    is the partition's own map, the intertwining is a test of equal weights
    in pairs, with no map composed.  Its initial slope is p*w[0]/W and its
    break at cut i is log2(w[i]/w[i-1]).  The stable level is taken once,
    for the table and the verdict.  ``g`` must be the map
    ``build_expanding_map(P)`` returns; any other map is refused with
    ValueError.
    """
    if P.base != 2:
        raise ValueError("the piecewise-linearity decision is specific to base 2")
    K = stable_level(P)
    if build_expanding_map(P)[0] != g:
        raise ValueError("g must be the map build_expanding_map(P) returns")
    table = _table(P, *_cut_walker(P, K))
    if not table.is_constant:
        seq = table.entries
        first_idx, first_val = seq[0]
        other_idx, other_val = next((i, v) for i, v in seq if v != first_val)
        return CriterionVerdict(
            is_pl=False, stable_level=K, table=table,
            witness=(VertexRef(first_idx, K), VertexRef(other_idx, K)),
            witness_values=(first_val, other_val),
            conjugator=None, initial_slope=None, assignment=None,
        )
    # A constant table puts the conjugator in the pairing interpolant; its
    # breaks sit at the cuts where the weight changes.
    n, p, W, w = P.base, P.interval_count, P.total_weight, P.lengths
    h = _pairing_conjugator(P)
    assignment = BreakAssignment(entries=tuple([
        (P.cut(i), ratio_exponent(w[i], w[i - 1], n)) for i in _weight_changes(P)]))
    return CriterionVerdict(
        is_pl=True, stable_level=K, table=table, witness=None,
        witness_values=None, conjugator=h, initial_slope=Fraction(p * w[0], W),
        assignment=assignment,
    )


@dataclass(frozen=True)
class Discrepancy:
    """Offset at which two vertex neighborhoods disagree in break sums."""

    offset: int
    point: Fraction
    left_value: int
    right_value: int


def find_break_sum_discrepancy(P: AffineMarkovPartition, left: VertexRef,
                               right: VertexRef, pad: int = 1) -> Optional[Discrepancy]:
    """Search the stable-level offsets for a break-sum disagreement between
    the deep vertices just after ``left`` and those just after ``right``.

    Both anchors must already be at their natural level, at or beyond the
    stable level; ``pad`` pushes the right-hand comparison deeper.  Returns
    the smallest offset where the two sums differ, with the left-hand vertex
    value as evidence, or None when every offset agrees (in particular
    whenever ``break_sum_table(P)``, which the search reads, is constant).
    """
    if P.base != 2:
        raise ValueError("the discrepancy search is specific to base 2")
    _check_depth(pad, "pad", 1)
    table = break_sum_table(P)
    K = table.stable_level
    left, right = reduce_ref(left, 2), reduce_ref(right, 2)
    for ref in (left, right):
        if ref.level < K:
            raise ValueError(
                f"anchor first appears at level {ref.level}, below the stable "
                f"level {K}"
            )
    span = 1 << K
    for i in range(1, span):
        left_ref = VertexRef(left.index * span + i, left.level + K)
        right_ref = VertexRef(right.index * (span << pad) + i,
                              right.level + K + pad)
        va = table.value_at(left_ref)
        vb = table.value_at(right_ref)
        if va != vb:
            return Discrepancy(
                offset=i,
                point=vertex_value(P, left_ref),
                left_value=va, right_value=vb,
            )
    return None
