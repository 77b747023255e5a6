"""Break-value calculus: iterated sums, stable tables, identities, and the
base-2 piecewise-linearity decision."""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import corpus_partition, rescaled_level_partition, subdivision_conjugate
from level_oracles import break_sum_rebuild, build_by_interval

from chameleon.breaks import (
    BreakSumTable,
    OrbitMergeViolation,
    _cut_walker,
    break_sum_table,
    coboundary_check,
    find_break_sum_discrepancy,
    iterated_break_sum,
    orbit_merge_violations,
    pl_criterion,
)
from chameleon.errors import (
    BudgetExceeded,
    DivergentCycle,
    DivergentFixedPoint,
    EndpointNotNAdic,
    NotPowerForm,
    RefusalError,
    SlopeNotPowerOfN,
)
from chameleon.exact import as_fraction
from chameleon.golden import load_example
from chameleon.conjugacy import periodic_points
from chameleon.maps import PLCircleMap, break_value, classify, multiplication_map, orbit
from chameleon.markov import (
    AffineMarkovPartition,
    LevelChain,
    VertexRef,
    build_expanding_map,
    reduce_ref,
    stable_level,
    vertex_value,
)

F = Fraction


def vertices_at_level(partition, level):
    """Every distinct vertex reference value at the given refinement level."""
    n = partition.base
    if partition.power_exponent is not None:
        span = (n - 1) * n**level
    else:
        span = partition.interval_count * n**level
    return [vertex_value(partition, VertexRef(i, level))
            for i in range(span)]


def orbit_sum_oracle(g, x, stop=None):
    """Break total along the orbit of x, independently of iterated_break_sum:
    walk with evaluate() and add break_value() until the cycle (or stop)."""
    n = g.circumference + 1
    res = orbit(g, x)
    walk = list(res.prefix) if stop is None else None
    if stop is not None:
        walk = []
        p = x
        while p != stop:
            walk.append(p)
            p = g.evaluate(p)
    return sum(break_value(g, q, n) for q in walk)


def iterated_sum_oracle(g, x, n, max_steps=4096):
    """The per-point orbit() + break_value() sum, refusals and their
    messages included: the Fraction reference for the cut-index walk, and
    the form ``iterated_break_sum`` takes off its off-lattice shortcut."""
    result = orbit(g, x, max_steps=max_steps)
    cycle_breaks = tuple(break_value(g, c, n) for c in result.cycle)
    if any(cycle_breaks):
        if len(result.cycle) == 1:
            raise DivergentFixedPoint(
                f"orbit of {x} ends at fixed point {result.cycle[0]} with "
                f"break value {cycle_breaks[0]}",
                point=result.cycle[0], break_value=cycle_breaks[0],
            )
        raise DivergentCycle(
            f"orbit of {x} enters the cycle {result.cycle} with break values "
            f"{cycle_breaks}",
            cycle=result.cycle, break_values=cycle_breaks,
        )
    return sum(break_value(g, p, n) for p in result.prefix)


def outcome(compute):
    """A result, or a refusal as (type, message, fields), for comparison."""
    try:
        return compute()
    except RefusalError as err:
        return type(err), str(err), vars(err)


def break_sum_table_oracle(g, partition):
    """The table as the Fraction walk gives it: stable-level vertex values
    summed along the orbits of g itself, in order, so that the first vertex
    that refuses raises."""
    n, K = partition.base, stable_level(partition)
    if K == 0:
        return BreakSumTable(base=n, stable_level=0, entries=())
    indices = [i for i in range((n - 1) * n**K) if i % n]
    points = [vertex_value(partition, VertexRef(i, K)) for i in indices]
    return BreakSumTable(base=n, stable_level=K,
                         entries=tuple(zip(indices, [iterated_sum_oracle(g, x, n)
                                                     for x in points])))


def merge_violations_oracle(g, partition, level):
    """The pair-by-pair orbit-merge scan: every vertex pair re-derives its
    first meeting and both break totals from the full orbits."""
    n, m = partition.base, partition.power_exponent
    chain = LevelChain(partition)
    if m is not None and level <= m:
        stride = n**(m - level)
        points = [partition.endpoints[i * stride] for i in range((n - 1) * n**level)]
    else:
        points = list(chain.table(level - (m or 0)).values)
    walks = {x: list(orbit(g, x).points) for x in points}
    violations = []
    for a_idx in range(len(points)):
        for b_idx in range(a_idx + 1, len(points)):
            x, y = points[a_idx], points[b_idx]
            wx, wy = walks[x], walks[y]
            pos_y = {pt: j for j, pt in reversed(list(enumerate(wy)))}
            meet = None
            for i, pt in enumerate(wx):
                if pt in pos_y:
                    j = pos_y[pt]
                    if meet is None or i + j < meet[0] + meet[1]:
                        meet = (i, j, pt)
            if meet is None:
                continue
            i, j, pt = meet
            left_sum = sum(break_value(g, q, n) for q in wx[:i])
            right_sum = sum(break_value(g, q, n) for q in wy[:j])
            if left_sum != right_sum:
                violations.append(OrbitMergeViolation(
                    left=x, right=y, meeting_point=pt,
                    left_sum=left_sum, right_sum=right_sum,
                ))
    return tuple(violations)


def one_sided_slopes(g, p):
    """(left slope, right slope) of g at the circle point p.

    The piece window starts at the first breakpoint, so a point may only be
    covered by its representative one circumference later.
    """
    left = right = None
    for start, end, piece in g.window_pieces():
        for q in (p, p + g.circumference):
            if start <= q < end:
                right = piece.slope
            if start < q <= end:
                left = piece.slope
    return left, right


class TestIteratedSums:
    @pytest.mark.parametrize("example_id", ("1", "3"))
    def test_golden_vertex_sums(self, examples, example_id):
        """Direct per-point sums at the newest stable-level vertices must
        reproduce the frozen sequence, without going through the table."""
        partition, g, _ = examples[example_id]
        record = load_example(example_id)
        K = record["stable_level"]
        got = [
            iterated_break_sum(g, vertex_value(partition, VertexRef(i, K)))
            for i in range(1, 2**K, 2)
        ]
        assert got == record["sigma"]

    def test_first_odd_vertex_of_example_one(self, examples):
        _, g, _ = examples["1"]
        assert iterated_break_sum(g, F(1, 16)) == -2

    @pytest.mark.parametrize("example_id", ("1", "2", "3", "4", "5"))
    def test_off_lattice_points_sum_to_zero(self, examples, example_id):
        _, g, _ = examples[example_id]
        for probe in (F(1, 3), F(2, 7), F(3, 5)):
            assert iterated_break_sum(g, probe) == 0

    def test_off_lattice_fast_path_agrees_with_the_orbit(self, examples):
        """Every point on the orbit of a non-dyadic probe misses the breaks,
        so the shortcut answer 0 matches a term-by-term walk."""
        _, g, _ = examples["1"]
        res = orbit(g, F(1, 3))
        assert all(break_value(g, p) == 0 for p in res.prefix + res.cycle)
        assert iterated_break_sum(g, F(1, 3)) == 0

    def test_off_lattice_shortcut_needs_lattice_breaks(self):
        """This map breaks at 1/3, off the dyadic lattice, so classify item 4
        fails and the orbit of 1/3 is walked: 1/3 is a fixed point with
        break -2, where skipping every off-lattice point would give 0."""
        g = PLCircleMap(1, 2, [0, F(1, 3)], [4, 1], 0)
        assert classify(g, 2).items[2:] == (True, False, True)
        with pytest.raises(DivergentFixedPoint) as err:
            iterated_break_sum(g, F(1, 3))
        assert (err.value.point, err.value.break_value) == (F(1, 3), -2)

    @pytest.mark.parametrize("base", (2, 3, 5))
    def test_multiplication_map_sums_vanish(self, base):
        g = multiplication_map(base)
        for numerator in (1, 3, 7):
            assert iterated_break_sum(g, F(numerator, base**3)) == 0
        assert iterated_break_sum(g, F(0)) == 0

    def test_budget_propagates(self):
        g = multiplication_map(2)
        with pytest.raises(BudgetExceeded):
            iterated_break_sum(g, F(1, 2**30), max_steps=3)

    @pytest.mark.parametrize("walk", (orbit, iterated_break_sum))
    @pytest.mark.parametrize("max_steps", (-1, -2, True, 1.5, "3"))
    def test_malformed_step_budgets_are_rejected(self, walk, max_steps):
        """Checked before the walk and before the off-lattice shortcut."""
        with pytest.raises(ValueError, match="max_steps must be a non-negative integer"):
            walk(multiplication_map(2), F(1, 3), max_steps=max_steps)

    def test_divergent_fixed_point(self, examples):
        _, g, _ = examples["4"]
        record = load_example("4")
        with pytest.raises(DivergentFixedPoint) as err:
            iterated_break_sum(g, F(0))
        assert err.value.point == 0
        assert err.value.break_value == record["origin_break"]

    @pytest.mark.parametrize("example_id", ("2", "5"))
    def test_divergent_cycle(self, examples, example_id):
        _, g, _ = examples[example_id]
        divergence = load_example(example_id)["iterated_divergence"]
        with pytest.raises(DivergentCycle) as err:
            iterated_break_sum(g, as_fraction(divergence["probe"]))
        assert err.value.cycle == tuple(as_fraction(p) for p in divergence["cycle"])
        assert err.value.break_values == tuple(divergence["breaks"])

    @pytest.mark.parametrize("example_id", ("1", "2", "3", "4", "5"))
    def test_origin_break_matches_record(self, examples, example_id):
        _, g, _ = examples[example_id]
        assert break_value(g, F(0)) == load_example(example_id)["origin_break"]


class TestSharedWalk:
    """``iterated_break_sum`` point by point against the per-point orbit() +
    break_value() sum: values and refusals, messages and fields included."""

    @staticmethod
    def corpus(examples, random_conjugate_factory):
        """(map, base, points): the examples' vertices of the first levels and
        of the stable level where one exists, and seeded random conjugates'
        stable-level vertices."""
        cases = []
        for partition, g, _ in examples.values():
            levels = [0, 1, 2]
            if partition.power_exponent is not None:
                levels.append(stable_level(partition))
            for level in levels:
                cases.append((g, partition.base, vertices_at_level(partition, level)))
        for seed in range(6):
            _, g, partition = random_conjugate_factory(seed)
            cases.append((g, 2, vertices_at_level(partition, stable_level(partition))))
        return cases

    @staticmethod
    def compare(g, n, points, max_steps=4096) -> set:
        """Compare at every point; return the refusal types seen."""
        kinds = set()
        for x in points:
            got = outcome(lambda: iterated_break_sum(g, x, max_steps))
            assert got == outcome(lambda: iterated_sum_oracle(g, x, n, max_steps))
            if isinstance(got, tuple):
                kinds.add(got[0])
        return kinds

    def test_sums_and_refusals_match_the_per_point_sum(
            self, examples, random_conjugate_factory):
        for g, n, points in self.corpus(examples, random_conjugate_factory):
            self.compare(g, n, points)

    def test_every_divergence_kind_is_compared(self, examples,
                                              random_conjugate_factory):
        kinds = set()
        for g, n, points in self.corpus(examples, random_conjugate_factory):
            kinds |= self.compare(g, n, points)
        assert {DivergentFixedPoint, DivergentCycle} <= kinds

    @pytest.mark.parametrize("example_id", ("1", "3", "4"))
    def test_budget_refusals_match(self, examples, example_id):
        """Small step budgets, on the vertices one level past the stable one
        and on their images."""
        partition, g, _ = examples[example_id]
        points = vertices_at_level(partition, stable_level(partition) + 1)
        points += [g.evaluate(x) for x in points]
        refusals = set()
        for max_steps in range(1, 8):
            refusals |= self.compare(g, partition.base, points, max_steps)
        assert BudgetExceeded in refusals

    def test_budget_refusals_on_a_two_cycle(self, examples):
        """Orbits that end on the zero-break two-cycle {5/16, 5/8} of the
        third example, the longest at least five points long."""
        _, g, _ = examples["3"]
        cycle = {F(5, 16), F(5, 8)}
        points = [x for x in (F(j, 256) for j in range(256))
                  if set(orbit(g, x).cycle) == cycle]
        assert max(len(orbit(g, x).points) for x in points) >= 5
        refusals = set()
        for max_steps in range(1, 8):
            refusals |= self.compare(g, 2, points, max_steps)
        assert BudgetExceeded in refusals


class TestIndexWalk:
    """Break sums walked on cut indices mod p, against the Fraction walk."""

    @staticmethod
    def corpus(examples, random_conjugate_factory):
        """(partition, map) pairs: the examples, seeded random conjugates, and
        seeded power-form conjugates in bases 2 and 3."""
        cases = [(partition, g) for partition, g, _ in examples.values()]
        for seed in range(20):
            _, g, partition = random_conjugate_factory(seed)
            cases.append((partition, g))
        for n in (2, 3):
            for seed in range(6):
                _, g, partition = subdivision_conjugate(seed, n)
                cases.append((partition, g))
        return cases

    def test_tables_and_refusals_match(self, examples, random_conjugate_factory):
        kinds = set()
        for partition, g in self.corpus(examples, random_conjugate_factory):
            got = outcome(lambda: break_sum_table(partition))
            assert got == outcome(lambda: break_sum_table_oracle(g, partition))
            kinds.add(type(got) if isinstance(got, BreakSumTable) else got[0])
        assert {BreakSumTable, NotPowerForm, DivergentFixedPoint} <= kinds

    def test_sums_at_every_cut_match(self, examples, random_conjugate_factory):
        """Every cut point, one at a time and all in one call, against the
        Fraction sums taken in order, so that the first cut that refuses
        raises.  The walker takes power-form partitions only, the form its
        callers reach after ``stable_level``, and refuses the others as
        ``stable_level`` does."""
        kinds = set()
        for partition, g in self.corpus(examples, random_conjugate_factory):
            n = partition.base
            if partition.power_exponent is None:
                got = outcome(lambda: _cut_walker(partition))
                assert got == outcome(lambda: stable_level(partition))
                kinds.add(got[0])
                continue
            cuts = range(partition.interval_count)
            K, walk = _cut_walker(partition)
            assert K == stable_level(partition)
            for c in cuts:
                assert (outcome(lambda: walk([c]))
                        == outcome(lambda: [iterated_sum_oracle(g, partition.endpoints[c], n)]))
            got = outcome(lambda: walk(cuts))
            assert got == outcome(lambda: [iterated_sum_oracle(g, x, n)
                                           for x in partition.endpoints])
            if isinstance(got, tuple):
                kinds.add(got[0])
        assert kinds == {NotPowerForm, DivergentFixedPoint}

    def test_a_map_other_than_the_partitions_is_refused(self, examples):
        partition, _, _ = examples["1"]
        _, other, _ = examples["3"]
        for g in (other, multiplication_map(2)):
            with pytest.raises(ValueError):
                pl_criterion(g, partition)

    def test_the_kept_map_admits_an_equal_map_only(self, examples):
        """With the build kept on the partition, the guard still compares
        maps: an equal map built apart is decided, a foreign one refused."""
        partition = AffineMarkovPartition(2, examples["1"][0].lengths)
        kept, _ = build_expanding_map(partition)
        apart, _ = build_by_interval(partition)
        assert apart is not kept
        assert pl_criterion(apart, partition) == pl_criterion(kept, partition)
        _, other, _ = examples["3"]
        for g in (other, multiplication_map(2)):
            with pytest.raises(ValueError):
                pl_criterion(g, partition)
        assert build_expanding_map(partition)[0] is kept

    def test_the_map_is_refused_before_the_power_form(self):
        """[1, 2, 4] is neither Markov nor in power form: building its map
        refuses first, as it did when callers built the map themselves."""
        partition = AffineMarkovPartition(2, [1, 2, 4])
        with pytest.raises(SlopeNotPowerOfN):
            break_sum_table(partition)
        with pytest.raises(SlopeNotPowerOfN):
            find_break_sum_discrepancy(partition, VertexRef(1, 1), VertexRef(1, 1))


# Base-3 power-form partitions (p = 18) whose map breaks at a fixed point:
# at 0, and rotated by half the circle, at 1.
DIVERGENT_BASE_THREE = "1,5,3,27,9,9,3,15,9,9,9,9,3,15,9,9,9,9"
DIVERGENT_BASE_THREE_ROTATED = "9,9,9,3,15,9,9,9,9,1,5,3,27,9,9,3,15,9"

ONE_PASS_CORPUS = (
    [f"example {i}" for i in ("1", "3", "4")]
    + [f"factory {seed}" for seed in range(12)]
    + [f"subdivision {n} {seed}" for n in (2, 3, 4, 5) for seed in range(4)]
    + [f"uniform {n}" for n in (2, 3, 4)]
    + [f"weights 3 {DIVERGENT_BASE_THREE}", f"weights 3 {DIVERGENT_BASE_THREE_ROTATED}"]
)


class TestOnePassSums:
    """The cut walker's one pass over the power form, against the Fraction
    walk of the map at the cut points: values and refusals, messages and
    fields included."""

    @staticmethod
    def compare(partition):
        g, _ = build_expanding_map(partition)
        n, p = partition.base, partition.interval_count
        _, walk = _cut_walker(partition)
        # The Fraction walk once per cut: a list of cuts refuses as its
        # first refusing cut does, and gives the values in order otherwise.
        singles = [outcome(lambda: iterated_sum_oracle(g, partition.cut(c), n))
                   for c in range(p)]
        outcomes = []
        for cuts in [[c] for c in range(p)] + [list(range(p)), list(range(p))[::-1]]:
            got = outcome(lambda: walk(cuts))
            assert got == next((singles[c] for c in cuts if isinstance(singles[c], tuple)),
                               [singles[c] for c in cuts])
            outcomes.append(got)
        return outcomes

    @pytest.mark.parametrize("key", ONE_PASS_CORPUS)
    def test_sums_and_refusals_match_the_fraction_walk(
            self, key, examples, random_conjugate_factory):
        partition = corpus_partition(key, examples, random_conjugate_factory)
        assert partition.power_exponent is not None
        self.compare(partition)

    @pytest.mark.parametrize("weights", (DIVERGENT_BASE_THREE,
                                         DIVERGENT_BASE_THREE_ROTATED))
    def test_each_fixed_point_of_base_three_refuses_its_own_class(self, weights):
        """Cut c ends at the fixed point 9*(c mod 2); only the class of the
        breaking one refuses, so both answers occur in one partition."""
        partition = AffineMarkovPartition(3, [int(w) for w in weights.split(",")])
        singles = self.compare(partition)[:partition.interval_count]
        bad = 0 if weights == DIVERGENT_BASE_THREE else 1
        for c, got in enumerate(singles):
            if c % 2 == bad:
                assert got[0] is DivergentFixedPoint
                assert got[2] == {"point": partition.cut(9 * bad), "break_value": 1}
            else:
                assert isinstance(got, list)


class TestBreakSumTable:
    @pytest.mark.parametrize("example_id", ("1", "3"))
    def test_golden_tables(self, examples, example_id):
        partition, g, _ = examples[example_id]
        record = load_example(example_id)
        table = break_sum_table(partition)
        assert table.stable_level == record["stable_level"]
        assert list(table.sequence()) == record["sigma"]
        assert table.is_constant is record["sigma_constant"] is False

    def test_uniform_partition_has_empty_table(self):
        partition = AffineMarkovPartition(2, [1, 1])
        table = break_sum_table(partition)
        assert table.stable_level == 0
        assert table.entries == ()
        assert table.is_constant
        assert table.sequence() == ()
        assert table.value_at(VertexRef(3, 5)) == 0

    @pytest.mark.parametrize("example_id", ("1", "3"))
    def test_reduction_law_against_per_point_sums(self, examples, example_id):
        """The table's answer at every vertex of natural level at least the
        stable level must equal the sum computed directly at that point."""
        partition, g, _ = examples[example_id]
        table = break_sum_table(partition)
        K = table.stable_level
        for level in range(K, K + 3):
            for i in range(2**level):
                ref = reduce_ref(VertexRef(i, level), 2)
                if ref.level < K:
                    continue
                x = vertex_value(partition, ref)
                assert table.value_at(ref) == iterated_break_sum(g, x)

    def test_aliases_share_a_value(self, examples):
        partition, g, _ = examples["1"]
        table = break_sum_table(partition)
        K = table.stable_level
        for j in (1, 5, 11, 15):
            assert (table.value_at(VertexRef(j, K))
                    == table.value_at(VertexRef(2 * j, K + 1))
                    == table.value_at(VertexRef(4 * j, K + 2)))

    def test_vertices_below_the_stable_level_are_refused(self, examples):
        partition, g, _ = examples["1"]
        table = break_sum_table(partition)
        with pytest.raises(ValueError):
            table.value_at(VertexRef(0, 5))
        with pytest.raises(ValueError):
            table.value_at(VertexRef(8, 4))

    @pytest.mark.parametrize("example_id", ("2", "5"))
    def test_not_power_form_refusal(self, examples, example_id):
        partition, g, _ = examples[example_id]
        assert load_example(example_id)["sigma_refusal"]["kind"] == "not_power_form"
        with pytest.raises(NotPowerForm):
            break_sum_table(partition)

    def test_divergence_refusal(self, examples):
        partition, g, _ = examples["4"]
        refusal = load_example("4")["sigma_refusal"]
        assert refusal["kind"] == "divergent_fixed_point"
        with pytest.raises(DivergentFixedPoint) as err:
            break_sum_table(partition)
        assert err.value.point == as_fraction(refusal["point"])
        assert err.value.break_value == refusal["break"]

    def test_missing_entries_are_refused(self):
        table = BreakSumTable(base=2, stable_level=2, entries=((1, 5),))
        assert table.value_at(VertexRef(1, 2)) == 5
        with pytest.raises(ValueError):
            table.value_at(VertexRef(3, 2))

    def test_records_shape(self, examples):
        partition, g, _ = examples["1"]
        table = break_sum_table(partition)
        level = table.stable_level
        for index, value in table.entries:
            assert index % 2 == 1
            assert table.value_at(VertexRef(index, level)) == value


class TestZeroSum:
    """The break values of the map total zero over every vertex set that
    contains all of its breakpoints."""

    @pytest.mark.parametrize("example_id", ("1", "3", "4"))
    def test_power_form_levels(self, examples, example_id):
        partition, g, _ = examples[example_id]
        K = stable_level(partition)
        for level in range(K, K + 4):
            points = vertices_at_level(partition, level)
            assert len(set(points)) == len(points)
            assert sum(break_value(g, p) for p in points) == 0

    @pytest.mark.parametrize("example_id", ("2", "5"))
    def test_derived_levels(self, examples, example_id):
        partition, g, _ = examples[example_id]
        for level in range(0, 4):
            points = vertices_at_level(partition, level)
            assert len(set(points)) == len(points)
            assert sum(break_value(g, p) for p in points) == 0

    def test_random_conjugate_levels(self, random_conjugate_factory):
        for seed in (11, 12, 13):
            _, g, partition = random_conjugate_factory(seed)
            K = stable_level(partition)
            for level in range(K, K + 3):
                points = vertices_at_level(partition, level)
                assert sum(break_value(g, p) for p in points) == 0


class TestCoboundary:
    @pytest.mark.parametrize("example_id", ("1", "3"))
    def test_exhaustive_over_deep_vertices(self, examples, example_id):
        partition, g, _ = examples[example_id]
        K = stable_level(partition)
        points = vertices_at_level(partition, K + 3)
        assert coboundary_check(g, points)

    def test_single_step_instance(self, examples):
        """At the fourth cut of the first example the orbit runs to 0 in two
        steps, pinning all three quantities in the identity."""
        partition, g, _ = examples["1"]
        x = partition.endpoints[4]
        assert break_value(g, x) == -1
        assert iterated_break_sum(g, x) == -2
        assert iterated_break_sum(g, g.evaluate(x)) == -1

    def test_model_map(self):
        g = multiplication_map(2)
        assert coboundary_check(g, [F(0), F(1, 2), F(3, 8), F(1, 3)])

    def test_divergence_propagates(self, examples):
        _, g4, _ = examples["4"]
        with pytest.raises(DivergentFixedPoint):
            coboundary_check(g4, [F(0)])
        _, g2, _ = examples["2"]
        with pytest.raises(DivergentCycle):
            coboundary_check(g2, [F(1, 2)])


class TestOrbitMerge:
    def test_golden_violation(self, examples):
        partition, g, _ = examples["1"]
        record = load_example("1")["merge_violation"]
        left = as_fraction(record["left"])
        right = as_fraction(record["right"])
        violations = orbit_merge_violations(g, partition, 5)
        assert violations
        match = next(v for v in violations
                     if v.left == left and v.right == right)
        assert match.left_sum - match.right_sum == record["difference"]
        # Re-derive both accumulated sums by walking each orbit to the
        # reported meeting point with evaluate() and break_value() alone.
        assert orbit_sum_oracle(g, left, stop=match.meeting_point) == match.left_sum
        assert orbit_sum_oracle(g, right, stop=match.meeting_point) == match.right_sum

    def test_all_reports_are_genuine(self, examples):
        partition, g, _ = examples["1"]
        for v in orbit_merge_violations(g, partition, 4):
            assert v.left_sum != v.right_sum
            assert orbit_sum_oracle(g, v.left, stop=v.meeting_point) == v.left_sum
            assert orbit_sum_oracle(g, v.right, stop=v.meeting_point) == v.right_sum

    def test_model_map_is_clean(self):
        partition = AffineMarkovPartition(2, [1, 1])
        g, _ = build_expanding_map(partition)
        assert orbit_merge_violations(g, partition, 3) == ()

    def test_random_conjugate_reports_are_genuine(self, random_conjugate_factory):
        _, g, partition = random_conjugate_factory(21)
        for v in orbit_merge_violations(g, partition, 3):
            assert v.left_sum != v.right_sum
            assert orbit_sum_oracle(g, v.left, stop=v.meeting_point) == v.left_sum
            assert orbit_sum_oracle(g, v.right, stop=v.meeting_point) == v.right_sum

    @pytest.mark.parametrize("example_id", ("1", "2", "3", "4", "5"))
    def test_examples_match_the_pair_scan(self, examples, example_id):
        partition, g, _ = examples[example_id]
        assert (orbit_merge_violations(g, partition, 4)
                == merge_violations_oracle(g, partition, 4))

    def test_random_conjugates_match_the_pair_scan(self, random_conjugate_factory):
        for seed in (20, 21, 22, 23):
            _, g, partition = random_conjugate_factory(seed)
            assert (orbit_merge_violations(g, partition, 3)
                    == merge_violations_oracle(g, partition, 3))

    def test_a_map_other_than_the_partitions_is_refused(self, examples):
        """Examples 1 and 3 swapped, and the model map: each vertex orbit
        must be walked under the partition's own map."""
        (p1, g1, _), (p3, g3, _) = examples["1"], examples["3"]
        for g, partition in ((g3, p1), (g1, p3), (multiplication_map(2), p1),
                             (multiplication_map(2), p3)):
            with pytest.raises(ValueError, match="build_expanding_map"):
                orbit_merge_violations(g, partition, 2)

    @pytest.mark.parametrize("example_id", ("1", "2"))
    def test_negative_level_is_refused(self, examples, example_id):
        partition, g, _ = examples[example_id]
        with pytest.raises(ValueError):
            orbit_merge_violations(g, partition, -1)

    def test_breaks_come_from_the_build(self, examples, random_conjugate_factory,
                                        monkeypatch):
        """The scan reads the build's break values, never ``break_value``,
        and still matches the pair scan, which bisects the slopes."""
        cases = [(g, partition, 4) for partition, g, _ in examples.values()]
        cases += [(g, partition, 3) for _, g, partition in
                  map(random_conjugate_factory, (20, 21))]
        expected = [merge_violations_oracle(g, partition, level)
                    for g, partition, level in cases]

        def refuse(*args):
            raise AssertionError("break_value called")

        monkeypatch.setattr("chameleon.breaks.break_value", refuse)
        got = [orbit_merge_violations(g, partition, level)
               for g, partition, level in cases]
        assert got == expected
        assert any(got)

    @pytest.mark.parametrize("example_id, level, count", (
        ("1", 21, "2097152"),
        ("2", 18, "1572864"),
        ("1", 10**9, f"1*2**{10**9}"),
    ))
    def test_levels_past_the_vertex_budget_are_refused(
            self, examples, monkeypatch, example_id, level, count):
        """Refused before any vertex is read, without forming a very deep
        level's count."""
        partition, g, _ = examples[example_id]

        def refuse(*args):
            raise AssertionError("vertex read")

        monkeypatch.setattr("chameleon.breaks.vertex_value", refuse)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as err:
            orbit_merge_violations(g, partition, level)
        assert time.perf_counter() - start < 0.5
        assert err.value.limit == 2**20
        assert str(err.value) == f"level {level} has {count} vertices, budget is 1048576"

    def test_the_budget_bounds_the_level_read(self, examples, monkeypatch):
        """At a budget of 16 vertices, example 1's level 4 (16 grid points)
        is scanned and level 5 is refused."""
        partition, g, _ = examples["1"]
        monkeypatch.setattr("chameleon.markov.MAX_TABLE_VERTICES", 16)
        assert (orbit_merge_violations(g, partition, 4)
                == merge_violations_oracle(g, partition, 4))
        with pytest.raises(BudgetExceeded, match="level 5 has 32 vertices, budget is 16"):
            orbit_merge_violations(g, partition, 5)


class TestPLCriterion:
    @pytest.mark.parametrize("example_id", ("1", "3"))
    def test_non_constant_tables_refute(self, examples, example_id):
        partition, g, _ = examples[example_id]
        record = load_example(example_id)
        verdict = pl_criterion(g, partition)
        assert record["criterion"] == "not_pl"
        assert not verdict
        assert verdict.is_pl is False
        assert verdict.stable_level == record["stable_level"]
        assert list(verdict.table.sequence()) == record["sigma"]
        a, b = verdict.witness
        va, vb = verdict.witness_values
        assert va != vb
        assert verdict.table.value_at(a) == va
        assert verdict.table.value_at(b) == vb
        payload = verdict.as_dict()
        assert payload["outcome"] == "not-pl"
        assert payload["witness_values"] == [va, vb]
        json.dumps(payload)

    def test_uniform_partition_yields_the_identity(self):
        partition = AffineMarkovPartition(2, [1, 1])
        g, _ = build_expanding_map(partition)
        verdict = pl_criterion(g, partition)
        assert verdict
        assert verdict.initial_slope == 1
        assert verdict.assignment.entries == ()
        h = verdict.conjugator
        for probe in (F(0), F(1, 3), F(5, 8)):
            assert h.evaluate(probe) == probe

    @pytest.mark.parametrize("example_id", ("2", "5"))
    def test_power_form_is_required(self, examples, example_id):
        partition, g, _ = examples[example_id]
        assert load_example(example_id)["criterion"] == "not_power_form"
        with pytest.raises(NotPowerForm):
            pl_criterion(g, partition)

    def test_divergence_is_refused(self, examples):
        partition, g, _ = examples["4"]
        assert load_example("4")["criterion"] == "divergent_fixed_point"
        with pytest.raises(DivergentFixedPoint):
            pl_criterion(g, partition)

    def test_only_base_two_is_decided(self):
        partition = AffineMarkovPartition(3, [1, 1])
        g, _ = build_expanding_map(partition)
        with pytest.raises(ValueError):
            pl_criterion(g, partition)

    def test_roundtrip_recovery(self, random_conjugate_factory):
        from chameleon.exact import power_exponent

        for seed in range(12):
            h, g, partition = random_conjugate_factory(seed)
            verdict = pl_criterion(g, partition)
            assert verdict.is_pl
            assert verdict.conjugator == h
            assert power_exponent(verdict.initial_slope, 2) is not None
            assert sum(v for _, v in verdict.assignment.entries) == 0
            payload = verdict.as_dict()
            assert payload["outcome"] == "pl"
            json.dumps(payload)

    @pytest.fixture(scope="class")
    def decided(self, examples, random_conjugate_factory):
        """(partition, verdict) wherever the decision returns a verdict, over
        the examples, every base-2 weight vector with p in {2, 4, 8} and
        weights 1-4, the level-1 and level-2 refinements of examples 1 and 3,
        and random conjugates 0-11."""
        partitions = itertools.chain(
            (p for p, _, _ in examples.values()),
            (AffineMarkovPartition(2, lengths) for p in (2, 4, 8)
             for lengths in itertools.product(range(1, 5), repeat=p)),
            (rescaled_level_partition(examples[i][0], depth)
             for i in ("1", "3") for depth in (1, 2)),
            (random_conjugate_factory(seed)[2] for seed in range(12)),
        )
        found = []
        for partition in partitions:
            try:
                g, _ = build_expanding_map(partition)
                found.append((partition, pl_criterion(g, partition)))
            except (SlopeNotPowerOfN, EndpointNotNAdic, NotPowerForm,
                    DivergentFixedPoint, DivergentCycle):
                continue
        return found

    def test_verdict_matches_pairing_where_defined(self, decided):
        """Wherever the decision procedure returns a verdict at all, it must
        agree with the endpoint-pairing route to the same question, and a
        PL verdict carries the pairing interpolant."""
        from chameleon.conjugacy import Conjugator, equal_pairs, extract_pl_h

        for partition, verdict in decided:
            assert verdict.is_pl == equal_pairs(partition)
            if verdict.is_pl:
                assert verdict.conjugator == extract_pl_h(Conjugator(partition))
        not_pl = [p.interval_count for p, v in decided if not v.is_pl]
        assert len(decided) - len(not_pl) == 24 + 12
        assert sorted(not_pl) == [16, 16, 32, 32, 64, 64]

    def test_verdict_matches_the_break_sum_rebuild(self, decided):
        """A PL verdict is the one the sums rebuild in closed form: the
        conjugator, its initial slope, the break assignment and the record."""
        for partition, verdict in decided:
            g, _ = build_expanding_map(partition)
            if not verdict.is_pl:
                with pytest.raises(ValueError, match="constant table"):
                    break_sum_rebuild(partition, g)
                continue
            rebuilt = break_sum_rebuild(partition, g)
            assert verdict.conjugator == rebuilt.conjugator
            assert verdict.initial_slope == rebuilt.initial_slope
            assert verdict.assignment.entries == rebuilt.assignment.entries
            assert verdict.as_dict() == rebuilt.as_dict()

    def test_fixed_points_of_conjugates_are_smooth(self, random_conjugate_factory):
        """A map conjugate to doubling has both one-sided slopes equal to 2
        at each of its fixed points."""
        for seed in (0, 5, 9):
            _, g, _ = random_conjugate_factory(seed)
            for p in periodic_points(g, 1):
                assert one_sided_slopes(g, p) == (2, 2)


class TestDiscrepancySearch:
    def test_example_one_sampled_anchors(self, examples):
        partition, g, _ = examples["1"]
        table = break_sum_table(partition)
        K = table.stable_level
        rng = random.Random(4)
        anchors = [VertexRef(rng.randrange(1, 2**level, 2), level)
                   for level in (K, K, K + 1)]
        for left in anchors:
            for right in anchors:
                for pad in (1, 2):
                    hit = find_break_sum_discrepancy(
                        partition, left, right, pad=pad)
                    assert hit is not None
                    assert 1 <= hit.offset < 2**K
                    assert hit.left_value != hit.right_value
                    # Independent recomputation of both sums at the offset.
                    span = 2**K
                    deep_left = VertexRef(left.index * span + hit.offset,
                                          left.level + K)
                    deep_right = VertexRef(
                        right.index * (span << pad) + hit.offset,
                        right.level + K + pad)
                    xl = vertex_value(partition, deep_left)
                    xr = vertex_value(partition, deep_right)
                    assert iterated_break_sum(g, xl) == hit.left_value
                    assert iterated_break_sum(g, xr) == hit.right_value
                    assert hit.point == xl
                    # Minimality: every earlier offset agrees.
                    for i in range(1, hit.offset):
                        early_left = VertexRef(left.index * span + i,
                                               left.level + K)
                        early_right = VertexRef(
                            right.index * (span << pad) + i,
                            right.level + K + pad)
                        assert (table.value_at(early_left)
                                == table.value_at(early_right))

    def test_constant_tables_never_yield(self, random_conjugate_factory):
        for seed in (1, 6):
            _, g, partition = random_conjugate_factory(seed)
            table = break_sum_table(partition)
            assert table.is_constant
            K = table.stable_level
            left = VertexRef(max(1, 2**K - 1), K)
            right = VertexRef(1, K + 1)
            for pad in (1, 2):
                assert find_break_sum_discrepancy(
                    partition, left, right, pad=pad) is None

    def test_uniform_partition_is_trivially_clean(self):
        partition = AffineMarkovPartition(2, [1, 1])
        g, _ = build_expanding_map(partition)
        assert find_break_sum_discrepancy(
            partition, VertexRef(1, 1), VertexRef(1, 2)) is None

    def test_validation(self, examples):
        partition, g, _ = examples["1"]
        with pytest.raises(ValueError):
            find_break_sum_discrepancy(partition,
                                       VertexRef(1, 4), VertexRef(1, 4), pad=0)
        with pytest.raises(ValueError):
            find_break_sum_discrepancy(partition,
                                       VertexRef(1, 3), VertexRef(1, 4))
        partition3 = AffineMarkovPartition(3, [1, 1])
        with pytest.raises(ValueError):
            find_break_sum_discrepancy(partition3, VertexRef(1, 1), VertexRef(1, 1))
