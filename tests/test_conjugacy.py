"""The conjugator: evaluation, enclosures, the intertwining law, periodic points."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    circle_map_data,
    corpus_partition,
    rescaled_level_partition,
    subdivision_conjugate,
)
import level_oracles
from level_oracles import (
    compose_pairing_conjugator,
    fraction_recovery,
    law_witness,
    lift_inverse,
)

from chameleon import conjugacy, markov
from chameleon.breaks import find_break_sum_discrepancy, orbit_merge_violations
from chameleon.conjugacy import (
    Conjugator,
    _pairing_conjugator,
    EqualityCounterexample,
    ImageStatusReport,
    equal_pairs,
    extract_pl_h,
    nadic_image_status,
    partition_from_expanding_map,
    periodic_points,
)
from chameleon.errors import (
    BudgetExceeded,
    FixedPointsNotVertices,
    NeutralBranch,
    NotAVertex,
    NotMarkov,
    NotPL,
    OddCount,
    ParseError,
    ReconstructionMismatch,
    RefusalError,
    SlopeNotPowerOfN,
)
from chameleon.exact import is_nadic, ratio_exponent
from chameleon.golden import example_ids, load_example
from chameleon.interpolate import random_dyadic_homeomorphism
from chameleon.markov import (
    AffineMarkovPartition,
    LevelChain,
    PartitionLevelTable,
    VertexRef,
    build_expanding_map,
    interval_length_at,
    vertex_value,
)
from chameleon.maps import PLCircleMap, multiplication_map, orbit, reduce_to_circle

F = Fraction


class TestEvaluate:
    def test_frozen_values_on_the_pairing_example(self, examples):
        partition, _, _ = examples["2"]
        conj = Conjugator(partition)
        record = load_example("2")
        for source, image in record["conjugator_values"]:
            assert conj.evaluate(F(source)) == F(image)

    @pytest.mark.parametrize("example_id", example_ids())
    def test_maps_source_grid_onto_vertex_tables(self, examples, example_id):
        partition, _, _ = examples[example_id]
        conj = Conjugator(partition)
        chain = LevelChain(partition)
        for depth in range(0, 3):
            table = chain.table(depth)
            for index, value in enumerate(table.values):
                assert conj.evaluate(conj.source_vertex(index, depth)) == value

    @pytest.mark.parametrize("example_id", example_ids())
    def test_strictly_increasing_on_the_grid(self, examples, example_id):
        partition, _, _ = examples[example_id]
        conj = Conjugator(partition)
        count = partition.interval_count * partition.base**3
        images = [conj.evaluate(conj.source_vertex(i, 3)) for i in range(count)]
        assert all(a < b for a, b in zip(images, images[1:]))

    def test_fixes_zero(self, examples):
        for partition, _, _ in examples.values():
            assert Conjugator(partition).evaluate(F(0)) == F(0)

    def test_off_grid_point_refused(self, examples):
        partition, _, _ = examples["2"]
        with pytest.raises(FixedPointsNotVertices):
            Conjugator(partition).evaluate(F(1, 5))

    def test_depth_budget_enforced(self, examples):
        partition, _, _ = examples["2"]
        conj = Conjugator(partition, max_depth=2)
        with pytest.raises(BudgetExceeded) as info:
            conj.evaluate(F(1, 6 * 2**9))
        assert info.value.limit == 2

    @pytest.mark.parametrize("depth", [-1, True, False, 2.0, "3"])
    def test_malformed_depth_budgets_are_rejected(self, examples, depth):
        partition, _, _ = examples["2"]
        with pytest.raises(ValueError, match="max_depth must be a non-negative integer"):
            Conjugator(partition, max_depth=depth)

    @pytest.mark.parametrize("entry", ("level", "check", "image status",
                                       "interval length", "merge scan"))
    @pytest.mark.parametrize("depth", [-1, True, False, 1.0, 2.0, "1", F(1)])
    def test_malformed_depths_are_rejected(self, examples, entry, depth):
        """Every depth or level argument is a non-negative int, refused
        alike: a bool is not taken for 0 or 1, nor 2.0 for 2."""
        partition, g, _ = examples["1"]
        conj = Conjugator(partition)
        call = {
            "level": lambda: conj.chain.table(depth),
            "check": lambda: conj.check(depth),
            "image status": lambda: nadic_image_status(conj, depth),
            "interval length": lambda: interval_length_at(partition, depth, 0),
            "merge scan": lambda: orbit_merge_violations(g, partition, depth),
        }[entry]
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            call()

    @pytest.mark.parametrize("entry", ("recovery refinements", "periodic power",
                                       "iterate power", "discrepancy pad",
                                       "vertex index", "vertex level",
                                       "source index", "source depth"))
    @pytest.mark.parametrize("value", ["below", True, 1.5, 2.0, "1"])
    def test_malformed_counts_are_rejected(self, examples, entry, value):
        """Refinement budgets, vertex fields and source grid coordinates are
        ints of at least 0, powers and pads ints of at least 1; anything else
        is an input error, not a refusal, a leaked TypeError or a bool taken
        for 1."""
        partition, g, _ = examples["1"]
        least = {"recovery refinements": 0, "vertex index": 0, "vertex level": 0,
                 "source index": 0, "source depth": 0}.get(entry, 1)
        if value == "below":
            value = least - 1
        anchor = VertexRef(1, 4)
        call = {
            "recovery refinements": lambda: partition_from_expanding_map(g, value),
            "periodic power": lambda: periodic_points(g, value),
            "iterate power": lambda: g.iterate(value),
            "discrepancy pad": lambda: find_break_sum_discrepancy(
                partition, anchor, anchor, pad=value),
            "vertex index": lambda: VertexRef(value, 1),
            "vertex level": lambda: VertexRef(1, value),
            "source index": lambda: Conjugator(partition).source_vertex(value, 1),
            "source depth": lambda: Conjugator(partition).source_vertex(3, value),
        }[entry]
        kind = "a non-negative integer" if least == 0 else "an integer of at least 1"
        with pytest.raises(ValueError, match=f"must be {kind}, got {value!r}"):
            call()

    def test_a_zero_depth_budget_serves_all_three_queries(self, examples):
        partition, _, _ = examples["2"]  # six intervals: 0, 1/4, 1/2, ...
        conj = Conjugator(partition, max_depth=0)
        assert conj.evaluate(F(1, 6)) == F(1, 4)
        assert conj.inverse_value(F(1, 4)) == F(1, 6)
        with pytest.raises(BudgetExceeded) as info:
            conj.evaluate(F(1, 12))
        assert info.value.limit == 0
        with pytest.raises(NotAVertex):
            conj.inverse_value(F(1, 8))
        enclosure = conj.enclosure(F(1, 3), 1)
        assert (enclosure.depth, enclosure.source) == (0, (F(1, 3), F(1, 2)))
        with pytest.raises(BudgetExceeded) as info:
            conj.enclosure(F(1, 3), F(1, 100))
        assert info.value.limit == 0 and info.value.partial.depth == 0

    def test_environment_variable_sets_default_budget(self, examples, monkeypatch):
        partition, _, _ = examples["2"]
        monkeypatch.setenv("CHAMELEON_MAX_DEPTH", "3")
        assert Conjugator(partition).max_depth == 3
        for malformed in ("not a number", "-3", ""):
            monkeypatch.setenv("CHAMELEON_MAX_DEPTH", malformed)
            with pytest.raises(ParseError):
                Conjugator(partition)
        monkeypatch.delenv("CHAMELEON_MAX_DEPTH")
        assert Conjugator(partition).max_depth == 16


class TestInverseValue:
    def test_frozen_inverse_on_the_pairing_example(self, examples):
        partition, _, _ = examples["2"]
        record = load_example("2")
        conj = Conjugator(partition)
        inverse = conj.inverse_value(F(record["inverse_value"]["point"]))
        assert inverse == F(record["inverse_value"]["source"])
        assert is_nadic(inverse, 2) == record["inverse_value"]["in_lattice"]

    @pytest.mark.parametrize("example_id", example_ids())
    def test_inverts_evaluate_on_vertices(self, examples, example_id):
        partition, _, _ = examples[example_id]
        conj = Conjugator(partition)
        table = LevelChain(partition).table(2)
        for index, value in enumerate(table.values):
            assert conj.inverse_value(value) == conj.source_vertex(index, 2)

    def test_off_lattice_point_is_not_a_vertex(self, examples):
        partition, _, _ = examples["2"]
        conj = Conjugator(partition)
        with pytest.raises(NotAVertex):
            conj.inverse_value(F(1, 3))

    def test_non_vertex_lattice_point_is_refused(self, examples):
        partition, _, _ = examples["2"]
        conj = Conjugator(partition, max_depth=6)
        with pytest.raises((NotAVertex, BudgetExceeded)):
            conj.inverse_value(F(1, 2**9))

    @pytest.mark.parametrize("key", ["example 1", "example 2", "example 3", "example 4",
                                     "example 5", "uniform 2", "uniform 3", "uniform 4",
                                     "uniform 5", "weights 2 3,3", "factory 0", "factory 4",
                                     "subdivision 2 1", "subdivision 3 1",
                                     "subdivision 4 0", "subdivision 5 0"])
    def test_bisecting_the_prefix_sums_matches_the_cut_dict(
            self, key, examples, random_conjugate_factory):
        """Every vertex to one level past the budget, and for each budget
        below it a vertex first met one level deeper, which is refused."""
        partition = corpus_partition(key, examples, random_conjugate_factory)
        n, p = partition.base, partition.interval_count
        top = max(d for d in range(5) if p * n**d <= 512 or d == 0)
        chain = LevelChain(partition)

        def outcome(inverse, conj, x):
            try:
                return inverse(conj, x)
            except NotAVertex as exc:
                return str(exc), exc.point

        for max_depth in range(top + 1):
            conj = Conjugator(partition, max_depth=max_depth)
            deeper = chain.table(max_depth + 1).values
            refused = deeper[1]  # index 1 is first met at level max_depth + 1
            assert outcome(Conjugator.inverse_value, conj, refused) == (
                f"{refused} is not a vertex at any depth up to {max_depth}", refused)
            assert (outcome(Conjugator.inverse_value, conj, refused)
                    == outcome(lift_inverse, conj, refused))
        conj = Conjugator(partition, max_depth=top)
        for x in chain.table(top + 1).values + (F(1, 3), F(1, 2**(top + 9))):
            assert (outcome(Conjugator.inverse_value, conj, x)
                    == outcome(lift_inverse, conj, x))


class TestEnclosure:
    @pytest.mark.parametrize("example_id", example_ids())
    @pytest.mark.parametrize("point", [F(1, 7), F(2, 5), F(13, 17)])
    def test_brackets_nest_shrink_and_terminate(self, examples, example_id, point):
        partition, _, _ = examples[example_id]
        conj = Conjugator(partition)
        r = partition.circumference
        previous = None
        for exponent in (2, 5, 8):
            width = F(1, 2**exponent)
            enclosure = conj.enclosure(point, width)
            lo, hi = enclosure.image
            assert enclosure.width == hi - lo
            assert enclosure.width <= width
            src_lo, src_hi = enclosure.source
            assert src_lo <= point <= src_hi
            # One slope >= 2 occurs within every interval-count many
            # derivations, so depth grows at worst linearly in count*log(1/w).
            bound = partition.interval_count * (exponent + r.bit_length() + 2)
            assert enclosure.depth <= bound
            if previous is not None:
                assert previous[0] <= lo and hi <= previous[1]
            previous = (lo, hi)

    def test_grid_points_are_enclosed_with_their_image(self, examples):
        partition, _, _ = examples["3"]
        conj = Conjugator(partition)
        point = conj.source_vertex(5, 1)
        image = conj.evaluate(point)
        enclosure = conj.enclosure(point, F(1, 64))
        assert enclosure.image[0] <= image <= enclosure.image[1]

    def test_budget_applies_to_enclosures(self, examples):
        partition, _, _ = examples["2"]
        conj = Conjugator(partition, max_depth=3)
        with pytest.raises(BudgetExceeded):
            conj.enclosure(F(1, 7), F(1, 2**12))


def tampered(level, index, value):
    """A copy of a level table with one numerator replaced."""
    numerators = list(level.numerators)
    numerators[index] = value
    return PartitionLevelTable(level.level, tuple(numerators), level.denominator,
                               level.circumference)


class TestConjugacyLaw:
    @pytest.mark.parametrize("example_id", example_ids())
    def test_examples_satisfy_the_law(self, examples, example_id):
        partition, _, _ = examples[example_id]
        outcome = Conjugator(partition).check(6)
        assert outcome.passed
        assert outcome.depth == 6
        assert outcome.witness is None

    def test_random_conjugate_partitions_satisfy_the_law(
        self, random_conjugate_factory
    ):
        for seed in range(6):
            _, _, partition = random_conjugate_factory(seed)
            assert Conjugator(partition).check(6).passed

    def test_tampered_tables_are_caught_with_a_witness(self, examples):
        partition, _, _ = examples["2"]
        conj = Conjugator(partition)
        chain = conj.chain
        level = chain.table(2)
        X = level.numerators
        with chain._lock:
            chain._tables[2] = tampered(level, 5, (X[5] + X[6]) // 2)
        # The check reads only the deepest level.  Level 3 is the pullback
        # of the tampered level 2: its vertex 10 is the untampered 5/16, and
        # its vertex 5, pulled back from the tampered point 11/32, is the
        # first to fail there.
        for depth, witness in ((2, (2, 5, F(9, 16), F(19, 32))),
                               (3, (3, 5, F(5, 16), F(11, 32)))):
            outcome = conj.check(depth)
            assert not outcome.passed
            assert outcome.witness == witness
            _, index, want, got = witness
            values = chain.table(depth).values
            assert conj.map.evaluate(values[index]) == got
            assert values[(2 * index) % len(values)] == want

    def test_check_evaluates_the_map_on_the_deepest_level_only(self, examples,
                                                              monkeypatch):
        partition, _, _ = examples["1"]  # 16 intervals, base 2
        conj = Conjugator(partition)
        calls = []
        evaluate = PLCircleMap.evaluate

        def counting(self, x):
            calls.append(x)
            return evaluate(self, x)

        # PLCircleMap has __slots__, so the count goes on the class.
        monkeypatch.setattr(PLCircleMap, "evaluate", counting)
        conj.chain.table(5)
        assert len(calls) == 0  # refining consults no map
        assert conj.check(5).passed
        assert len(calls) == 0  # the sweep reads the lift's pieces directly
        level = conj.chain.table(5)
        with conj.chain._lock:
            conj.chain._tables[5] = tampered(level, 7, level.numerators[7] + 1)
        outcome = conj.check(5)
        assert not outcome.passed and outcome.witness[1] == 7
        assert len(calls) == 1  # only the witness evaluates the map

    def test_depth_validation(self, examples):
        partition, _, _ = examples["1"]
        with pytest.raises(ValueError):
            Conjugator(partition).check(-1)


SWEEP_CORPUS = (
    *(f"example {i}" for i in example_ids()),
    *(f"factory {seed}" for seed in range(6)),
    *(f"subdivision {n} 0" for n in (2, 3, 5)),
    "uniform 2", "uniform 3", "uniform 4",
)


class TestLawSweep:
    """``Conjugator.check`` sweeps the lift's pieces once over an integer
    level; the per-vertex ``Fraction`` law check is the oracle."""

    @pytest.mark.parametrize("key", SWEEP_CORPUS)
    def test_passing_towers_match_the_oracle(self, examples, random_conjugate_factory,
                                             key):
        partition = corpus_partition(key, examples, random_conjugate_factory)
        conj = Conjugator(partition)
        n, p = partition.base, partition.interval_count
        for depth in range(5):
            if depth and p * n**depth > 2048:
                break
            assert conjugacy._law_witness(conj.chain.table(depth), conj.map) is None
            assert law_witness(conj.chain.table(depth).values, conj.map) is None

    @pytest.mark.parametrize("key", SWEEP_CORPUS)
    def test_tampered_levels_match_the_oracle(self, examples, random_conjugate_factory,
                                              key):
        partition = corpus_partition(key, examples, random_conjugate_factory)
        conj = Conjugator(partition)
        g = conj.map
        n, p = partition.base, partition.interval_count
        depth = max(d for d in range(4) if p * n**d <= 2048 or d == 0)
        level = conj.chain.table(depth)
        X, D = level.numerators, level.denominator
        M, lap = len(X), partition.circumference * D
        cases = [
            (0, 1), (0, -1),  # vertex 0, and a point off the circle below it
            (M - 1, X[-1] + 1), (M - 1, X[-1] - 1), (M - 1, lap),  # the wrap
            (M // 2, X[M // 4]),  # out of order
        ]
        # Either side of each boundary of g, and the next vertex, which no
        # vertex maps onto: on a piece of slope below 1 its image falls
        # between two lattice points, and only its own check sees it.
        breaks = set(g.breakpoints)
        for N, x in enumerate(X):
            if F(x, D) in breaks:
                cases += [(N, x - 1), (N, x + 1), (N + 1, X[N + 1] + 1)]
        for index, value in cases:
            bad = tampered(level, index, value)
            witness = conjugacy._law_witness(bad, g)
            assert witness is not None
            assert witness == law_witness([F(x, D) for x in bad.numerators], g)
        # Vertex M - 1 moved back to another preimage of its image: no vertex
        # maps onto it, so the law still holds on a level out of order.
        bad = tampered(level, M - 1, X[M - 1 - M // n])
        assert conjugacy._law_witness(bad, g) is None
        assert law_witness([F(x, D) for x in bad.numerators], g) is None
        # A random value may be another preimage of the same image, which
        # the law cannot see; the two checks must still agree.
        rng = random.Random(key)
        for _ in range(10):
            bad = tampered(level, rng.randrange(M), rng.randrange(lap))
            assert conjugacy._law_witness(bad, g) == law_witness(
                [F(x, D) for x in bad.numerators], g)


DESCENT_DEPTH = 6
DESCENT_CORPUS = (
    *(f"example {i}" for i in example_ids()),
    *(f"factory {seed}" for seed in range(4)),
    *(f"subdivision {n} {seed}" for n in (2, 3) for seed in range(2)),
    # p = n - 1: a branch covers the circle more than once.
    "uniform 2", "uniform 3", "uniform 4",
)


@pytest.fixture(scope="module")
def descent_corpus(examples, random_conjugate_factory):
    """key -> (partition, LevelChain): the tables are the descent's oracle."""
    corpus = {}
    for key in DESCENT_CORPUS:
        partition = corpus_partition(key, examples, random_conjugate_factory)
        corpus[key] = (partition, LevelChain(partition))
    return corpus


def enclosure_oracle(chain, q, width, max_depth):
    """The first table bracket around q of at most the width, as
    (depth, source, image), or None within the depth budget."""
    P = chain.partition
    p, n, r = P.interval_count, P.base, P.circumference
    for depth in range(max_depth + 1):
        count = p * n**depth
        k = (q * count / r).__floor__()
        values = chain.table(depth).values
        lo, hi = values[k], values[k + 1] if k + 1 < count else F(r)
        if hi - lo <= width:
            return depth, (F(r * k, count), F(r * (k + 1), count)), (lo, hi)
    return None


class TestDescentAgainstTables:
    """Single-vertex reads descend inverse branches; the level tables that
    ``LevelChain`` derives are the oracle."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_single_reads_match_the_tables(self, descent_corpus, data):
        key = data.draw(st.sampled_from(DESCENT_CORPUS), label="partition")
        partition, chain = descent_corpus[key]
        n, p, r = partition.base, partition.interval_count, partition.circumference
        depth = data.draw(st.integers(0, DESCENT_DEPTH), label="depth")
        count = p * n**depth
        index = data.draw(st.integers(0, count - 1), label="index")
        table = chain.table(depth)
        value = table.values[index]
        conj = Conjugator(partition, max_depth=depth)
        source = conj.source_vertex(index, depth)
        assert conj.evaluate(source) == value
        assert conj.inverse_value(value) == source
        if depth > 0 and index % n:
            with pytest.raises(NotAVertex) as info:
                Conjugator(partition, max_depth=depth - 1).inverse_value(value)
            assert info.value.point == value
            assert str(info.value).startswith(f"{value} is not a vertex")
        level = depth + (partition.power_exponent or 0)
        assert vertex_value(partition, VertexRef(index, level)) == value
        length = table.interval_length(index)
        assert interval_length_at(partition, level, index) == length
        assert interval_length_at(partition, level, index + count) == length
        q = source + F(r * data.draw(st.integers(0, 6), label="offset"), 7 * count)
        width = length * data.draw(st.sampled_from((F(1, 2), F(1), F(3))), label="scale")
        want = enclosure_oracle(chain, q, width, depth)
        if want is None:
            with pytest.raises(BudgetExceeded):
                conj.enclosure(q, width)
        else:
            got = conj.enclosure(q, width)
            assert (got.depth, got.source, got.image) == want

    @pytest.mark.parametrize("key", DESCENT_CORPUS)
    def test_every_table_vertex_round_trips(self, descent_corpus, key):
        partition, chain = descent_corpus[key]
        n, p = partition.base, partition.interval_count
        depth = max(d for d in range(DESCENT_DEPTH + 1) if p * n**d <= 2048 or d == 0)
        conj = Conjugator(partition, max_depth=depth)
        for index, value in enumerate(chain.table(depth).values):
            source = conj.source_vertex(index, depth)
            assert conj.evaluate(source) == value
            assert conj.inverse_value(value) == source

    def test_deep_queries_derive_no_table(self, examples):
        partition, _, _ = examples["1"]
        conj = Conjugator(partition)
        point, after = F(12345, 65536), F(12346, 65536)
        image = conj.evaluate(point)
        assert conj.inverse_value(image) == point
        enclosure = conj.enclosure(point + F(1, 3 * 65536), conj.evaluate(after) - image)
        assert enclosure.depth == 12
        assert enclosure.source == (point, after)
        assert len(conj.chain._tables) == 1


class TestVertexBudget:
    def test_check_refuses_levels_past_the_budget(self, examples, monkeypatch):
        partition, _, _ = examples["1"]  # 16 intervals, base 2
        monkeypatch.setattr(markov, "MAX_TABLE_VERTICES", 64)
        conj = Conjugator(partition)
        with pytest.raises(BudgetExceeded) as info:
            conj.check(3)
        assert info.value.limit == 64
        assert len(conj.chain._tables) == 1  # refused before any work
        assert conj.check(2).passed
        with pytest.raises(BudgetExceeded):
            conj.chain.table(3)
        assert len(conj.chain._tables) == 3

    def test_image_status_refuses_levels_past_the_budget(self, examples, monkeypatch):
        partition, _, _ = examples["2"]  # 6 intervals, base 2
        monkeypatch.setattr(markov, "MAX_TABLE_VERTICES", 48)
        conj = Conjugator(partition)
        with pytest.raises(BudgetExceeded) as info:
            nadic_image_status(conj, 4)
        assert info.value.limit == 48
        assert len(conj.chain._tables) == 1
        assert nadic_image_status(conj, 3).depth == 3

    @pytest.mark.parametrize("depth", (20000, 10**9))
    def test_deep_levels_are_refused_without_their_count(self, depth):
        conj = Conjugator(AffineMarkovPartition(2, [2, 2, 1, 1, 1, 1]))
        with pytest.raises(BudgetExceeded) as info:
            conj.check(depth)
        assert info.value.limit == markov.MAX_TABLE_VERTICES
        with pytest.raises(BudgetExceeded):
            nadic_image_status(conj, depth)
        assert len(conj.chain._tables) == 1

    def test_levels_are_refused_exactly_past_the_budget(self, monkeypatch):
        for partition in (AffineMarkovPartition(2, [1]), AffineMarkovPartition(3, [1] * 6)):
            n, p = partition.base, partition.interval_count
            for limit in (0, 1, 5, 64, 1000):
                monkeypatch.setattr(markov, "MAX_TABLE_VERTICES", limit)
                chain = LevelChain(partition)
                for depth in range(30):
                    if p * n**depth > limit:
                        with pytest.raises(BudgetExceeded) as info:
                            chain.table(depth)
                        assert info.value.limit == limit
                    else:
                        assert len(chain.table(depth).numerators) == p * n**depth

    def test_single_queries_ignore_the_budget(self, examples, monkeypatch):
        partition, _, _ = examples["1"]
        monkeypatch.setattr(markov, "MAX_TABLE_VERTICES", 1)
        conj = Conjugator(partition)
        assert conj.evaluate(F(12345, 65536)) == F(57465, 262144)
        assert conj.inverse_value(F(57465, 262144)) == F(12345, 65536)


class TestEqualPairsAndExtraction:
    def test_frozen_pairing_verdicts(self, examples):
        for example_id, (partition, _, _) in examples.items():
            expected = load_example(example_id)["equal_pairs"]
            assert equal_pairs(partition) == expected

    def test_odd_interval_count_refused(self):
        with pytest.raises(OddCount):
            equal_pairs(AffineMarkovPartition(2, [1, 2, 1]))

    def test_other_bases_rejected(self):
        with pytest.raises(ValueError):
            equal_pairs(AffineMarkovPartition(3, [1] * 6))

    def test_extraction_matches_frozen_canonical_form(self, examples):
        partition, _, _ = examples["2"]
        record = load_example("2")
        h = extract_pl_h(Conjugator(partition))
        assert [str(x) for x in h.breakpoints] == record["conjugator_heights"]
        slopes = [str(h.right_slope(x)) for x in h.breakpoints]
        assert slopes == record["conjugator_slopes"]

    def test_extracted_map_intertwines_exactly(self, examples):
        partition, g, _ = examples["2"]
        h = extract_pl_h(Conjugator(partition))
        assert h.compose(multiplication_map(2)) == g.compose(h)

    def test_extraction_refused_without_pairing(self, examples):
        for example_id in ("1", "3", "4", "5"):
            partition, _, _ = examples[example_id]
            with pytest.raises(NotPL):
                extract_pl_h(Conjugator(partition))

    def test_pairing_decides_extraction_on_generated_partitions(
        self, examples, random_conjugate_factory
    ):
        """equal_pairs <=> extract_pl_h succeeds, across a corpus mixing
        conjugate-built partitions with refinements of the bundled ones."""
        corpus = []
        for seed in range(12):
            h, _, partition = random_conjugate_factory(seed)
            corpus.append((partition, h))
        for example_id in example_ids():
            partition, _, _ = examples[example_id]
            for depth in (1, 2):
                corpus.append((rescaled_level_partition(partition, depth), None))
        pl_count = 0
        for partition, known_h in corpus:
            pairs = equal_pairs(partition)
            conj = Conjugator(partition)
            if pairs:
                pl_count += 1
                h = extract_pl_h(conj)
                if known_h is not None:
                    assert h == known_h
                grid = [conj.source_vertex(i, 3) for i in range(
                    partition.interval_count * 8)]
                for q in grid:
                    assert h.evaluate(q) == conj.evaluate(q)
            else:
                with pytest.raises(NotPL):
                    extract_pl_h(conj)
        assert pl_count >= 13  # all conjugate-built plus refinements of "2"

    def test_extracted_map_agrees_on_deep_dyadics(self, examples):
        partition, _, _ = examples["2"]
        conj = Conjugator(partition)
        h = extract_pl_h(conj)
        for j in range(0, 256, 3):
            q = F(j, 256)
            assert h.evaluate(q) == conj.evaluate(q)


def weight_census(n: int, p: int, top: int):
    """The weight vectors of p intervals in 1..top with gcd 1 whose branch
    slopes are all powers of n, by depth-first search: interval i is checked
    as soon as it and the intervals n*i + t mod p (t < n) it stretches
    across are set.  Building the map may still refuse a vector whose cut
    points are not base-n fractions."""
    ready = [[] for _ in range(p)]
    for i in range(p):
        ready[max([i] + [(n * i + t) % p for t in range(n)])].append(i)
    w = [0] * p

    def search(k):
        if k == p:
            if gcd(*w) == 1:
                yield AffineMarkovPartition(n, w)
            return
        for v in range(1, top + 1):
            w[k] = v
            if all(ratio_exponent(sum(w[(n * i + t) % p] for t in range(n)), w[i], n)
                   is not None for i in ready[k]):
                yield from search(k + 1)

    return search(0)


def pairing_outcome(compute):
    """Everything the returned map stores, or the refusal's type and text."""
    try:
        return circle_map_data(compute())
    except ReconstructionMismatch as err:
        return type(err), str(err)


# (base, intervals, largest weight); p = n - 1 is the first size of each
# base, and base 2 with 7 intervals reaches the test for n not dividing p.
WEIGHT_CENSUS = (
    (2, 1, 16), (2, 2, 16), (2, 4, 16), (2, 6, 16), (2, 7, 16), (2, 8, 16),
    (3, 2, 9), (3, 3, 9), (3, 6, 9), (3, 9, 4),
    (4, 3, 8), (4, 4, 8), (4, 6, 4), (4, 12, 3),
    (5, 4, 8), (5, 5, 8),
)


class TestIntertwiningByWeights:
    """``_pairing_conjugator`` decides the intertwining on the weights and
    builds the interpolant from integers; the compose identity
    ``level_oracles.compose_pairing_conjugator`` is the oracle, which must
    return the same map or refuse alike."""

    @staticmethod
    def compare(partition) -> bool:
        """Both outcomes agree; whether the interpolant intertwines."""
        g, _ = build_expanding_map(partition)
        got = pairing_outcome(lambda: _pairing_conjugator(partition))
        assert got == pairing_outcome(lambda: compose_pairing_conjugator(partition, g))
        return not isinstance(got[0], type)

    @pytest.mark.parametrize("n,p,top", WEIGHT_CENSUS)
    def test_every_partition_that_builds(self, n, p, top):
        verdicts = []
        for partition in weight_census(n, p, top):
            try:
                build_expanding_map(partition)
            except RefusalError:
                continue
            intertwines = self.compare(partition)
            verdicts.append(intertwines)
            if n == 2 and p % 2 == 0:
                assert equal_pairs(partition) == intertwines
        assert verdicts
        if (n, p) == (2, 8):
            assert verdicts.count(False) >= 4

    def test_examples(self, examples):
        verdicts = {example_id: self.compare(partition)
                    for example_id, (partition, _, _) in examples.items()}
        assert verdicts == {"1": False, "2": True, "3": False, "4": False, "5": False}

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_subdivision_conjugates(self, n):
        for seed in range(6):
            h, _, partition = subdivision_conjugate(seed, n)
            assert self.compare(partition)
            assert _pairing_conjugator(partition) == h

    def test_roundtrip_draws(self):
        rng = random.Random(0)
        model = multiplication_map(2)
        for _ in range(24):
            h = random_dyadic_homeomorphism(rng, max_breaks=8, grid_exponent=5)
            partition = partition_from_expanding_map(h.compose(model).compose(h.invert()))
            assert self.compare(partition)
            assert _pairing_conjugator(partition) == h


class TestPeriodicPoints:
    @pytest.mark.parametrize("power", range(1, 13))
    def test_model_points_match_the_closed_form(self, power):
        nu = multiplication_map(2)
        expected = tuple(F(a, 2**power - 1) for a in range(2**power - 1))
        assert periodic_points(nu, power) == expected

    @pytest.mark.parametrize("power", range(1, 7))
    def test_base_three_model_points(self, power):
        nu = multiplication_map(3)
        modulus = 3**power - 1
        expected = sorted(F(2 * a, modulus) for a in range(modulus))
        assert periodic_points(nu, power) == tuple(expected)

    @pytest.mark.parametrize("example_id", example_ids())
    @pytest.mark.parametrize("power", (1, 2, 3, 4, 5, 6))
    def test_counts_and_soundness_on_examples(self, examples, example_id, power):
        _, g, _ = examples[example_id]
        points = periodic_points(g, power)
        assert len(points) == 2**power - 1
        assert len(set(points)) == len(points)
        assert all(a < b for a, b in zip(points, points[1:]))
        composite = g.iterate(power)
        for x in points:
            assert composite.evaluate(x) == x

    def test_shorter_periods_divide_into_longer_ones(self, examples):
        _, g, _ = examples["3"]
        assert set(periodic_points(g, 2)) <= set(periodic_points(g, 4))
        assert set(periodic_points(g, 3)) <= set(periodic_points(g, 6))

    def test_frozen_two_cycles(self, examples):
        for example_id in ("3", "5"):
            record = load_example(example_id)
            _, g, _ = examples[example_id]
            cycle = [F(x) for x in record["two_cycle"]]
            points = periodic_points(g, 2)
            for x in cycle:
                assert x in points
            assert g.evaluate(cycle[0]) == cycle[1]
            assert g.evaluate(cycle[1]) == cycle[0]

    def test_rotations_without_fixed_points_return_nothing(self):
        assert periodic_points(PLCircleMap.rotation(1, F(1, 2)), 1) == ()

    def test_neutral_branches_are_refused(self):
        with pytest.raises(NeutralBranch):
            periodic_points(PLCircleMap.rotation(1, F(1, 2)), 2)
        with pytest.raises(NeutralBranch):
            periodic_points(PLCircleMap.identity(1), 1)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            periodic_points(multiplication_map(2), 0)

    @pytest.mark.parametrize("power", (1, 2))
    def test_homeomorphisms_match_a_scan_of_the_window_pieces(self, power):
        """Seeded homeomorphisms have contracting branches, which no other
        map here has.  Each window piece x -> s*x + c of the composite is
        scanned over every lap k that can reach s*x + c = x + k*r."""
        contracting = 0
        for seed in range(40):
            m = random_dyadic_homeomorphism(random.Random(seed))
            comp = m.iterate(power)
            r = comp.circumference
            found, neutral = set(), False
            for start, end, branch in comp.window_pieces():
                s, c = branch.slope, branch.intercept
                if s == 1:
                    neutral |= reduce_to_circle(c, r) == 0
                    continue
                bound = int((abs(s - 1) * max(abs(start), abs(end)) + abs(c)) / r) + 1
                for k in range(-bound, bound + 1):
                    x = (k * r - c) / (s - 1)
                    if start <= x < end:
                        found.add(reduce_to_circle(x, r))
            if neutral:
                with pytest.raises(NeutralBranch):
                    periodic_points(m, power)
                continue
            assert periodic_points(m, power) == tuple(sorted(found))
            assert all(comp.evaluate(x) == x for x in found)
            contracting += any(b.slope < 1 for _, _, b in comp.window_pieces())
        assert contracting >= 10


def image_status_oracle(conj, depth):
    """The lattice image as it stood before reading the deepest level only:
    every level 0..depth is read, and each vertex tested on its own."""
    P = conj.partition
    n, p, r = P.base, P.interval_count, P.circumference
    conj.chain.table(depth)
    subset_holds = True
    counterexample = None
    for t in range(depth + 1):
        table = conj.chain.table(t)
        count = p * n**t
        for N, x in enumerate(table.values):
            if not is_nadic(x, n):
                subset_holds = False
            if counterexample is None:
                q = F(r * N, count)
                if not is_nadic(q, n) and is_nadic(x, n):
                    counterexample = EqualityCounterexample(
                        point=x, source_point=q, kind="grid-point"
                    )
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


class TestImageStatus:
    def test_examples_match_the_level_by_level_oracle(self, examples):
        kinds = set()
        for partition, _, _ in examples.values():
            for depth in range(6):
                report = nadic_image_status(Conjugator(partition), depth)
                assert report == image_status_oracle(Conjugator(partition), depth)
                kinds.add(report.counterexample and report.counterexample.kind)
        assert kinds == {None, "grid-point", "periodic-point"}

    @pytest.mark.parametrize("seed", range(8))
    def test_recovered_partitions_match_the_oracle(self, random_conjugate_factory, seed):
        _, _, partition = random_conjugate_factory(seed)
        depth = 0
        while partition.interval_count * 2 ** (depth + 1) <= 512:
            depth += 1
        for d in range(depth + 1):
            report = nadic_image_status(Conjugator(partition), d)
            assert report == image_status_oracle(Conjugator(partition), d)

    @pytest.mark.parametrize("example_id", ("2", "3"))
    def test_frozen_reports(self, examples, example_id):
        record = load_example(example_id)["image_status"]
        partition, _, _ = examples[example_id]
        report = nadic_image_status(Conjugator(partition), record["depth"])
        assert report.base == 2
        assert report.subset_holds == record["subset_holds"]
        assert report.counterexample is not None
        assert report.counterexample.kind == record["kind"]
        assert report.counterexample.point == F(record["point"])
        if record["source"] is None:
            assert report.counterexample.source_point is None
        else:
            assert report.counterexample.source_point == F(record["source"])
        assert report.equality_refuted

    def test_uniform_partition_is_onto_its_lattice(self):
        """In bases 3 and 4 the source points r*N / (p*n**t) are base-n
        because p divides the circumference r = n - 1, although p itself is
        not n-smooth."""
        for base, lengths in ((2, [1, 1]), (3, [1, 1]), (4, [1, 1, 1])):
            partition = AffineMarkovPartition(base, lengths)
            report = nadic_image_status(Conjugator(partition), 5)
            assert report.subset_holds
            assert report.counterexample is None
            assert not report.equality_refuted
            assert report == image_status_oracle(Conjugator(partition), 5)


def recovery_oracle(g, max_refinements=20):
    """Partition recovery as it stood before the sorted pullback: an orbit
    per breakpoint, in order, then each fresh point pulled back through each
    branch by floor division."""
    r, n = g.circumference, g.degree
    for b in g.breakpoints:
        if orbit(g, b).cycle != (F(0),):
            raise NotAVertex(
                f"breakpoint {b} never reaches the fixed point, so pullbacks "
                "of 0 cannot place it on a vertex",
                point=b,
            )
    vertices, fresh = {F(0)}, {F(0)}
    rounds = 0
    while not set(g.breakpoints) <= vertices:
        if rounds >= max_refinements:
            raise BudgetExceeded(
                f"breakpoints not covered after {max_refinements} pullbacks",
                limit=max_refinements,
            )
        pulled = set()
        for start, end, branch in g.window_pieces():
            s, c = branch.slope, branch.intercept
            lo, hi = branch(start), branch(end)
            for v in fresh:
                k = -((-(lo - v)) // r)  # smallest k with v + k*r >= lo
                while v + k * r < hi:
                    pulled.add(reduce_to_circle((v + k * r - c) / s, r))
                    k += 1
        fresh = pulled - vertices
        vertices |= fresh
        rounds += 1
    cuts = sorted(vertices)
    gaps = [b - a for a, b in zip(cuts, cuts[1:])] + [cuts[0] + r - cuts[-1]]
    scale = lcm(*(gap.denominator for gap in gaps))
    weights = [int(gap * scale) for gap in gaps]
    unit = gcd(*weights)
    return AffineMarkovPartition(n, [w // unit for w in weights])


def recovery_outcome(compute):
    """A partition, or a refusal as (type, message, fields)."""
    try:
        return compute()
    except RefusalError as err:
        return type(err), str(err), vars(err)


def roundtrip_maps(seed, count):
    """The expanding maps of the first ``count`` trials of
    ``chameleon roundtrip --seed <seed>``."""
    rng = random.Random(seed)
    model = multiplication_map(2)
    maps = []
    for _ in range(count):
        h = random_dyadic_homeomorphism(rng, max_breaks=8, grid_exponent=5)
        maps.append(h.compose(model).compose(h.invert()))
    return maps


class TestRecoveryAgainstOracle:
    @pytest.mark.parametrize("example_id", ("1", "3", "4"))
    def test_examples(self, examples, example_id):
        _, g, _ = examples[example_id]
        assert partition_from_expanding_map(g) == recovery_oracle(g)

    @pytest.mark.parametrize("example_id", ("2", "5"))
    def test_refused_examples_name_the_same_breakpoint(self, examples, example_id):
        _, g, _ = examples[example_id]
        got = recovery_outcome(lambda: partition_from_expanding_map(g))
        assert got[0] is NotAVertex
        assert got == recovery_outcome(lambda: recovery_oracle(g))
        assert got[2]["point"] == min(
            b for b in g.breakpoints if orbit(g, b).cycle != (F(0),))

    def test_random_conjugates(self, random_conjugate_factory):
        """Seeded random conjugates, in base 2 from random dyadic maps and in
        bases 2 and 3 from random subdivisions."""
        maps = [random_conjugate_factory(seed)[1] for seed in range(20)]
        for n in (2, 3):
            maps += [subdivision_conjugate(seed, n)[1] for seed in range(6)]
        for g in maps:
            assert partition_from_expanding_map(g) == recovery_oracle(g)

    @pytest.mark.parametrize("n", (4, 5))
    def test_subdivision_conjugates_in_higher_bases(self, n):
        for seed in range(4):
            g = subdivision_conjugate(seed, n)[1]
            assert partition_from_expanding_map(g) == recovery_oracle(g)

    def test_maps_whose_first_boundary_is_past_zero(self):
        """Roundtrip maps whose lift starts past 0, so that G's first piece
        over [0, r) begins one circumference back."""
        maps = [g for g in roundtrip_maps(0, 40) if g.boundaries[0] > 0]
        assert len(maps) >= 5
        for g in maps:
            assert partition_from_expanding_map(g) == recovery_oracle(g)

    def test_conjugate_with_slope_ratios_off_the_powers_of_two(self):
        """Every breakpoint lands on 0, but the recovered gaps give slopes
        that are no powers of 2, so the build refuses."""
        h = PLCircleMap(1, 1, [0, F(1, 4), F(1, 2)], [1, F(3, 2), F(3, 4)], 0)
        g = h.compose(multiplication_map(2)).compose(h.invert())
        got = recovery_outcome(lambda: partition_from_expanding_map(g))
        assert got[0] is SlopeNotPowerOfN
        assert got == recovery_outcome(lambda: build_expanding_map(recovery_oracle(g)))

    @pytest.mark.parametrize("example_id", ("1", "3"))
    def test_refinement_budget(self, examples, example_id):
        _, g, _ = examples[example_id]
        for budget in range(0, 6):
            assert (recovery_outcome(lambda: partition_from_expanding_map(g, budget))
                    == recovery_outcome(lambda: recovery_oracle(g, budget)))


class TestRecoveryAgainstFractionWalk:
    """Recovery on integer keys and integer branches, against the same
    algorithm on Fractions: the same partition or the same refusal, with
    its message and fields."""

    @staticmethod
    def agree(g, max_refinements=20):
        got = recovery_outcome(lambda: partition_from_expanding_map(g, max_refinements))
        assert got == recovery_outcome(lambda: fraction_recovery(g, max_refinements))
        return got

    def test_roundtrip_draws_of_every_size(self):
        """The roundtrip draws of seeds 1 and 2, which include the p <= 32
        and p = 1024 classes the benchmark leaves out, and a break-free
        conjugate (p = 1)."""
        sizes = {self.agree(g).interval_count
                 for g in roundtrip_maps(1, 80) + roundtrip_maps(2, 30)}
        assert {1, 8, 16, 32, 64, 128, 256, 512, 1024} <= sizes

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_subdivision_conjugates(self, n):
        for seed in range(4):
            assert isinstance(self.agree(subdivision_conjugate(seed, n)[1]),
                              AffineMarkovPartition)

    def test_maps_whose_first_boundary_is_past_zero(self):
        maps = [g for g in roundtrip_maps(0, 40) if g.boundaries[0] > 0]
        assert len(maps) >= 5
        for g in maps:
            assert isinstance(self.agree(g), AffineMarkovPartition)

    @pytest.mark.parametrize("example_id", ("2", "5"))
    def test_breaks_off_the_zero_orbit(self, examples, example_id):
        got = self.agree(examples[example_id][1])
        assert got[0] is NotAVertex
        assert got[2]["point"] in examples[example_id][1].breakpoints

    def test_slope_ratios_off_the_powers(self):
        h = PLCircleMap(1, 1, [0, F(1, 4), F(1, 2)], [1, F(3, 2), F(3, 4)], 0)
        g = h.compose(multiplication_map(2)).compose(h.invert())
        assert self.agree(g)[0] is SlopeNotPowerOfN

    @pytest.mark.parametrize("example_id", ("1", "3", "4"))
    def test_refinement_budgets(self, examples, example_id):
        g = examples[example_id][1]
        refused = [self.agree(g, budget) for budget in range(6)]
        assert any(isinstance(got, tuple) and got[0] is BudgetExceeded for got in refused)

    @pytest.mark.parametrize("key", ("factory 0", "factory 5", "example 1", "example 2",
                                     "subdivision 3 1"))
    def test_step_budgets(self, key, examples, random_conjugate_factory, monkeypatch):
        """Each step budget up to past the longest breakpoint orbit, with the
        walks' shared memo putting some orbits over budget part way."""
        g, _ = build_expanding_map(corpus_partition(key, examples, random_conjugate_factory))
        for steps in range(max(len(orbit(g, b).points) for b in g.breakpoints) + 1):
            monkeypatch.setattr(conjugacy, "MAX_ORBIT_STEPS", steps)
            got = recovery_outcome(lambda: partition_from_expanding_map(g))
            assert got == recovery_outcome(lambda: fraction_recovery(g, max_steps=steps))

    def test_a_rebuild_that_misses_the_map(self, examples, monkeypatch):
        """The rebuild gate refuses with NotMarkov in both, here by a build
        that returns some other map."""
        def other_map(partition):
            return multiplication_map(partition.base), None

        monkeypatch.setattr(conjugacy, "build_expanding_map", other_map)
        monkeypatch.setattr(level_oracles, "build_expanding_map", other_map)
        for example_id in ("1", "3", "4"):
            got = self.agree(examples[example_id][1])
            assert got[0] is NotMarkov and got[2] == {"index": -1}


class TestPartitionRecovery:
    @pytest.mark.parametrize("example_id", ("1", "3", "4"))
    def test_examples_recover_exactly(self, examples, example_id):
        partition, g, _ = examples[example_id]
        assert partition_from_expanding_map(g) == partition

    def test_the_step_budget_is_the_refusal_limit(self, random_conjugate_factory,
                                                  monkeypatch):
        """Breakpoint orbits longer than the step budget refuse with that
        budget as the limit, not as a breakpoint off the zero orbit."""
        g = random_conjugate_factory(5)[1]
        assert max(len(orbit(g, b).points) for b in g.breakpoints) > 3
        monkeypatch.setattr(conjugacy, "MAX_ORBIT_STEPS", 3)
        with pytest.raises(BudgetExceeded) as info:
            partition_from_expanding_map(g)
        assert info.value.limit == 3
        assert len(info.value.partial) == 4

    @pytest.mark.parametrize("example_id", ("2", "5"))
    def test_breaks_off_the_zero_orbit_are_refused(self, examples, example_id):
        """These maps break on a cycle that never reaches the fixed point,
        so no amount of pulling 0 back can cover the breakpoints."""
        _, g, _ = examples[example_id]
        with pytest.raises(NotAVertex) as err:
            partition_from_expanding_map(g)
        assert err.value.point in g.breakpoints

    def test_recovered_partition_rebuilds_the_map(self, random_conjugate_factory):
        for seed in range(8):
            _, g, partition = random_conjugate_factory(seed)
            rebuilt, _ = build_expanding_map(partition)
            assert rebuilt == g

    @pytest.mark.parametrize("n,lengths", [(2, [1]), (3, [1, 1, 1]), (4, [1, 1, 1, 1])])
    def test_break_free_maps(self, n, lengths):
        """Base 2 takes no pullback of 0; a higher base takes the one that
        leaves the n - 1 intervals a partition needs, within any budget."""
        recovered = AffineMarkovPartition(n, lengths)
        assert partition_from_expanding_map(multiplication_map(n), 0) == recovered
        g, _ = build_expanding_map(AffineMarkovPartition(n, [1] * (n - 1)))
        assert partition_from_expanding_map(g) == recovered

    @pytest.mark.parametrize("source", ("examples", "roundtrip"))
    def test_recovery_walks_orbits_and_builds_once(self, examples, monkeypatch,
                                                   source):
        """Recovery steps g on integer pairs once at 0 and at most once at
        each point of the breakpoint orbits, every such point when all of
        them land on 0, and builds one map, however many vertices the
        partition has."""
        if source == "examples":
            maps = [g for _, g, _ in examples.values()]
        else:
            maps = roundtrip_maps(1, 24)
        orbits = [{x for b in g.breakpoints for x in orbit(g, b).points} - {0}
                  for g in maps]
        points, builds = [], []
        step = PLCircleMap._image
        build = conjugacy.build_expanding_map

        def counting_step(self, xn, xd):
            points.append(F(xn, xd))
            return step(self, xn, xd)

        def counting_build(partition):
            builds.append(partition)
            return build(partition)

        monkeypatch.setattr(PLCircleMap, "_image", counting_step)
        monkeypatch.setattr(conjugacy, "build_expanding_map", counting_build)
        sizes = set()
        for g, walked in zip(maps, orbits):
            points.clear()
            builds.clear()
            outcome = recovery_outcome(lambda: partition_from_expanding_map(g))
            assert points[0] == 0
            assert len(set(points[1:])) == len(points) - 1
            if isinstance(outcome, AffineMarkovPartition):
                assert set(points[1:]) == walked
                assert builds == [outcome]
                sizes.add(outcome.interval_count)
            else:
                assert outcome[0] is NotAVertex
                assert set(points[1:]) <= walked
                assert builds == []
        assert len(sizes) > 1

    def test_degree_one_maps_rejected(self):
        with pytest.raises(ValueError):
            partition_from_expanding_map(PLCircleMap.rotation(1, F(1, 4)))

    def test_maps_moving_zero_rejected(self):
        shifted = multiplication_map(2).compose(PLCircleMap.rotation(1, F(1, 4)))
        with pytest.raises(ValueError):
            partition_from_expanding_map(shifted)
