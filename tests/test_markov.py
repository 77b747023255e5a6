"""Partition data, expanding-map construction, refinement towers, vertex algebra."""

from __future__ import annotations

import itertools
import random
import threading
from fractions import Fraction

import pytest

from chameleon.conjugacy import partition_from_expanding_map
from chameleon.errors import (
    ClassMismatch,
    EndpointNotNAdic,
    NotMarkov,
    NotPowerForm,
    ParseError,
    SlopeNotPowerOfN,
)
from chameleon.exact import power_exponent
from chameleon.golden import example_ids, load_example
from chameleon.maps import PLCircleMap, multiplication_map
from chameleon.markov import (
    AffineMarkovPartition,
    LevelChain,
    VertexRef,
    _descend,
    build_expanding_map,
    fixed_point_class,
    interval_length_at,
    natural_slope,
    reduce_ref,
    stable_level,
    vertex_value,
)
from conftest import circle_map_data, corpus_partition, subdivision_conjugate
from level_oracles import (
    build_by_interval,
    derive,
    eager_endpoints,
    eager_slopes,
    fraction_descend,
    refine,
    standard_level_table,
)

F = Fraction

POWER_FORM_IDS = ("1", "3", "4")
REFUSAL_IDS = ("2", "5")


class TestConstruction:
    @pytest.mark.parametrize("example_id", example_ids())
    def test_build_matches_frozen_tables(self, examples, example_id):
        record = load_example(example_id)
        partition, g, report = examples[example_id]
        assert [str(e) for e in partition.endpoints] == record["endpoints"]
        assert [str(s) for s in partition.slopes] == record["slopes"]
        assert partition.is_power_form == record["power_form"]
        for x, value in report.break_values:
            assert record_break(record, str(x)) == value
        assert g.degree == record["degree"]

    def test_single_branch_partition_is_the_multiplication_map(self):
        partition = AffineMarkovPartition(2, [1])
        g, report = build_expanding_map(partition)
        assert g.piece_count == 1
        assert g.evaluate(F(1, 4)) == F(1, 2)
        assert report.break_values == ()

    def test_uniform_partition_builds_pure_expansion(self):
        partition = AffineMarkovPartition(3, [1] * 6)
        g, _ = build_expanding_map(partition)
        assert set(partition.slopes) == {F(3)}
        assert g.evaluate(F(1, 3)) == F(1)
        assert g.evaluate(F(1)) == F(1)

    def test_non_power_slope_refused(self):
        # The cut point 1/3 is off the lattice too; the slope is named first.
        with pytest.raises(SlopeNotPowerOfN) as info:
            build_expanding_map(AffineMarkovPartition(2, [1, 2]))
        assert (info.value.index, info.value.slope) == (0, F(3))

    def test_off_lattice_endpoint_refused(self):
        with pytest.raises(EndpointNotNAdic) as info:
            build_expanding_map(AffineMarkovPartition(2, [1, 1, 1]))
        assert (info.value.index, info.value.value) == (1, F(1, 3))

    @pytest.fixture(scope="class")
    def buildable(self, examples, random_conjugate_factory):
        """Partitions of every shape the map is read off: the examples,
        p = n - 1, uniform (break-free) weights, units off the lattice, and
        recovered partitions."""
        partitions = [partition for partition, _, _ in examples.values()]
        partitions += [AffineMarkovPartition(n, [1] * (n - 1)) for n in (2, 3, 4)]
        partitions += [AffineMarkovPartition(2, [1] * 8),
                       AffineMarkovPartition(3, [1] * 6)]
        # Units 1/3 and 1/6 are no base-2 fractions, but every cut point is.
        partitions += [AffineMarkovPartition(2, [3]), AffineMarkovPartition(2, [3, 3])]
        partitions += [random_conjugate_factory(seed)[2] for seed in range(8)]
        partitions += [subdivision_conjugate(seed, 3)[2] for seed in range(3)]
        return partitions

    def test_map_matches_validated_constructor(self, buildable):
        for partition in buildable:
            g, _ = build_expanding_map(partition)
            reference = PLCircleMap(partition.circumference, partition.base,
                                    partition.endpoints, partition.slopes, 0)
            assert circle_map_data(g) == circle_map_data(reference)
            if not partition.break_indices():
                assert g == multiplication_map(partition.base)

    def test_break_indices_match_the_slopes(self, examples, random_conjugate_factory):
        """The indices kept from the integer blocks are the cuts where the
        Fraction slope changes."""
        partitions = [partition for partition, _, _ in examples.values()]
        partitions += [AffineMarkovPartition(n, [1] * (n - 1)) for n in (2, 3, 4)]
        partitions += [random_conjugate_factory(seed)[2] for seed in range(8)]
        for partition in partitions:
            slopes = partition.slopes
            assert partition.break_indices() == tuple(
                i for i in range(partition.interval_count) if slopes[i] != slopes[i - 1])

    def test_integer_partition_matches_the_fraction_data(self, buildable):
        """Cut points and slopes formed from the prefix sums and blocks, and
        the map and breaks read off the break runs, against the per-interval
        Fraction construction."""
        for partition in buildable:
            g, report = build_expanding_map(partition)
            want_g, want_breaks = build_by_interval(partition)
            assert partition.endpoints == eager_endpoints(partition)
            assert partition.slopes == eager_slopes(partition)
            assert [partition.cut(i) for i in range(partition.interval_count)] == list(
                partition.endpoints)
            assert report.break_values == want_breaks
            assert circle_map_data(g) == circle_map_data(want_g)

    def test_the_integer_paths_read_no_fraction_tuples(self, examples, monkeypatch):
        """The map build, the level tower, recovery and single vertex reads
        work on the integers alone: none reads ``endpoints`` or ``slopes``."""
        reads = []
        for name in ("endpoints", "slopes"):
            prop = getattr(AffineMarkovPartition, name)

            def counting(self, _name=name, _get=prop.fget):
                reads.append(_name)
                return _get(self)

            monkeypatch.setattr(AffineMarkovPartition, name, property(counting))
        for example_id, (partition, g, _) in examples.items():
            fresh = AffineMarkovPartition(partition.base, partition.lengths)
            if example_id not in REFUSAL_IDS:
                build_expanding_map(fresh)
                assert partition_from_expanding_map(g) == partition
            LevelChain(fresh).table(2)
            level = (fresh.power_exponent or 0) + 2
            for index in range(0, fresh.interval_count * fresh.base**2, 3):
                vertex_value(fresh, VertexRef(index, level))
        assert reads == []

    @pytest.mark.parametrize("base,lengths,error,index", [
        # The run from cut 2 wraps past index 0, where slope 3 is met first.
        (2, [1, 2, 1], SlopeNotPowerOfN, 0),
        (2, [1, 2, 2, 1], SlopeNotPowerOfN, 0),
        # Slope 4/3 starts the run at cut 1.
        (2, [1, 3], SlopeNotPowerOfN, 1),
        # The runs through 0 and from cut 1 pass; slope 2/3 starts cut 3's.
        (2, [1, 1, 1, 3, 3], SlopeNotPowerOfN, 3),
        (2, [1, 1, 1], EndpointNotNAdic, 1),
        (3, [1, 1, 1, 1, 1], EndpointNotNAdic, 1),
    ])
    def test_refusals_match_the_interval_scan(self, base, lengths, error, index):
        partition = AffineMarkovPartition(base, lengths)
        with pytest.raises(error) as got:
            build_expanding_map(partition)
        with pytest.raises(error) as want:
            build_by_interval(partition)
        assert got.value.index == want.value.index == index
        assert vars(got.value) == vars(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("base", (2, 3))
    def test_small_weights_match_the_interval_scan(self, base):
        """Every partition of up to five weights in 1..3: the same map and
        breaks, or the same refusal with the same fields."""
        def outcome(build, partition):
            try:
                g, breaks = build(partition)
            except (SlopeNotPowerOfN, EndpointNotNAdic) as exc:
                return type(exc), str(exc), vars(exc)
            return circle_map_data(g), getattr(breaks, "break_values", breaks)

        for p in range(base - 1, 6):
            for lengths in itertools.product((1, 2, 3), repeat=p):
                partition = AffineMarkovPartition(base, lengths)
                assert (outcome(build_expanding_map, partition)
                        == outcome(build_by_interval, partition)), lengths

    def test_build_neither_validates_nor_evaluates(self, buildable, circle_map_calls):
        # Fresh copies, as the fixture's partitions may hold their maps already.
        for partition in buildable:
            build_expanding_map(AffineMarkovPartition(partition.base, partition.lengths))
        assert circle_map_calls == []

    @pytest.mark.parametrize(
        "base,lengths",
        [(2, []), (2, [0, 1]), (2, [1, -1]), (2, [1, 1.5]), (1, [1]), (2, "11"),
         (2, [True, True]), (True, [1])],
    )
    def test_bad_partition_data_rejected(self, base, lengths):
        with pytest.raises(ValueError):
            AffineMarkovPartition(base, lengths)

    def test_dict_round_trip(self):
        partition = AffineMarkovPartition(2, [2, 2, 3, 1])
        clone = AffineMarkovPartition.from_dict(partition.to_dict())
        assert clone == partition

    def test_file_round_trip(self, tmp_path):
        partition = AffineMarkovPartition(3, [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 3])
        path = tmp_path / "partition.json"
        path.write_text(__import__("json").dumps(partition.to_dict()))
        assert AffineMarkovPartition.from_file(str(path)) == partition

    @pytest.mark.parametrize(
        "payload",
        [
            "{}",
            '{"base": 2}',
            '{"lengths": [1]}',
            '{"base": "two", "lengths": [1]}',
            '{"base": 2, "lengths": 7}',
            "[1, 2]",
            "not json",
        ],
    )
    def test_bad_files_raise_parse_errors(self, tmp_path, payload):
        path = tmp_path / "broken.json"
        path.write_text(payload)
        with pytest.raises(ParseError):
            AffineMarkovPartition.from_file(str(path))


class TestBuildCache:
    """``build_expanding_map`` keeps its pair on the partition."""

    @pytest.mark.parametrize("key", ["example 1", "example 5", "uniform 3",
                                     "subdivision 4 0", "weights 2 3,3"])
    def test_a_second_build_returns_the_same_pair(self, key, examples,
                                                  random_conjugate_factory):
        partition = corpus_partition(key, examples, random_conjugate_factory)
        fresh = AffineMarkovPartition(partition.base, partition.lengths)
        first = build_expanding_map(fresh)
        assert build_expanding_map(fresh) is first
        g, report = first
        reference, breaks = build_by_interval(fresh)
        assert circle_map_data(g) == circle_map_data(reference)
        assert report.break_values == breaks

    @pytest.mark.parametrize("base,lengths,error", [
        (2, [1, 3], SlopeNotPowerOfN),
        (2, [1, 1, 1], EndpointNotNAdic),
        (3, [1, 1, 1, 1, 1], EndpointNotNAdic),
    ])
    def test_a_refusal_is_raised_on_every_call_and_kept_nowhere(self, base, lengths,
                                                                error):
        partition = AffineMarkovPartition(base, lengths)
        refusals = []
        for _ in range(3):
            with pytest.raises(error) as got:
                build_expanding_map(partition)
            refusals.append((str(got.value), vars(got.value)))
            assert partition._built is None
        assert refusals[0] == refusals[1] == refusals[2]

    def test_the_cache_leaves_equality_and_hash_alone(self, examples):
        for partition, _, _ in examples.values():
            built = AffineMarkovPartition(partition.base, partition.lengths)
            bare = AffineMarkovPartition(partition.base, partition.lengths)
            before = hash(built)
            build_expanding_map(built)
            assert built._built is not None
            assert bare._built is None
            assert built == bare and bare == built
            assert hash(built) == hash(bare) == before
            assert len({built, bare}) == 1


def record_break(record: dict, point: str) -> int:
    for p, value in record["break_values"]:
        if p == point:
            return value
    raise KeyError(point)


class TestStableLevel:
    @pytest.mark.parametrize("example_id,expected", [("1", 4), ("3", 4), ("4", 3)])
    def test_frozen_values(self, examples, example_id, expected):
        partition, _, _ = examples[example_id]
        assert stable_level(partition) == expected

    def test_uniform_partition_is_stable_immediately(self):
        assert stable_level(AffineMarkovPartition(2, [1] * 16)) == 0
        assert stable_level(AffineMarkovPartition(3, [1] * 18)) == 0

    @pytest.mark.parametrize("example_id", REFUSAL_IDS)
    def test_non_power_form_refused(self, examples, example_id):
        partition, _, _ = examples[example_id]
        assert not partition.is_power_form
        assert partition.power_exponent is None
        with pytest.raises(NotPowerForm):
            stable_level(partition)

    @pytest.mark.parametrize("example_id", POWER_FORM_IDS)
    def test_matches_coarsest_grid_carrying_all_breaks(self, examples, example_id):
        """Independent scan: the stable level is the first k whose coarse
        grid (every n**(m-k)-th cut point) contains every slope break."""
        partition, _, report = examples[example_id]
        n, m = partition.base, partition.power_exponent
        positions = [x for x, value in report.break_values if value != 0]
        indices = [partition.endpoints.index(x) for x in positions]
        expected = next(
            k
            for k in range(m + 1)
            if all(i % n ** (m - k) == 0 for i in indices)
        )
        assert stable_level(partition) == expected


class TestLevelTables:
    @pytest.mark.parametrize("example_id", example_ids())
    def test_tables_refine_and_sum_to_circumference(self, examples, example_id):
        partition, _, _ = examples[example_id]
        chain = LevelChain(partition)
        previous = None
        for depth in range(0, 4):
            table = chain.table(depth)
            count = partition.interval_count * partition.base**depth
            assert len(table.values) == count
            assert all(a < b for a, b in zip(table.values, table.values[1:]))
            assert table.values[0] == 0
            total = sum(table.interval_length(i) for i in range(count))
            assert total == partition.circumference
            if previous is not None:
                assert set(previous.values) <= set(table.values)
            previous = table

    @pytest.mark.parametrize("example_id", example_ids())
    def test_vertex_permutation_law(self, examples, example_id):
        partition, g, _ = examples[example_id]
        chain = LevelChain(partition)
        n = partition.base
        for depth in range(0, 4):
            table = chain.table(depth)
            count = len(table.values)
            for index, value in enumerate(table.values):
                assert g.evaluate(value) == table.values[(n * index) % count]

    @pytest.mark.parametrize("example_id", example_ids())
    def test_levels_are_sub_lattices_and_derive_agrees(self, examples, example_id):
        """Level t is every n-th vertex of level t+1, which is what lets
        ``Conjugator.check`` test the law on the deepest level only; and the
        checked ``derive`` refines exactly as the chain does."""
        partition, g, _ = examples[example_id]
        chain = LevelChain(partition)
        n = partition.base
        for t in range(0, 5):
            table, finer = chain.table(t), chain.table(t + 1)
            assert all(finer.values[n * N] == value for N, value in enumerate(table.values))
            assert derive(table, g) == finer

    def test_uniform_tables_match_the_standard_grid(self):
        partition = AffineMarkovPartition(3, [1] * 6)
        chain = LevelChain(partition)
        for depth in range(0, 4):
            assert chain.table(depth).values == standard_level_table(3, depth + 1).values

    def test_standard_grid_values(self):
        table = standard_level_table(3, 2)
        assert table.circumference == 2
        assert len(table.values) == 18
        assert table.values == tuple(F(i, 9) for i in range(18))

    def test_derive_refuses_foreign_maps(self, examples):
        partition1, _, _ = examples["1"]
        _, g4, _ = examples["4"]
        table = LevelChain(partition1).table(0)
        with pytest.raises(NotMarkov):
            derive(table, g4)

    def test_chain_is_thread_safe(self, examples):
        partition, _, _ = examples["3"]
        chain = LevelChain(partition)
        results = []

        def worker():
            results.append(chain.table(5))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)


REFINEMENT_CORPUS = (
    *(f"example {i}" for i in example_ids()),
    *(f"factory {seed}" for seed in range(20)),
    *(f"subdivision {n} 0" for n in range(2, 6)),
    "uniform 2", "uniform 3", "uniform 4",
    # Slopes 3, 2 and 5/3, none a power of 2: no map, but the chain refines.
    "weights 2 1,2,3",
)


class TestIntegerRefinement:
    """``LevelChain`` refines integer numerators by the partition's slope
    ratios; the ``Fraction`` refinement, which measures each level's own
    proportions, is the oracle."""

    @pytest.mark.parametrize("key", REFINEMENT_CORPUS)
    def test_levels_match_the_fraction_refinement(self, examples,
                                                  random_conjugate_factory, key):
        partition = corpus_partition(key, examples, random_conjugate_factory)
        n, p = partition.base, partition.interval_count
        chain = LevelChain(partition)
        table = chain.table(0)
        assert table.values == partition.endpoints
        for depth in range(1, 6):
            if p * n**depth > 4096:
                break
            table = refine(table, n)
            # Over another denominator, yet equal and hashed alike.
            assert chain.table(depth) == table
            assert hash(chain.table(depth)) == hash(table)


class TestIntegerDescent:
    """``vertex_value`` descends the partition's integer inverse-branch
    table, the one ``LevelChain`` pulls back through; the ``Fraction``
    descent, one slope division per level, is the oracle."""

    @pytest.mark.parametrize("key", REFINEMENT_CORPUS)
    def test_matches_the_fraction_descent(self, examples, random_conjugate_factory, key):
        partition = corpus_partition(key, examples, random_conjugate_factory)
        n, p = partition.base, partition.interval_count
        depth = 0
        while p * n**depth <= 4096:
            count = p * n**depth
            # Every index of the level, and lifted ones below 0 and past it.
            for index in (-2 * count - 1, -count, -1, *range(count + 1), 2 * count + 3):
                assert _descend(partition, index, depth) == fraction_descend(
                    partition, index, depth), (index, depth)
            depth += 1


class TestVertexAlgebra:
    def test_reduce_ref_strips_base_factors(self):
        assert reduce_ref(VertexRef(12, 5), 2) == VertexRef(3, 3)
        assert reduce_ref(VertexRef(8, 2), 2) == VertexRef(2, 0)
        assert reduce_ref(VertexRef(5, 3), 2) == VertexRef(5, 3)
        assert reduce_ref(VertexRef(12, 5), 2).level == 3

    def test_reduce_ref_is_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            ref = VertexRef(rng.randrange(0, 200), rng.randrange(0, 8))
            once = reduce_ref(ref, 2)
            assert reduce_ref(once, 2) == once

    def test_vertex_refs_validate(self):
        with pytest.raises(ValueError):
            VertexRef(-1, 0)
        with pytest.raises(ValueError):
            VertexRef(0, -2)

    def test_fixed_point_class_base_two_collapses(self):
        assert fixed_point_class(VertexRef(7, 3), 2) == 0
        assert fixed_point_class(VertexRef(1, 0), 2) == 0

    def test_fixed_point_class_base_three(self):
        assert fixed_point_class(VertexRef(1, 1), 3) == 1
        assert fixed_point_class(VertexRef(2, 1), 3) == 0
        assert fixed_point_class(VertexRef(6, 2), 3) == fixed_point_class(
            VertexRef(2, 1), 3
        )

    @pytest.mark.parametrize("example_id", POWER_FORM_IDS)
    def test_alias_law(self, examples, example_id):
        partition, g, _ = examples[example_id]
        n = partition.base
        rng = random.Random(17)
        for _ in range(40):
            level = rng.randrange(0, 6)
            index = rng.randrange(0, (n - 1) * n**level)
            ref = VertexRef(index, level)
            deeper = VertexRef(index * n, level + 1)
            assert vertex_value(partition, ref) == vertex_value(partition, deeper)

    @pytest.mark.parametrize("example_id", POWER_FORM_IDS)
    def test_vertex_orbit_law_beyond_the_power_level(self, examples, example_id):
        partition, g, _ = examples[example_id]
        n, m = partition.base, partition.power_exponent
        for level in range(0, m + 3):
            count = (n - 1) * n**level
            for index in range(count):
                value = vertex_value(partition, VertexRef(index, level))
                image = vertex_value(partition, VertexRef((n * index) % count, level))
                assert g.evaluate(value) == image

    def test_vertex_range_enforced(self, examples):
        partition, g, _ = examples["1"]
        with pytest.raises(ValueError):
            vertex_value(partition, VertexRef(16, 4))
        with pytest.raises(ValueError):
            vertex_value(partition, VertexRef(2, 0))


class TestLengthRatios:
    @pytest.mark.parametrize("example_id", POWER_FORM_IDS)
    def test_congruent_vertices_have_power_ratios(self, examples, example_id):
        """Lengths at indices congruent modulo the stable grid differ by an
        exact power of the base, across any pair of deep levels."""
        partition, g, _ = examples[example_id]
        n = partition.base
        K = stable_level(partition)
        modulus = (n - 1) * n**K
        rng = random.Random(19)
        for _ in range(60):
            s = rng.randrange(K, K + 3)
            t = rng.randrange(K, K + 3)
            i = rng.randrange(0, (n - 1) * n**s)
            j = rng.randrange(0, ((n - 1) * n**t) // modulus) * modulus + (
                i % modulus
            )
            ratio = interval_length_at(partition, s, i) / interval_length_at(partition, t, j)
            assert power_exponent(ratio, n) is not None, (s, i, t, j, ratio)

    def test_interval_lengths_match_tables(self, examples):
        partition, g, _ = examples["1"]
        chain = LevelChain(partition)
        m = partition.power_exponent
        for depth in range(0, 3):
            table = chain.table(depth)
            for index in range(len(table.values)):
                assert (
                    interval_length_at(partition, m + depth, index)
                    == table.interval_length(index)
                )

    @pytest.mark.parametrize("example_id", ("1", "2"))
    def test_negative_level_is_refused(self, examples, example_id):
        partition, g, _ = examples[example_id]
        with pytest.raises(ValueError):
            interval_length_at(partition, -1, 0)


class TestNaturalSlope:
    def test_known_ratio_on_first_example(self, examples):
        partition, g, _ = examples["1"]
        assert natural_slope(partition, VertexRef(1, 4), VertexRef(3, 4)) == F(1, 4)
        assert natural_slope(partition, VertexRef(3, 4), VertexRef(1, 4)) == F(4)

    def test_reflexive_and_reciprocal(self, examples):
        partition, g, _ = examples["3"]
        rng = random.Random(23)
        for _ in range(20):
            level_a = rng.randrange(4, 7)
            level_c = rng.randrange(4, 7)
            a = VertexRef(rng.randrange(0, 2 ** (level_a - 1)) * 2 + 1, level_a)
            c = VertexRef(rng.randrange(0, 2 ** (level_c - 1)) * 2 + 1, level_c)
            forward = natural_slope(partition, a, c)
            backward = natural_slope(partition, c, a)
            assert forward * backward == 1
            assert natural_slope(partition, a, a) == 1
            assert power_exponent(forward, 2) is not None

    def test_class_mismatch_refused(self):
        partition = AffineMarkovPartition(3, [1] * 6)
        with pytest.raises(ClassMismatch) as info:
            natural_slope(partition, VertexRef(1, 1), VertexRef(2, 1))
        assert {info.value.left, info.value.right} == {0, 1}

    def test_same_class_base_three(self):
        partition = AffineMarkovPartition(3, [1] * 6)
        assert natural_slope(partition, VertexRef(1, 1), VertexRef(5, 1)) == 1

    def test_non_power_form_refused(self, examples):
        partition, g, _ = examples["2"]
        with pytest.raises(NotPowerForm):
            natural_slope(partition, VertexRef(1, 1), VertexRef(3, 2))
