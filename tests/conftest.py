"""Shared fixtures: the bundled example partitions and partition-file factory."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, settings

from chameleon.conjugacy import partition_from_expanding_map
from chameleon.golden import example_ids, load_example
from chameleon.interpolate import random_dyadic_homeomorphism
from chameleon.maps import PLCircleMap, multiplication_map
from chameleon.markov import AffineMarkovPartition, LevelChain, build_expanding_map

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


@pytest.fixture(scope="session")
def examples():
    """id -> (partition, map, build report) for the five bundled examples."""
    built = {}
    for example_id in example_ids():
        record = load_example(example_id)
        partition = AffineMarkovPartition(record["base"], record["lengths"])
        g, report = build_expanding_map(partition)
        built[example_id] = (partition, g, report)
    return built


def circle_map_data(m) -> tuple:
    """Everything a circle map stores, as ``Fraction``s, its lift at the
    boundaries included.

    A ``PLCircleMap``'s data is read off its integers, which must be
    canonical: D the least common denominator of the boundaries and the lift
    values, and each slope a reduced pair; its ``Fraction`` views must agree.
    Any other circle map (the ``Fraction`` oracle) is read off its fields.
    """
    if not isinstance(m, PLCircleMap):
        return (m.circumference, m.degree, m.boundaries, m.slopes, m.value_at_first,
                m._lift)
    D = m._den
    assert gcd(D, *m._bnums, *m._lnums) == 1
    assert all(sn > 0 and sd > 0 and gcd(sn, sd) == 1 for sn, sd in m._slope_pairs)
    data = (m.circumference, m.degree, tuple(Fraction(b, D) for b in m._bnums),
            tuple(Fraction(*s) for s in m._slope_pairs), Fraction(m._lnums[0], D),
            tuple(Fraction(v, D) for v in m._lnums))
    assert data == (m.circumference, m.degree, m.boundaries, m.slopes,
                    m.value_at_first, m._lift)
    return data


@pytest.fixture
def circle_map_calls(monkeypatch):
    """Names of the PLCircleMap constructor, ``evaluate`` and ``right_slope``
    calls made while the test runs, in order."""
    calls = []
    for name in ("__init__", "evaluate", "right_slope"):
        method = getattr(PLCircleMap, name)

        def counting(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        # PLCircleMap has __slots__, so the count goes on the class.
        monkeypatch.setattr(PLCircleMap, name, counting)
    return calls


@pytest.fixture
def partition_file(tmp_path):
    """Factory writing a bundled example's partition data to a JSON file."""

    def write(example_id: str) -> str:
        record = load_example(example_id)
        path = tmp_path / f"partition{example_id}.json"
        path.write_text(
            json.dumps({"base": record["base"], "lengths": record["lengths"]})
        )
        return str(path)

    return write


def rescaled_level_partition(
    partition: AffineMarkovPartition, depth: int
) -> AffineMarkovPartition:
    """The integer-weight partition whose endpoints are the level-``depth``
    vertices of ``partition`` — a finer valid partition of the same map."""
    table = LevelChain(partition).table(depth)
    values = list(table.values) + [partition.circumference]
    gaps = [b - a for a, b in zip(values, values[1:])]
    scale = lcm(*(gap.denominator for gap in gaps))
    weights = [int(gap * scale) for gap in gaps]
    shrink = gcd(*weights)
    return AffineMarkovPartition(partition.base, [w // shrink for w in weights])


def subdivision_conjugate(seed: int, n: int, splits: int = 3):
    """(h, g, partition) for a random conjugator h of multiplication by n.

    Two random n-ary subdivisions of the circle of circumference n-1 with the
    same number of splits give h: it maps the i-th cell of one affinely onto
    the i-th cell of the other, so its slopes are powers of n.  The partition
    has the power form: its cuts are the images under h of the grid one level
    finer than every source cell, and g is its expanding map.
    """
    rng = random.Random(seed)
    r = n - 1

    def cells():
        found = [(Fraction(0), 0)]  # (start, depth)
        for _ in range(splits):
            j = rng.randrange(len(found))
            start, depth = found[j]
            width = Fraction(r, n**(depth + 1))
            found[j:j + 1] = [(start + t * width, depth + 1) for t in range(n)]
        return found

    source, target = cells(), cells()
    h = PLCircleMap(r, 1, [x for x, _ in source],
                    [Fraction(n)**(d - e) for (_, d), (_, e) in zip(source, target)],
                    0)
    k = max(d for _, d in source) + 1
    cuts = [h.evaluate(Fraction(j, n**k)) for j in range(r * n**k)] + [r]
    gaps = [b - a for a, b in zip(cuts, cuts[1:])]
    scale = lcm(*(gap.denominator for gap in gaps))
    weights = [int(gap * scale) for gap in gaps]
    partition = AffineMarkovPartition(n, [w // gcd(*weights) for w in weights])
    g, _ = build_expanding_map(partition)
    assert g == h.compose(multiplication_map(n)).compose(h.invert())
    return h, g, partition


def corpus_partition(key: str, examples, random_conjugate_factory) -> AffineMarkovPartition:
    """The partition a corpus key names: ``example <id>``, ``factory <seed>``,
    ``subdivision <base> <seed>``, ``uniform <base>`` (the p = n - 1
    partition, whose branches cover the circle more than once) or
    ``weights <base> <w,w,...>``."""
    kind, *args = key.split()
    if kind == "example":
        return examples[args[0]][0]
    if kind == "factory":
        return random_conjugate_factory(int(args[0]))[2]
    if kind == "subdivision":
        return subdivision_conjugate(int(args[1]), int(args[0]))[2]
    if kind == "uniform":
        n = int(args[0])
        return AffineMarkovPartition(n, [1] * (n - 1))
    if kind == "weights":
        return AffineMarkovPartition(int(args[0]), [int(w) for w in args[1].split(",")])
    raise ValueError(f"unknown corpus key {key!r}")


@pytest.fixture(scope="session")
def random_conjugate_factory():
    """Factory for (h, g, partition) triples built from random conjugators."""

    def make(seed: int, max_breaks: int = 6, grid_exponent: int = 4):
        rng = random.Random(seed)
        model = multiplication_map(2)
        h = random_dyadic_homeomorphism(
            rng, max_breaks=max_breaks, grid_exponent=grid_exponent
        )
        g = h.compose(model).compose(h.invert())
        return h, g, partition_from_expanding_map(g)

    return make


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion, capture-proof."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(RESULTS):
        terminalreporter.write_line(f"criterion {number:02d}: {RESULTS[number].line}")
