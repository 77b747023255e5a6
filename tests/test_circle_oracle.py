"""``PLCircleMap`` on integers against the ``Fraction`` class it replaced.

``level_oracles.FractionCircleMap`` is the oracle.  On every construction
path the two must store the same data, answer every query alike and agree
on equality; the inputs cover roundtrip draws, subdivision conjugates in
bases 2-5, non-dyadic denominators, circumferences 1-4 and degrees 1-5,
break-free maps and maps whose first boundary is past 0.  The one integer
step, the orbit walker and ``orbit`` on it are compared with the oracle's
``Fraction`` orbit, one ``evaluate`` per step, refusals included.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from level_oracles import FractionCircleMap, eager_endpoints, eager_slopes, fraction_orbit

from chameleon.breaks import pl_criterion
from chameleon.conjugacy import partition_from_expanding_map
from chameleon.errors import RefusalError
from chameleon.interpolate import random_dyadic_homeomorphism
from chameleon.maps import (
    AffinePiece,
    PLCircleMap,
    _walk,
    map_from_dict,
    map_to_dict,
    multiplication_map,
    orbit,
)
from chameleon.markov import LevelChain, build_expanding_map
from conftest import circle_map_data, corpus_partition, subdivision_conjugate

F = Fraction


def probes(o: FractionCircleMap) -> list:
    """Boundaries, midpoints, lift values and a few fixed points of the
    oracle, each also shifted by whole laps."""
    r, bs = o.circumference, o.boundaries
    ends = bs[1:] + (bs[0] + r,)
    points = set(bs) | set(o._lift) | {(a + b) / 2 for a, b in zip(bs, ends)}
    points |= {F(0), F(r) - F(1, 1000), F(1, 3), F(2, 7), bs[0] / 2}
    return sorted(points | {x + k * r for x in points for k in (-2, -1, 1, 2)})


def agree(m: PLCircleMap, o: FractionCircleMap) -> None:
    """m and its oracle store the same data and answer every query alike."""
    assert circle_map_data(m) == circle_map_data(o)
    assert m.piece_count == o.piece_count
    assert m.breakpoints == o.breakpoints
    assert list(m.window_pieces()) == list(o.window_pieces())
    assert repr(m) == "PLCircleMap" + repr(o).removeprefix("FractionCircleMap")
    for x in probes(o):
        assert m.evaluate(x) == o.evaluate(x)
        assert m.lift_value(x) == o.lift_value(x)
        s = m.right_slope(x)
        assert o.lift_piece(x) == AffinePiece(s, m.lift_value(x) - s * x)
        assert m.left_slope(x) == o.left_slope(x)
        assert m.right_slope(x) == o.right_slope(x)


def agree_on_equality(pairs) -> None:
    """``==`` and ``hash`` on the maps match ``==`` on their oracles."""
    for (a, oa), (b, ob) in product(pairs, repeat=2):
        assert (a == b) == (oa == ob)
        if a == b:
            assert hash(a) == hash(b)


def raw_data(rng: random.Random):
    """Valid, often un-normalised constructor data: circumference 1-4,
    degree 1-5, boundaries on a grid of denominator 8, 3, 5, 7 or 6, some
    redundant boundaries, some break-free maps (many with their first
    boundary past 0) and a value at the first boundary over several laps."""
    r, d = rng.randint(1, 4), rng.randint(1, 5)
    q = rng.choice((8, 3, 5, 7, 6))
    grid = [F(j, q) for j in range(q * r)]
    bs = sorted(rng.sample(grid, rng.randint(1, min(6, len(grid)))))
    gaps = [b2 - b1 for b1, b2 in zip(bs, bs[1:])] + [bs[0] + r - bs[-1]]
    if rng.random() < 0.2:
        weights = [F(1)] * len(bs)
    else:
        weights = [F(rng.randint(1, 5), rng.choice((1, 2, 3))) for _ in bs]
        for i in range(1, len(bs)):
            if rng.random() < 0.3:
                weights[i] = weights[i - 1]
    scale = d * r / sum(w * g for w, g in zip(weights, gaps))
    return (r, d, tuple(bs), tuple(w * scale for w in weights),
            F(rng.randrange(-40 * r, 40 * r), rng.choice((16, 9, 5))))


def both(*data):
    """The validated map and its oracle from the same constructor data."""
    return PLCircleMap(*data), FractionCircleMap(*data)


def raw_maps(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [both(*raw_data(rng)) for _ in range(count)]


def roundtrip_draws(seed: int, count: int) -> list:
    """(h, g) pairs of the roundtrip draws as maps and oracles: h a random
    dyadic conjugator, g = h(2x)h^-1."""
    rng = random.Random(seed)
    nu, onu = multiplication_map(2), FractionCircleMap(1, 2, (0,), (2,), 0)
    found = []
    for _ in range(count):
        h = random_dyadic_homeomorphism(rng, max_breaks=8, grid_exponent=5)
        oh = FractionCircleMap(1, 1, h.boundaries, h.slopes, h.value_at_first)
        g = h.compose(nu).compose(h.invert())
        og = oh.compose(onu).compose(oh.invert())
        found.append(((h, oh), (g, og)))
    return found


class TestConstruction:
    def test_constructor(self):
        pairs = raw_maps(17, 300)
        assert any(m.piece_count == 1 and o.boundaries[0] == 0 for m, o in pairs)
        assert {m.degree for m, _ in pairs} == {1, 2, 3, 4, 5}
        assert {m.circumference for m, _ in pairs} == {1, 2, 3, 4}
        assert all(any(m._den % p == 0 for m, _ in pairs) for p in (3, 5, 7))
        for m, o in pairs:
            agree(m, o)
        agree_on_equality(pairs[:60] + [both(*raw_data(random.Random(17)))])

    def test_first_boundary_past_zero_and_break_free(self):
        for r, d in product(range(1, 5), range(1, 6)):
            for b0 in (F(1, 3), F(r, 2) + F(1, 7)):
                # break-free data at b0, and a break at b0 and at b0 + r/3
                agree(*both(r, d, (b0,), (F(d),), F(5, 3)))
                b1 = b0 + F(r, 3)
                s0 = F(d, 2)
                s1 = (d * r - s0 * (b1 - b0)) / (r - (b1 - b0))
                m, o = both(r, d, (b0, b1), (s0, s1), F(-7, 5))
                assert m.boundaries[0] == b0
                agree(m, o)

    def test_from_lift_over_a_common_multiple(self):
        """``_from_lift`` anchors and reduces data given over any common
        denominator, as the oracle's does on the same ``Fraction``s."""
        for m, o in raw_maps(23, 120):
            r, d = o.circumference, o.degree
            D = 3 * lcm(*(x.denominator for x in o.boundaries + o._lift))
            lift = [v + 2 * r for v in o._lift]
            built = PLCircleMap._from_lift(
                r, d, D, [int(b * D) for b in o.boundaries],
                [(s.numerator, s.denominator) for s in o.slopes],
                [int(v * D) for v in lift])
            agree(built, FractionCircleMap._from_lift(r, d, o.boundaries, o.slopes, lift))
            # A single boundary past 0 is a break-free map, anchored at 0.
            agree(PLCircleMap._from_lift(r, d, 3 * D, [D], [(d, 1)], [15 * D]),
                  FractionCircleMap._from_lift(r, d, (F(1, 3),), (F(d),), [F(5)]))

    def test_named_constructors(self):
        for r in range(1, 5):
            agree(*both(r, 1, (0,), (1,), 0))
            agree(PLCircleMap.identity(r), FractionCircleMap.identity(r))
            for amount in (F(0), F(1, 3), F(-5, 7), F(9, 2), F(r)):
                agree(PLCircleMap.rotation(r, amount),
                      FractionCircleMap.rotation(r, amount))
            for n in range(2, 6):
                agree(multiplication_map(n, r), FractionCircleMap(r, n, (0,), (n,), 0))
        for n in range(2, 6):
            agree(multiplication_map(n), FractionCircleMap(n - 1, n, (0,), (n,), 0))
        # Pairs sorted by reduced boundary, the middle one redundant.
        agree(*both(1, 1, (F(1, 4), F(5, 8), F(3, 4)), (F(3, 2), F(3, 2), F(1, 2)),
                    F(1, 3)))

    def test_build_expanding_map(self, examples):
        partitions = [P for P, _, _ in examples.values()]
        partitions += [subdivision_conjugate(seed, n)[2]
                       for n in range(2, 6) for seed in range(4)]
        partitions += [partition_from_expanding_map(g)
                       for _, (g, _) in roundtrip_draws(3, 12)]
        for P in partitions:
            try:
                g, _ = build_expanding_map(P)
            except ValueError:
                continue
            o = FractionCircleMap(P.circumference, P.base, eager_endpoints(P),
                                  eager_slopes(P), 0)
            agree(g, o)

    def test_map_from_dict(self):
        for m, o in raw_maps(29, 80):
            agree(map_from_dict(map_to_dict(m)), o)


class TestAlgebra:
    def test_compose_invert_iterate_on_raw_maps(self):
        rng = random.Random(31)
        pairs = raw_maps(31, 240)
        by_r = {}
        for pair in pairs:
            by_r.setdefault(pair[0].circumference, []).append(pair)
        for group in by_r.values():
            for _ in range(40):
                (a, oa), (b, ob) = rng.choice(group), rng.choice(group)
                agree(a.compose(b), oa.compose(ob))
        for m, o in pairs:
            if m.degree == 1:
                agree(m.invert(), o.invert())
            if m.degree <= 3:
                for power in (1, 2, 3):
                    agree(m.iterate(power), o.iterate(power))

    def test_roundtrip_draws(self):
        draws = roundtrip_draws(5, 24)
        for (h, oh), (g, og) in draws:
            agree(h, oh)
            agree(h.invert(), oh.invert())
            agree(g, og)
            rebuilt = pl_criterion(g, partition_from_expanding_map(g)).conjugator
            orebuilt = FractionCircleMap(1, 1, rebuilt.boundaries, rebuilt.slopes,
                                         rebuilt.value_at_first)
            agree(rebuilt, orebuilt)
            nu, onu = multiplication_map(2), FractionCircleMap(1, 2, (0,), (2,), 0)
            agree(rebuilt.compose(nu), orebuilt.compose(onu))
            agree(g.compose(rebuilt), og.compose(orebuilt))
            agree(g.iterate(2), og.iterate(2))
        agree_on_equality([pair for draw in draws[:8] for pair in draw])

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_subdivision_conjugates(self, n):
        onu = FractionCircleMap(n - 1, n, (0,), (n,), 0)
        for seed in range(6):
            h, g, _ = subdivision_conjugate(seed, n)
            oh = FractionCircleMap(n - 1, 1, h.boundaries, h.slopes, h.value_at_first)
            og = oh.compose(onu).compose(oh.invert())
            agree(h, oh)
            agree(g, og)
            agree(h.compose(multiplication_map(n)), oh.compose(onu))
            agree(h.invert(), oh.invert())


# The five examples, factory seeds, subdivision conjugates in bases 2-5 and
# the p = n - 1 partitions, whose branches cover the circle more than once.
STEP_CORPUS = ("example 1", "example 2", "example 3", "example 4", "example 5",
               "factory 0", "factory 5", "factory 9", "subdivision 2 1",
               "subdivision 3 1", "subdivision 4 0", "subdivision 5 0",
               "uniform 2", "uniform 3", "uniform 4", "uniform 5")


def outcome(compute):
    """A result, or a refusal as (type, message, fields)."""
    try:
        return compute()
    except RefusalError as err:
        return type(err), str(err), vars(err)


def pair(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


class TestOneStep:
    """``PLCircleMap._image``, the walker ``maps._walk`` and ``orbit`` on
    the partition maps of the corpus, against the oracle's lift and its
    ``Fraction`` orbit."""

    @pytest.fixture(params=STEP_CORPUS)
    def walked(self, request, examples, random_conjugate_factory):
        """(g, its oracle, points): vertices of levels 0 and 1, at most 60
        of each, the breakpoints and three points off every lattice."""
        partition = corpus_partition(request.param, examples, random_conjugate_factory)
        g, _ = build_expanding_map(partition)
        chain, r = LevelChain(partition), g.circumference
        points = set(g.breakpoints) | {r * F(1, 3), r * F(2, 7), r * F(5, 11)}
        for depth in (0, 1):
            values = chain.table(depth).values
            points |= set(values[::-(-len(values) // 60)])
        return g, FractionCircleMap.of(g), sorted(points)

    def test_the_step_reads_the_lift(self, walked):
        """The step's laps and image are the oracle lift's quotient and
        remainder by r, and the lift and its branches agree at any lap."""
        g, o, points = walked
        r = g.circumference
        agree(g, o)
        for x in points:
            laps, y = divmod(o.lift_value(x), r)
            assert g._image(*pair(x)) == (laps, *pair(y))
            for k in (-2, 1, 3):
                assert g.lift_value(x + k * r) == o.lift_value(x + k * r)
                y = x + k * r
                s = g.right_slope(y)
                assert o.lift_piece(y) == AffinePiece(s, g.lift_value(y) - s * y)

    def test_orbits_match_the_fraction_walk(self, walked):
        """Every budget from none to past the orbit's length, and the
        walker's points and end on the default budget."""
        g, o, points = walked
        for x in points:
            expected = fraction_orbit(o, x)
            assert orbit(g, x) == expected
            walk, end = _walk(g, pair(x), 4096, {})
            assert [F(*q) for q in walk] == list(expected.points)
            assert F(*end) == expected.cycle[0]
            for steps in range(len(expected.points) + 1):
                assert (outcome(lambda: orbit(g, x, steps))
                        == outcome(lambda: fraction_orbit(o, x, steps)))

    def test_the_walker_stops_at_the_memo(self, walked):
        """With a memo of the prefix from point k on, the walk ends at point
        k within budget; past the budget it refuses as the plain orbit does,
        with the same partial."""
        g, o, points = walked
        for x in points:
            expected = fraction_orbit(o, x)
            size = len(expected.points)
            for k in range(len(expected.prefix)):
                landing = {pair(q): size - j
                           for j, q in enumerate(expected.prefix) if j >= k}
                for steps in range(size + 1):
                    got = outcome(lambda: _walk(g, pair(x), steps, landing))
                    if steps < size:
                        assert got == outcome(lambda: fraction_orbit(o, x, steps))
                    else:
                        assert got == ([pair(q) for q in expected.points[:k]],
                                       pair(expected.points[k]))


def test_recovery_and_criterion_neither_evaluate_nor_validate(circle_map_calls, monkeypatch):
    """Recovery plus the PL decision on roundtrip draws make no ``evaluate``
    call, validate no map and compose none: the intertwining is decided on
    the partition's weights and the conjugator built from its integers."""
    compose = PLCircleMap.compose

    def counting(self, inner):
        circle_map_calls.append("compose")
        return compose(self, inner)

    monkeypatch.setattr(PLCircleMap, "compose", counting)
    for _, (g, _) in roundtrip_draws(7, 6):
        circle_map_calls.clear()
        verdict = pl_criterion(g, partition_from_expanding_map(g))
        assert verdict.is_pl
        assert circle_map_calls == []
