"""The four benchmark workloads: seeded inputs, operations, and checks.

A workload turns a seed into operation specs, runs one spec per operation
through the public API of ``chameleon`` (the timed part), and checks the
outcome against the references in ``oracle`` (not timed).  ``check``
returns the op's exact results as one line of text; the benchmark folds
those lines into its output digest.

Specs come in cycles.  A cycle is a fixed pattern of ``cycle`` cost
classes, each slot filled with the next seeded draw of that class, so every
cycle holds the same mix of sizes and the seed only picks the inputs inside
each class.  Cycle c is drawn from the seed and c alone: set-up builds
cycle 0, and each later cycle is built, untimed, when the run reaches it,
so a run never repeats an input and its percentiles come from as many
distinct draws as it has time for.  Latency percentiles are taken over the
whole cycles a run completes; the tail percentile is the highest that
``latency_cycles`` whole cycles, which even a slow run completes, allow, so
it stays the same from run to run.

Calls into the package go through the ``chameleon`` module and class
attributes at call time, so the traced mode sees every one of them.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from fractions import Fraction

import chameleon as C

from oracle import CircleHomeomorphism, Descent, LineInterpolant, nadic


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def spread(quotas: dict) -> list:
    """One cycle of a stratification pattern: each class appears as often as
    its quota says, as evenly spaced as the counts allow."""
    total = sum(quotas.values())
    used = dict.fromkeys(quotas, 0)
    cycle = []
    for t in range(1, total + 1):
        pick = max(quotas, key=lambda k: quotas[k] * t / total - used[k])
        used[pick] += 1
        cycle.append(pick)
    return cycle


def stratified(draw, pattern: list) -> list:
    """Fill the slots of ``pattern`` in order with seeded draws of the
    requested class; ``draw(j)`` returns (class, spec) for the j-th draw of
    the stream, and draws of a class no slot asks for are never used."""
    waiting: dict = defaultdict(deque)
    pool, j = [], 0
    for wanted in pattern:
        while not waiting[wanted]:
            klass, spec = draw(j)
            waiting[klass].append(spec)
            j += 1
        pool.append(waiting[wanted].popleft())
    return pool


def _max_dyadic_exponent(h) -> int:
    return max((b.denominator.bit_length() - 1 for b in h.breakpoints), default=0)


def _fmt(values) -> str:
    return " ".join(str(v) for v in values)


def _homeomorphism_draws(seed, stream: str, breaks=None):
    """Seeded random conjugators, classed by the finest dyadic denominator
    of their breakpoints: exponent e gives a recovered partition of
    2**(e+1) intervals, which sets the cost of everything downstream.
    With ``breaks``, conjugators whose breakpoint count is not in it are
    left out (class None)."""

    def draw(j):
        key = f"{stream}:{seed}:{j}"
        h = _homeomorphism(key)
        if breaks is not None and len(h.boundaries) not in breaks:
            return None, key
        return _max_dyadic_exponent(h), key

    return draw


def _homeomorphism(key: str):
    return C.random_dyadic_homeomorphism(random.Random(key), max_breaks=8, grid_exponent=5)


def _conjugate_partition(key: str):
    """(h, g, partition) for the random conjugator drawn from ``key``."""
    h = _homeomorphism(key)
    g = h.compose(C.multiplication_map(2)).compose(h.invert())
    return h, g, C.partition_from_expanding_map(g)


class Cycles:
    """Specs in cycles of ``cycle``; ``build_cycle(c)`` draws cycle c from
    the seed.  Only the current cycle is held, so memory does not grow with
    the length of the run."""

    cycle: int

    def __init__(self, seed: int):
        self.seed = seed
        self._held = None, []
        self.spec(0)

    def spec(self, i: int):
        """The spec of op ``i``, building its cycle if the run just reached it."""
        c = i // self.cycle
        if self._held[0] != c:
            specs = self.build_cycle(c)
            assert len(specs) == self.cycle
            self._held = c, specs
        return self._held[1][i % self.cycle]

    def build_cycle(self, c: int) -> list:
        raise NotImplementedError


class Roundtrip(Cycles):
    """Construct g = h(2x)h^-1 from a random conjugator h, recover its
    partition, decide piecewise linearity and rebuild h."""

    name = "roundtrip"
    digest_ops = 4
    # Breakpoint exponents 5..8 (partitions of 64..512 intervals) in their
    # natural proportions; they cover 95% of draws.  The rest (p <= 32 or
    # p = 1024) is left out because one p=1024 op costs as much as six
    # typical ones and would dominate the run-to-run spread.  Within a
    # partition size, an op's cost grows with the breakpoints of h (about 3x
    # from 3 to 16 at p = 256), so conjugators are drawn with 8-11
    # breakpoints, the middle of the distribution (40% of draws): the 75th
    # percentile falls among the p = 256 ops, and their cost then depends
    # little on the seed.
    pattern = spread({5: 4, 6: 4, 7: 3, 8: 1})
    breaks = range(8, 12)
    cycle = len(pattern)
    latency_cycles = 4

    def build_cycle(self, c: int) -> list:
        draw = _homeomorphism_draws(self.seed, f"{self.name}:{c}", self.breaks)
        return stratified(draw, self.pattern)

    def run(self, key):
        h, g, partition = _conjugate_partition(key)
        return h, partition, C.pl_criterion(g, partition)

    def check(self, key, state):
        h, partition, verdict = state
        rebuilt = verdict.conjugator
        ok = verdict.is_pl and rebuilt == h
        line = (f"{key} lengths={_fmt(partition.lengths)} level={verdict.stable_level} "
                f"pl={verdict.is_pl}")
        if rebuilt is not None:
            line += f" h={_fmt(rebuilt.boundaries)}|{_fmt(rebuilt.slopes)}"
        return ok, line


def _depth_for(partition, vertices: int) -> int:
    """Deepest level whose vertex table stays within ``vertices``."""
    d = 0
    while partition.interval_count * partition.base**(d + 1) <= vertices:
        d += 1
    return d


class ConjugatorQuery(Cycles):
    """One fresh Conjugator per query, as the ``conjugator-eval`` command
    builds it: forward evaluation at a grid point, inverse of a vertex, or
    an enclosure of a non-grid rational."""

    name = "conjugator-query"
    digest_ops = 12
    # Each source is queried at its four deepest levels whose table has at
    # most this many vertices (levels 3-6 on examples 1 and 3), rotating so
    # every stretch of a cycle mixes depths; unbounded queries reach tables
    # of a million vertices.  Every turn of the rotation draws its own pair
    # of random conjugates (64 and 128 intervals).  Their deepest queries
    # make the tail.  A query's cost grows with the breakpoints of the
    # conjugate (about 3x from 4 to 15 at 64 intervals), so conjugates are
    # drawn with 6-9 breakpoints, and each cycle draws new ones: a run's
    # tail then averages over dozens of conjugates of like cost.
    vertices = 1024
    depths = 4
    breaks = range(6, 10)
    kinds = ("evaluate", "inverse", "enclosure")
    cycle = depths * 6 * len(kinds)  # four examples, two random partitions
    latency_cycles = 5

    def __init__(self, seed: int):
        self.examples = []
        for example_id in ("1", "2", "3", "5"):
            record = C.load_example(example_id)
            self.examples.append((f"example {example_id}",
                                  C.AffineMarkovPartition(record["base"], record["lengths"])))
        super().__init__(seed)

    def build_cycle(self, c: int) -> list:
        draw = _homeomorphism_draws(self.seed, f"{self.name}:partitions:{c}", self.breaks)
        randoms = [(key, _conjugate_partition(key)[2])
                   for key in stratified(draw, [5, 6] * self.depths)]
        rng = _rng(self.name, self.seed, "queries", c)
        specs = []
        for turn in range(self.depths):
            sources = self.examples + randoms[2 * turn:2 * turn + 2]
            for s, (label, partition) in enumerate(sources):
                deepest = _depth_for(partition, self.vertices)
                for k, kind in enumerate(self.kinds):
                    depth = max(0, deepest - (turn + s + k) % self.depths)
                    specs.append(self._query(rng, label, partition, kind, depth))
        return specs

    def _query(self, rng, label, partition, kind, d):
        ref = Descent(partition.base, partition.lengths)
        n = partition.base
        size = partition.interval_count * n**d
        k = rng.randrange(size)
        if d > 0 and k % n == 0:
            k += 1  # first appears at depth d exactly
        spec = {"label": label, "partition": partition, "kind": kind, "depth": d,
                "ref": ref}
        if kind == "evaluate":
            spec.update(point=ref.source(k, d), want=ref.value(k, d))
        elif kind == "inverse":
            spec.update(point=ref.value(k, d), want=ref.source(k, d))
        else:
            q = Fraction(ref.circumference * (3 * k + 1), 3 * size)
            _, lo, hi = ref.bracket(q, d)
            spec.update(point=q, width=hi - lo, want=self._enclosure(ref, q, hi - lo, d))
        return spec

    @staticmethod
    def _enclosure(ref, q, width, depth):
        for t in range(depth + 1):
            k, lo, hi = ref.bracket(q, t)
            if hi - lo <= width:
                return t, (ref.source(k, t), ref.source(k + 1, t)), (lo, hi)
        raise AssertionError("the depth-d bracket meets its own width")

    def run(self, spec):
        conj = C.Conjugator(spec["partition"], max_depth=spec["depth"])
        if spec["kind"] == "evaluate":
            return conj, conj.evaluate(spec["point"])
        if spec["kind"] == "inverse":
            return conj, conj.inverse_value(spec["point"])
        return conj, conj.enclosure(spec["point"], spec["width"])

    def check(self, spec, state):
        conj, got = state
        kind, ref = spec["kind"], spec["ref"]
        n, r = ref.base, ref.circumference
        if kind == "enclosure":
            got = (got.depth, got.source, got.image)
            ok = got == spec["want"]
            text = f"{got[0]} {_fmt(got[1])} {_fmt(got[2])}"
        else:
            q, x = (spec["point"], got) if kind == "evaluate" else (got, spec["point"])
            # Forward then inverse returns the query, and g(h(q)) = h(n*q mod r).
            ok = (got == spec["want"] and conj.inverse_value(x) == q
                  and conj.evaluate(q) == x
                  and conj.map.evaluate(x) == conj.evaluate((n * q) % r))
            text = str(got)
        return ok, f"{spec['label']} {kind} d={spec['depth']} {spec['point']} -> {text}"


def _delta_nodes(rng, n: int, count: int, exponent: int) -> list:
    """Distinct sorted zero-class base-n points of the given grid in [-3, 3)."""
    pool: set = set()
    span = 3 * n**exponent
    while len(pool) < count:
        q = Fraction(rng.randrange(-span, span), n**exponent)
        m, _ = nadic(q, n)
        if n == 2 or m % (n - 1) == 0:
            pool.add(q)
    return sorted(pool)


class Interpolation(Cycles):
    """Interpolate zero-class nodes in bases 2, 3 and 5, classify the result,
    then match it on a seeded window."""

    name = "interpolation"
    digest_ops = 30
    exponents = {2: 4, 3: 3, 5: 3}
    # Cost classes are the bit length of the raw piece count the program
    # emits (interpolant plus matching scaffold), with quotas from the
    # natural distribution of 2000 draws per base.  Larger draws count in
    # the top class, except in base 5, where those above 2**15 pieces (1.5%)
    # are left out: one of them costs 1-5 s, as much as fifty typical ops.
    quotas = {
        2: {6: 1, 7: 2, 8: 8, 9: 6, 10: 2, 11: 1},
        3: {8: 3, 9: 6, 10: 7, 11: 2, 12: 2},
        5: {11: 3, 12: 11, 13: 3, 14: 2, 15: 1},
    }
    left_out_above_top = {5}
    cycle = sum(sum(q.values()) for q in quotas.values())
    latency_cycles = 4

    def build_cycle(self, c: int) -> list:
        per_base = []
        for n, quotas in self.quotas.items():
            per_base.append(stratified(lambda j, n=n: self._draw(self.seed, n, f"{c}:{j}"),
                                       spread(quotas)))
        return [spec for slot in zip(*per_base) for spec in slot]

    def _class(self, n: int, pieces: int):
        low, high = min(self.quotas[n]), max(self.quotas[n])
        bits = max(low, pieces.bit_length())
        if bits > high:
            return None if n in self.left_out_above_top else high
        return bits

    def _draw(self, seed, n, j):
        rng = _rng(self.name, seed, n, j)
        e = self.exponents[n]
        count = rng.randrange(1, 7)
        xs = _delta_nodes(rng, n, count, e)
        ys = _delta_nodes(rng, n, count, e)
        a, b = _delta_nodes(rng, n, 2, e)
        ref = LineInterpolant(n, xs, ys)
        pad = n - 1
        wide_a, wide_b = Fraction(pad * (a // pad)), Fraction(pad * -(-b // pad))
        scaffold = LineInterpolant(n, (wide_a, wide_b), (ref.value(wide_a), ref.value(wide_b)))
        spec = {"base": n, "xs": xs, "ys": ys, "window": (a, b), "ref": ref}
        return self._class(n, ref.raw_pieces + scaffold.raw_pieces), spec

    def run(self, spec):
        n = spec["base"]
        f = C.interpolate_line(n, spec["xs"], spec["ys"])
        report = C.classify(f, n)
        matched = C.match_on_interval(n, f, *spec["window"])
        return f, report, matched

    def check(self, spec, state):
        f, report, matched = state
        n, (a, b), ref = spec["base"], spec["window"], spec["ref"]
        hits = all(f.evaluate(x) == y for x, y in zip(spec["xs"], spec["ys"]))
        probes = sorted({a, b} | {x for x in f.breakpoints if a <= x <= b}
                        | {x for x in matched.breakpoints if a <= x <= b})
        samples = set(probes) | {(u + v) / 2 for u, v in zip(probes, probes[1:])}
        ok = (hits and report.satisfies_all and "BPL_n" in report.group_tags
              and all(matched.evaluate(x) == f.evaluate(x) == ref.value(x) for x in samples))
        return ok, (f"base {n} {_fmt(spec['xs'])} -> {_fmt(spec['ys'])} "
                    f"breaks={_fmt(f.breakpoints)} matched={_fmt(matched.breakpoints)}")


class Certify(Cycles):
    """Whole-tower certification: the golden examples, the vertex law and
    lattice image of seeded partitions with their orbit-merge scan, and one
    exhaustive scan of the prefix-block laws."""

    name = "certify"
    digest_ops = 8
    # A cycle is the five golden examples, one scan and ten towers.  The
    # golden examples take 1-170 ms, a tower 150-600 ms and the scan
    # 400-600 ms, so the median (the 8th of 16) and the 75th percentile (the
    # 12th) both fall well inside the towers rather than on the edge between
    # two classes.  Check depth keeps p * (2**(depth+1) - 1) checked
    # vertices near 1000; merge scans cover the 32 vertices of level 5.  A
    # tower's cost grows with the breakpoints of its conjugator (about 2x
    # from 3 to 13), and towers keep the natural breakpoint counts: on a
    # host whose speed flips between two levels, a percentile inside a class
    # of like-cost ops jumps between the levels as their mix changes, while
    # one inside a broad class moves with the mean.  Each cycle draws new
    # towers, so a run averages over about a hundred of them.
    check_vertices = 1024
    merge_level = 5
    scan = (8, tuple(range(7)))
    pattern = spread({"tower": 10, "golden": 5, "scan": 1})
    cycle = len(pattern)
    latency_cycles = 4

    def build_cycle(self, c: int) -> list:
        draw = _homeomorphism_draws(self.seed, f"{self.name}:partitions:{c}")
        towers = [("tower", _conjugate_partition(key))
                  for key in stratified(draw, [5, 6] * (self.pattern.count("tower") // 2))]
        slots = {"tower": iter(towers), "scan": iter([("scan", self.scan)]),
                 "golden": iter([("golden", example_id) for example_id in C.example_ids()])}
        return [next(slots[kind]) for kind in self.pattern]

    def _check_depth(self, p: int) -> int:
        d = 0
        while p * (2 ** (d + 2) - 1) <= self.check_vertices:
            d += 1
        return d

    def run(self, spec):
        kind, data = spec
        if kind == "golden":
            return C.run_example(data)
        if kind == "scan":
            return C.exhaustive_scan(*data)
        _, g, partition = data
        depth = self._check_depth(partition.interval_count)
        conj = C.Conjugator(partition, max_depth=depth)
        law = conj.check(depth)
        status = C.nadic_image_status(conj, depth)
        merges = C.orbit_merge_violations(g, partition, self.merge_level)
        return law, status, merges

    def check(self, spec, state):
        kind, data = spec
        if kind == "golden":
            return state.passed, f"golden {data} " + "; ".join(
                f"{c.name}={c.actual}" for c in state.checks)
        if kind == "scan":
            length, alphabet = data
            ok = not state.violations and state.checked == len(alphabet) ** length
            return ok, f"scan {length}x{len(alphabet)} {state.checked} {state.nonconstant}"
        law, status, merges = state
        h, _, partition = data
        want = CircleHomeomorphism(h.boundaries, h.slopes, h.value_at_first).merge_violations(
            self.merge_level)
        got = [(v.left, v.right, v.left_sum - v.right_sum) for v in merges]
        # A dyadic PL conjugator maps the dyadic lattice onto itself.
        ok = (law.passed and status.subset_holds and status.counterexample is None
              and got == want)
        lengths = partition.lengths
        return ok, (f"tower {_fmt(lengths)} depth={law.depth} merges="
                    + " ".join(f"{v.left},{v.right}:{v.left_sum - v.right_sum}"
                               for v in merges))


WORKLOADS = {w.name: w for w in (Roundtrip, ConjugatorQuery, Interpolation, Certify)}
