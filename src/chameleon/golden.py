"""Worked-example corpus: frozen expected values and their recomputation.

The package ships a data file of five fully analysed partitions with
every derived quantity frozen as exact rational strings.  Each example
is rebuilt from its length vector alone and every frozen value is
recomputed and compared bit-exactly, so any drift in the library
surfaces as a named check failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Any, Dict, Optional, Tuple

from .breaks import break_sum_table, iterated_break_sum, orbit_merge_violations, pl_criterion
from .conjugacy import (
    Conjugator,
    equal_pairs,
    extract_pl_h,
    nadic_image_status,
    periodic_points,
)
from .errors import DivergentCycle, DivergentFixedPoint, NotPowerForm
from .exact import format_rational, is_nadic, parse_rational
from .maps import break_value, multiplication_map, sum_of_breaks
from .markov import AffineMarkovPartition, build_expanding_map

__all__ = ["Check", "ExampleReport", "example_ids", "load_example", "run_example"]

_CACHE: Optional[Dict[str, dict]] = None


def _records() -> Dict[str, dict]:
    global _CACHE
    if _CACHE is None:
        text = resources.files("chameleon").joinpath("data/examples.json").read_text()
        _CACHE = {rec["id"]: rec for rec in json.loads(text)["examples"]}
    return _CACHE


def example_ids() -> Tuple[str, ...]:
    """Ids of the bundled worked examples, in display order."""
    return tuple(_records().keys())


def load_example(example_id: str) -> dict:
    """The raw frozen record for one example id."""
    records = _records()
    if example_id not in records:
        raise KeyError(f"unknown example id {example_id!r}")
    return records[example_id]


@dataclass(frozen=True)
class Check:
    """One recomputed quantity compared against its frozen value."""

    name: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ExampleReport:
    """All checks for one example."""

    example_id: str
    checks: Tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def as_dict(self) -> dict:
        return {
            "id": self.example_id,
            "passed": self.passed,
            "checks": [check.as_dict() for check in self.checks],
        }


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (Fraction, int)):
        return format_rational(value)
    return str(value)


def _fmt_seq(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _fmt_pairs(pairs) -> str:
    return " ".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in pairs)


def _sigma_outcome(partition) -> str:
    try:
        table = break_sum_table(partition)
    except NotPowerForm:
        return "refusal not_power_form"
    except DivergentFixedPoint as err:
        return (
            f"refusal divergent_fixed_point point={_fmt(err.point)} "
            f"break={_fmt(err.break_value)}"
        )
    return (
        f"level={table.stable_level} values={_fmt_seq(table.sequence())} "
        f"constant={_fmt(table.is_constant)}"
    )


def _criterion_outcome(g, partition) -> str:
    try:
        verdict = pl_criterion(g, partition)
    except NotPowerForm:
        return "not_power_form"
    except DivergentFixedPoint:
        return "divergent_fixed_point"
    return "pl" if verdict.is_pl else "not_pl"


def run_example(example_id: str) -> ExampleReport:
    """Recompute every frozen quantity for one example and compare."""
    record = load_example(example_id)
    partition = AffineMarkovPartition(record["base"], record["lengths"])
    g, build = build_expanding_map(partition)
    checks = []

    def add(name: str, expected: str, actual: str) -> None:
        checks.append(Check(name, expected, actual))

    add("degree", _fmt(record["degree"]), _fmt(g.degree))
    add("power form", _fmt(record["power_form"]), _fmt(partition.is_power_form))
    add("endpoints", " ".join(record["endpoints"]), _fmt_seq(partition.endpoints))
    add("slopes", " ".join(record["slopes"]), _fmt_seq(partition.slopes))
    add(
        "break values",
        _fmt_pairs(record["break_values"]),
        _fmt_pairs(build.break_values),
    )
    add("sum of breaks", _fmt(record["sum_of_breaks"]), _fmt(sum_of_breaks(g)))
    add(
        "break at zero",
        _fmt(record["origin_break"]),
        _fmt(break_value(g, Fraction(0))),
    )
    add("equal pairs", _fmt(record["equal_pairs"]), _fmt(equal_pairs(partition)))

    if "sigma" in record:
        expected = (
            f"level={record['stable_level']} values={_fmt_seq(record['sigma'])} "
            f"constant={_fmt(record['sigma_constant'])}"
        )
    else:
        refusal = record["sigma_refusal"]
        expected = f"refusal {refusal['kind']}"
        if refusal["kind"] == "divergent_fixed_point":
            expected += f" point={refusal['point']} break={_fmt(refusal['break'])}"
    add("break sums", expected, _sigma_outcome(partition))

    if "iterated_divergence" in record:
        spec = record["iterated_divergence"]
        probe = parse_rational(spec["probe"])
        try:
            iterated_break_sum(g, probe)
            actual = "converged"
        except DivergentCycle as err:
            actual = f"cycle={_fmt_seq(err.cycle)} breaks={_fmt_seq(err.break_values)}"
        add(
            "orbit sum divergence",
            f"cycle={' '.join(spec['cycle'])} breaks={_fmt_seq(spec['breaks'])}",
            actual,
        )

    add("criterion", record["criterion"], _criterion_outcome(g, partition))

    if "merge_violation" in record:
        spec = record["merge_violation"]
        left = parse_rational(spec["left"])
        right = parse_rational(spec["right"])
        found = None
        for violation in orbit_merge_violations(g, partition, 4):
            if (violation.left, violation.right) == (left, right):
                found = violation
                break
        actual = (
            "absent"
            if found is None
            else f"difference={_fmt(found.left_sum - found.right_sum)}"
        )
        add(
            "orbit merge violation",
            f"difference={_fmt(spec['difference'])}",
            actual,
        )

    needs_conjugator = any(
        key in record
        for key in (
            "conjugator_values",
            "inverse_value",
            "derived_level_1",
            "conjugator_heights",
            "conjugacy_check_depth",
            "image_status",
        )
    )
    conj = Conjugator(partition) if needs_conjugator else None

    if "derived_level_1" in record:
        add(
            "derived level 1",
            " ".join(record["derived_level_1"]),
            _fmt_seq(conj.chain.table(1).values),
        )
    if "conjugator_values" in record:
        pairs = record["conjugator_values"]
        actual = _fmt_pairs(
            (q, conj.evaluate(parse_rational(q))) for q, _ in pairs
        )
        add("conjugator values", _fmt_pairs(pairs), actual)
    if "inverse_value" in record:
        spec = record["inverse_value"]
        source = conj.inverse_value(parse_rational(spec["point"]))
        actual = f"{_fmt(source)} lattice={_fmt(is_nadic(source, partition.base))}"
        add(
            "inverse value",
            f"{spec['source']} lattice={_fmt(spec['in_lattice'])}",
            actual,
        )
    if "conjugator_heights" in record:
        h = extract_pl_h(conj)
        add(
            "conjugator heights",
            " ".join(record["conjugator_heights"]),
            _fmt_seq(h.boundaries),
        )
        add(
            "conjugator slopes",
            " ".join(record["conjugator_slopes"]),
            _fmt_seq(h.slopes),
        )
    if "conjugacy_check_depth" in record:
        depth = record["conjugacy_check_depth"]
        add(
            f"conjugacy law to depth {depth}",
            "pass",
            "pass" if conj.check(depth).passed else "fail",
        )
    if "image_status" in record:
        spec = record["image_status"]
        status = nadic_image_status(conj, spec["depth"])
        parts = [f"subset={_fmt(status.subset_holds)}"]
        if status.counterexample is None:
            parts.append("counterexample=none")
        else:
            ce = status.counterexample
            parts.append(f"kind={ce.kind} point={_fmt(ce.point)}")
            if ce.source_point is not None:
                parts.append(f"source={_fmt(ce.source_point)}")
        expected_parts = [f"subset={_fmt(spec['subset_holds'])}"]
        expected_parts.append(f"kind={spec['kind']} point={spec['point']}")
        if spec["source"] is not None:
            expected_parts.append(f"source={spec['source']}")
        add("lattice image status", " ".join(expected_parts), " ".join(parts))

    if "two_cycle" in record:
        a, b = (parse_rational(s) for s in record["two_cycle"])
        period_two = periodic_points(g, 2)
        ok = (
            g.evaluate(a) == b
            and g.evaluate(b) == a
            and a in period_two
            and b in period_two
        )
        add(
            "two cycle",
            f"{_fmt(a)} <-> {_fmt(b)}",
            f"{_fmt(a)} <-> {_fmt(b)}" if ok else "absent",
        )
    if "model_period_two" in record:
        model = multiplication_map(partition.base)
        actual = sorted(periodic_points(model, 2))
        add(
            "model period two",
            " ".join(record["model_period_two"]),
            _fmt_seq(actual),
        )

    return ExampleReport(example_id, tuple(checks))
