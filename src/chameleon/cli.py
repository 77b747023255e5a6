"""Command-line workbench for partition analysis.

Three commands: ``partition`` runs one analysis subaction on a partition
file, ``paper-examples`` replays the bundled worked examples against
their frozen values, and ``roundtrip`` drives the construct-then-recover
loop on random conjugators.  Reports go to stdout and are byte-identical
across runs for identical inputs; wall time goes to stderr.  Exit codes:
0 for a completed run (including negative verdicts), 1 for input errors,
2 for mathematical refusals and golden mismatches.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .breaks import break_sum_table, pl_criterion
from .conjugacy import (
    Conjugator,
    equal_pairs,
    nadic_image_status,
    partition_from_expanding_map,
)
from .errors import ChameleonError, ParseError, RefusalError
from .exact import format_rational, is_nadic, parse_integer, parse_rational
from .golden import example_ids, run_example
from .interpolate import random_dyadic_homeomorphism
from .maps import multiplication_map
from .markov import AffineMarkovPartition, build_expanding_map

@dataclass
class RunReport:
    """Deterministic run record: inputs echoed, outputs, verdicts."""

    command: str
    inputs: Dict[str, str] = field(default_factory=dict)
    outputs: Dict[str, str] = field(default_factory=dict)
    verdicts: Dict[str, str] = field(default_factory=dict)
    details: Optional[list] = None

    def as_dict(self) -> dict:
        data = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "verdicts": self.verdicts,
        }
        if self.details is not None:
            data["details"] = self.details
        return data

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        lines.extend(f"input {key}: {value}" for key, value in self.inputs.items())
        lines.extend(f"output {key}: {value}" for key, value in self.outputs.items())
        lines.extend(f"verdict {key}: {value}" for key, value in self.verdicts.items())
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt(value) -> str:
    return format_rational(value)


def _fmt_seq(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _echo_partition(report: RunReport, path: str, partition: AffineMarkovPartition) -> None:
    report.inputs["file"] = path
    report.inputs["base"] = str(partition.base)
    report.inputs["lengths"] = " ".join(str(w) for w in partition.lengths)


def _cmd_validate(args, partition: AffineMarkovPartition) -> Tuple[RunReport, int]:
    report = RunReport("partition validate")
    _echo_partition(report, args.file, partition)
    g, build = build_expanding_map(partition)
    report.outputs["interval count"] = str(partition.interval_count)
    report.outputs["unit"] = _fmt(partition.unit)
    report.outputs["circumference"] = _fmt(partition.circumference)
    report.outputs["degree"] = str(g.degree)
    report.outputs["endpoints"] = _fmt_seq(partition.endpoints)
    report.outputs["slopes"] = _fmt_seq(partition.slopes)
    report.outputs["break values"] = " ".join(
        f"{_fmt(point)}:{value}" for point, value in build.break_values
    )
    report.outputs["power form"] = _yesno(partition.is_power_form)
    report.verdicts["markov"] = "yes"
    return report, 0


def _cmd_sigma(args, partition: AffineMarkovPartition) -> Tuple[RunReport, int]:
    report = RunReport("partition sigma")
    _echo_partition(report, args.file, partition)
    table = break_sum_table(partition)
    report.outputs["stable level"] = str(table.stable_level)
    report.outputs["indices"] = " ".join(str(i) for i, _ in table.entries)
    report.outputs["values"] = " ".join(str(v) for v in table.sequence())
    report.verdicts["constant"] = _yesno(table.is_constant)
    return report, 0


def _cmd_equal_pairs(args, partition: AffineMarkovPartition) -> Tuple[RunReport, int]:
    report = RunReport("partition equal-pairs")
    _echo_partition(report, args.file, partition)
    report.verdicts["equal pairs"] = _yesno(equal_pairs(partition))
    return report, 0


def _cmd_conjugator_eval(args, partition: AffineMarkovPartition) -> Tuple[RunReport, int]:
    report = RunReport("partition conjugator-eval")
    _echo_partition(report, args.file, partition)
    if args.point is None:
        raise ParseError("conjugator-eval requires --point")
    point = parse_rational(args.point)
    conj = Conjugator(partition, max_depth=args.depth)
    report.inputs["point"] = _fmt(point)
    report.inputs["direction"] = "inverse" if args.inverse else "forward"
    if args.inverse:
        value = conj.inverse_value(point)
        report.outputs["source point"] = _fmt(value)
    else:
        value = conj.evaluate(point)
        report.outputs["image"] = _fmt(value)
    report.verdicts["in lattice"] = _yesno(is_nadic(value, partition.base))
    return report, 0


def _cmd_pl_criterion(args, partition: AffineMarkovPartition) -> Tuple[RunReport, int]:
    report = RunReport("partition pl-criterion")
    _echo_partition(report, args.file, partition)
    g, _ = build_expanding_map(partition)
    verdict = pl_criterion(g, partition)
    report.outputs["stable level"] = str(verdict.stable_level)
    report.outputs["values"] = " ".join(str(v) for v in verdict.table.sequence())
    if verdict.is_pl:
        h = verdict.conjugator
        report.outputs["initial slope"] = _fmt(verdict.initial_slope)
        report.outputs["conjugator heights"] = _fmt_seq(h.boundaries)
        report.outputs["conjugator slopes"] = _fmt_seq(h.slopes)
    else:
        left, right = verdict.witness
        left_value, right_value = verdict.witness_values
        report.outputs["witness"] = (
            f"vertex {left.index}@{left.level} sum {left_value} vs "
            f"vertex {right.index}@{right.level} sum {right_value}"
        )
    report.verdicts["piecewise linear"] = _yesno(verdict.is_pl)
    return report, 0


def _cmd_dyadic_status(args, partition: AffineMarkovPartition) -> Tuple[RunReport, int]:
    report = RunReport("partition dyadic-status")
    _echo_partition(report, args.file, partition)
    depth = 4 if args.depth is None else args.depth
    report.inputs["depth"] = str(depth)
    conj = Conjugator(partition)
    status = nadic_image_status(conj, depth)
    report.outputs["subset holds"] = _yesno(status.subset_holds)
    if status.counterexample is None:
        report.outputs["counterexample"] = "none"
    else:
        ce = status.counterexample
        text = f"{ce.kind} at {_fmt(ce.point)}"
        if ce.source_point is not None:
            text += f" from {_fmt(ce.source_point)}"
        report.outputs["counterexample"] = text
    report.verdicts["equality refuted"] = _yesno(status.equality_refuted)
    return report, 0


_PARTITION_HANDLERS = {
    "validate": _cmd_validate,
    "sigma": _cmd_sigma,
    "conjugator-eval": _cmd_conjugator_eval,
    "equal-pairs": _cmd_equal_pairs,
    "pl-criterion": _cmd_pl_criterion,
    "dyadic-status": _cmd_dyadic_status,
}


def _handle_partition(args) -> Tuple[RunReport, int]:
    partition = AffineMarkovPartition.from_file(args.file)
    return _PARTITION_HANDLERS[args.subaction](args, partition)


def _handle_paper_examples(args) -> Tuple[RunReport, int]:
    known = example_ids()
    if args.ids is None:
        selected = known
    else:
        selected = tuple(part.strip() for part in args.ids.split(",") if part.strip())
        if not selected:
            raise ParseError("--ids must name at least one example")
        for example_id in selected:
            if example_id not in known:
                raise ParseError(
                    f"unknown example id {example_id!r}; known ids: {', '.join(known)}"
                )
    report = RunReport("paper-examples")
    report.inputs["ids"] = " ".join(selected)
    reports = [run_example(example_id) for example_id in selected]
    for example in reports:
        verdict = "pass" if example.passed else "FAIL"
        report.outputs[f"example {example.example_id}"] = (
            f"{verdict} ({len(example.checks)} checks)"
        )
        for position, check in enumerate(example.checks):
            if not check.ok:
                report.outputs[
                    f"example {example.example_id} mismatch {position}"
                ] = f"{check.name}: expected {check.expected}, got {check.actual}"
    all_passed = all(example.passed for example in reports)
    report.verdicts["all examples"] = "pass" if all_passed else "FAIL"
    report.details = [example.as_dict() for example in reports]
    return report, 0 if all_passed else 2


def _handle_roundtrip(args) -> Tuple[RunReport, int]:
    if args.count < 1:
        raise ParseError("--count must be at least 1")
    report = RunReport("roundtrip")
    report.inputs["seed"] = str(args.seed)
    report.inputs["count"] = str(args.count)
    rng = random.Random(args.seed)
    model = multiplication_map(2)
    recovered = 0
    max_breaks = 0
    max_level = 0
    failures = []
    for trial in range(args.count):
        h = random_dyadic_homeomorphism(rng, max_breaks=8, grid_exponent=5)
        g = h.compose(model).compose(h.invert())
        partition = partition_from_expanding_map(g)
        verdict = pl_criterion(g, partition)
        max_breaks = max(max_breaks, len(h.breakpoints))
        max_level = max(max_level, verdict.stable_level)
        if verdict.is_pl and verdict.conjugator == h:
            recovered += 1
        else:
            failures.append(trial)
    report.outputs["recovered"] = f"{recovered}/{args.count}"
    report.outputs["max break count"] = str(max_breaks)
    report.outputs["max depth used"] = str(max_level)
    if failures:
        report.outputs["failed trials"] = " ".join(str(t) for t in failures)
    report.verdicts["all recovered"] = _yesno(not failures)
    return report, 0 if not failures else 2


def _integer(text: str) -> int:
    """argparse type for --seed, --count and --depth: an integer in decimal
    digits."""
    value = parse_integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return value


def _depth(text: str) -> int:
    """argparse type for --depth: a non-negative integer."""
    depth = _integer(text)
    if depth < 0:
        raise argparse.ArgumentTypeError(f"depth must be non-negative, got {depth}")
    return depth


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors map to the input-error exit code."""

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="chameleon",
        description=(
            "Exact analysis of piecewise-linear expanding circle maps built "
            "from integer partition data."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    partition = commands.add_parser(
        "partition", help="analyse one partition file"
    )
    partition.add_argument("subaction", choices=_PARTITION_HANDLERS)
    partition.add_argument("file", help='JSON file {"base": n, "lengths": [...]}')
    partition.add_argument(
        "--depth",
        type=_depth,
        default=None,
        help=(
            "depth budget: scan depth for dyadic-status (default 4), "
            "evaluation budget for conjugator-eval (default CHAMELEON_MAX_DEPTH or 16)"
        ),
    )
    partition.add_argument("--json", action="store_true", help="emit JSON")
    partition.add_argument("--point", default=None, help="point for conjugator-eval")
    partition.add_argument(
        "--inverse", action="store_true", help="evaluate the inverse conjugator"
    )
    partition.set_defaults(handler=_handle_partition)

    examples = commands.add_parser(
        "paper-examples", help="replay the bundled worked examples"
    )
    examples.add_argument(
        "--ids", default=None, help="comma-separated example ids (default: all)"
    )
    examples.add_argument("--json", action="store_true", help="emit JSON")
    examples.set_defaults(handler=_handle_paper_examples)

    roundtrip = commands.add_parser(
        "roundtrip", help="recover random conjugators from their expanding maps"
    )
    roundtrip.add_argument("--seed", type=_integer, default=0, help="RNG seed (default 0)")
    roundtrip.add_argument(
        "--count", type=_integer, default=10, help="number of trials (default 10)"
    )
    roundtrip.set_defaults(handler=_handle_roundtrip)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        report, code = args.handler(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RefusalError as err:
        print(f"refused: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        sys.stdout.write(report.render_json())
    else:
        sys.stdout.write(report.render_text())
    elapsed = time.perf_counter() - start
    print(f"wall time: {elapsed:.6f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
