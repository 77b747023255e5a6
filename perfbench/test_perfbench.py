"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from oracle import Descent, LineInterpolant  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def run_bench(root: Path, workload: str, trace: int = 0, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def printed_metrics(lines):
    found = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            found[name] = (float(value), unit)
    return found


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_passes_and_prints_every_metric(workload):
    result, lines = run_bench(ROOT, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = {m["name"]: m["unit"] for m in REGISTRY["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == registered
    shown = printed_metrics(lines)
    assert shown["fail_ratio"] == (0.0, "1")
    assert {k: u for k, (_, u) in shown.items() if k != "fail_ratio"} == registered


def test_traced_run_reports_every_per_layer_metric():
    result, lines = run_bench(ROOT, "interpolation", trace=1)
    assert result["correct"]
    registered = {m["name"]: m["unit"] for m in REGISTRY["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == registered
    assert result["metrics"]["maps.line_map.pieces_in"]["value"] > 0


def test_registered_names_and_units_are_well_formed():
    metrics = REGISTRY["end_to_end"] + REGISTRY["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in REGISTRY["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)


def test_every_workload_carries_its_reason():
    assert set(w["name"] for w in REGISTRY["workloads"]) <= set(WORKLOAD_NAMES)
    for w in REGISTRY["workloads"]:
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200


def _copy_benchmark(tmp_path: Path) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_wrong_expected_digest_counts_as_failure(tmp_path):
    root = _copy_benchmark(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    (root / "perfbench" / "expected.json").write_text(
        json.dumps({"interpolation": {"0": "0" * 64}}))
    result, _ = run_bench(root, "interpolation")
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_descent_matches_the_conjugator_tables():
    import chameleon as C

    for example_id in ("1", "2", "3", "5"):
        record = C.load_example(example_id)
        partition = C.AffineMarkovPartition(record["base"], record["lengths"])
        conj = C.Conjugator(partition, max_depth=4)
        ref = Descent(partition.base, partition.lengths)
        for depth in range(5):
            table = conj.chain.table(depth).values
            assert [ref.value(k, depth) for k in range(len(table))] == list(table)


def test_line_interpolant_matches_the_program():
    import chameleon as C

    xs = [Fraction(-3, 2), Fraction(1, 4), Fraction(7, 8)]
    ys = [Fraction(-1, 8), Fraction(1, 2), Fraction(9, 4)]
    f = C.interpolate_line(2, xs, ys)
    ref = LineInterpolant(2, xs, ys)
    probes = [Fraction(k, 64) for k in range(-320, 320, 3)]
    assert all(f.evaluate(t) == ref.value(t) for t in probes)


def test_certify_check_predicts_the_merge_scan():
    from workloads import Certify

    workload = Certify(0)
    spec = next(s for s in map(workload.spec, range(workload.cycle)) if s[0] == "tower")
    law, status, merges = workload.run(spec)
    assert merges and workload.check(spec, (law, status, merges))[0]
    assert not workload.check(spec, (law, status, merges[1:]))[0]
    v = merges[0]
    flipped = (type(v)(v.left, v.right, v.meeting_point, v.right_sum, v.left_sum),) + merges[1:]
    assert not workload.check(spec, (law, status, flipped))[0]
