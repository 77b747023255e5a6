"""Command-line workbench: subactions, exit codes, report formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chameleon.cli import main
from chameleon.golden import Check, ExampleReport, load_example


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def uniform_file(tmp_path, base=2, lengths=(1, 1)):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"base": base, "lengths": list(lengths)}))
    return str(path)


class TestValidate:
    def test_first_example(self, capsys, partition_file):
        record = load_example("1")
        code, out, err = run_cli(capsys, "partition", "validate", partition_file("1"))
        assert code == 0
        assert "command: partition validate" in out
        assert f"input base: {record['base']}" in out
        assert "verdict markov: yes" in out
        expected_breaks = " ".join(f"{p}:{v}" for p, v in record["break_values"])
        assert f"output break values: {expected_breaks}" in out
        assert "output power form: yes" in out
        assert "wall time" in err
        assert "wall time" not in out

    def test_power_form_flag(self, capsys, partition_file):
        code, out, _ = run_cli(capsys, "partition", "validate", partition_file("2"))
        assert code == 0
        assert "output power form: no" in out

    def test_json_output_is_deterministic(self, capsys, partition_file):
        path = partition_file("1")
        first = run_cli(capsys, "partition", "validate", path, "--json")
        second = run_cli(capsys, "partition", "validate", path, "--json")
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
        payload = json.loads(first[1])
        assert payload["command"] == "partition validate"
        assert payload["verdicts"] == {"markov": "yes"}
        assert payload["inputs"]["lengths"].split() == [
            str(w) for w in load_example("1")["lengths"]
        ]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "partition", "validate", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error:" in err

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "partition", "validate", str(path))
        assert code == 1
        assert "error:" in err

    def test_non_markov_data_is_refused(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "partition", "validate",
            uniform_file(tmp_path, lengths=(1, 2)))
        assert code == 2
        assert err.startswith("refused:")


class TestSigma:
    def test_first_example(self, capsys, partition_file):
        record = load_example("1")
        code, out, _ = run_cli(capsys, "partition", "sigma", partition_file("1"))
        assert code == 0
        assert f"output stable level: {record['stable_level']}" in out
        values = " ".join(str(v) for v in record["sigma"])
        assert f"output values: {values}" in out
        assert "verdict constant: no" in out

    def test_divergent_example_is_refused(self, capsys, partition_file):
        code, _, err = run_cli(capsys, "partition", "sigma", partition_file("4"))
        assert code == 2
        assert "refused: DivergentFixedPoint" in err

    def test_non_power_form_is_refused(self, capsys, partition_file):
        code, _, err = run_cli(capsys, "partition", "sigma", partition_file("2"))
        assert code == 2
        assert "refused: NotPowerForm" in err

    def test_the_map_is_refused_before_the_power_form(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "partition", "sigma", uniform_file(tmp_path, lengths=(1, 2, 4)))
        assert code == 2
        assert out == ""
        assert err == "refused: SlopeNotPowerOfN: interval 0 has slope 3, not a power of 2\n"


class TestEqualPairs:
    def test_positive(self, capsys, partition_file):
        code, out, _ = run_cli(
            capsys, "partition", "equal-pairs", partition_file("2"))
        assert code == 0
        assert "verdict equal pairs: yes" in out

    def test_negative_verdict_still_exits_zero(self, capsys, partition_file):
        code, out, _ = run_cli(
            capsys, "partition", "equal-pairs", partition_file("1"))
        assert code == 0
        assert "verdict equal pairs: no" in out


class TestConjugatorEval:
    def test_forward(self, capsys, partition_file):
        code, out, _ = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("2"),
            "--point", "1/6")
        assert code == 0
        assert "output image: 1/4" in out
        assert "verdict in lattice: yes" in out

    def test_inverse(self, capsys, partition_file):
        code, out, _ = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("2"),
            "--point", "1/4", "--inverse")
        assert code == 0
        assert "output source point: 1/6" in out
        assert "verdict in lattice: no" in out

    def test_pinned_deep_query(self, capsys, partition_file):
        path = partition_file("1")
        code, out, _ = run_cli(
            capsys, "partition", "conjugator-eval", path, "--point", "12345/65536")
        assert code == 0
        assert "output image: 57465/262144\n" in out
        code, out, _ = run_cli(
            capsys, "partition", "conjugator-eval", path, "--inverse",
            "--point", "57465/262144")
        assert code == 0
        assert "output source point: 12345/65536\n" in out

    def test_pinned_inverse_refusal(self, capsys, partition_file):
        code, out, err = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("1"), "--inverse",
            "--point", "1/1048576", "--depth", "12")
        assert code == 2
        assert out == ""
        assert err == ("refused: NotAVertex: 1/1048576 is not a vertex at any depth "
                       "up to 12\n")

    def test_point_is_required(self, capsys, partition_file):
        code, _, err = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("2"))
        assert code == 1
        assert "error:" in err

    def test_unparseable_point(self, capsys, partition_file):
        code, _, err = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("2"),
            "--point", "banana")
        assert code == 1
        assert "error:" in err
        # The point is 'a' or 'a/b' in decimal digits, as the depth is.
        for text in ("0.5", "1e3", "1_0/3", "+2", "\u0663/\u0664", "1/\u0666"):
            code, out, err = run_cli(
                capsys, "partition", "conjugator-eval", partition_file("2"),
                f"--point={text}")
            assert code == 1
            assert err == f"error: not a rational literal: {text!r}\n"
            assert out == ""

    def test_off_grid_point_is_refused(self, capsys, partition_file):
        code, _, err = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("2"),
            "--point", "1/5")
        assert code == 2
        assert "refused:" in err

    def test_environment_depth_budget(self, capsys, partition_file, monkeypatch):
        monkeypatch.setenv("CHAMELEON_MAX_DEPTH", "2")
        code, _, err = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("2"),
            "--point", "1/384")
        assert code == 2
        assert "refused: BudgetExceeded" in err

    def test_malformed_environment_depth_is_an_input_error(self, capsys, partition_file,
                                                           monkeypatch):
        for raw in ("not a number", "1_0", "+2", "-1", "2 3", "", "\u0663"):
            monkeypatch.setenv("CHAMELEON_MAX_DEPTH", raw)
            code, out, err = run_cli(
                capsys, "partition", "conjugator-eval", partition_file("2"),
                "--point", "1/384")
            assert code == 1
            assert err == ("error: CHAMELEON_MAX_DEPTH must be a non-negative "
                           f"integer, got {raw!r}\n")
            assert out == ""

    def test_depth_flag_overrides_the_environment(self, capsys, partition_file,
                                                  monkeypatch):
        monkeypatch.setenv("CHAMELEON_MAX_DEPTH", "2")
        code, out, _ = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("2"),
            "--point", "1/384", "--depth", "8")
        assert code == 0
        assert "output image:" in out

    def test_negative_depth_flag_is_an_input_error(self, capsys, partition_file):
        code, out, err = run_cli(
            capsys, "partition", "conjugator-eval", partition_file("2"),
            "--point", "1/6", "--depth", "-1")
        assert code == 1
        assert "error: argument --depth: depth must be non-negative" in err
        assert out == ""
        # The depth is read as decimal digits, as CHAMELEON_MAX_DEPTH is.
        for text in ("1_0", "+2", "2 3", "2.0", "\u0663"):
            code, out, err = run_cli(
                capsys, "partition", "conjugator-eval", partition_file("2"),
                "--point", "1/6", f"--depth={text}")
            assert code == 1
            assert f"error: argument --depth: invalid integer: {text!r}" in err
            assert out == ""


class TestPLCriterionCommand:
    def test_refuting_witness(self, capsys, partition_file):
        code, out, _ = run_cli(
            capsys, "partition", "pl-criterion", partition_file("1"))
        assert code == 0
        assert "verdict piecewise linear: no" in out
        assert "output witness: vertex" in out

    def test_uniform_partition_is_linear(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "partition", "pl-criterion", uniform_file(tmp_path))
        assert code == 0
        assert "verdict piecewise linear: yes" in out
        assert "output initial slope: 1" in out
        assert "output conjugator heights: 0" in out
        assert "output conjugator slopes: 1" in out

    def test_non_power_form_is_refused(self, capsys, partition_file):
        code, _, err = run_cli(
            capsys, "partition", "pl-criterion", partition_file("5"))
        assert code == 2
        assert "refused: NotPowerForm" in err


class TestDyadicStatus:
    def test_grid_point_counterexample(self, capsys, partition_file):
        record = load_example("2")["image_status"]
        assert record["depth"] == 4  # the CLI default scan depth
        code, out, _ = run_cli(
            capsys, "partition", "dyadic-status", partition_file("2"))
        assert code == 0
        assert "output subset holds: yes" in out
        assert ("output counterexample: "
                f"{record['kind']} at {record['point']} from {record['source']}"
                in out)
        assert "verdict equality refuted: yes" in out

    def test_periodic_point_counterexample(self, capsys, partition_file):
        record = load_example("3")["image_status"]
        code, out, _ = run_cli(
            capsys, "partition", "dyadic-status", partition_file("3"))
        assert code == 0
        assert (f"output counterexample: {record['kind']} at {record['point']}"
                in out)
        assert "from" not in out.split("counterexample:")[1].splitlines()[0]

    def test_depth_flag_is_echoed(self, capsys, partition_file):
        code, out, _ = run_cli(
            capsys, "partition", "dyadic-status", partition_file("2"),
            "--depth", "6")
        assert code == 0
        assert "input depth: 6" in out

    def test_vertex_budget_is_a_refusal(self, capsys, partition_file, monkeypatch):
        monkeypatch.setattr("chameleon.markov.MAX_TABLE_VERTICES", 64)
        code, out, err = run_cli(
            capsys, "partition", "dyadic-status", partition_file("1"), "--depth", "3")
        assert code == 2
        assert out == ""
        assert err == "refused: BudgetExceeded: level 3 has 128 vertices, budget is 64\n"

    def test_deep_level_is_refused_before_any_table(self, capsys, partition_file):
        code, out, err = run_cli(
            capsys, "partition", "dyadic-status", partition_file("1"), "--depth", "30")
        assert code == 2
        assert out == ""
        assert err == ("refused: BudgetExceeded: level 30 has 17179869184 vertices, "
                       "budget is 1048576\n")

    def test_very_deep_level_is_refused_without_its_count(self, capsys, partition_file):
        code, out, err = run_cli(
            capsys, "partition", "dyadic-status", partition_file("2"), "--depth", "20000")
        assert code == 2
        assert out == ""
        assert err == ("refused: BudgetExceeded: level 20000 has 6*2**20000 vertices, "
                       "budget is 1048576\n")

    def test_negative_depth_flag_is_an_input_error(self, capsys, partition_file):
        code, out, err = run_cli(
            capsys, "partition", "dyadic-status", partition_file("2"),
            "--depth", "-2")
        assert code == 1
        assert "error: argument --depth: depth must be non-negative" in err
        for text in ("1_0", "+2", "\u0663"):
            code, out, err = run_cli(
                capsys, "partition", "dyadic-status", partition_file("2"),
                "--depth", text)
            assert code == 1
            assert f"error: argument --depth: invalid integer: {text!r}" in err
            assert out == ""
        assert out == ""

    def test_uniform_partition_has_no_counterexample(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "partition", "dyadic-status", uniform_file(tmp_path))
        assert code == 0
        assert "output counterexample: none" in out
        assert "verdict equality refuted: no" in out


class TestPaperExamples:
    def test_all_examples_pass(self, capsys):
        code, out, _ = run_cli(capsys, "paper-examples")
        assert code == 0
        assert "verdict all examples: pass" in out
        for example_id in "12345":
            assert f"output example {example_id}: pass (" in out

    def test_id_selection(self, capsys):
        code, out, _ = run_cli(capsys, "paper-examples", "--ids", "1,3")
        assert code == 0
        assert "output example 1: pass (" in out
        assert "output example 3: pass (" in out
        assert "example 2" not in out

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "paper-examples", "--ids", "9")
        assert code == 1
        assert "unknown example id" in err

    def test_empty_ids(self, capsys):
        code, _, err = run_cli(capsys, "paper-examples", "--ids", ",")
        assert code == 1
        assert "error:" in err

    def test_json_details(self, capsys):
        first = run_cli(capsys, "paper-examples", "--json")
        second = run_cli(capsys, "paper-examples", "--json")
        assert first[0] == 0
        assert first[1] == second[1]
        payload = json.loads(first[1])
        assert [d["id"] for d in payload["details"]] == list("12345")
        assert all(d["passed"] for d in payload["details"])
        assert all(check["ok"]
                   for d in payload["details"] for check in d["checks"])

    def test_any_mismatch_exits_nonzero(self, capsys, monkeypatch):
        import chameleon.cli as cli_module

        def fake_run(example_id):
            return ExampleReport(example_id, (
                Check("slopes", expected="2 2", actual="2 4"),
            ))

        monkeypatch.setattr(cli_module, "run_example", fake_run)
        code, out, _ = run_cli(capsys, "paper-examples", "--ids", "1")
        assert code == 2
        assert "output example 1: FAIL (1 checks)" in out
        assert "mismatch 0" in out
        assert "expected 2 2, got 2 4" in out
        assert "verdict all examples: FAIL" in out


class TestRoundtrip:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "roundtrip", "--seed", "1", "--count", "3")
        assert code == 0
        assert "output recovered: 3/3" in out
        assert "verdict all recovered: yes" in out
        # The same seed must describe the same generator stream, so the
        # reported break tally is reproducible from the public generator.
        import random

        from chameleon.interpolate import random_dyadic_homeomorphism

        rng = random.Random(1)
        expected_breaks = max(
            len(random_dyadic_homeomorphism(
                rng, max_breaks=8, grid_exponent=5).breakpoints)
            for _ in range(3)
        )
        assert f"output max break count: {expected_breaks}" in out
        depth_line = next(l for l in out.splitlines()
                          if l.startswith("output max depth used: "))
        assert int(depth_line.rsplit(" ", 1)[1]) >= 0

    def test_deterministic_per_seed(self, capsys):
        first = run_cli(capsys, "roundtrip", "--seed", "7", "--count", "2")
        second = run_cli(capsys, "roundtrip", "--seed", "7", "--count", "2")
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_pinned_report(self, capsys):
        """The full report of the reference run, byte for byte."""
        code, out, _ = run_cli(capsys, "roundtrip", "--seed", "3", "--count", "30")
        assert code == 0
        assert out == (
            "command: roundtrip\n"
            "input seed: 3\n"
            "input count: 30\n"
            "output recovered: 30/30\n"
            "output max break count: 17\n"
            "output max depth used: 10\n"
            "verdict all recovered: yes\n"
        )

    def test_count_validation(self, capsys):
        code, _, err = run_cli(capsys, "roundtrip", "--count", "0")
        assert code == 1
        assert "error:" in err
        code, _, err = run_cli(capsys, "roundtrip", "--count", "-3")
        assert code == 1
        assert "error: --count must be at least 1" in err
        # The count and the seed are read as decimal digits, as
        # CHAMELEON_MAX_DEPTH is.
        for flag in ("--count", "--seed"):
            for text in ("1_0", "+2", "2.0", "\u0663"):
                code, out, err = run_cli(capsys, "roundtrip", f"{flag}={text}")
                assert code == 1
                assert f"error: argument {flag}: invalid integer: {text!r}" in err
                assert out == ""


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 1

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_subaction(self, capsys, partition_file):
        assert run_cli(capsys, "partition", "paint", partition_file("1"))[0] == 1


def test_module_entry_point(partition_file):
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-m", "chameleon.cli",
         "partition", "equal-pairs", partition_file("2")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0
    assert "verdict equal pairs: yes" in out.stdout
    assert "wall time" in out.stderr
