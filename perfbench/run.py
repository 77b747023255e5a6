"""Pipeline benchmark for chameleon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  One run sets up one workload
(see ``workloads.py``) from the seed, then calls operations closed-loop,
one caller, each starting when the previous one returns, for the given
number of seconds.  Every op's output is checked, and the exact results of
the first ops are folded into a sha256 digest that must match the one
recorded in ``expected.json`` for that workload and seed, when there is one
(seeds 0-127 are recorded; the default seed is 0).

BENCHMARK.json registers roundtrip and certify, which between them reach
every layer.  The conjugator-query and interpolation workloads run the
same way but are not registered, so that the registered ones get
60-second runs in the time all runs are allowed: on a shared two-core
host, whose speed drifts by a tenth or more from one half-minute to the
next, shorter runs spread past the bounds.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the same op sequence untraced for half the time and
traced for the other half, reports the per-layer metrics of the traced
half and the tracing overhead, and writes the spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Every metric prints as ``metric <name> <value> <unit>``; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exit status is 0 when the run completed, whatever it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up is also timed in this many fresh processes, spread evenly over the
# run so they see the machine as the ops do, and the median of them and
# this process's own set-up is reported, since one import time is noisy.
SETUP_REPEATS = 8
TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)
WORKLOAD_NAMES = ("roundtrip", "conjugator-query", "interpolation", "certify")


def pin_environment() -> None:
    """Keep the user's shell from changing a workload: no depth or backend
    override, and one thread for numpy."""
    for var in ("CHAMELEON_MAX_DEPTH", "CHAMELEON_PURE"):
        os.environ.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def set_up(name: str, seed: int):
    """Import the program from this checkout and build the seeded inputs;
    returns the workload and the seconds that took."""
    start = time.perf_counter()
    package = SRC / "chameleon"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no chameleon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chameleon

    if Path(chameleon.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported chameleon from {chameleon.__file__}")
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    return workload, time.perf_counter() - start


def setup_seconds_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def one_op(workload, spec, tracer, op_id: int):
    """(latency in s, ok, result line) of one op; the check is not part of
    the latency."""
    if tracer is not None:
        tracer.op, tracer.on = op_id, True
    start = time.perf_counter()
    try:
        state = workload.run(spec)
    except Exception as exc:  # an unexpected exception is a failed op
        return time.perf_counter() - start, False, f"error {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.on = False
    latency = time.perf_counter() - start
    try:
        ok, line = workload.check(spec, state)
    except Exception as exc:
        ok, line = False, f"check error {type(exc).__name__}: {exc}"
    return latency, ok, line


def closed_loop(workload, seconds: float, tracer=None, setups=None):
    """Ops from the first spec on until the time is up; returns their
    records.  With a ``setups`` list, SETUP_REPEATS set-ups in fresh
    processes are timed between ops at even intervals of the run and
    appended to it."""
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(records)
        records.append(one_op(workload, workload.spec(i), tracer, i))
        if (setups is not None and len(setups) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(setup_seconds_in_fresh_process(workload.name, workload.seed))
    return records


def digest(workload, records, seed: int):
    """sha256 over the result lines of the first ``digest_ops`` ops, running
    any the timed part did not reach; returns (hex, extra records)."""
    extra = []
    while len(records) + len(extra) < workload.digest_ops:
        i = len(records) + len(extra)
        extra.append(one_op(workload, workload.spec(i), None, i))
    lines = [line for *_, line in (records + extra)[:workload.digest_ops]]
    text = "\n".join([f"{workload.name} seed={seed}", *lines])
    return hashlib.sha256(text.encode()).hexdigest(), extra


def _rank(per_mille: int, count: int) -> int:
    return max(1, -(-per_mille * count // 1000))


def tail_per_mille(count: int) -> int:
    """The highest percentile in TAIL_PER_MILLE (in tenths of a percent)
    with at least ten of ``count`` samples beyond it, by nearest rank; the
    median when no percentile has ten."""
    for per_mille in TAIL_PER_MILLE:
        if count - _rank(per_mille, count) >= 10:
            return per_mille
    return TAIL_PER_MILLE[-1]


def percentile(latencies, per_mille: int) -> float:
    return sorted(latencies)[_rank(per_mille, len(latencies)) - 1]


def environment(workload_name: str, seed: int) -> dict:
    import chameleon

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "chameleon").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload_name, "seed": seed,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "blocks_backend": chameleon.blocks.active_backend(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_environment()

    workload, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
        return 0
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    setups = None if args.trace else []
    records = closed_loop(workload, args.seconds / 2 if args.trace else args.seconds,
                          setups=setups)
    traced = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    found, extra = digest(workload, records, args.seed)
    expected = json.loads((HERE / "expected.json").read_text())
    want = expected.get(args.workload, {}).get(str(args.seed))
    everything = records + traced + extra
    failed = sum(not ok for _, ok, _ in everything)
    if want is not None and found != want:
        # The digested ops did not give the recorded outputs: all of them fail.
        digested = (records + extra)[:workload.digest_ops]
        failed += sum(ok for _, ok, _ in digested)
    print(f"digest {found} ops={workload.digest_ops} expected={want or 'none'} "
          f"match={'n/a' if want is None else found == want}")
    for i, (_, ok, line) in enumerate(everything):
        if not ok:
            print(f"failed op {i}: {line}")

    if args.trace:
        metrics = tracer.metrics(len(traced))
        common = min(len(records), len(traced))
        plain = sum(lat for lat, _, _ in records[:common])
        slow = sum(lat for lat, _, _ in traced[:common])
        metrics.update({
            "trace.ops": (len(traced), "count"),
            "trace.untraced_ops_per_s": (common / plain, "1/s"),
            "trace.traced_ops_per_s": (common / slow, "1/s"),
            "trace.overhead_pct": (100 * (slow / plain - 1), "%"),
            "trace.spans": (len(tracer.spans) + tracer.dropped, "count"),
        })
        print(f"note trace overhead over the first {common} ops: traced "
              f"{common / slow:.4g} ops/s against untraced {common / plain:.4g} ops/s")
    else:
        setups.append(own_setup)
        # Latencies are taken over whole cycles, so each class of op weighs
        # the same in every run.  The tail percentile is the one the
        # workload's guaranteed ``latency_cycles`` allow, so it is the same
        # in every run, however many cycles it ends.  ops_per_s counts the
        # time inside ops only: building later cycles, checking outputs and
        # timing set-ups happen between ops.
        whole = len(records) // workload.cycle * workload.cycle
        latencies = [lat for lat, _, _ in records[:whole or len(records)]]
        per_mille = tail_per_mille(workload.latency_cycles * workload.cycle)
        tail_value = percentile(latencies, per_mille)
        beyond = len(latencies) - _rank(per_mille, len(latencies))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1000 * tail_value, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"note ops_per_s is {len(latencies)} ops over {sum(latencies):.3f} s inside ops, "
              f"of {len(records)} ops run")
        print(f"note op_p50_ms over {len(latencies)} ops; op_tail_ms is p{per_mille / 10:g} with "
              f"{beyond} samples beyond; setup_s is the median of {len(setups)} set-ups "
              + " ".join(f"{s:.4f}" for s in setups))
    attempted = len(everything)
    shown = dict(metrics)
    shown["fail_ratio"] = (failed / attempted, "1")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
