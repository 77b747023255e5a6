"""Record the expected output digests: python3 perfbench/record_digests.py [SEEDS]

Runs the digested ops of every workload for each seed (default 0-127) with
the program in ``src/`` and writes them to ``perfbench/expected.json``.
Only do this for a program whose outputs are known to be right: the file
is what later runs are checked against.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv) -> int:
    seeds = [int(s) for s in argv[0].split(",")] if argv else list(range(128))
    run.pin_environment()
    recorded = {}
    for name in run.WORKLOAD_NAMES:
        recorded[name] = {}
        for seed in seeds:
            workload, _ = run.set_up(name, seed)
            found, extra = run.digest(workload, [], seed)
            bad = [line for _, ok, line in extra if not ok]
            if bad:
                raise SystemExit(f"{name} seed {seed}: failed ops, not recording: {bad}")
            recorded[name][str(seed)] = found
            print(name, seed, found, flush=True)
    (run.HERE / "expected.json").write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
