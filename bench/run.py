"""uotalign benchmark: one command, seeded inputs, checked outputs.

    python3 bench/run.py --workload fewshot_train --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/` of the
checkout this file sits in; without it the command exits with code 2.
With `--trace 0` the last line of standard output is a JSON object
holding the end-to-end metrics of BENCHMARK.json; with `--trace 1` it
holds the per-layer metrics, taken from one traced repetition after
untraced ones. The line before it records the environment. The full
record (environment, repetition times, failures) goes to `.bench_out/`,
and a traced run also writes its spans there as an .npz file.

A run sets up its inputs several times (reporting the median), then
repeats the workload until the repetitions have taken `--seconds`, and
reports medians over repetitions. Every repetition's outputs are
checked; any failed check makes `correct` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread; must run before NumPy is first imported."""
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"


def import_program() -> float:
    """Imports the package from this checkout's src/; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "uotalign" / "__init__.py").is_file():
        raise FileNotFoundError(f"no uotalign package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = perf_counter()
    import uotalign.trainer  # noqa: F401  (loads every module the workloads use)
    elapsed = perf_counter() - start
    loaded = Path(sys.modules["uotalign"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise ImportError(f"uotalign was imported from {loaded}, not from {src}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    import numpy  # noqa: F401  (loaded before the program's imports are timed)
    try:
        import_s = import_program()
        import harness
        units = harness.spec_units("per_layer" if args.trace else "end_to_end")
    except (ImportError, FileNotFoundError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")

    env = harness.environment(args)
    print(json.dumps({"env": env}))
    record = harness.execute(args.workload, args.seed, args.seconds,
                             bool(args.trace), import_s=import_s)
    metrics = record["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           f"match BENCHMARK.json")
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, **record}, indent=1) + "\n")
    for failure in record["failures"][:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
