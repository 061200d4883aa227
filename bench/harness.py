"""Runs one workload: set-ups, timed repetitions, checks and the trace.

See run.py for the command line. `execute` is also what the smoke tests
call, at the tiny sizes of the workload tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from uotalign import transport

import checks
import tracing
from run import ROOT, THREAD_VARIABLES
from workloads import WORKLOADS

SETUP_REPEATS = 3
SINGLE_SOLVE_SAMPLE = 8


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: set-ups, repetitions and their checks."""

    def __init__(self, workload, size: str, seed: int, scratch: Path):
        self.wl = workload
        self.params = workload.sizes[size]
        self.seed = seed
        self.scratch = scratch
        self.recorder = tracing.Recorder()
        self.absent = self.recorder.install()
        self.failures: list[str] = []
        self.reps: list[float] = []
        self.items: list[int] = []
        self.problems = 0
        self.converged = 0
        self.accuracy = None
        self.setup_digest = None
        self._digest = None
        self._setups = 0

    def close(self) -> None:
        self.recorder.restore()

    @property
    def attempted(self) -> int:
        return sum(self.items)

    def setup(self):
        """Builds the inputs once; returns them and the time taken."""
        self.recorder.active = False
        directory = self.scratch / f"setup{self._setups}"
        self._setups += 1
        start = perf_counter()
        try:
            ctx = self.wl.setup(self.params, self.seed, directory)
        finally:
            self.recorder.active = True
        elapsed = perf_counter() - start
        if self.setup_digest is None:
            self.setup_digest = ctx.digest
        elif ctx.digest != self.setup_digest:
            self.failures.append("repeated set-ups produced different inputs")
        return ctx, elapsed

    def repeat(self, ctx, seconds: float) -> None:
        """Repetitions until their time reaches `seconds` (at least one)."""
        spent = 0.0
        while True:
            outcome, wall = self.once(ctx)
            self.accept(outcome, wall)
            spent += wall
            if outcome is None or spent >= seconds:
                return

    def once(self, ctx):
        """One timed repetition; returns (outcome or None if it raised, wall)."""
        self.recorder.clear()
        start = perf_counter()
        try:
            outcome = self.wl.rep(ctx)
        except Exception:
            traceback.print_exc()
            self.failures.append(f"{self.wl.name} raised; see the traceback")
            return None, perf_counter() - start
        return outcome, perf_counter() - start

    def accept(self, outcome, wall: float) -> None:
        """Counts and checks a repetition's outputs, outside the timed part."""
        if outcome is None:
            return
        self.reps.append(wall)
        self.items.append(outcome.items)
        self.accuracy = outcome.accuracy
        self.failures.extend(outcome.failures)
        calls = self.recorder.calls
        for problems, _, plans, error in calls:
            self.problems += len(problems)
            if error is None:
                self.converged += sum(1 for p in plans if p.error is None and p.converged)
        if not calls:
            self.failures.append("no transport result was observed")
        self.failures.extend(checks.plans_usable(calls))
        if self.wl.scores_samples:
            if not self.recorder.likelihoods:
                self.failures.append("no likelihood was observed")
            self.failures.extend(checks.likelihood_rows(self.recorder.likelihoods))
        digest = hashlib.blake2b(outcome.digest.encode(), digest_size=16)
        for _, _, plans, _ in calls:
            for plan in plans or ():
                digest.update(plan.coupling.tobytes())
        for row in self.recorder.likelihoods:
            digest.update(np.asarray(row).tobytes())
        if self._digest is None:
            # the first repetition is checked in depth; later ones, and the
            # traced one, must reproduce its outputs bit for bit
            self._digest = digest.hexdigest()
            self.recorder.active = False
            try:
                rng = np.random.default_rng([self.seed, 99])
                self.failures.extend(checks.batch_matches_single(
                    calls, transport.solve_uot, rng, SINGLE_SOLVE_SAMPLE))
                self.failures.extend(checks.balanced_marginals(
                    calls, transport.FEASIBILITY_TOL))
            finally:
                self.recorder.active = True
        elif digest.hexdigest() != self._digest:
            self.failures.append("a repetition's outputs differ from the first one's")

    def throughput(self) -> float:
        rates = [n / t for n, t in zip(self.items, self.reps)]
        return statistics.median(rates) if rates else 0.0

    def converged_share(self) -> float:
        return self.converged / self.problems if self.problems else 0.0


def execute(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            import_s: float = 0.0, out_dir: Path | None = None) -> dict:
    """Runs one workload and returns the result record (see run.py)."""
    out_dir = out_dir or ROOT / ".bench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name]
    spans_path = None
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
        run = Run(wl, size, seed, Path(tmp))
        try:
            if not trace:
                setup_times = [run.setup()[1] for _ in range(SETUP_REPEATS - 1)]
                ctx, last = run.setup()
                run.repeat(ctx, seconds)
                metrics = {
                    "setup_s": import_s + statistics.median(setup_times + [last]),
                    "items_per_s": run.throughput(),
                    "converged_share": run.converged_share(),
                    "peak_rss_mb": peak_rss_mb(),
                }
            else:
                ctx, _ = run.setup()
                run.repeat(ctx, seconds / 2)
                untraced = statistics.median(run.reps) if run.reps else 0.0
                tracer = tracing.Tracer()
                absent = tracer.install()
                try:
                    with tracer.region("setup"):
                        ctx, _ = run.setup()
                    with tracer.region("work"):
                        outcome, traced = run.once(ctx)
                finally:
                    tracer.restore()
                run.accept(outcome, traced)
                metrics = tracing.summarize(tracer, wl.encodings_per_version(run.params))
                metrics["trainer.accuracy"] = run.accuracy or 0.0
                metrics["trace.overhead"] = traced / untraced - 1.0 if untraced else 0.0
                metrics["trace.absent_hooks"] = len(absent)
                run.absent = sorted(set(run.absent) | set(absent))
                spans_path = out_dir / f"{name}-seed{seed}-spans.npz"
                tracer.save(spans_path)
        finally:
            run.close()
    attempted = max(run.attempted, 1)
    return {
        "correct": not run.failures, "attempted": attempted,
        "failed": min(len(run.failures), attempted), "metrics": metrics,
        "failures": run.failures, "absent_hooks": run.absent,
        "accuracy": run.accuracy, "import_s": import_s, "repetition_s": run.reps, "spans": str(spans_path) if spans_path else None,
    }


def spec_units(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}
