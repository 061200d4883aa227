"""Call hooks for the benchmark: spans for timing, a recorder for outputs.

A hook replaces a function at every module attribute of the package that
holds it, so a caller that imported the name (``from .transport import
solve_uot_batch``) is hooked as well as the defining module, and each
call passes through one wrapper exactly once. Methods are replaced on
their class. The program's files are never edited; everything is undone
by ``Patcher.restore``.

Spans are kept in memory as parallel lists (name, start, end, parent,
info) and summarised or written out only after the timed work.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "uotalign"

# (span name, module, attribute path). The span name doubles as the
# metric prefix, so metric names read layer.function.
HOOKS = (
    ("numerics.logsumexp_axis", "uotalign.numerics", "logsumexp_axis"),
    ("transport.solve_uot_batch", "uotalign.transport", "solve_uot_batch"),
    ("transport.solve_uot", "uotalign.transport", "solve_uot"),
    ("classifier.cost_matrix", "uotalign.classifier", "cost_matrix"),
    ("classifier.cost_matrix_backward", "uotalign.classifier", "cost_matrix_backward"),
    ("classifier.score", "uotalign.classifier", "score"),
    ("prompts.encode", "uotalign.prompts", "FrozenEncoder.encode"),
    ("prompts.encode_backward", "uotalign.prompts", "FrozenEncoder.encode_backward"),
    ("prompts.attention_forward", "uotalign.prompts", "attention_forward"),
    ("prompts.attention_backward", "uotalign.prompts", "attention_backward"),
    ("trainer.train", "uotalign.trainer", "train"),
    ("trainer.train_step", "uotalign.trainer", "train_step"),
    ("trainer.batch_loss_and_grads", "uotalign.trainer", "batch_loss_and_grads"),
    ("trainer.adam_update", "uotalign.trainer", "adam_update"),
    ("trainer.evaluate", "uotalign.trainer", "evaluate"),
    ("features.augment", "uotalign.features", "augment"),
    ("features.load_split", "uotalign.features", "load_split"),
    ("features.synth_dataset", "uotalign.features", "synth_dataset"),
)

TRANSPORT = ("transport.solve_uot_batch", "transport.solve_uot")

# Entry points the benchmark calls itself: their self time is work the
# trace does not attribute to any layer below them.
ENTRY_POINTS = ("trainer.train", "trainer.evaluate")

SHAPES = ((4, 16), (4, 49), (4, 196))


class Patcher:
    """Replaces functions at every package attribute that holds them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, module: str, attr: str, make_wrapper) -> bool:
        """Wrap `module.attr`; returns False (and notes it) if it is gone."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{module}.{attr}")
            return False
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        original = None
        if owner is not None:
            # a class attribute is read from __dict__ to get the plain
            # function, not a bound or static wrapper
            original = (owner.__dict__.get(leaf) if isinstance(owner, type)
                        else getattr(owner, leaf, None))
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            return False
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            self._set(owner, leaf, wrapper, original)
            return True
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper, original)
        return True

    def _set(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


class Recorder:
    """Keeps the program's transport results and likelihoods for checking.

    Only the outermost transport call is recorded (``solve_uot`` goes
    through ``solve_uot_batch``), as (problems, config, plans, error).
    """

    def __init__(self):
        self.calls: list[tuple[list, object, list | None, str | None]] = []
        self.likelihoods: list[np.ndarray] = []
        self.active = True
        self._depth = 0
        self._patcher = Patcher()

    def install(self) -> list[str]:
        self._patcher.wrap("uotalign.transport", "solve_uot_batch",
                           lambda fn: self._solve(fn, batched=True))
        self._patcher.wrap("uotalign.transport", "solve_uot",
                           lambda fn: self._solve(fn, batched=False))
        self._patcher.wrap("uotalign.classifier", "likelihood", self._likelihood)
        return self._patcher.absent

    def restore(self) -> None:
        self._patcher.restore()

    def clear(self) -> None:
        self.calls.clear()
        self.likelihoods.clear()

    def _solve(self, fn, batched: bool):
        def solve(problems, *args, **kwargs):
            self._depth += 1
            try:
                result = fn(problems, *args, **kwargs)
            except Exception as exc:
                if self._depth == 1 and self.active:
                    batch = list(problems) if batched else [problems]
                    self.calls.append((batch, _config(args, kwargs), None,
                                       f"{type(exc).__name__}: {exc}"))
                raise
            finally:
                self._depth -= 1
            if self._depth == 0 and self.active:
                batch = list(problems) if batched else [problems]
                plans = list(result) if batched else [result]
                self.calls.append((batch, _config(args, kwargs), plans, None))
            return result
        return solve

    def _likelihood(self, fn):
        def likelihood(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.likelihoods.append(result)
            return result
        return likelihood


def _config(args, kwargs):
    return args[0] if args else kwargs.get("config")


def _describe_cells(args, result, exc):
    return int(np.size(args[0])) if args else 0


def _describe_solve(batched: bool):
    def describe(args, result, exc):
        problems = list(args[0]) if batched else [args[0]]
        rows, cols = problems[0].shape if problems else (0, 0)
        pinned = bool(problems) and math.isinf(problems[0].rho1) and math.isinf(problems[0].rho2)
        if exc is not None:
            return (rows, cols, pinned, (), 0, 0, len(problems))
        plans = list(result) if batched else [result]
        iters = tuple(int(p.iterations) for p in plans if p.error is None)
        return (rows, cols, pinned, iters,
                sum(1 for p in plans if p.error is None and not p.converged),
                sum(1 for p in plans if p.clamped),
                sum(1 for p in plans if p.error is not None))
    return describe


_DESCRIBE = {
    "numerics.logsumexp_axis": _describe_cells,
    "transport.solve_uot_batch": _describe_solve(batched=True),
    "transport.solve_uot": _describe_solve(batched=False),
}


class Tracer:
    """In-memory spans around the hooked calls, plus named regions."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.info: list[object] = []
        self._stack: list[int] = []
        self._patcher = Patcher()

    def install(self) -> list[str]:
        for name, module, attr in HOOKS:
            self._patcher.wrap(module, attr, self._hook(name, _DESCRIBE.get(name)))
        return self._patcher.absent

    def restore(self) -> None:
        self._patcher.restore()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self.info.append(None)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _hook(self, name, describe):
        def make(fn):
            def traced(*args, **kwargs):
                idx = self._open(name)
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    self._close(idx)
                    if describe is not None:
                        self.info[idx] = describe(args, result, exc)
            return traced
        return make

    @contextmanager
    def region(self, name: str):
        idx = self._open("region." + name)
        try:
            yield
        finally:
            self._close(idx)

    def save(self, path) -> None:
        """Write the spans as columns to an .npz file."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path, names=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts), end=np.array(self.ends))


def summarize(tracer: Tracer, encodings_per_version: int) -> dict[str, float]:
    """Per-layer metrics from the spans under the `work` region.

    `features.load_split.s` and `features.synth_dataset.s` also count the
    `setup` region, since set-up is where those layers do their work.
    Call counts and `.s` totals use the outermost span of each name, so
    a function reached through another hooked one is counted once.

    - transport.cell_iters: sum over problems of iterations * P * M.
    - transport.active_share: sum of per-problem iterations over the sum,
      per call, of batch size * the call's largest iteration count.
    - prompts.encode_redundancy: encode calls over the encodings needed,
      (Adam steps + 1) parameter versions * `encodings_per_version`.
    - trainer.eval_share: `evaluate` time over the work region's wall time.
    - trace.unattributed_share: self time of the work region and of the
      ENTRY_POINTS spans, i.e. time inside no layer below the entry
      point, over the work region's wall time.
    """
    n = len(tracer.names)
    names = tracer.names
    parent = np.array(tracer.parents, dtype=np.int64)
    start = np.array(tracer.starts)
    dur = np.array(tracer.ends) - start
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    by_name: dict[str, list[int]] = {}
    for i, nm in enumerate(names):
        by_name.setdefault(nm, []).append(i)

    def members(region: str) -> np.ndarray:
        inside = np.zeros(n, dtype=bool)
        for r in by_name.get("region." + region, ()):
            last = int(np.searchsorted(start, start[r] + dur[r], side="right"))
            inside[r + 1:last] = True
        return inside

    work = members("work")
    setup_or_work = work | members("setup")
    regions = by_name.get("region.work", [])
    wall = float(dur[regions].sum())

    def outermost(keys) -> list[int]:
        out = []
        for i in sorted(i for k in keys for i in by_name.get(k, ())):
            p = parent[i]
            while p >= 0 and names[p] not in keys:
                p = parent[p]
            if p < 0:
                out.append(i)
        return out

    def spans(name, where=work):
        return [i for i in outermost((name,)) if where[i]]

    m: dict[str, float] = {}

    def calls_and_s(name):
        idx = spans(name)
        m[name + ".calls"] = len(idx)
        m[name + ".s"] = float(dur[idx].sum())

    calls_and_s("numerics.logsumexp_axis")
    lse = spans("numerics.logsumexp_axis")
    cells = sum(tracer.info[i] or 0 for i in lse)
    m["numerics.logsumexp_axis.cells"] = cells
    m["numerics.logsumexp_axis.computed_bytes"] = 8 * cells

    solves = [i for i in outermost(TRANSPORT) if work[i]]
    problems = iter_sum = iter_max = cell_iters = 0
    padded = unconverged = clamped = errors = 0
    shape_s: dict[tuple[int, int], float] = {}
    shape_n: dict[tuple[int, int], int] = {}
    regime_s = {False: 0.0, True: 0.0}
    regime_n = {False: 0, True: 0}
    for i in solves:
        rows, cols, pinned, iters, unconv, clamp, err = tracer.info[i]
        count = len(iters) + err
        regime_s[pinned] += float(dur[i])
        regime_n[pinned] += count
        problems += count
        iter_sum += sum(iters)
        iter_max = max(iter_max, max(iters, default=0))
        padded += len(iters) * max(iters, default=0)
        cell_iters += sum(iters) * rows * cols
        unconverged += unconv
        clamped += clamp
        errors += err
        shape_s[(rows, cols)] = shape_s.get((rows, cols), 0.0) + float(dur[i])
        shape_n[(rows, cols)] = shape_n.get((rows, cols), 0) + count
    solved = problems - errors
    transport_s = float(dur[solves].sum())
    m["transport.calls"] = len(solves)
    m["transport.problems"] = problems
    m["transport.problems_per_call"] = problems / len(solves) if solves else 0.0
    m["transport.s"] = transport_s
    for shape in SHAPES:
        key = "transport.ms_per_problem.%dx%d" % shape
        m[key] = 1e3 * shape_s[shape] / shape_n[shape] if shape_n.get(shape) else 0.0
    for pinned, key in ((False, "transport.uot_problems_per_s"),
                        (True, "transport.balanced_problems_per_s")):
        m[key] = regime_n[pinned] / regime_s[pinned] if regime_s[pinned] else 0.0
    m["transport.iters_mean"] = iter_sum / solved if solved else 0.0
    m["transport.iters_max"] = iter_max
    m["transport.cell_iters"] = cell_iters
    m["transport.ns_per_cell_iter"] = 1e9 * transport_s / cell_iters if cell_iters else 0.0
    m["transport.active_share"] = iter_sum / padded if padded else 0.0
    m["transport.unconverged"] = unconverged
    m["transport.clamped"] = clamped
    m["transport.errors"] = errors

    for name in ("classifier.cost_matrix", "classifier.cost_matrix_backward"):
        calls_and_s(name)
    score = spans("classifier.score")
    m["classifier.score.calls"] = len(score)
    m["classifier.score.self_s"] = float(self_time[score].sum())

    for name in ("prompts.encode", "prompts.encode_backward",
                 "prompts.attention_forward", "prompts.attention_backward"):
        calls_and_s(name)

    for name in ("trainer.train_step", "trainer.adam_update", "trainer.evaluate"):
        calls_and_s(name)
    m["trainer.batch_loss_and_grads.self_s"] = float(
        self_time[spans("trainer.batch_loss_and_grads")].sum())
    m["trainer.eval_share"] = m["trainer.evaluate.s"] / wall if wall else 0.0
    versions = m["trainer.adam_update.calls"] + 1
    m["prompts.encode_redundancy"] = (
        m["prompts.encode.calls"] / (versions * encodings_per_version)
        if encodings_per_version else 0.0)

    calls_and_s("features.augment")
    m["features.load_split.s"] = float(dur[spans("features.load_split", setup_or_work)].sum())
    m["features.synth_dataset.s"] = float(
        dur[spans("features.synth_dataset", setup_or_work)].sum())

    entries = [i for nm in ENTRY_POINTS for i in spans(nm)]
    unattributed = float(self_time[regions].sum() + self_time[entries].sum())
    m["trace.unattributed_share"] = unattributed / wall if wall else 0.0
    return m
