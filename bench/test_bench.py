"""Smoke tests of the benchmark itself, at the tiny sizes.

    python -m pytest bench

They check that every workload runs end to end in both modes, that the
metric names match BENCHMARK.json, that work counts repeat exactly, and
that corrupted outputs, injected here and only here, fail the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import uotalign.classifier as classifier  # noqa: E402
import uotalign.trainer as trainer  # noqa: E402
import uotalign.transport as transport  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name, tmp_path, trace=False, seed=3):
    return harness.execute(name, seed, 0.0, trace, size="tiny", out_dir=tmp_path)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_prints_the_spec_metrics(name, trace, tmp_path):
    record = tiny(name, tmp_path, trace)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(record["metrics"]) == {m["name"] for m in SPEC[kind]}
    assert all(isinstance(v, (int, float)) for v in record["metrics"].values())
    if not trace:
        assert all(v > 0 for v in record["metrics"].values())


@pytest.mark.parametrize("name", ["fewshot_train", "transport_solve"])
def test_traced_work_counts_repeat_exactly(name, tmp_path):
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "ratio")]
    first = tiny(name, tmp_path, trace=True)["metrics"]
    second = tiny(name, tmp_path, trace=True)["metrics"]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["transport.problems"] > 0


def test_hooks_replace_every_import_site_and_count_once():
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        assert trainer.solve_uot_batch is transport.solve_uot_batch
        assert classifier.solve_uot is transport.solve_uot
        with tracer.region("work"):
            transport.solve_uot(transport.TransportProblem(
                cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
                row_marginal=np.full(2, 0.5), col_marginal=np.full(2, 0.5)))
    finally:
        tracer.restore()
    assert trainer.solve_uot_batch.__name__ == "solve_uot_batch"
    assert not hasattr(trainer.solve_uot_batch, "__wrapped__")
    metrics = tracing.summarize(tracer, 0)
    assert metrics["transport.calls"] == 1
    assert metrics["transport.problems"] == 1


def test_missing_hook_is_reported_not_raised(monkeypatch, tmp_path):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("prompts.encode_prompt_gone", "uotalign.prompts", "no_such_function"),))
    record = tiny("transport_solve", tmp_path, trace=True)
    assert record["correct"], record["failures"]
    assert record["metrics"]["trace.absent_hooks"] == 1
    assert record["absent_hooks"] == ["uotalign.prompts.no_such_function"]


def _everywhere(monkeypatch, module, name, replacement):
    original = getattr(module, name)
    for mod in (classifier, trainer, transport):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def test_corrupted_plan_fails_the_run(monkeypatch, tmp_path):
    real = transport.solve_uot_batch

    def corrupt(problems, config=None):
        plans = real(problems, config)
        plans[0] = replace(plans[0], coupling=np.full_like(plans[0].coupling, np.nan))
        return plans

    _everywhere(monkeypatch, transport, "solve_uot_batch", corrupt)
    record = tiny("transport_solve", tmp_path)
    assert not record["correct"]
    assert record["failed"] >= 1
    assert any("non-finite coupling" in f for f in record["failures"])


def test_corrupted_likelihood_fails_the_run(monkeypatch, tmp_path):
    # off by 1e-7: inside the program's own 1e-6 tolerance, so only the
    # benchmark's check can catch it
    real = classifier.likelihood
    _everywhere(monkeypatch, classifier, "likelihood",
                lambda scores, tau: (1 + 1e-7) * real(scores, tau))
    record = tiny("heldout_eval", tmp_path)
    assert not record["correct"]
    assert any("likelihood" in f for f in record["failures"])


def _solved(rho=transport.INF):
    problem = transport.TransportProblem(
        cost=np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]),
        row_marginal=np.full(2, 0.5), col_marginal=np.full(3, 1 / 3),
        lam=0.1, rho1=rho, rho2=rho)
    return [([problem], None, transport.solve_uot_batch([problem]), None)]


def test_checks_pass_good_outputs():
    calls = _solved()
    assert checks.plans_usable(calls) == []
    assert checks.balanced_marginals(calls, transport.FEASIBILITY_TOL) == []
    assert checks.batch_matches_single(calls, transport.solve_uot,
                                       np.random.default_rng(0), 1) == []
    assert checks.likelihood_rows([classifier.likelihood([0.2, 0.3], 0.1)]) == []
    assert checks.accuracy_floor(0.5, 10, "test") == []


def test_checks_reject_corrupted_outputs():
    calls = _solved()
    problems, config, plans, _ = calls[0]
    shifted = [(problems, config, [replace(plans[0], coupling=plans[0].coupling * 1.01)],
                None)]
    assert checks.balanced_marginals(shifted, transport.FEASIBILITY_TOL)
    assert checks.batch_matches_single(shifted, transport.solve_uot,
                                       np.random.default_rng(0), 1)
    nan = [(problems, config, [replace(plans[0], coupling=plans[0].coupling * np.nan)],
            None)]
    assert checks.plans_usable(nan)
    assert checks.plans_usable([(problems, config, None, "NumericalBlowupError: x")])
    assert checks.likelihood_rows([np.array([0.5, 0.4])])
    assert checks.likelihood_rows([np.array([[0.5, 0.5], [1.5, -0.5]])])
    assert checks.accuracy_floor(0.15, 10, "test")
    assert checks.accuracy_floor(float("nan"), 10, "test")


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "transport_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
