"""Shared fixtures: the frozen gradient-check instance.

The instance below was hand-searched (seeds 0..39) for two properties
that make the frozen-coupling gradient numerically exact: every cost row
has a runner-up gap of at least 0.1, and the class score spread sits in
the informative band of the softmax (z between 1 and 18). The solver
parameters matter as much as the costs: with a relaxed column marginal
the plan's tail mass in a non-winning cell decays like
exp(-gap / (lam + rho2)), not exp(-gap / lam), so rho2 has to be of the
same order as lam for the tails (and with them the coupling's own
first-order sensitivity to the cost) to vanish. At lam=0.001,
rho2=0.002 the measured relative gradient error is below 1e-6 for every
trainable group; at the training defaults (rho2=0.04) it is ~1e-1 no
matter how separated the costs are.
"""

import numpy as np
import pytest

from uotalign.classifier import ClassifierConfig
from uotalign.features import FeatureSet
from uotalign.prompts import DescriptionFile, FrozenEncoder, build_prompt_bank, encode_class
from uotalign.transport import SolverConfig

GRADCHECK_SEED = 14
GRADCHECK_TAU = 0.05
GRADCHECK_LAM = 0.001
GRADCHECK_RHO2 = 0.002


def build_gradcheck_instance():
    """2 classes, 2 prompts per path, 4 features of dim 8, well separated.

    Features are noisy copies of the class's own prompt embeddings, so
    true-class costs are small and every cost row has a clear winner.
    Returns (bank, encoder, batch, classifier config, solver config).
    """
    seed = GRADCHECK_SEED
    classes = ["a", "b"]
    descs = {c: DescriptionFile(c, [f"{c} alpha tone", f"{c} broad shape"])
             for c in classes}
    bank = build_prompt_bank(classes, descs, num_shared_prompts=2,
                             context_length=3, token_dim=8, seed=seed)
    encoder = FrozenEncoder.seeded(8, 8, seed + 100)
    rng = np.random.default_rng(seed + 500)
    batch = []
    for ci, c in enumerate(classes):
        enc = encode_class(bank, c, encoder)
        targets = np.vstack([enc.g_cs, enc.g_ds])
        F = targets + 0.4 * rng.standard_normal((4, 8))
        F /= np.linalg.norm(F, axis=1, keepdims=True)
        batch.append(FeatureSet(features=F, weights=np.full(4, 0.25),
                                sample_id=f"s{ci}", label=c))
    ccfg = ClassifierConfig(tau=GRADCHECK_TAU, lam=GRADCHECK_LAM,
                            rho2=GRADCHECK_RHO2)
    solver = SolverConfig(max_iterations=60000, dual_tolerance=1e-13)
    return bank, encoder, batch, ccfg, solver


def count_trainable(bank) -> int:
    """Number of scalars the optimizer updates for this bank."""
    from uotalign.trainer import _trainable_arrays

    return sum(a.size for a in _trainable_arrays(bank).values())


@pytest.fixture(scope="session")
def gradcheck_instance():
    return build_gradcheck_instance()


_scorecard: list[str] = []


def record_scorecard(line: str) -> None:
    """Collect one PASS/FAIL line for the end-of-run summary."""
    _scorecard.append(line)


def pytest_terminal_summary(terminalreporter):
    if _scorecard:
        terminalreporter.section("acceptance scorecard")
        for line in _scorecard:
            terminalreporter.write_line(line)
