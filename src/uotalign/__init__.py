"""Entropic optimal transport solvers and a prompt-alignment classifier.

The package is organised bottom-up: `numerics` holds shared dense-array
kernels and `transport` the balanced/unbalanced Sinkhorn-style
solvers. `features`, `prompts`, `classifier` and `trainer` build the
alignment model on top; `cli` exposes everything as subcommands. The
brute-force minimizer that validates the solvers lives with the tests
(`tests/oracle.py`).
"""

__version__ = "0.1.0"
