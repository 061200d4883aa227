"""Small dense-array kernels shared across the package.

All public entry points accept anything `np.asarray` understands and
validate to float64. Matrices are 2-D, vectors 1-D, entries finite;
violations raise ValueError up front so downstream code never has to
re-check.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_array",
    "as_matrix",
    "as_stack",
    "as_vector",
    "logsumexp_axis",
    "generalized_kl",
]


def as_array(x, name: str, ndim: int, stacked: bool = False) -> np.ndarray:
    """Validate and convert to a finite, non-empty float64 array of `ndim`
    dimensions, or with `stacked` to a stack of them along one leading
    axis. Messages name the rank of one instance either way."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != ndim + stacked:
        raise ValueError(f"{name} must be {ndim}-dimensional, got ndim={a.ndim - stacked}")
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite float64 2-D array."""
    return as_array(x, name, 2)


def as_stack(x, name: str, layouts: str) -> np.ndarray:
    """Validate a finite float64 matrix or 3-D stack; `layouts` names both shapes."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"{name} must be {layouts}, got ndim={a.ndim}")
    return as_matrix(a.reshape(-1, a.shape[-1]), name).reshape(a.shape)


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and convert to a finite float64 1-D array."""
    return as_array(x, name, 1)


def logsumexp_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """Stable logsumexp along one axis, for already-validated arrays.

    Serves the transport solver's log-domain fallback (a contraction
    that left float range) and the class softmax in `likelihood`; does
    not re-validate. Keeps the max-shift in float64 throughout. The shifted
    copy a - m is the only full-size temporary: exp runs in place on it,
    and log and the shift-back run in place on the reduced sum.
    """
    m = np.max(a, axis=axis, keepdims=True)
    t = a - m
    np.exp(t, out=t)
    out = np.sum(t, axis=axis, keepdims=True)
    np.log(out, out=out)
    out += m
    return np.squeeze(out, axis=axis)


def generalized_kl(w, z) -> float:
    """Generalized KL divergence sum(w log(w/z)) - sum(w) + sum(z).

    The generalized form drops the requirement that the two arrays have
    equal mass; it is zero iff w == z and nonnegative otherwise. Uses
    0 log 0 = 0. The reference `z` must be strictly positive.
    """
    a = np.asarray(w, dtype=np.float64)
    r = np.asarray(z, dtype=np.float64)
    if a.shape != r.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {r.shape}")
    if a.size == 0:
        raise ValueError("empty reduction")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(r))):
        raise ValueError("generalized_kl input contains non-finite entries")
    if np.any(a < 0):
        raise ValueError("negative mass")
    if np.any(r <= 0):
        raise ValueError("zero reference mass")
    pos = a > 0
    cross = float(np.sum(a[pos] * np.log(a[pos] / r[pos])))
    return cross - float(np.sum(a)) + float(np.sum(r))
