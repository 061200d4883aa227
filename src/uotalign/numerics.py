"""Small dense-array kernels shared across the package.

All public entry points accept anything `np.asarray` understands and
validate to float64. Matrices are 2-D, vectors 1-D, entries finite;
violations raise ValueError up front so downstream code never has to
re-check.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "logsumexp",
    "cosine_matrix",
    "entropy",
    "generalized_kl",
]


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite float64 2-D array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and convert to a finite float64 1-D array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def logsumexp(v) -> float:
    """Stable log(sum(exp(v))) via the max-shift identity.

    Exact for length-1 input; raises on empty input rather than
    returning -inf because every caller treats an empty reduction as a
    logic error.
    """
    a = np.asarray(v, dtype=np.float64)
    if a.size == 0:
        raise ValueError("empty reduction")
    if not np.all(np.isfinite(a)):
        raise ValueError("logsumexp input contains non-finite entries")
    m = float(np.max(a))
    return m + float(np.log(np.sum(np.exp(a - m))))


def logsumexp_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """Row/column-wise stable logsumexp for already-validated arrays.

    Internal fast path used by the solver inner loop; does not
    re-validate. Keeps the max-shift in float64 throughout. The shifted
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


def cosine_matrix(a, b) -> np.ndarray:
    """Pairwise cosine similarities between rows of `a` and rows of `b`.

    Returns a (rows_a, rows_b) matrix. Rows are normalised internally,
    so inputs need not be unit length, but a zero row has no direction
    and is rejected.
    """
    A = as_matrix(a, "a")
    B = as_matrix(b, "b")
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"dimension mismatch: a has {A.shape[1]} columns, b has {B.shape[1]}"
        )
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    if np.any(na < 1e-300) or np.any(nb < 1e-300):
        raise ValueError("degenerate embedding: zero-norm row")
    return (A / na[:, None]) @ (B / nb[:, None]).T


def entropy(w) -> float:
    """Shannon entropy -sum(w log w) with the 0 log 0 = 0 convention.

    Defined for any nonnegative array (matrix or vector); does not
    require the entries to sum to one.
    """
    a = np.asarray(w, dtype=np.float64)
    if a.size == 0:
        raise ValueError("empty reduction")
    if not np.all(np.isfinite(a)):
        raise ValueError("entropy input contains non-finite entries")
    if np.any(a < 0):
        raise ValueError("negative mass")
    pos = a > 0
    return -float(np.sum(a[pos] * np.log(a[pos])))


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
