"""Continuous-time algebraic Riccati equation solvers.

``solve_care`` extracts the stable invariant subspace of the Hamiltonian
matrix through an ordered real Schur decomposition.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import schur


class CareError(RuntimeError):
    pass


def _validate(a, b, q, r):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n or q.shape != (n, n):
        raise ValueError("inconsistent CARE dimensions")
    if np.any(np.linalg.eigvalsh(0.5 * (r + r.T)) <= 0.0):
        raise CareError("R must be positive definite")
    return a, b, q, r


def care_residual(a, b, q, r, p) -> float:
    a, b, q, r = _validate(a, b, q, r)
    res = a.T @ p + p @ a - p @ b @ np.linalg.solve(r, b.T @ p) + q
    return float(np.linalg.norm(res) / max(np.linalg.norm(q), 1e-30))


def solve_care(a, b, q, r) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Raises CareError when the Hamiltonian has eigenvalues on the imaginary
    axis (non-stabilizable/undetectable data) or the subspace is degenerate.
    """
    a, b, q, r = _validate(a, b, q, r)
    n = a.shape[0]
    s = b @ np.linalg.solve(r, b.T)
    ham = np.block([[a, -s], [-q, -a.T]])
    t, z, sdim = schur(ham, sort=lambda re, im: re < 0.0, output="real")
    if sdim != n:
        raise CareError(f"stable subspace has dimension {sdim}, expected {n}")
    x1 = z[:n, :n]
    x2 = z[n:, :n]
    try:
        p = np.linalg.solve(x1.T, x2.T).T
    except np.linalg.LinAlgError as exc:
        raise CareError("singular invariant-subspace basis") from exc
    p = 0.5 * (p + p.T)
    resid = care_residual(a, b, q, r, p)
    if resid > 1e-8:
        raise CareError(f"CARE residual too large: {resid:.3e}")
    return p


def lqr_gain(p, b, r) -> np.ndarray:
    """K = R^-1 B' P."""
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    return np.linalg.solve(np.atleast_2d(np.asarray(r, dtype=float)), b.T @ p)
