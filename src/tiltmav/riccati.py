"""Continuous-time algebraic Riccati equation solver.

``solve_care`` reads the stabilizing solution off the matrix sign function of
the Hamiltonian H = [[A, -S], [-Q, -A']], S = B R^-1 B'. The Newton iteration
Z <- (cZ + (cZ)^-1) / 2 from Z = H, with determinant scaling
c = |det Z|^(-1/2n) (Roberts, Int. J. Control 32(4), 1980; Byers, "Solving
the algebraic Riccati equation with the matrix sign function", Linear Algebra
Appl. 85, 1987; Kenney & Laub, IEEE TAC 40(8), 1995), converges to
W = sign(H). The stable invariant subspace [I; P] is the -1 eigenspace of W,
so P solves the overdetermined [W12; W22 + I] P = -[W11 + I; W21] (Higham,
*Functions of Matrices*, ch. 5). Where that P misses the residual bound
(ill-conditioned data), a few Kleinman-Newton steps refine it: each solves the
Lyapunov equation (A - S P)' X + X (A - S P) = -Res(P) in Kronecker form and
takes P + X (Kleinman, IEEE TAC 13(1), 1968). Plain numpy: no Schur form is needed.
"""

from __future__ import annotations

import numpy as np

# The scaled iteration converges quadratically (7 steps on the LQRI system);
# eigenvalues close to the imaginary axis slow it, hence the generous cap.
# It stops once a step moves Z by at most _SIGN_TOL relative (1-norm).
_MAX_ITER = 100
_SIGN_TOL = 1e-13
_RESIDUAL_TOL = 1e-8   # relative CARE residual a solution must reach
_REFINE = 4            # Newton refinement steps for a P that misses it


class CareError(RuntimeError):
    pass


def _validate(a, b, q, r):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n) or b.ndim != 2 or b.shape[0] != n or q.shape != (n, n):
        raise ValueError(f"inconsistent CARE dimensions: A {a.shape}, B {b.shape}, Q {q.shape}")
    if np.any(np.linalg.eigvalsh(0.5 * (r + r.T)) <= 0.0):
        raise CareError("R must be positive definite")
    return a, b, q, r


def _residual(a, b, q, r, p) -> np.ndarray:
    return a.T @ p + p @ a - p @ b @ np.linalg.solve(r, b.T @ p) + q


def care_residual(a, b, q, r, p) -> float:
    a, b, q, r = _validate(a, b, q, r)
    return float(np.linalg.norm(_residual(a, b, q, r, p)) / max(np.linalg.norm(q), 1e-30))


def solve_care(a, b, q, r) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Raises CareError when the Hamiltonian has eigenvalues on the imaginary
    axis (non-stabilizable/undetectable data): a singular iterate, no
    convergence, a non-finite P, or a P that does not stabilize A - S P.
    """
    a, b, q, r = _validate(a, b, q, r)
    n = a.shape[0]
    s = b @ np.linalg.solve(r, b.T)
    z = np.block([[a, -s], [-q, -a.T]])
    for _ in range(_MAX_ITER):
        logdet = np.linalg.slogdet(z)[1]
        if not np.isfinite(logdet):
            raise CareError("singular sign-function iterate: H has an imaginary-axis eigenvalue")
        c = np.exp(-logdet / (2 * n))
        z_next = 0.5 * (c * z + np.linalg.inv(z) / c)
        step = np.linalg.norm(z_next - z, 1)
        z = z_next
        if step <= _SIGN_TOL * np.linalg.norm(z, 1):
            break
    else:
        raise CareError("sign-function iteration did not converge")
    eye = np.eye(n)
    lhs = np.vstack([z[:n, n:], z[n:, n:] + eye])
    rhs = -np.vstack([z[:n, :n] + eye, z[n:, :n]])
    p = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    if not np.all(np.isfinite(p)):
        raise CareError("non-finite CARE solution")
    p = 0.5 * (p + p.T)
    resid = care_residual(a, b, q, r, p)
    for _ in range(_REFINE):
        if resid <= _RESIDUAL_TOL:
            break
        acl = a - s @ p
        try:
            x = np.linalg.solve(np.kron(eye, acl.T) + np.kron(acl.T, eye),
                                -_residual(a, b, q, r, p).reshape(-1, order="F"))
        except np.linalg.LinAlgError:
            break
        x = x.reshape(n, n, order="F")
        p = p + 0.5 * (x + x.T)
        resid = care_residual(a, b, q, r, p)
    if resid > _RESIDUAL_TOL:
        raise CareError(f"CARE residual too large: {resid:.3e}")
    max_re = np.linalg.eigvals(a - s @ p).real.max()
    if max_re >= 0.0:
        raise CareError(f"CARE solution does not stabilize: max Re eig(A - SP) = {max_re:.3e}")
    return p


def lqr_gain(p, b, r) -> np.ndarray:
    """K = R^-1 B' P."""
    return np.linalg.solve(np.atleast_2d(np.asarray(r, dtype=float)),
                           np.asarray(b, dtype=float).T @ p)
