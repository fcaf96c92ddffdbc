"""Jerk-level LQR-with-integrators controller.

The 24-state tracking error stacks, in order, position, position integral,
velocity, and acceleration errors (world frame) and attitude, attitude
integral, angular velocity, and angular acceleration errors (body frame).
The constant (A, B) pair below renders the error dynamics a pair of
integrator chains driven by a virtual input u_bar, and the gain comes from
the associated CARE. Each tick turns u_bar into a world jerk and a body
angular-acceleration rate; ``diff_allocation.exact_wrench_rate`` then
feedback-linearizes those through the rigid-body model, as it does for the
PID controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pid import WINDUP_P, WINDUP_R
from .riccati import lqr_gain, solve_care
from .rigid_body import RigidBodyState
from .so3 import attitude_error, cross3
from .trajectory import TrajectorySample
from .vehicle import check_real, check_vector

N_ERR = 24
BLOCKS = ("p", "p_i", "v", "a", "R", "R_i", "omega", "psi")
STABILITY_COEFF = (3.0 + np.sqrt(2.0)) / np.sqrt(2.0)
Q_GAINS = ("k_p", "k_p_i", "k_v", "k_a", "k_r", "k_r_i", "k_omega", "k_psi")


@dataclass(frozen=True)
class LqriGains:
    """Diagonal weighting gains; defaults are the experimental values."""

    k_p: float = 200.0
    k_p_i: float = 50.0
    k_v: float = 100.0
    k_a: float = 0.0
    k_r: float = 100.0
    k_r_i: float = 100.0
    k_omega: float = 200.0
    k_psi: float = 0.0
    r_f_dot: tuple = (1.0, 1.0, 0.2)
    r_tau_dot: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        for name in Q_GAINS:
            # The integral states feed no other state: only their own weight observes them.
            check_real(f"{name} of the Q gains", getattr(self, name), 0.0,
                       strict=name in ("k_p_i", "k_r_i"))
        for name in ("r_f_dot", "r_tau_dot"):
            for weight in check_vector(name, getattr(self, name), (3,)):
                check_real(f"each R weight of {name}", weight, 0.0, strict=True)

    def weight_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        q_diag = np.repeat(np.array([getattr(self, name) for name in Q_GAINS], dtype=float), 3)
        return np.diag(q_diag), np.diag(np.array([*self.r_f_dot, *self.r_tau_dot], dtype=float))


@dataclass
class ErrorState:
    e_p: np.ndarray
    e_p_i: np.ndarray
    e_v: np.ndarray
    e_a: np.ndarray
    e_r: np.ndarray
    e_r_i: np.ndarray
    e_omega: np.ndarray
    e_psi: np.ndarray

    def vector(self) -> np.ndarray:
        return np.concatenate([self.e_p, self.e_p_i, self.e_v, self.e_a,
                               self.e_r, self.e_r_i, self.e_omega, self.e_psi])


def linearized_system() -> tuple[np.ndarray, np.ndarray]:
    """Constant (A, B) of the feedback-linearized error dynamics.

    Six identity blocks chain p <- v <- a, the position integral, R <- omega
    <- psi, and the attitude integral; the virtual input enters at the
    acceleration and angular-acceleration rows.
    """
    a = np.zeros((N_ERR, N_ERR))
    eye = np.eye(3)
    idx = {name: slice(3 * i, 3 * i + 3) for i, name in enumerate(BLOCKS)}
    a[idx["p"], idx["v"]] = eye
    a[idx["p_i"], idx["p"]] = eye
    a[idx["v"], idx["a"]] = eye
    a[idx["R"], idx["omega"]] = eye
    a[idx["R_i"], idx["R"]] = eye
    a[idx["omega"], idx["psi"]] = eye
    b = np.zeros((N_ERR, 6))
    b[idx["a"], 0:3] = eye
    b[idx["psi"], 3:6] = eye
    return a, b


def compute_error_state(
    state: RigidBodyState,
    ref: TrajectorySample,
    e_p_i: np.ndarray,
    e_r_i: np.ndarray,
    prev_e_p: np.ndarray | None,
    prev_e_r: np.ndarray | None,
    dt: float,
) -> tuple[ErrorState, np.ndarray, np.ndarray]:
    """Tracking error with trapezoidal, clamped integrator updates.

    Returns (error, new e_p_i, new e_r_i); pass prev errors as None on the
    first step to seed the trapezoid.
    """
    r = state.r_wb
    e_p = state.p - ref.p
    e_v = state.v - ref.v
    e_a = state.a - ref.a
    e_r = attitude_error(r, ref.r_wb)
    omega_ref_w = ref.r_wb @ ref.omega_b
    psi_ref_w = ref.r_wb @ ref.psi_b
    e_omega = state.omega - r.T @ omega_ref_w
    e_psi = state.psi - r.T @ psi_ref_w

    prev_e_p = e_p if prev_e_p is None else prev_e_p
    prev_e_r = e_r if prev_e_r is None else prev_e_r
    e_p_i = np.clip(e_p_i + 0.5 * dt * (prev_e_p + e_p), -WINDUP_P, WINDUP_P)
    e_r_i = np.clip(e_r_i + 0.5 * dt * (prev_e_r + e_r), -WINDUP_R, WINDUP_R)
    err = ErrorState(e_p, e_p_i.copy(), e_v, e_a, e_r, e_r_i.copy(), e_omega, e_psi)
    return err, e_p_i, e_r_i


def stability_rhs(q, r, p, b) -> float:
    """lambda_min(Q + P B R^-1 B' P) / (2 ||P||), the bound of the stability test.

    The Lyapunov analysis proves asymptotic stability while
    lhs = (3 + sqrt 2)/sqrt 2 * ||e_omega|| / ||e|| stays below it;
    ``LqriController.step`` evaluates lhs, with ||e|| = 0 counting as satisfied.
    """
    m = q + p @ b @ np.linalg.solve(r, b.T @ p)
    lam_min = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
    p_norm = float(np.linalg.norm(p, 2))
    return lam_min / (2.0 * p_norm)


@dataclass
class LqriController:
    """Stateful wrapper: integrators plus the precomputed CARE gain."""

    gains: LqriGains = field(default_factory=LqriGains)

    def __post_init__(self):
        self.a_sys, self.b_sys = linearized_system()
        self.q, self.r = self.gains.weight_matrices()
        self.p_care = solve_care(self.a_sys, self.b_sys, self.q, self.r)
        self.k = lqr_gain(self.p_care, self.b_sys, self.r)
        self._stab_rhs = stability_rhs(self.q, self.r, self.p_care, self.b_sys)
        self.reset()

    def reset(self) -> None:
        self.e_p_i = np.zeros(3)
        self.e_r_i = np.zeros(3)
        self._prev_e_p: np.ndarray | None = None
        self._prev_e_r: np.ndarray | None = None

    def step(self, state: RigidBodyState, ref: TrajectorySample, dt: float) -> dict:
        """One control tick: error state, virtual input, jerk targets.

        The targets render e_a_dot = u_bar[:3] (world frame) and
        e_psi_dot = u_bar[3:] with e_psi = psi - R' psi_d_world (body frame).
        """
        check_real("dt", dt, 0.0, strict=True)
        err, self.e_p_i, self.e_r_i = compute_error_state(
            state, ref, self.e_p_i, self.e_r_i, self._prev_e_p, self._prev_e_r, dt)
        self._prev_e_p = err.e_p
        self._prev_e_r = err.e_r
        e_vec = err.vector()
        u_bar = -self.k @ e_vec
        r_t = state.r_wb.T
        psi_d_w = ref.r_wb @ ref.psi_b
        psi_d_w_dot = ref.r_wb @ (ref.zeta_b + cross3(ref.omega_b.tolist(), ref.psi_b.tolist()))
        psi_dot = (u_bar[3:] + r_t @ psi_d_w_dot
                   - cross3(state.omega.tolist(), (r_t @ psi_d_w).tolist()))
        e_norm = float(np.linalg.norm(e_vec))
        lhs = (STABILITY_COEFF * float(np.linalg.norm(err.e_omega)) / e_norm
               if e_norm > 0.0 else 0.0)
        return {
            "j_w": ref.j + u_bar[:3],
            "psi_dot": psi_dot,
            "e_p": err.e_p,
            "e_r": err.e_r,
            "u": u_bar,
            "stab": (lhs, self._stab_rhs, lhs < self._stab_rhs),
        }
