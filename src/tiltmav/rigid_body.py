"""Newton-Euler rigid-body dynamics and first-order tilt response."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .so3 import is_rotation
from .vehicle import RigidBodyParams


@dataclass
class RigidBodyState:
    """Pose, twist, and accelerations. p/v/a in world frame, omega/psi in body."""

    p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    r_wb: np.ndarray = field(default_factory=lambda: np.eye(3))
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))
    psi: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def copy(self) -> "RigidBodyState":
        return RigidBodyState(self.p.copy(), self.v.copy(), self.a.copy(),
                              self.r_wb.copy(), self.omega.copy(), self.psi.copy())

    def validate(self) -> None:
        for name in ("p", "v", "a", "omega", "psi"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite state field {name}")
        if not is_rotation(self.r_wb, tol=1e-6):
            raise ValueError("attitude left SO(3)")


@dataclass(frozen=True)
class Wrench:
    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", np.asarray(self.force, dtype=float))
        object.__setattr__(self, "torque", np.asarray(self.torque, dtype=float))
        if not (np.all(np.isfinite(self.force)) and np.all(np.isfinite(self.torque))):
            raise ValueError("wrench must be finite")

    def vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])


def com_torque(force_b: np.ndarray, torque_b: np.ndarray,
               params: RigidBodyParams) -> np.ndarray:
    """Torque about the center of mass of a wrench given about the body origin."""
    if not params.r_com.any():
        return torque_b   # centered CoM: skip the cross product, the plant's costliest op
    return torque_b - np.cross(params.r_com, force_b)


def accelerations(r_wb: np.ndarray, omega: np.ndarray, force_b: np.ndarray,
                  torque_c: np.ndarray, params: RigidBodyParams) -> tuple[np.ndarray, np.ndarray]:
    """Newton-Euler law: world-frame CoM acceleration, body angular acceleration.

        a_W = R f_B / m + g_W
        J psi_B = tau_C - omega x (J omega)

    ``torque_c`` is taken about the center of mass (see ``com_torque``) and J
    is the inertia about it.
    """
    a_w = r_wb @ (force_b / params.mass) + params.gravity_w
    psi = np.linalg.solve(params.inertia,
                          torque_c - np.cross(omega, params.inertia @ omega))
    return a_w, psi


def tilt_step(alpha: np.ndarray, alpha_ref: np.ndarray, tau: float, dt: float) -> np.ndarray:
    """Exact step of the first-order tilt dynamics alphadot = (ref - alpha)/tau."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    decay = np.exp(-dt / tau)
    return alpha_ref + (np.asarray(alpha, dtype=float) - alpha_ref) * decay


def kinetic_energy(state: RigidBodyState, params: RigidBodyParams) -> float:
    v_b = state.r_wb.T @ state.v
    return float(0.5 * params.mass * v_b @ v_b + 0.5 * state.omega @ params.inertia @ state.omega)
