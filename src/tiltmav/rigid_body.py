"""Newton-Euler rigid-body dynamics and first-order tilt response."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


class BodyConstants(NamedTuple):
    """Rigid-body parameters unpacked into floats for ``newton_euler``."""

    inv_mass: float
    gravity_w: tuple        # (gx, gy, gz)
    inertia: tuple          # row-major 9-tuple
    inertia_inv: tuple      # row-major 9-tuple

    @classmethod
    def of(cls, params: RigidBodyParams) -> "BodyConstants":
        return cls(1.0 / params.mass, tuple(params.gravity_w.tolist()),
                   tuple(params.inertia.ravel().tolist()),
                   tuple(np.linalg.inv(params.inertia).ravel().tolist()))


def newton_euler(r, omega, force_b, torque_c, k: BodyConstants) -> tuple[tuple, tuple]:
    """Newton-Euler law in plain floats: world CoM acceleration, body psi.

        a_W = R f_B / m + g_W
        J psi_B = tau_C - omega x (J omega)

    ``r`` is R_WB as a row-major 9-tuple, the vectors are 3-tuples,
    ``torque_c`` is taken about the center of mass (see ``com_torque``) and J
    is the inertia about it.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    wx, wy, wz = omega
    fx, fy, fz = force_b
    tx, ty, tz = torque_c
    im, (gx, gy, gz) = k.inv_mass, k.gravity_w
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = k.inertia
    hx = j00 * wx + j01 * wy + j02 * wz
    hy = j10 * wx + j11 * wy + j12 * wz
    hz = j20 * wx + j21 * wy + j22 * wz
    cx = tx - (wy * hz - wz * hy)
    cy = ty - (wz * hx - wx * hz)
    cz = tz - (wx * hy - wy * hx)
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = k.inertia_inv
    a_w = ((r00 * fx + r01 * fy + r02 * fz) * im + gx,
           (r10 * fx + r11 * fy + r12 * fz) * im + gy,
           (r20 * fx + r21 * fy + r22 * fz) * im + gz)
    psi = (i00 * cx + i01 * cy + i02 * cz,
           i10 * cx + i11 * cy + i12 * cz,
           i20 * cx + i21 * cy + i22 * cz)
    return a_w, psi


def accelerations(r_wb: np.ndarray, omega: np.ndarray, force_b: np.ndarray,
                  torque_c: np.ndarray, params: RigidBodyParams) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``newton_euler``: (a_W, psi_B) for one body state."""
    a_w, psi = newton_euler(np.ravel(r_wb).tolist(), np.ravel(omega).tolist(),
                            np.ravel(force_b).tolist(), np.ravel(torque_c).tolist(),
                            BodyConstants.of(params))
    return np.array(a_w), np.array(psi)


def tilt_step(alpha: np.ndarray, alpha_ref: np.ndarray, tau: float, dt: float) -> np.ndarray:
    """Exact step of the first-order tilt dynamics alphadot = (ref - alpha)/tau."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    decay = np.exp(-dt / tau)
    return alpha_ref + (np.asarray(alpha, dtype=float) - alpha_ref) * decay


def kinetic_energy(state: RigidBodyState, params: RigidBodyParams) -> float:
    v_b = state.r_wb.T @ state.v
    return float(0.5 * params.mass * v_b @ v_b + 0.5 * state.omega @ params.inertia @ state.omega)
