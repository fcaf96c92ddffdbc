"""Newton-Euler rigid-body dynamics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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


def com_torque(force_b: np.ndarray, torque_b: np.ndarray,
               params: RigidBodyParams) -> np.ndarray:
    """Torque about the center of mass of wrenches (or rows of them) given about the body origin."""
    if not params.r_com.any():
        return torque_b   # centered CoM: the thrust has no moment about it
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

