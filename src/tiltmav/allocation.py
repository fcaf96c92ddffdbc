"""Static, instantaneous, and inverse actuator allocation.

The static allocation matrix A maps the interleaved lateral/vertical
components of the squared rotor speeds,

    omega_tilde = [sin(a_1) W_1, cos(a_1) W_1, ..., sin(a_n) W_n, cos(a_n) W_n],

to the body wrench [f; tau]. It depends only on the geometry, not on the
tilt angles. The instantaneous matrix A_alpha folds the current tilt angles
in, mapping squared rotor speeds directly to the wrench; the plant and the
allocator both evaluate the wrench as A_alpha @ W.
"""

from __future__ import annotations

import numpy as np

from .vehicle import Morphology

#: Relative sigma_min threshold below which the condition number saturates.
RANK_EPS = 1e-12


def static_allocation(m: Morphology) -> np.ndarray:
    """Static allocation matrix, 6 x (2 * n_rotors).

    Column 2r is the lateral component of rotor r, column 2r+1 the vertical
    one. Force rows are the thrust directions scaled by c_f; torque rows
    combine the moment of the thrust applied at the rotor position with the
    drag torque along the thrust axis (sign per rotor spin).
    """
    c_f = m.rotor.c_f
    arm = m.arm_of_rotor
    pos = (m.arm_lengths[:, None] * m.arm_axes)[arm]
    drag = (m.spins * m.rotor.c_d)[:, None]
    lat = m.lateral_dirs[arm]
    vert = m.vertical_dirs[arm]
    a = np.empty((6, 2 * m.n_rotors))
    a[:3, 0::2] = (c_f * lat).T
    a[3:, 0::2] = (c_f * (np.cross(pos, lat) - drag * lat)).T
    a[:3, 1::2] = (c_f * vert).T
    a[3:, 1::2] = (c_f * (np.cross(pos, vert) - drag * vert)).T
    return a


def instantaneous_allocation(a: np.ndarray, alpha: np.ndarray, arm_of_rotor: np.ndarray) -> np.ndarray:
    """Tilt-dependent allocation A_alpha with A_alpha @ W == A @ omega_tilde(W, alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    a_r = alpha[np.asarray(arm_of_rotor)]
    return a[:, 0::2] * np.sin(a_r) + a[:, 1::2] * np.cos(a_r)


def condition_number(a_alpha: np.ndarray) -> float:
    """sigma_max / sigma_min of the instantaneous allocation; inf at rank loss."""
    s = np.linalg.svd(np.asarray(a_alpha, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return np.inf
    smin = s.min()
    if smin < RANK_EPS * s[0]:
        return np.inf
    return float(s[0] / smin)


def invert_static(a: np.ndarray, wrench: np.ndarray, m: Morphology,
                  alpha_hold: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-norm actuator set realizing a wrench through the static map.

    Returns (alpha, omega, omega_tilde_star). Tilt angles come from the
    per-arm atan2 of the summed lateral/vertical components of the
    pseudoinverse solution; arms whose demanded thrust is negligible keep
    alpha_hold (or 0). Rotor speeds are then re-solved at the shared tilt
    angles, which restores wrench exactness the per-rotor pairs lose to the
    drag-sign asymmetry within an arm.
    """
    wrench = np.asarray(wrench, dtype=float)
    wt = np.linalg.pinv(a) @ wrench
    lat, vert = wt.reshape(m.n_arms, m.rotor.rotors_per_arm, 2).sum(axis=1).T

    alpha = np.zeros(m.n_arms) if alpha_hold is None else np.array(alpha_hold, dtype=float)
    thrusting = np.hypot(lat, vert) > 1e-12 * max(np.abs(wt).max(), 1.0)
    alpha[thrusting] = np.arctan2(lat, vert)[thrusting]

    a_inst = instantaneous_allocation(a, alpha, m.arm_of_rotor)
    omega_sq = np.linalg.pinv(a_inst) @ wrench
    omega = np.sqrt(np.clip(omega_sq, 0.0, None))
    return alpha, omega, wt
