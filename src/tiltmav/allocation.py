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


def static_allocation(m: Morphology, frames: tuple | None = None) -> np.ndarray:
    """Static allocation matrix, 6 x (2 * n_rotors).

    Column 2r is the lateral component of rotor r, column 2r+1 the vertical
    one. Force rows are the thrust directions scaled by c_f; torque rows
    combine the moment of the thrust applied at the rotor position with the
    drag torque along the thrust axis (sign per rotor spin).

    ``frames``, an (axis, lateral, vertical) triple of ``vehicle.arm_frames``
    arrays of shape (..., n_arms, 3), turns m's arms (lengths, spins, rotors
    kept) to those frames; the result then has shape (..., 6, 2 * n_rotors).
    """
    axes, lat, vert = (m.arm_axes, m.lateral_dirs, m.vertical_dirs) if frames is None else frames
    c_f = m.rotor.c_f
    arm = m.arm_of_rotor
    pos = (m.arm_lengths[:, None] * axes)[..., arm, :]
    drag = (m.spins * m.rotor.c_d)[:, None]
    lat = lat[..., arm, :]
    vert = vert[..., arm, :]
    a = np.empty(lat.shape[:-2] + (6, 2 * m.n_rotors))
    a[..., :3, 0::2] = np.swapaxes(c_f * lat, -1, -2)
    a[..., 3:, 0::2] = np.swapaxes(c_f * (np.cross(pos, lat) - drag * lat), -1, -2)
    a[..., :3, 1::2] = np.swapaxes(c_f * vert, -1, -2)
    a[..., 3:, 1::2] = np.swapaxes(c_f * (np.cross(pos, vert) - drag * vert), -1, -2)
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
                  alpha_hold: np.ndarray | None = None,
                  a_pinv: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-norm actuator set realizing a wrench through the static map.

    Returns (alpha, omega, omega_tilde_star). Tilt angles come from the
    per-arm atan2 of the summed lateral/vertical components of the
    pseudoinverse solution; arms whose demanded thrust is negligible keep
    alpha_hold (or 0). Rotor speeds are then re-solved at the shared tilt
    angles, which restores wrench exactness the per-rotor pairs lose to the
    drag-sign asymmetry within an arm. A caller inverting many wrenches
    through one ``a`` may pass ``a_pinv``, which must equal ``np.linalg.pinv(a)``.
    """
    wrench = np.asarray(wrench, dtype=float)
    wt = (np.linalg.pinv(a) if a_pinv is None else a_pinv) @ wrench
    lat, vert = wt.reshape(m.n_arms, m.rotor.rotors_per_arm, 2).sum(axis=1).T

    alpha = np.zeros(m.n_arms) if alpha_hold is None else np.array(alpha_hold, dtype=float)
    thrusting = np.hypot(lat, vert) > 1e-12 * np.abs(wt).max()
    alpha[thrusting] = np.arctan2(lat, vert)[thrusting]

    a_inst = instantaneous_allocation(a, alpha, m.arm_of_rotor)
    omega_sq = np.linalg.pinv(a_inst) @ wrench
    omega = np.sqrt(np.clip(omega_sq, 0.0, None))
    return alpha, omega, wt
