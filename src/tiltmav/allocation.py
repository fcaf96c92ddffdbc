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
#: Least lambda_min / lambda_max of A_alpha A_alpha' for invert_static's normal equations.
GRAM_EPS = 1e-6


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
    """A_alpha, with A_alpha @ W == A @ omega_tilde(W, alpha); rows of alpha give a stack."""
    a_r = np.asarray(alpha, dtype=float)[..., None, arm_of_rotor]
    return a[:, 0::2] * np.sin(a_r) + a[:, 1::2] * np.cos(a_r)


def condition_number(a_alpha: np.ndarray) -> float | np.ndarray:
    """sigma_max / sigma_min of the instantaneous allocation, inf at rank loss: a
    float for one matrix, an array of shape (...) for a stack (..., 6, n_rotors)."""
    s = np.linalg.svd(a_alpha, compute_uv=False)
    smax, smin = s[..., 0][()], s[..., -1][()]   # [()]: numpy scalars for one matrix
    lost = (smax == 0.0) | (smin < RANK_EPS * smax)
    # Rank loss divides a positive number by zero; full rank leaves smax / smin.
    with np.errstate(divide="ignore"):
        kappa = (smax + lost) / (smin - smin * lost)
    return kappa if kappa.ndim else float(kappa)


def invert_static(a: np.ndarray, wrench: np.ndarray, m: Morphology,
                  alpha_hold: np.ndarray | None = None,
                  a_pinv: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-norm actuator set realizing a wrench through the static map.

    Returns (alpha, omega, omega_tilde_star). Tilt angles come from the
    per-arm atan2 of the summed lateral/vertical components of the
    pseudoinverse solution; arms whose demanded thrust is negligible keep
    alpha_hold (or 0). Rotor speeds are then re-solved at the shared tilt
    angles, which restores wrench exactness the per-rotor pairs lose to the
    drag-sign asymmetry within an arm: omega**2 = A_alpha' V L^-1 V' w, A_alpha A_alpha' =
    V L V', where L clears ``GRAM_EPS`` (kappa < 1e3: a kappa^2 eps error far under 1e-9),
    else pinv(A_alpha) w by the rank rule. A caller inverting many wrenches through one
    ``a`` may pass ``a_pinv``, which must equal ``np.linalg.pinv(a)``. A stack of wrenches
    (..., 6) is inverted row by row into alpha (..., n_arms), omega (..., n_rotors) and
    omega_tilde_star (..., 2 n_rotors); ``alpha_hold`` broadcasts to alpha.
    """
    wrench = np.asarray(wrench, dtype=float)[..., None]
    wt = ((np.linalg.pinv(a) if a_pinv is None else a_pinv) @ wrench)[..., 0]
    per_arm = wt.reshape(wt.shape[:-1] + (m.n_arms, m.rotor.rotors_per_arm, 2)).sum(axis=-2)
    lat, vert = per_arm[..., 0], per_arm[..., 1]
    thrusting = np.hypot(lat, vert) > 1e-12 * np.abs(wt).max(axis=-1, keepdims=True)
    alpha = np.where(thrusting, np.arctan2(lat, vert), 0.0 if alpha_hold is None else alpha_hold)

    a_inst = instantaneous_allocation(a, alpha, m.arm_of_rotor)
    a_t = np.swapaxes(a_inst, -1, -2)
    lam, v = np.linalg.eigh(a_inst @ a_t)
    ok = lam[..., :1] > GRAM_EPS * lam[..., -1:]
    a_plus = a_t @ v / np.where(ok, lam, 1.0)[..., None, :] @ np.swapaxes(v, -1, -2)
    if not ok.all():
        a_plus[~ok[..., 0]] = np.linalg.pinv(a_inst[~ok[..., 0]], rcond=RANK_EPS)
    omega = np.sqrt(np.maximum((a_plus @ wrench)[..., 0], 0.0))
    return alpha, omega, wt
