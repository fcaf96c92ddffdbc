"""Rotation utilities: the vee map, axis rotations, exponential/log maps.

All rotation matrices are body-to-world ("R_WB" style): for a vector x
expressed in the body frame, R @ x gives its world-frame coordinates.
"""

from __future__ import annotations

import math

import numpy as np

ORTHONORMALITY_TOL = 1e-9


def cross3(a, b) -> tuple:
    """a x b of two 3-sequences as a float tuple: np.cross's bits without its dispatch."""
    ax, ay, az = a
    bx, by, bz = b
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def vee(m, tol: float = ORTHONORMALITY_TOL) -> np.ndarray:
    """The 3-vector v of an antisymmetric matrix [v]x. Raises ValueError otherwise."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"vee expects a 3x3 matrix, got {m.shape}")
    asym = np.abs(m + m.T).max()
    if asym > tol * max(1.0, np.abs(m).max()):
        raise ValueError(f"vee: input not antisymmetric (residual {asym:.3e})")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rodrigues(x: float, y: float, z: float) -> tuple:
    """exp of the axis-angle vector (x, y, z) as a row-major 9-tuple of floats.

    R = I + a K + b K^2 with K = skew(phi), a = sin(t)/t, b = (1 - cos t)/t^2,
    in plain Python floats: numpy's per-call overhead dwarfs the arithmetic of
    one 3x3 rotation. Raises FloatingPointError on a non-finite input.
    """
    t2 = x * x + y * y + z * z
    if t2 < 1e-24:
        a, b = 1.0, 0.5
    elif t2 < math.inf:
        t = math.sqrt(t2)
        a = math.sin(t) / t
        b = (1.0 - math.cos(t)) / t2
    else:
        raise FloatingPointError(f"non-finite rotation vector ({x}, {y}, {z})")
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    ax, ay, az = a * x, a * y, a * z
    return (1.0 - b * (y * y + z * z), bxy - az, bxz + ay,
            bxy + az, 1.0 - b * (x * x + z * z), byz - ax,
            bxz - ay, byz + ax, 1.0 - b * (x * x + y * y))


def exp_so3(phi) -> np.ndarray:
    """Rodrigues formula: rotation matrix for the axis-angle vector phi."""
    x, y, z = np.asarray(phi, dtype=float).tolist()
    return np.array(rodrigues(x, y, z)).reshape(3, 3)


def log_so3(r) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (principal branch, angle in [0, pi]).

    The angle is atan2(sin, cos), with sin = ||vee(R - R^T)|| / 2, which stays
    well conditioned up to pi where arccos((tr R - 1) / 2) is not.
    """
    r = np.asarray(r, dtype=float)
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_angle = 0.5 * np.linalg.norm(w)
    cos_angle = 0.5 * (np.trace(r) - 1.0)
    angle = math.atan2(sin_angle, cos_angle)
    if angle < 1e-10:
        return 0.5 * w
    if sin_angle < 1e-5 and cos_angle < 0.0:
        # w = 2 sin(angle) axis carries too few digits of the axis here; the
        # symmetric part (R + R^T)/2 - cos I = (1 - cos) axis axis^T does not.
        b = 0.5 * (r + r.T) - cos_angle * np.eye(3)
        k = int(np.argmax(np.diag(b)))
        axis = b[k] / np.linalg.norm(b[k])
        if axis @ w < 0.0:
            axis = -axis
        return angle * axis
    return angle / (2.0 * sin_angle) * w


def attitude_error(r_wb, r_wb_des) -> np.ndarray:
    """Geometric attitude error 0.5 * vee(Rd^T R - R^T Rd), in the body frame."""
    r = np.asarray(r_wb, dtype=float)
    rd = np.asarray(r_wb_des, dtype=float)
    m = rd.T @ r - r.T @ rd
    return 0.5 * np.array([m[2, 1], m[0, 2], m[1, 0]])
