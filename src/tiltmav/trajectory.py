"""Waypoint trajectories: septic position splines and attitude segments.

Positions use per-axis 7th-order segments with continuous derivatives up to
jerk at interior waypoints, zero velocity/acceleration/jerk at the ends, and
minimum integrated squared snap resolving the leftover freedom. Attitude
interpolates each waypoint pair along the geodesic R_i * exp(phi * s(t))
with a septic smoothstep s, which zeroes angular rates at waypoints and
keeps the angular jerk continuous; this representation is exact through
gimbal-lock orientations.

Construction tabulates each segment polynomial (per position axis, and the
attitude angle) and its first three derivatives as float tuples, which
``Trajectory.sample`` evaluates at every control tick by Horner's rule in
plain floats: a numpy call costs more than one 8-term polynomial.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field

import numpy as np

from .so3 import ORTHONORMALITY_TOL, exp_so3, log_so3, rodrigues, rot_x, rot_y, rot_z
from .vehicle import _fields, _make, check_real, check_vector


def _derivative_table(coeffs: np.ndarray) -> tuple:
    """Coefficients of a polynomial and of its first three derivatives, as float tuples."""
    table = []
    c = np.asarray(coeffs, dtype=float)
    for _ in range(4):
        table.append(tuple(c.tolist()))
        c = c[1:] * np.arange(1, c.size)
    return tuple(table)


def _horner(c: tuple, s: float) -> float:
    out = 0.0
    for ck in reversed(c):
        out = out * s + ck
    return out


@dataclass
class TrajectorySample:
    t: float
    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    j: np.ndarray
    r_wb: np.ndarray
    omega_b: np.ndarray
    psi_b: np.ndarray
    zeta_b: np.ndarray


@dataclass(frozen=True)
class Waypoint:
    t: float
    p: np.ndarray
    r_wb: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        check_real("t", self.t)
        object.__setattr__(self, "p", check_vector("p", self.p, (3,)))
        r = check_vector("r_wb", self.r_wb, (3, 3))
        if np.abs(r.T @ r - np.eye(3)).max() > ORTHONORMALITY_TOL or np.linalg.det(r) <= 0.0:
            raise ValueError(f"r_wb must be a rotation (orthonormal, det +1), got {r.tolist()}")
        object.__setattr__(self, "r_wb", r)


def _position_spline(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Min-snap septic segment coefficients, one row of 8 per segment.

    Boundary conditions: waypoint positions, zero v/a/j at both trajectory
    ends, derivative continuity 1..3 at interior joints. Segments use local
    time scaled to [0, 1]; coefficients are returned in scaled time.
    """
    n_seg = times.size - 1
    n_var = 8 * n_seg
    rows, rhs = [], []

    def basis(seg, s, deriv):
        row = np.zeros(n_var)
        row[8 * seg: 8 * seg + 8] = [_horner(_derivative_table(e)[deriv], s) for e in np.eye(8)]
        return row

    for seg in range(n_seg):
        rows.append(basis(seg, 0.0, 0)); rhs.append(values[seg])
        rows.append(basis(seg, 1.0, 0)); rhs.append(values[seg + 1])
    scale = 1.0 / (times[1:] - times[:-1])
    for d in range(1, 4):
        rows.append(basis(0, 0.0, d) * scale[0] ** d); rhs.append(0.0)
        rows.append(basis(n_seg - 1, 1.0, d) * scale[-1] ** d); rhs.append(0.0)
    for seg in range(n_seg - 1):
        for d in range(1, 4):
            row = (basis(seg, 1.0, d) * scale[seg] ** d
                   - basis(seg + 1, 0.0, d) * scale[seg + 1] ** d)
            rows.append(row); rhs.append(0.0)

    c_mat = np.array(rows)
    b_vec = np.array(rhs)
    # Snap Gramian in scaled time: d4(s^i) d4(s^j) integrated over [0, 1].
    h_seg = np.zeros((8, 8))
    for i in range(4, 8):
        for j in range(4, 8):
            ci = np.prod(np.arange(i - 3, i + 1))
            cj = np.prod(np.arange(j - 3, j + 1))
            h_seg[i, j] = ci * cj / (i + j - 7)
    h = np.zeros((n_var, n_var))
    for seg in range(n_seg):
        h[8 * seg: 8 * seg + 8, 8 * seg: 8 * seg + 8] = h_seg * scale[seg] ** 7
    h += 1e-9 * np.eye(n_var)

    kkt = np.block([[2.0 * h, c_mat.T], [c_mat, np.zeros((c_mat.shape[0], c_mat.shape[0]))]])
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(n_var), b_vec]))
    return sol[:n_var].reshape(n_seg, 8)


class Trajectory:
    """Sampled 6-DOF reference built from pose waypoints.

    Attitude is represented per segment as R_base * exp(axis * theta(s)).
    Runs of consecutive segments rotating about one common axis share a C3
    angle spline (continuous spins, e.g. flips through multiple waypoints);
    other segments fall back to the septic smoothstep, which zeroes the
    angular rates at their endpoints.
    """

    def __init__(self, waypoints: list[Waypoint]):
        if len(waypoints) < 2:
            raise ValueError("need at least two waypoints")
        times = np.array([w.t for w in waypoints])
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        self.times = times
        self._knots = times.tolist()
        positions = np.stack([w.p for w in waypoints])
        coeffs = np.stack([
            _position_spline(times, positions[:, axis]) for axis in range(3)
        ], axis=2)  # (n_seg, 8, 3)
        # Per segment, derivative-major: _pos_tables[seg][d][axis].
        self._pos_tables = [tuple(zip(*(_derivative_table(c[:, ax]) for ax in range(3))))
                            for c in coeffs]
        self._rotations = [w.r_wb for w in waypoints]
        self._build_attitude_segments()

    def _build_attitude_segments(self) -> None:
        n_seg = self.times.size - 1
        incs = [log_so3(self._rotations[i].T @ self._rotations[i + 1])
                for i in range(n_seg)]
        angles = np.array([np.linalg.norm(phi) for phi in incs])
        axes = [phi / a if a > 1e-12 else np.zeros(3) for phi, a in zip(incs, angles)]

        self._att_axis = [(0.0, 0.0, 0.0)] * n_seg
        self._att_tables = [_derivative_table(np.zeros(8))] * n_seg
        self._att_base = [np.eye(3)] * n_seg
        seg = 0
        while seg < n_seg:
            if angles[seg] <= 1e-12:
                self._att_base[seg] = self._rotations[seg]
                seg += 1
                continue
            run_end = seg + 1
            while (run_end < n_seg and angles[run_end] > 1e-12
                   and axes[run_end] @ axes[seg] > 1.0 - 1e-9):
                run_end += 1
            cumulative = np.concatenate([[0.0], np.cumsum(angles[seg:run_end])])
            coeffs = _position_spline(self.times[seg:run_end + 1], cumulative)
            for k in range(seg, run_end):
                self._att_axis[k] = tuple(axes[seg].tolist())
                self._att_tables[k] = _derivative_table(coeffs[k - seg])
                self._att_base[k] = self._rotations[seg]
            seg = run_end

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def t0(self) -> float:
        return float(self.times[0])

    def sample(self, t: float) -> TrajectorySample:
        knots = self._knots
        t = min(max(float(t), knots[0]), knots[-1])   # np.clip's result, signed zeros too
        seg = min(max(bisect.bisect_right(knots, t) - 1, 0), len(knots) - 2)
        t_a = knots[seg]
        h = knots[seg + 1] - t_a
        s = (t - t_a) / h
        # The d-th derivative in time is the scaled-time one over h**d (x / 1.0 is x).
        scales = (1.0, h, h**2, h**3)
        p, v, a, jj = (np.array([_horner(c, s) / scale for c in table])
                       for table, scale in zip(self._pos_tables[seg], scales))

        axis = self._att_axis[seg]
        angle, *rates = (_horner(c, s) for c in self._att_tables[seg])
        r = self._att_base[seg] @ np.array(rodrigues(*(x * angle for x in axis))).reshape(3, 3)
        omega, psi, zeta = (np.array([x * rate / scale for x in axis])
                            for rate, scale in zip(rates, scales[1:]))
        return TrajectorySample(t=t, p=p, v=v, a=a, j=jj, r_wb=r,
                                omega_b=omega, psi_b=psi, zeta_b=zeta)



def _waypoint(t, p, rpy=None) -> Waypoint:
    r = np.eye(3)
    if rpy is not None:
        roll, pitch, yaw = np.deg2rad(check_vector("rpy", rpy, (3,)))
        r = rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)
    return Waypoint(t=t, p=p, r_wb=r)


def load_waypoints(path) -> Trajectory:
    """Waypoint list from JSON: [{"t":, "p":[...], "rpy": [...](deg, optional)}].

    A non-list, an item that is not an object, lacks t or p or has another
    key, or a value off the number rule raises ValueError naming its item.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"waypoints must be a JSON list, got {type(data).__name__}")
    return Trajectory([_make(f"[{i}]", _waypoint,
                             _fields(item, f"[{i}]", ("t", "p", "rpy"), ("t", "p")))
                       for i, item in enumerate(data)])


# ---------------------------------------------------------------------------
# Named experiment trajectories
# ---------------------------------------------------------------------------

def _figure_eight(duration: float, tilt_deg: float, scale: float) -> Trajectory:
    n_wp = 9
    wps = []
    for k in range(n_wp):
        s = k / (n_wp - 1)
        th = 2.0 * np.pi * s
        p = scale * np.array([1.2 * np.sin(th), 0.8 * np.sin(2.0 * th),
                              1.3 + 0.25 * np.sin(th + np.pi / 4) - 0.25 * np.sin(np.pi / 4)])
        if k in (0, n_wp - 1):
            r = np.eye(3)
        else:
            axis = np.array([np.cos(th), np.sin(th), 0.0])
            r = exp_so3(np.deg2rad(tilt_deg) * axis)
        wps.append(Waypoint(t=s * duration, p=p, r_wb=r))
    return Trajectory(wps)


def _attitude_program(duration: float, hold: float, p0, rotations) -> Trajectory:
    """Hover at p0 while stepping through body-frame rotation increments."""
    p0 = np.asarray(p0, dtype=float)
    n_rot = len(rotations)
    t_rot = duration - 2.0 * hold
    wps = [Waypoint(t=0.0, p=p0)]
    r = np.eye(3)
    for i, inc in enumerate(rotations):
        r = r @ exp_so3(inc)
        wps.append(Waypoint(t=hold + t_rot * (i + 1) / n_rot, p=p0, r_wb=r.copy()))
    wps.append(Waypoint(t=duration, p=p0, r_wb=r.copy()))
    return Trajectory(wps)


def named_trajectory(kind: str, scale: float = 1.0) -> Trajectory:
    """Experiment trajectory templates (a)-(g).

    (a) low-angle figure eight, <= 30 deg tilt, 29.4 s; (b) high angle,
    <= 80 deg, 29.4 s; (c) fast, 10.7 s; (d) singular translation at 90 deg
    roll, 36.1 s; (e) cartwheel, 35.5 s; (f) roll flip, 16 s; (g) pitch
    flip, 8 s.
    """
    check_real("scale", scale)
    x90 = np.deg2rad(90.0) * np.array([1.0, 0.0, 0.0])
    y90 = np.deg2rad(90.0) * np.array([0.0, 1.0, 0.0])
    z90 = np.deg2rad(90.0) * np.array([0.0, 0.0, 1.0])
    if kind == "a":
        return _figure_eight(29.4, 28.0, scale)
    if kind == "b":
        return _figure_eight(29.4, 78.0, scale)
    if kind == "c":
        return _figure_eight(10.7, 28.0, scale)
    if kind == "d":
        roll90 = exp_so3(x90)
        dy = 0.9 * scale
        z0 = 1.3 * scale
        wps = [
            Waypoint(t=0.0, p=[0.0, 0.0, z0]),
            Waypoint(t=6.0, p=[0.0, 0.0, z0], r_wb=roll90),
            Waypoint(t=12.0, p=[0.0, dy, z0], r_wb=roll90),
            Waypoint(t=18.0, p=[0.0, -dy, z0], r_wb=roll90),
            Waypoint(t=24.0, p=[0.0, 0.0, z0], r_wb=roll90),
            Waypoint(t=30.0, p=[0.0, 0.0, z0], r_wb=roll90 @ exp_so3(np.deg2rad(60.0) * np.array([0, 1, 0]))),
            Waypoint(t=36.1, p=[0.0, 0.0, z0], r_wb=roll90),
        ]
        return Trajectory(wps)
    if kind == "e":
        z0 = 1.3 * scale
        rad = 0.7 * scale
        wps = [Waypoint(t=0.0, p=[rad, 0.0, z0]),
               Waypoint(t=5.5, p=[rad, 0.0, z0], r_wb=exp_so3(x90))]
        r = exp_so3(x90)
        n_seg = 8
        step_z = 2.0 * (2.0 * np.pi) / n_seg * np.array([0.0, 0.0, 1.0])
        for i in range(1, n_seg + 1):
            r = r @ exp_so3(step_z)
            circ = 2.0 * np.pi * i / n_seg
            pos = [rad * np.cos(circ), rad * np.sin(circ), z0]
            wps.append(Waypoint(t=5.5 + 24.0 * i / n_seg, p=pos, r_wb=r.copy()))
        wps.append(Waypoint(t=35.5, p=[rad, 0.0, z0], r_wb=r.copy()))
        return Trajectory(wps)
    if kind == "f":
        return _attitude_program(16.0, 2.0, [0.0, 0.0, 1.3 * scale], [x90] * 4)
    if kind == "g":
        return _attitude_program(8.0, 1.0, [0.0, 0.0, 1.3 * scale], [y90] * 4)
    raise ValueError(f"unknown trajectory kind {kind!r}")
