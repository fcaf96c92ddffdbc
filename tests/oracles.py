"""Independent brute-force oracles and reference helpers used by the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from tiltmav.allocation import (GRAM_EPS, RANK_EPS, condition_number, instantaneous_allocation,
                                static_allocation)
from tiltmav.design import UP, _least_radius, build_candidate
from tiltmav.diff_allocation import (REGULARIZATION_CONDITION, AllocationConfig, BiasConfig,
                                     optimal_targets)
from tiltmav.envelope import (_CENTRE, _EDGE, _GAP, _MAX_STEPS, _POLISH, _RESIDUAL, _SHRINK, _gram,
                              _smoothed, arm_wrench_blocks)
from tiltmav.riccati import CareError, _validate
from tiltmav.rigid_body import BodyConstants, RigidBodyState, com_torque, newton_euler
from tiltmav.sgfilter import sg_coefficients
from tiltmav.sim import NonFiniteState
from tiltmav.so3 import ORTHONORMALITY_TOL, exp_so3, matmul3, rodrigues, rot_y, rot_z
from tiltmav.trajectory import TrajectorySample
from tiltmav.vehicle import GRAVITY, Morphology, check_int, prototype_morphology


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def is_rotation(r, tol: float = ORTHONORMALITY_TOL) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    ortho = np.abs(r.T @ r - np.eye(3)).max()
    return ortho <= tol and abs(np.linalg.det(r) - 1.0) <= tol


def compare(results: list[dict]) -> list[dict]:
    """Metrics of each result divided by the first (reference) entry."""
    if len(results) < 2:
        raise ValueError("need at least two results to compare")

    def flatten(r: dict) -> dict:
        out = {"mass": r["mass"]}
        for i, axis in enumerate("xyz"):
            out[f"J_{axis}{axis}"] = r["inertia"][i]
        for mode in ("force", "torque"):
            for key in ("min", "max", "volume"):
                out[f"{mode}_{key}"] = r[mode][key]
        out["eta_min"] = r["eta_f_hover"]["min"]
        out["eta_max"] = r["eta_f_hover"]["max"]
        return out

    ref = flatten(results[0])
    if any(v == 0.0 for v in ref.values()):
        raise ValueError("reference result has a zero metric")
    return [{k: v / ref[k] for k, v in flatten(r).items()} for r in results]


def omega_tilde(omega_sq, alpha, arm_of_rotor) -> np.ndarray:
    """Interleaved lateral/vertical squared-speed components (Omega-tilde).

    The static map A applied to these is the wrench of the module docstring
    of ``tiltmav.allocation``; the library evaluates it as A_alpha @ W.
    """
    omega_sq = np.asarray(omega_sq, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    arm_of_rotor = np.asarray(arm_of_rotor)
    if omega_sq.shape != arm_of_rotor.shape:
        raise ValueError("omega_sq and arm_of_rotor length mismatch")
    if arm_of_rotor.size and int(arm_of_rotor.max()) >= alpha.size:
        raise ValueError("alpha too short for the rotor->arm map")
    a_r = alpha[arm_of_rotor]
    out = np.empty(2 * omega_sq.size)
    out[0::2] = np.sin(a_r) * omega_sq
    out[1::2] = np.cos(a_r) * omega_sq
    return out


def arm_frame_loop(arm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One arm's (axis, lateral, vertical), the triad of ``tiltmav.vehicle``."""
    cb, sb = np.cos(arm.beta), np.sin(arm.beta)
    cp, sp = np.cos(arm.azimuth), np.sin(arm.azimuth)
    return (np.array([cb * cp, cb * sp, sb]), np.array([sp, -cp, 0.0]),
            np.array([-sb * cp, -sb * sp, cb]))


def static_allocation_loop(m) -> np.ndarray:
    """Rotor-by-rotor form of ``allocation.static_allocation``."""
    rpa = m.rotor.rotors_per_arm
    a = np.empty((6, 2 * m.n_rotors))
    for r in range(m.n_rotors):
        arm = m.arms[r // rpa]
        axis, lat, vert = arm_frame_loop(arm)
        pos = arm.length * axis
        drag = float(arm.spins[r % rpa]) * m.rotor.c_d
        for col, d in ((2 * r, lat), (2 * r + 1, vert)):
            a[:3, col] = m.rotor.c_f * d
            a[3:, col] = m.rotor.c_f * (np.cross(pos, d) - drag * d)
    return a


def invert_static_loop(a, wrench, m, alpha_hold=None):
    """Arm-by-arm form of ``allocation.invert_static``."""
    wt = np.linalg.pinv(a) @ wrench
    rpa = m.rotor.rotors_per_arm
    alpha = np.zeros(m.n_arms) if alpha_hold is None else np.array(alpha_hold, dtype=float)
    scale = np.abs(wt).max()
    for arm in range(m.n_arms):
        sl = slice(arm * rpa, (arm + 1) * rpa)
        lat_sum, vert_sum = wt[0::2][sl].sum(), wt[1::2][sl].sum()
        if np.hypot(lat_sum, vert_sum) > 1e-12 * scale:
            alpha[arm] = np.arctan2(lat_sum, vert_sum)
    a_inst = instantaneous_allocation(a, alpha, m.arm_of_rotor)
    lam, v = np.linalg.eigh(a_inst @ a_inst.T)
    if lam[0] > GRAM_EPS * lam[-1]:
        omega_sq = (a_inst.T @ v / lam @ v.T) @ wrench
    else:
        omega_sq = np.linalg.pinv(a_inst, rcond=RANK_EPS) @ wrench
    return alpha, np.sqrt(np.clip(omega_sq, 0.0, None)), wt


def invert_static_pinv(a, wrench, m, alpha_hold=None):
    """``allocation.invert_static`` with its rotor speeds re-solved by
    ``pinv(A_alpha, rcond=RANK_EPS)`` on every row, the SVD form the
    normal-equation re-solve replaced."""
    wrench = np.asarray(wrench, dtype=float)[..., None]
    wt = (np.linalg.pinv(a) @ wrench)[..., 0]
    per_arm = wt.reshape(wt.shape[:-1] + (m.n_arms, m.rotor.rotors_per_arm, 2)).sum(axis=-2)
    lat, vert = per_arm[..., 0], per_arm[..., 1]
    thrusting = np.hypot(lat, vert) > 1e-12 * np.abs(wt).max(axis=-1, keepdims=True)
    alpha = np.where(thrusting, np.arctan2(lat, vert), 0.0 if alpha_hold is None else alpha_hold)
    a_inst = instantaneous_allocation(a, alpha, m.arm_of_rotor)
    omega_sq = (np.linalg.pinv(a_inst, rcond=RANK_EPS) @ wrench)[..., 0]
    return alpha, np.sqrt(np.clip(omega_sq, 0.0, None)), wt


def build_diff_allocation_dense(a, omega_c, alpha_c, arm_of_rotor) -> np.ndarray:
    """A_tilde = A @ dA through the dense (2 n_rotors, n_rotors + n_arms)
    chain-rule matrix dA, the form ``DifferentialAllocator.a_tilde``'s
    column rule replaced. Rows of dA per rotor r on arm a:
        d(w^2 sin a) = 2 w sin(a) dw + w^2 cos(a) da
        d(w^2 cos a) = 2 w cos(a) dw - w^2 sin(a) da
    """
    omega_c = np.asarray(omega_c, dtype=float)
    alpha_c = np.asarray(alpha_c, dtype=float)
    arm_of_rotor = np.asarray(arm_of_rotor)
    n_r = omega_c.size
    d_a = np.zeros((2 * n_r, n_r + alpha_c.size))
    a_r = alpha_c[arm_of_rotor]
    sin_a, cos_a = np.sin(a_r), np.cos(a_r)
    rows = np.arange(n_r)
    d_a[2 * rows, rows] = 2.0 * omega_c * sin_a
    d_a[2 * rows + 1, rows] = 2.0 * omega_c * cos_a
    d_a[2 * rows, n_r + arm_of_rotor] = omega_c**2 * cos_a
    d_a[2 * rows + 1, n_r + arm_of_rotor] = -(omega_c**2) * sin_a
    return a @ d_a


def solve_lu(a_tilde, w_inv_diag, u_star, w_dot_cmd) -> tuple[np.ndarray, bool]:
    """``diff_allocation.solve`` through ``eigvalsh`` for the regularization
    test and an LU ``solve`` of the symmetrized Gram matrix, the pair the one
    eigendecomposition replaced."""
    awt = a_tilde * w_inv_diag[None, :]
    gram = awt @ a_tilde.T
    gram = 0.5 * (gram + gram.T)
    eigvals = np.linalg.eigvalsh(gram)
    regularized = bool(eigvals[0] <= eigvals[-1] / REGULARIZATION_CONDITION)
    if regularized:
        gram = gram + 1e-9 * max(np.trace(gram), 1e-30) / gram.shape[0] * np.eye(gram.shape[0])
    lam = np.linalg.solve(gram, w_dot_cmd - a_tilde @ u_star)
    return u_star + awt.T @ lam, regularized


class SavitzkyGolayRoll:
    """``sgfilter.SavitzkyGolay`` on a (window, dim) buffer that ``np.roll``
    shifts by one row per sample, newest last."""

    def __init__(self, window: int = 21, order: int = 1, dim: int = 3):
        self.window = window
        self.value_w, self.deriv_w = sg_coefficients(window, order)
        self._buf = np.zeros((window, dim))
        self._count = 0

    def push(self, sample) -> None:
        self._buf = np.roll(self._buf, -1, axis=0)
        self._buf[-1] = np.asarray(sample, dtype=float)
        self._count += 1

    def value(self):
        if self._count < self.window:
            return self._buf[-1].copy()
        return self.value_w @ self._buf

    def derivative(self, dt: float):
        if self._count < self.window:
            return np.zeros(self._buf.shape[1])
        return (self.deriv_w @ self._buf) / dt


def alpha_bias_loop(thrust_dirs, magnitudes, cfg) -> np.ndarray:
    """Pairwise numpy form of ``diff_allocation.alpha_bias``."""
    n = thrust_dirs.shape[0]
    if not cfg.enabled:
        return np.zeros(n)
    scale = magnitudes.max() if magnitudes.size else 0.0
    active = magnitudes > 1e-9 * max(scale, 1e-30)
    dirs = thrust_dirs[active]
    colinear = True
    for i in range(dirs.shape[0]):
        for k in range(i + 1, dirs.shape[0]):
            cross = np.linalg.norm(np.cross(dirs[i], dirs[k]))
            if np.arcsin(np.clip(cross, 0.0, 1.0)) > cfg.colinearity_tol:
                colinear = False
                break
        if not colinear:
            break
    if not colinear:
        return np.zeros(n)
    return cfg.delta * (-1.0) ** np.arange(n)


def condition_scan_loop(m, dirs, hover_dir=(0.0, 0.0, 1.0), extra_force_mag=None,
                        bias_cfg=BiasConfig()) -> np.ndarray:
    """Direction-by-direction log kappa of ``diff_allocation.condition_scan`` over
    its directions; ``bias_cfg`` is the scan's, switched by its ``bias_on``."""
    a = static_allocation(m)
    a_pinv, alloc = np.linalg.pinv(a), AllocationConfig()
    mg = m.body.mass * GRAVITY
    extra = mg if extra_force_mag is None else extra_force_mag
    hover = mg * np.asarray(hover_dir, dtype=float)
    log_kappa = np.empty(len(dirs))
    for i, d in enumerate(dirs):
        wrench = np.concatenate([hover + extra * d, np.zeros(3)])
        alpha_star, _, _ = optimal_targets(m, a, np.zeros(m.n_arms), np.zeros(m.n_rotors),
                                           wrench, alloc, bias_cfg, a_pinv)
        a_inst = instantaneous_allocation(a, alpha_star, m.arm_of_rotor)
        log_kappa[i] = np.log(condition_number(a_inst))
    return log_kappa


def schedule_unwinding_loop(alloc, alpha_star, u_star, w_dot_cmd) -> np.ndarray:
    """Arm-by-arm form of ``DifferentialAllocator._schedule_unwinding`` on ``alloc``."""
    m = alloc.morphology
    n_r = m.n_rotors
    rpa = m.rotor.rotors_per_arm
    gap = np.abs(alpha_star - alloc.alpha_cmd)
    alloc._unwind_active &= gap > alloc.alloc.unwind_release
    need = gap > alloc.alloc.unwind_engage
    calm = (np.linalg.norm(w_dot_cmd[:3]) < 15.0
            and np.linalg.norm(w_dot_cmd[3:]) < 5.0)
    free = alloc.alloc.max_unwind_arms - int(alloc._unwind_active.sum())
    if free > 0 and calm:
        waiting = np.flatnonzero(need & ~alloc._unwind_active)
        order = waiting[np.lexsort((waiting, -np.round(gap[waiting], 6)))]
        for arm in order:
            if free <= 0:
                break
            left = (arm - 1) % m.n_arms
            right = (arm + 1) % m.n_arms
            if alloc._unwind_active[left] or alloc._unwind_active[right]:
                continue
            alloc._unwind_active[arm] = True
            free -= 1
    u_star = u_star.copy()
    tilt_gate = m.rotor.omega_min + 50.0
    if alloc._unwind_active.any():
        u_star[:n_r] = np.maximum(u_star[:n_r], 0.0)
    for arm in range(m.n_arms):
        rotors = slice(arm * rpa, (arm + 1) * rpa)
        if alloc._unwind_active[arm]:
            spinning = alloc.omega_cmd[rotors] > m.rotor.omega_min + 1.0
            u_star[:n_r][rotors] = np.where(
                spinning, -alloc.alloc.v_omega_dot, 0.0)
            if np.any(alloc.omega_cmd[rotors] > tilt_gate):
                u_star[n_r + arm] = 0.0
        elif need[arm]:
            u_star[n_r + arm] = 0.0
    return u_star


def random_morphology(rng) -> Morphology:
    """The prototype with 3-8 random arms of 1 or 2 rotors each."""
    data = prototype_morphology().to_dict()
    rpa = int(rng.integers(1, 3))
    data["rotor"]["rotors_per_arm"] = rpa
    data["arms"] = [{"gamma": rng.uniform(0.0, 2.0 * np.pi), "theta": rng.uniform(-1.5, 1.5),
                     "beta": rng.uniform(-1.5, 1.5), "length": rng.uniform(0.1, 0.5),
                     "spins": [s, -s][:rpa]}
                    for s in rng.choice([-1, 1], size=int(rng.integers(3, 9)))]
    return Morphology.from_dict(data)


def poly_eval(coeffs: np.ndarray, t, deriv: int = 0):
    """Horner value of the deriv-th derivative of sum_k coeffs[k] t^k, on numpy."""
    c = coeffs
    for _ in range(deriv):
        c = c[1:] * np.arange(1, c.size)
    out = np.zeros_like(np.asarray(t, dtype=float))
    for k in range(c.size - 1, -1, -1):
        out = out * t + c[k]
    return out


def trajectory_sample_loop(traj, t) -> TrajectorySample:
    """``Trajectory.sample`` with a numpy ``poly_eval`` per axis and derivative.

    Reads the segment polynomials from the trajectory's derivative tables
    (their first row is the polynomial itself).
    """
    t = float(np.clip(t, traj.times[0], traj.times[-1]))
    seg = int(np.clip(np.searchsorted(traj.times, t, side="right") - 1,
                      0, traj.times.size - 2))
    t_a, t_b = traj.times[seg], traj.times[seg + 1]
    h = t_b - t_a
    s = (t - t_a) / h
    c = np.array([traj._pos_tables[seg][0][ax] for ax in range(3)]).T   # (8, 3)
    p = np.array([poly_eval(c[:, ax], s, 0) for ax in range(3)])
    v = np.array([poly_eval(c[:, ax], s, 1) for ax in range(3)]) / h
    a = np.array([poly_eval(c[:, ax], s, 2) for ax in range(3)]) / h**2
    jj = np.array([poly_eval(c[:, ax], s, 3) for ax in range(3)]) / h**3

    axis = np.array(traj._att_axis[seg])
    ac = np.array(traj._att_tables[seg][0])
    r = traj._att_base[seg] @ exp_so3(axis * poly_eval(ac, s, 0))
    omega = axis * poly_eval(ac, s, 1) / h
    psi = axis * poly_eval(ac, s, 2) / h**2
    zeta = axis * poly_eval(ac, s, 3) / h**3
    return TrajectorySample(t=t, p=p, v=v, a=a, j=jj, r_wb=r,
                            omega_b=omega, psi_b=psi, zeta_b=zeta)


def mass_inertia_loop(arms, model) -> tuple[float, np.ndarray]:
    """Arm-by-arm form of ``mass_model.compute_mass_inertia``."""
    m_core = model.m_core_const + len(arms) * model.m_arm_actuation
    j_core_xx = m_core * (3.0 * model.r_core**2 + model.h_core**2) / 12.0
    j = np.diag([j_core_xx, j_core_xx, 0.5 * m_core * model.r_core**2])
    mass = m_core
    r_sq = model.r_tube_outer**2 + model.r_tube_inner**2
    for arm in arms:
        length = arm.length
        m_tube = model.m_tube_per_m * length
        m_rot = model.m_rotor_group
        mass += m_tube + m_rot
        j_tube_yy = m_tube * (3.0 * r_sq + length**2) / 12.0
        j_tube = np.diag([0.5 * m_tube * r_sq, j_tube_yy, j_tube_yy])
        trans = m_rot * (3.0 * model.r_rotor**2 + model.h_rotor**2) / 12.0
        axial = 0.5 * m_rot * model.r_rotor**2
        j_rot = np.diag([trans, 0.5 * (trans + axial), 0.5 * (trans + axial)])
        p_tube = np.array([0.5 * length, 0.0, 0.0])
        p_rot = np.array([length, 0.0, 0.0])
        j_arm = (
            j_tube + m_tube * (p_tube @ p_tube * np.eye(3) - np.outer(p_tube, p_tube))
            + j_rot + m_rot * (p_rot @ p_rot * np.eye(3) - np.outer(p_rot, p_rot))
        )
        r_b_arm = rot_z(arm.azimuth) @ rot_y(-arm.beta)
        j = j + r_b_arm @ j_arm @ r_b_arm.T
    return mass, j


def pinv_radii_loop(m, dirs, mode="force", hover_force=None) -> np.ndarray:
    """One vehicle's ``envelope.pinv_radii`` values, from its own pseudoinverse."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    a_inv = np.linalg.pinv(static_allocation(m))
    w_max2 = m.rotor.omega_max**2
    if mode == "force":
        wt = a_inv[:, :3] @ dirs.T
        worst = np.hypot(wt[0::2, :], wt[1::2, :]).max(axis=0)
        return np.where(worst > 0.0, w_max2 / np.maximum(worst, 1e-300), np.inf)
    hover = np.zeros(3) if hover_force is None else np.asarray(hover_force, dtype=float)
    w0 = a_inv @ np.concatenate([hover, np.zeros(3)])
    dw = a_inv[:, 3:] @ dirs.T
    a0 = np.stack([w0[0::2], w0[1::2]])
    a1 = np.stack([dw[0::2, :], dw[1::2, :]])
    qa = (a1**2).sum(axis=0)
    qb = 2.0 * (a0[:, :, None] * a1).sum(axis=0)
    qc = ((a0**2).sum(axis=0) - w_max2**2)[:, None]
    if np.any(qc > 0.0):
        return np.zeros(dirs.shape[0])
    disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
    lam = np.where(qa > 1e-300, (-qb + np.sqrt(disc)) / (2.0 * np.maximum(qa, 1e-300)), np.inf)
    return lam.min(axis=0)


def design_objective_loop(problem, x, mg) -> float:
    """The design search's penalized objective of one angle set x = [theta, beta]:
    its own ``build_candidate`` vehicle and mass model, and its own pseudoinverse
    through the search's exact least-radius kernel."""
    n = problem.n_arms
    m = build_candidate(problem, x[:n], x[n:])
    a_inv = np.linalg.pinv(static_allocation(m))[None]
    w_max2 = m.rotor.omega_max**2
    f_min = float(_least_radius(a_inv, w_max2)[0])
    if problem.cost == 1:
        value = -float(pinv_radii_loop(m, UP)[0])
    else:
        t_min = float(_least_radius(a_inv, w_max2, mg * UP)[0])
        value = -min(f_min / mg, t_min / (0.5 * mg * problem.arm_length))
    return value + 1e3 * max(0.0, (mg - f_min) / mg) ** 2


def accelerations(r_wb, omega, force_b, torque_c, params):
    """Array form of ``rigid_body.newton_euler``: (a_W, psi_B) for one body state."""
    a_w, psi = newton_euler(np.ravel(r_wb).tolist(), np.ravel(omega).tolist(),
                            np.ravel(force_b).tolist(), np.ravel(torque_c).tolist(),
                            BodyConstants.of(params))
    return np.array(a_w), np.array(psi)


def kinetic_energy(state, params) -> float:
    v_b = state.r_wb.T @ state.v
    return float(0.5 * params.mass * v_b @ v_b + 0.5 * state.omega @ params.inertia @ state.omega)


def random_rotation(rng, max_angle=np.pi) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_so3(axis * rng.uniform(0.0, max_angle))


def max_wrench_alpha_grid(m, direction, mode="force", hover_force=None,
                          n_grid=16, refine=2):
    """Grid tilt angles, solve the rotor-speed LP at each gridpoint.

    Independent of the per-arm disc reduction: works directly on the
    instantaneous allocation at fixed alpha. Coarse pass over [0, 2pi)^n
    followed by local refinements around the incumbent.
    """
    a = static_allocation(m)
    arm_of_rotor = m.arm_of_rotor
    omega_max_sq = m.rotor.omega_max**2
    direction = np.asarray(direction, dtype=float)
    if mode == "force":
        h = np.concatenate([direction, np.zeros(3)])
        b_base = np.zeros(6)
    else:
        h = np.concatenate([np.zeros(3), direction])
        b_base = np.concatenate([np.asarray(hover_force, dtype=float), np.zeros(3)])

    # At fixed tilt angles the exact wrench equality is feasible only on a
    # thin manifold, so the match carries a row-scaled slack that tightens
    # as the angle search refines (slack homotopy); the residual bias stays
    # far below the 1% agreement band.
    f_scale = m.n_rotors * m.rotor.c_f * omega_max_sq
    row_scale = f_scale * np.array([1.0] * 3 + [m.arms[0].length] * 3)

    def solve_at(alpha, rel_slack):
        a_inst = instantaneous_allocation(a, np.asarray(alpha), arm_of_rotor)
        n_r = a_inst.shape[1]
        mat = np.concatenate([a_inst, -h[:, None]], axis=1)
        a_ub = np.concatenate([mat, -mat], axis=0)
        slack = rel_slack * row_scale
        b_ub = np.concatenate([b_base + slack, -(b_base - slack)])
        c = np.zeros(n_r + 1)
        c[-1] = -1.0
        bounds = [(0.0, omega_max_sq)] * n_r + [(0.0, None)]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        return res.x[-1] if res.success else 0.0

    grid = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    scored = []
    for alpha in itertools.product(grid, repeat=m.n_arms):
        scored.append((solve_at(alpha, 3e-2), np.array(alpha)))
    scored.sort(key=lambda it: -it[0])

    def coordinate_descent(alpha0):
        alpha = alpha0.copy()
        val = None
        for rel_slack in (3e-2, 1e-2, 3e-3, 1e-3, 3e-4):
            val = solve_at(alpha, rel_slack)
            step = 2.0 * np.pi / n_grid
            while step > 5e-4:
                improved = False
                for i in range(m.n_arms):
                    for sgn in (1.0, -1.0):
                        cand = alpha.copy()
                        cand[i] += sgn * step
                        v = solve_at(cand, rel_slack)
                        if v > val + 1e-12:
                            alpha, val = cand, v
                            improved = True
                if not improved:
                    step /= 2.0
        return val

    best_val = 0.0
    for _, alpha in scored[:max(refine, 1) * 3]:
        best_val = max(best_val, coordinate_descent(alpha))
    return best_val


def disc_lp(m, n_vertices: int, circumscribed: bool = False):
    """Columns, budget rows and column thrust costs of the polygonized disc LP.

    Returns (cols, budget, cost): cols (6, n_arms*N) stacks each arm's block
    B_a applied to the vertices of the N-gon inscribed in its disc (or, with
    ``circumscribed``, the N-gon around it, vertex radius r/cos(pi/N)),
    budget (n_arms, n_arms*N) holds the rows of sum_k mu_ak <= 1, and
    cost[k] is column k's thrust, c_f times its vertex radius.
    """
    blocks, radii = arm_wrench_blocks(m)
    if circumscribed:
        radii = radii / np.cos(np.pi / n_vertices)
    ang = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    unit = np.stack([np.sin(ang), np.cos(ang)], axis=1)
    cols = np.concatenate([b @ (r * unit).T for b, r in zip(blocks, radii)], axis=1)
    budget = np.kron(np.eye(len(radii)), np.ones(n_vertices))
    return cols, budget, m.rotor.c_f * np.repeat(radii, n_vertices)


def optimal_radii_linprog(m, dirs, mode="force", hover_force=None, n_vertices=64):
    """Cold per-direction linprog solves of the disc LP's radial problem.

    Returns (values, eta) where eta is read off whichever optimal vertex
    linprog returns; infeasible directions get 0 for both.
    """
    if mode == "force":
        rows, b_eq = slice(0, 3), np.zeros(6)
    else:
        hover = np.zeros(3) if hover_force is None else np.asarray(hover_force, dtype=float)
        rows, b_eq = slice(3, 6), np.concatenate([hover, np.zeros(3)])
    cols, budget, cost = disc_lp(m, n_vertices)
    a_ub = np.concatenate([budget, np.zeros((len(budget), 1))], axis=1)
    c = np.zeros(cols.shape[1] + 1)
    c[-1] = -1.0
    lever = 1.0 if mode == "force" else m.arms[0].length
    values = np.zeros(len(dirs))
    eta = np.zeros(len(dirs))
    for i, d in enumerate(dirs):
        d6 = np.zeros(6)
        d6[rows] = d
        res = linprog(c, A_ub=a_ub, b_ub=np.ones(len(budget)),
                      A_eq=np.concatenate([cols, -d6[:, None]], axis=1), b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if res.success:
            values[i] = res.x[-1]
            thrust = float((res.x[:-1] * cost).sum())
            eta[i] = min(values[i] / max(lever * thrust, 1e-300), 1.0)
    return values, eta


def min_thrusts_linprog(m, wrenches, n_vertices=128, circumscribed=False):
    """Cold per-wrench linprog solves of the disc LP's least thrust; inf where unreachable."""
    cols, budget, cost = disc_lp(m, n_vertices, circumscribed)
    totals = np.full(len(wrenches), np.inf)
    for i, w in enumerate(wrenches):
        res = linprog(cost, A_ub=budget, b_ub=np.ones(len(budget)), A_eq=cols, b_eq=w,
                      bounds=(0, None), method="highs")
        if res.success:
            totals[i] = res.fun
    return totals


def _hat(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def lqri_error_rates(state, ref, params, force_b, wrench_rate, h=1e-30):
    """(e_a_dot, e_psi_dot) that a body wrench rate produces, by forward model.

    Independent of ``exact_wrench_rate``: the Newton-Euler law with torques
    about the center of mass (tau_C = tau - r_com x f, J about the CoM) is
    evaluated along the first-order motion

        R(t) = R (I + t [omega]x),  omega(t) = omega + t psi,
        [f; tau](t) = [f; tau] + t wrench_rate,

    with the reference moved the same way, and the LQRI acceleration errors
    e_a = a - a_d and e_psi = psi - R' R_d psi_d are differentiated by complex
    step (t = i h), which is exact to rounding. The origin torque tau is the
    one for which the law reproduces ``state.psi``.
    """
    m, jj, r_com = params.mass, params.inertia, params.r_com
    om, psi = state.omega, state.psi
    tau = jj @ psi + np.cross(om, jj @ om) + np.cross(r_com, force_b)
    t = 1j * h
    r = state.r_wb @ (np.eye(3) + t * _hat(om))
    om_t = om + t * psi
    f = force_b + t * wrench_rate[:3]
    tau_c = tau + t * wrench_rate[3:] - np.cross(r_com, f)
    a_w = r @ f / m + params.gravity_w
    psi_t = np.linalg.solve(jj, tau_c - np.cross(om_t, jj @ om_t))
    r_d = ref.r_wb @ (np.eye(3) + t * _hat(ref.omega_b))
    e_a = a_w - (ref.a + t * ref.j)
    e_psi = psi_t - r.T @ (r_d @ (ref.psi_b + t * ref.zeta_b))
    return e_a.imag / h, e_psi.imag / h


def _accelerations_np(r_wb, omega, force_b, torque_c, params):
    a_w = r_wb @ (force_b / params.mass) + params.gravity_w
    psi = np.linalg.solve(params.inertia,
                          torque_c - np.cross(omega, params.inertia @ omega))
    return a_w, psi


def _exp_so3_np(phi):
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    if angle < 1e-12:
        k = skew(phi)
        return np.eye(3) + k + 0.5 * (k @ k)
    axis = phi / angle
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def tilt_step(alpha: np.ndarray, alpha_ref: np.ndarray, tau: float, dt) -> np.ndarray:
    """Exact step of the first-order tilt dynamics alphadot = (ref - alpha)/tau, a row per dt."""
    if not np.all(np.asarray(dt) > 0.0):
        raise ValueError("dt must be positive")
    decay = np.exp(-np.asarray(dt) / tau)[..., None]
    return alpha_ref + (np.asarray(alpha, dtype=float) - alpha_ref) * decay


def plant_step_lists(self, alpha_ref: np.ndarray, omega_ref: np.ndarray, dt: float,
                     n: int = 1) -> None:
    """``Plant.step`` with list-based RK4 stages, on the plant ``self``.

    The loop ``Plant.step`` ran before its stages moved to named float
    locals, kept verbatim (tilt response through ``tilt_step``, tick
    constants formed per call, each stage a list built by comprehension over
    ``zip``): the new kernel must reproduce its every bit.
    """
    check_int("n", n, 1)
    # Tilt angles at every half step and rotor speeds at every step end
    # in closed form; a step's midpoint speeds are the mean of its ends.
    times = np.arange(1, 2 * n + 1) * (0.5 * dt)
    alpha = tilt_step(self.alpha, alpha_ref, self.morphology.tilt.tau, times)
    reach = np.arange(n + 1)[:, None] * (self.rotor_slew * dt)
    ends = self.omega + np.minimum(np.maximum(omega_ref - self.omega, -reach), reach)
    forces, torques = self._force_and_com_torque(
        self._wrench_at(alpha[0::2], 0.5 * (ends[:-1] + ends[1:])))
    r0 = self.state.r_wb.ravel().tolist()
    y0 = [*self.state.p.tolist(), *self.state.v.tolist(), 0.0, 0.0, 0.0,
          *self.state.omega.tolist()]

    def deriv(y):
        # y = [p, v, phi, omega], R = r0 exp(phi); R f = r0 (exp(phi) f) skips a 3x3 product.
        e00, e01, e02, e10, e11, e12, e20, e21, e22 = rodrigues(y[6], y[7], y[8])
        f_inc = (e00 * fx + e01 * fy + e02 * fz,
                 e10 * fx + e11 * fy + e12 * fz,
                 e20 * fx + e21 * fy + e22 * fz)
        acc, omega_dot = newton_euler(r0, y[9:12], f_inc, torque_c, self._body)
        return (*y[3:6], *acc, *y[9:12], *omega_dot)

    half, sixth = 0.5 * dt, dt / 6.0
    try:
        for k, ((fx, fy, fz), torque_c) in enumerate(zip(forces, torques), 1):
            k1 = deriv(y0)
            k2 = deriv([a + half * b for a, b in zip(y0, k1)])
            k3 = deriv([a + half * b for a, b in zip(y0, k2)])
            k4 = deriv([a + dt * b for a, b in zip(y0, k3)])
            y0 = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
            if not math.isfinite(sum(y0)):
                raise FloatingPointError(f"non-finite plant state: {y0}")
            # The exp-map update keeps R orthonormal (drift < 1e-13 in 100k steps).
            r0 = matmul3(r0, rodrigues(*y0[6:9]))
            y0[6:9] = 0.0, 0.0, 0.0
    except FloatingPointError as err:
        raise NonFiniteState(k) from err

    self.state.r_wb = np.array(r0).reshape(3, 3)
    self.state.p, self.state.v, self.state.omega = (np.array(y0[i:i + 3]) for i in (0, 3, 9))
    self.alpha, self.omega = alpha[-1], ends[-1]
    self.refresh_accelerations()


def rk4_step_reference(m, state, alpha, omega, alpha_ref, omega_ref, dt, rotor_slew):
    """One plant step on numpy arrays: (state, alpha, omega) after dt.

    The array-per-stage RK4 with exp-map attitude that ``Plant.step``
    replaced, kept with its own numpy Newton-Euler law and Rodrigues map. The
    returned state carries the accelerations at the new state, as
    ``Plant.refresh_accelerations`` leaves them. No SO(3) re-projection.
    """
    body = m.body
    a = static_allocation(m)
    alpha_mid = tilt_step(alpha, alpha_ref, m.tilt.tau, 0.5 * dt)
    alpha_end = tilt_step(alpha, alpha_ref, m.tilt.tau, dt)
    d_omega = np.clip(omega_ref - omega, -rotor_slew * dt, rotor_slew * dt)
    omega_mid = omega + 0.5 * d_omega
    omega_end = omega + d_omega
    w_mid = instantaneous_allocation(a, alpha_mid, m.arm_of_rotor) @ omega_mid**2
    force_b = w_mid[:3]
    torque_c = com_torque(force_b, w_mid[3:], body)
    r0 = state.r_wb

    def deriv(y):
        # y = [p, v, rotation increment, omega]
        om = y[9:12]
        acc, omega_dot = _accelerations_np(r0 @ _exp_so3_np(y[6:9]), om, force_b,
                                           torque_c, body)
        return np.concatenate([y[3:6], acc, om, omega_dot])

    y0 = np.concatenate([state.p, state.v, np.zeros(3), state.omega])
    k1 = deriv(y0)
    k2 = deriv(y0 + 0.5 * dt * k1)
    k3 = deriv(y0 + 0.5 * dt * k2)
    k4 = deriv(y0 + dt * k3)
    y1 = y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    out = RigidBodyState(p=y1[0:3], v=y1[3:6], r_wb=r0 @ _exp_so3_np(y1[6:9]),
                         omega=y1[9:12])
    w_end = instantaneous_allocation(a, alpha_end, m.arm_of_rotor) @ omega_end**2
    out.a, out.psi = _accelerations_np(out.r_wb, out.omega, w_end[:3],
                                       com_torque(w_end[:3], w_end[3:], body), body)
    return out, alpha_end, omega_end


def solve_lyapunov_kron(m, rhs) -> np.ndarray:
    """Solve M' X + X M = -RHS via the Kronecker-product linear system."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, m.T) + np.kron(m.T, eye)
    x = np.linalg.solve(lhs, -np.asarray(rhs, dtype=float).reshape(n * n, order="F"))
    x = x.reshape((n, n), order="F")
    return 0.5 * (x + x.T)


def bass_stabilizing_gain(a, b) -> np.ndarray:
    """Stabilizing K for controllable (A, B): K = B' Z^-1 with
    (A + beta I) Z + Z (A + beta I)' = 2 B B', beta > spectral abscissa."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    beta = float(np.abs(np.linalg.eigvals(a)).max() + 1.0)
    m = a + beta * np.eye(a.shape[0])
    z = solve_lyapunov_kron(-m.T, 2.0 * b @ b.T)
    if np.any(np.linalg.eigvalsh(z) <= 0.0):
        raise CareError("Bass initialization failed: (A, B) not controllable")
    return b.T @ np.linalg.inv(z)


def kleinman_newton(a, b, q, r, tol: float = 1e-12, max_iter: int = 100) -> np.ndarray:
    """Kleinman's Newton iteration for the stabilizing CARE solution."""
    a, b, q, r = _validate(a, b, q, r)
    k = bass_stabilizing_gain(a, b)
    p_prev = None
    for _ in range(max_iter):
        acl = a - b @ k
        if np.any(np.linalg.eigvals(acl).real >= 0.0):
            raise CareError("Kleinman-Newton iterate lost stability")
        p = solve_lyapunov_kron(acl, q + k.T @ r @ k)
        k = np.linalg.solve(r, b.T @ p)
        if p_prev is not None and np.linalg.norm(p - p_prev) <= tol * max(np.linalg.norm(p), 1.0):
            return p
        p_prev = p
    raise CareError("Kleinman-Newton did not converge")



def icosphere_loop(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere (vertices, faces), midpoints from a per-face edge dict."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdivisions):
        edge_mid: dict[tuple[int, int], int] = {}
        verts_list = [v for v in verts]

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = verts_list[i] + verts_list[j]
                m /= np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m)
            return edge_mid[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces)
    return verts, faces


# ---------------------------------------------------------------------------
# The disc-set kernel's reference orchestration: a radial solve on every
# wrench before the least-thrust solve, and the box and null-space fallbacks
# one row at a time. Its Newton steps are a copy of the library's, built on
# the library's _gram and _smoothed.
# ---------------------------------------------------------------------------


def solve_two_pass(cm, k, kappa, c, d=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial values along the rows of d from c (kappa = 0), or without d the
    least thrusts that realize the rows of c (kappa = k), each certified.

    Returns (lam, y, thrust): lam is 0 without d or where no lambda >= 0 is
    reachable, y the certifying dual point (d.y = 1), thrust the certified
    allocation's summed thrust or, where the free arms' block has a null
    space, the least one over it. A row's steps depend on that row alone.
    It carries the library's attempt rule: a centred row polishes only once
    its kink set is the same at the next smoothing level (or eps is at its
    floor), an empty ray is certified without one, and the smoothed point is
    retried only where the polish ran off.
    """
    n, radial, e1 = len(k), d is not None, np.array([1.0, 0.0])
    arm = np.linalg.norm(cm.reshape(6, n, 2), axis=(0, 2))
    d = d if radial else np.zeros_like(c)
    lam, thrust, y, loose = np.zeros(len(c)), np.zeros(len(c)), d.copy(), []
    start = 0.2 * np.linalg.norm(cm, axis=0).mean()
    eps, rows = np.full(len(c), start), np.arange(len(c))

    def local(y, kink):
        # t = |C_a^T y|, its unit vector vh (0 where t = 0), C_a vh, and C_a P_a for
        # a kink arm's u_a = P_a s_a: s_a itself when kappa_a = 0, s_a[0] vh_a otherwise
        v = (y @ cm).reshape(len(y), n, 2)
        t = np.linalg.norm(v, axis=-1)
        vh = v / np.where(t > 0.0, t, 1.0)[..., None]
        cvh = np.einsum("iaj,raj->ria", cm.reshape(6, n, 2), vh)
        cp = np.where(np.repeat(kappa > 0.0, 2),
                      np.stack([cvh, 0.0 * cvh], -1).reshape(len(y), 6, -1), cm)
        return t, vh, cvh, cp * np.repeat(kink, 2, axis=1)[:, None, :]

    def polish(y, kink, full, dr, cr):
        # Newton on sum_full C_a vh_a + sum_kink C_a P_a s_a - lambda d = c,
        # P_a^T C_a^T y = (kappa_a, 0) on the kink arms and d.y = 1 (or
        # lambda = 0), the slots no arm uses held at 0. A tiny quasi-definite
        # shift keeps a row with a non-unique solution solvable.
        held = np.stack([~kink, ~kink | (kappa > 0.0)], -1).reshape(len(y), -1)
        j = np.zeros((len(y), 7 + 2 * n, 7 + 2 * n))
        j[:, :6, -1], j[:, -1, :6], j[:, -1, -1] = -dr, dr, not radial
        j[:, 6:-1, 6:-1] = np.eye(2 * n) * held[:, None, :]
        x = np.zeros((len(y), 2 * n + 1))
        x[:, :-1:2] = 0.5 * (kink & (kappa > 0.0))      # sharing arms start half on
        for _ in range(_POLISH):
            t, vh, cvh, cp = local(y, kink)
            bend = (np.where(full, 1.0, kink * (kappa > 0.0) * x[:, :-1:2])
                    / np.where(t > 0.0, t, 1.0))
            j[:, :6, :6], j[:, :6, 6:-1], j[:, 6:-1, :6] = (_gram(cm, bend, -bend, vh), cp,
                                                            cp.transpose(0, 2, 1))
            arms = kink[..., None] * np.where((kappa > 0.0)[:, None], (t - kappa)[..., None] * e1,
                                              (y @ cm).reshape(len(y), n, 2))
            r = np.concatenate([(cvh * full[:, None, :]).sum(-1) - x[:, -1:] * dr - cr
                                + np.einsum("rij,rj->ri", cp, x[:, :-1]),
                                arms.reshape(len(y), -1) + held * x[:, :-1],
                                (dr * y).sum(-1, keepdims=True) - 1.0 if radial else x[:, -1:]], 1)
            shift = (1e-12 * np.abs(j).max(axis=(1, 2))[:, None]
                     * np.r_[np.ones(6), -np.ones(2 * n + 1)])
            step = np.linalg.solve(j + shift[:, :, None] * np.eye(7 + 2 * n), -r[..., None])[..., 0]
            y, x = y + step[:, :6], x + step[:, 6:]
        return y / (dr * y).sum(-1, keepdims=True) if radial else y

    def primal(y, kink, full, dr, cr):
        # The least-norm kink slots and lambda given the full arms: ok, x, |u_a|,
        # the dual value and the block's rank.
        t, vh, cvh, cp = local(y, kink)
        block, rhs = np.concatenate([cp, -dr[:, :, None]], 2), cr - (cvh * full[:, None, :]).sum(-1)
        u, s, vt = np.linalg.svd(block, full_matrices=False)
        keep = s > 1e-10 * s[:, :1]
        x = np.einsum("rji,rj->ri", vt, np.where(keep, 1.0 / np.maximum(s, 1e-300), 0.0)
                      * np.einsum("rji,rj->ri", u, rhs))
        dual = np.maximum(t - kappa, 0.0).sum(-1) - (cr * y).sum(-1)

        def check(x):
            res = np.linalg.norm(np.einsum("rij,rj->ri", block, x) - rhs, axis=-1)
            s = x[:, :-1].reshape(len(y), n, 2)
            size = np.where(full, 1.0, kink * np.where(kappa > 0.0, np.abs(s[..., 0]),
                                                       np.linalg.norm(s, axis=-1)))
            value = x[:, -1] if radial else -(size @ k)
            return ((dual - value <= _GAP * np.maximum(np.abs(value), 1e-6 * arm.sum()))
                    & (res <= _RESIDUAL * arm.sum()) & (size.max(-1) <= 1.0 + 1e-9)), size

        ok, size = check(x)
        # A kink arm's least-thrust slot scales u_a = s_a vh_a, and the thrust
        # sum_a k_a s_a = rhs.y is the same over the whole affine set of slots, so
        # where the least-norm slots leave [0, 1] a box point of that set certifies alike.
        outside = ~ok & (kink & ((x[:, :-1:2] < 0.0) | (x[:, :-1:2] > 1.0))).any(-1)
        if not radial and outside.any():
            for i in np.flatnonzero(outside):
                arms = np.flatnonzero(kink[i])
                x[i, 2 * arms] = box_lsq_row(cvh[i][:, arms], rhs[i])
            ok, size = check(x)
        return ok, x, size, dual, keep.sum(-1)

    def certify(rows, y, eps):
        dr, cr = d[rows], c[rows]
        y = y / (dr * y).sum(-1, keepdims=True) if radial else y
        t = np.linalg.norm((y @ cm).reshape(len(y), n, 2), axis=-1)
        tau = np.sqrt(eps[:, None] * arm)
        kink, full = np.abs(t - kappa) <= tau, t - kappa > tau
        # An empty ray is certified as it stands. Any other row attempts a certificate
        # once its kink set is the same at the next smoothing level, or eps is at its floor.
        empty = radial & (t.sum(-1) - (cr * y).sum(-1) <= 0.0)
        moving = (kink & (np.abs(t - kappa) > np.sqrt(_SHRINK * eps[:, None] * arm))).any(-1)
        a = np.flatnonzero(~empty & (~moving | (eps <= 1e-12 * start)))
        ok, y_p = empty.copy(), y.copy()
        if not a.size:
            return ok, y_p
        rows, y, kink, full, dr, cr = rows[a], y[a], kink[a], full[a], dr[a], cr[a]
        y_a = polish(y, kink, full, dr, cr)
        ok_a, x, size, dual, rank = primal(y_a, kink, full, dr, cr)
        # Where the polish ran off (a degenerate dual), the smoothed point may hold.
        i = np.flatnonzero(~ok_a & (np.linalg.norm(y_a - y, axis=-1)
                                    > 1e3 * np.linalg.norm(y, axis=-1)))
        if i.size:
            y_a[i] = y[i]
            ok_a[i], x[i], size[i], dual[i], rank[i] = primal(y[i], kink[i], full[i], dr[i], cr[i])
        ok[a], y_p[a] = ok_a, y_a
        thrust[rows[ok_a]] = (size @ k)[ok_a]
        if radial:
            lam[rows[ok_a]] = np.minimum(x[:, -1], dual)[ok_a]
        for i in np.flatnonzero(ok_a & radial & (rank < 2 * kink.sum(-1) + 1)):
            cols = np.repeat(kink[i], 2)
            loose.append((rows[i], kink[i], cm[:, cols] @ x[i, :-1][cols]))
        return ok, y_p

    for _ in range(_MAX_STEPS):
        if not rows.size:
            break
        yr, er, cr = y[rows], eps[rows], c[rows]
        f0, g, h = _smoothed(cm, kappa, cr, yr, er)
        kkt = np.zeros((len(rows), 7, 7))      # with d, steps keep d.y = 1
        # A vehicle whose blocks span less than R^6 leaves h singular.
        kkt[:, :6, :6] = h + (1e-13 * np.trace(h, axis1=1, axis2=2))[:, None, None] * np.eye(6)
        kkt[:, :6, 6] = kkt[:, 6, :6] = d[rows]
        kkt[:, 6, 6] = not radial
        step = np.linalg.solve(kkt, -np.concatenate([g, 0.0 * g[:, :1]], 1)[..., None])[:, :6, 0]
        slope, t = (g * step).sum(-1), np.ones(len(rows))
        for _ in range(40):
            trial = _smoothed(cm, kappa, cr, yr + t[:, None] * step, er, False)
            worse = trial > f0 + 0.25 * t * slope
            if not worse.any():
                break
            t[worse] *= 0.5
        y[rows] = yr + t[:, None] * step
        # A negative value proves an empty ray, since F lies below its smoothing.
        centred = np.flatnonzero((-slope <= _CENTRE * er) | ((f0 < 0.0) & radial))
        done = np.zeros(len(rows), bool)
        if centred.size:
            done[centred], y_p = certify(rows[centred], y[rows[centred]], er[centred])
            y[rows[centred[done[centred]]]] = y_p[done[centred]]
        eps[rows[centred]] = np.maximum(_SHRINK * er[centred], 1e-12 * start)
        rows = rows[~done]
    if rows.size:
        raise RuntimeError(f"{rows.size} disc-set queries not certified within {_MAX_STEPS} steps")
    for row, free, wrench in loose:
        cols = np.repeat(free, 2)
        thrust[row] = k[~free].sum() + min_thrusts_two_pass(cm[:, cols], k[free], wrench[None])[0]
    return lam, y, thrust


def box_lsq_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x in [0, 1]^n least squares for a x = b, a (m, n) with few columns.

    The bounded-variable active-set method (Stark & Parker, Comput. Stat.
    10(2), 1995): free the bound variable whose gradient points furthest into
    the box, solve the free variables' least-norm problem, and step back to
    the first bound that solution crosses.
    """
    n = a.shape[1]
    x, free = np.zeros(n), np.zeros(n, bool)
    tol = 1e-13 * np.linalg.norm(a) * max(np.linalg.norm(b), 1e-300)
    for _ in range(3 * n + 3):
        g = a.T @ (b - a @ x)                   # descent direction of ||a x - b||^2 / 2
        wants = ~free & np.where(x <= 0.0, g > tol, g < -tol)
        if not wants.any():
            break
        free[np.argmax(np.where(wants, np.abs(g), -1.0))] = True
        while free.any():
            z = x.copy()
            z[free] = np.linalg.lstsq(a[:, free], b - a[:, ~free] @ x[~free], rcond=None)[0]
            over = free & ((z <= 0.0) | (z >= 1.0))
            if not over.any():
                x = z
                break
            bound = np.where(z <= 0.0, 0.0, 1.0)
            frac = np.where(over, (bound - x) / np.where(over, z - x, 1.0), np.inf)
            j = np.argmin(frac)                  # the first bound the segment x -> z meets
            x = np.clip(x + np.clip(frac[j], 0.0, 1.0) * (z - x), 0.0, 1.0)
            x[j] = bound[j]
            free &= (x > 0.0) & (x < 1.0)
    return x


def min_thrusts_two_pass(cm, k, wrenches) -> np.ndarray:
    """Least summed rotor thrust per wrench row; inf where unreachable: the
    two-pass rule, a radial solve along every wrench before the least-thrust one.

    w is reachable when the radial value along its own 6-D direction is at
    least |w|; within _EDGE of it, w is on the boundary, where the radial
    solve's own least thrust answers.
    """
    norm = np.linalg.norm(wrenches, axis=1)
    totals, rows = np.where(norm > 0.0, np.inf, 0.0), np.flatnonzero(norm > 0.0)
    lam, _, thrust = solve_two_pass(cm, k, 0.0 * k, 0.0 * wrenches[rows],
                                    wrenches[rows] / norm[rows, None])
    ratio = norm[rows] / np.maximum(lam, 1e-300)
    edge = np.abs(ratio - 1.0) <= _EDGE
    totals[rows[edge]] = thrust[edge] * ratio[edge]
    inner = rows[ratio < 1.0 - _EDGE]
    totals[inner] = solve_two_pass(cm, k, k, wrenches[inner])[2]
    return totals
