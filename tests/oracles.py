"""Independent brute-force oracles and reference helpers used by the test suite."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from tiltmav.allocation import instantaneous_allocation, static_allocation
from tiltmav.design import UP, build_candidate
from tiltmav.envelope import arm_wrench_blocks
from tiltmav.riccati import CareError, _validate
from tiltmav.rigid_body import BodyConstants, RigidBodyState, com_torque, newton_euler, tilt_step
from tiltmav.so3 import ORTHONORMALITY_TOL, exp_so3, rot_y, rot_z
from tiltmav.trajectory import TrajectorySample


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
    omega = np.sqrt(np.clip(np.linalg.pinv(a_inst) @ wrench, 0.0, None))
    return alpha, omega, wt


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


def design_objective_loop(problem, x, dirs, mg) -> float:
    """The design search's penalized objective of one angle set x = [theta, beta]:
    its own ``build_candidate`` vehicle and mass model, and a pseudoinverse per radius."""
    n = problem.n_arms
    m = build_candidate(problem, x[:n], x[n:])
    f_min = float(pinv_radii_loop(m, dirs).min())
    if problem.cost == 1:
        value = -float(pinv_radii_loop(m, UP)[0])
    else:
        t_min = float(pinv_radii_loop(m, dirs, "torque", mg * UP).min())
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
