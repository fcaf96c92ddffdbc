"""Independent brute-force oracles used by the test suite."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from tiltmav.allocation import instantaneous_allocation, static_allocation


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
