"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria with stated runtime budgets assert the measured wall time as well.
"""

import json
import time

import numpy as np
import pytest

from tiltmav.allocation import instantaneous_allocation, static_allocation
from tiltmav.cli import main as cli_main
from tiltmav.design import DesignProblem, beta_sweep, optimize
from tiltmav.diff_allocation import (DifferentialAllocator, condition_scan,
                                     exact_wrench_rate, solve)
from tiltmav.envelope import max_wrench_in_direction
from tiltmav.lqri import LqriController, LqriGains, linearized_system
from tiltmav.riccati import care_residual, lqr_gain, solve_care
from tiltmav.rigid_body import RigidBodyState
from tiltmav.sim import SimConfig, hover_trim, run
from tiltmav.trajectory import TrajectorySample, Trajectory, Waypoint, named_trajectory
from tiltmav.vehicle import RigidBodyParams, prototype_morphology

from oracles import (build_diff_allocation_dense, kleinman_newton, lqri_error_rates, omega_tilde,
                     random_rotation)

_results = []


def _report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    _results.append(line)
    assert ok, line


def test_criterion_01_allocation_consistency():
    t0 = time.perf_counter()
    m = prototype_morphology()
    a = static_allocation(m)
    rng = np.random.default_rng(100)
    n = 10_000
    alphas = rng.uniform(-2 * np.pi, 2 * np.pi, (n, m.n_arms))
    omegas = rng.uniform(0.0, m.rotor.omega_max**2, (n, m.n_rotors))
    a_r = alphas[:, m.arm_of_rotor]
    wt = np.empty((n, 2 * m.n_rotors))
    wt[:, 0::2] = np.sin(a_r) * omegas
    wt[:, 1::2] = np.cos(a_r) * omegas
    w_static = wt @ a.T
    a_lat, a_vert = a[:, 0::2], a[:, 1::2]
    w_inst = (omegas * np.sin(a_r)) @ a_lat.T + (omegas * np.cos(a_r)) @ a_vert.T
    num = np.linalg.norm(w_static - w_inst, axis=1)
    den = np.linalg.norm(w_inst, axis=1)
    worst = (num / np.maximum(den, 1e-300)).max()
    elapsed = time.perf_counter() - t0
    _report("1 allocation-consistency",
            bool(worst < 1e-10 and elapsed < 1.0),
            f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_thrust_budget():
    t0 = time.perf_counter()
    m = prototype_morphology()
    f_up = max_wrench_in_direction(m, [0.0, 0.0, 1.0])
    elapsed = time.perf_counter() - t0
    _report("2 thrust-budget",
            bool(abs(f_up - 133.1) < 0.1 and f_up > 130.0 and elapsed < 1.0),
            f"f_max(z) = {f_up:.3f} N, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def design_results():
    t0 = time.perf_counter()
    r1 = optimize(DesignProblem(cost=1))
    r2 = optimize(DesignProblem(cost=2))
    grid, vals = beta_sweep(DesignProblem(), np.arange(0.50, 0.75, 0.005))
    return r1, r2, grid, vals, time.perf_counter() - t0


def test_criterion_03_design_optimization(design_results):
    r1, r2, grid, vals, elapsed = design_results
    ok1 = (np.rad2deg(np.abs(r1.theta)).max() < 1.0
           and np.rad2deg(np.abs(r1.beta)).max() < 1.0)
    beta_deg = np.rad2deg(r2.beta)
    signs = np.sign(beta_deg)
    alternating = bool(np.all(signs == signs[0] * (-1.0) ** np.arange(6)))
    ok2 = (np.abs(np.abs(beta_deg) - 35.26).max() < 0.5 and alternating
           and np.rad2deg(np.abs(r2.theta)).max() < 1.0)
    argmax = grid[int(np.argmax(vals))]
    ok3 = abs(argmax - 0.6154) < 0.02
    _report("3 design-optimization",
            bool(ok1 and ok2 and ok3 and elapsed < 300.0),
            f"cost1 |angles|<{max(np.rad2deg(np.abs(r1.theta)).max(), np.rad2deg(np.abs(r1.beta)).max()):.2f}deg, "
            f"cost2 beta {beta_deg.round(2)}, sweep argmax {argmax:.4f}, {elapsed:.0f}s")


def test_criterion_04_envelope_ratios(design_results):
    r1, r2, *_ = design_results
    ratio = r1.force.max / r1.force.min
    gain = r2.force.min / r1.force.min
    ok = (abs(ratio - 2.0) < 0.2 and abs(gain - 1.33) < 0.1
          and abs(r1.mass - 4.0) < 1e-6 and abs(r2.mass - 4.0) < 1e-6)
    _report("4 envelope-ratios", bool(ok),
            f"fmax/fmin = {ratio:.3f}, cost2/cost1 fmin = {gain:.3f}")


def test_criterion_05_care_correctness():
    t0 = time.perf_counter()
    ok = True
    detail = []
    p = solve_care([[0.0]], [[1.0]], [[4.0]], [[9.0]])
    ok &= abs(p[0, 0] - 6.0) < 1e-9
    a2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    b2 = np.array([[0.0], [1.0]])
    k2 = lqr_gain(solve_care(a2, b2, np.eye(2), [[1.0]]), b2, [[1.0]])
    ok &= np.abs(k2 - [[1.0, np.sqrt(3.0)]]).max() < 1e-9
    a, b = linearized_system()
    q, r = LqriGains().weight_matrices()
    p = solve_care(a, b, q, r)
    resid = care_residual(a, b, q, r, p)
    k = lqr_gain(p, b, r)
    max_re = np.linalg.eigvals(a - b @ k).real.max()
    p_kn = kleinman_newton(a, b, q, r)
    kn_err = np.linalg.norm(p - p_kn) / np.linalg.norm(p)
    ok &= resid < 1e-8 and max_re < 0.0 and kn_err < 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report("5 care-correctness", bool(ok),
            f"residual {resid:.1e}, max Re(eig) {max_re:.3f}, KN err {kn_err:.1e}, {elapsed:.1f}s")


def test_criterion_06_feedback_linearization_identity():
    # The closed loop's map: LQRI u_bar -> (j_w, psi_dot) -> exact_wrench_rate,
    # checked against a forward-differentiated Newton-Euler model with
    # torques about an offset center of mass.
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    ctrl = LqriController()
    worst = 0.0
    for _ in range(1000):
        params = RigidBodyParams(mass=rng.uniform(0.5, 8.0),
                                 inertia=np.diag(rng.uniform(0.02, 0.5, 3)),
                                 r_com=rng.normal(0, 0.02, 3))
        st = RigidBodyState(p=rng.normal(0, 1, 3), v=rng.normal(0, 2, 3),
                            a=rng.normal(0, 3, 3), r_wb=random_rotation(rng),
                            omega=rng.normal(0, 2, 3), psi=rng.normal(0, 3, 3))
        ref = TrajectorySample(t=0.0, p=rng.normal(0, 1, 3), v=rng.normal(0, 1, 3),
                               a=rng.normal(0, 1, 3), j=rng.normal(0, 2, 3),
                               r_wb=random_rotation(rng), omega_b=rng.normal(0, 2, 3),
                               psi_b=rng.normal(0, 2, 3), zeta_b=rng.normal(0, 2, 3))
        wrench = rng.normal(0, 10, 6)
        ctrl.reset()
        out = ctrl.step(st, ref, 0.01)
        u_bar = out["u"]
        w_dot = exact_wrench_rate(out["j_w"], out["psi_dot"], st, params, wrench)
        ea, ep = lqri_error_rates(st, ref, params, wrench[:3], w_dot)
        scale = np.linalg.norm(u_bar) + 1.0
        worst = max(worst, np.abs(ea - u_bar[:3]).max() / scale,
                    np.abs(ep - u_bar[3:]).max() / scale)
    elapsed = time.perf_counter() - t0
    _report("6 feedback-linearization", bool(worst < 1e-8 and elapsed < 10.0),
            f"worst rel residual {worst:.1e}, {elapsed:.1f}s")


def test_criterion_07_differential_allocation():
    t0 = time.perf_counter()
    m = prototype_morphology()
    a = static_allocation(m)
    alloc = DifferentialAllocator(m)
    rng = np.random.default_rng(107)
    w_inv = np.concatenate([np.ones(m.n_rotors), np.full(m.n_arms, 1e-3)])
    w_cost = 1.0 / w_inv
    worst_resid, worst_opt, worst_fd, worst_dense = 0.0, 0.0, 0.0, 0.0
    for i in range(1000):
        omega_c = rng.uniform(200, 1200, m.n_rotors)
        alpha_c = rng.uniform(-np.pi, np.pi, m.n_arms)
        alloc.set_commands(alpha_c, omega_c)
        a_tilde = alloc.a_tilde
        dense = build_diff_allocation_dense(a, omega_c, alpha_c, m.arm_of_rotor)
        worst_dense = max(worst_dense, np.abs(a_tilde - dense).max() / np.abs(dense).max())
        u_star = rng.normal(0, 10, 18)
        w_dot = rng.normal(0, 30, 6)
        u, reg = solve(a_tilde, w_inv, u_star, w_dot)
        worst_resid = max(worst_resid, np.linalg.norm(a_tilde @ u - w_dot))
        if i < 200:
            _, _, vt = np.linalg.svd(a_tilde)
            z = vt[6:].T @ rng.normal(size=12)
            j0 = (u - u_star) @ (w_cost * (u - u_star))
            j_pert = (u + 1e-3 * z - u_star) @ (w_cost * (u + 1e-3 * z - u_star))
            worst_opt = max(worst_opt, j0 - j_pert)
        if i < 100:
            eps = 1e-6
            du = np.concatenate([rng.normal(size=m.n_rotors), rng.normal(size=m.n_arms)])
            w0 = a @ omega_tilde(omega_c**2, alpha_c, m.arm_of_rotor)
            w1 = a @ omega_tilde((omega_c + eps * du[:12])**2,
                                 alpha_c + eps * du[12:], m.arm_of_rotor)
            fd = (w1 - w0) / eps
            ref = a_tilde @ du
            worst_fd = max(worst_fd, np.linalg.norm(fd - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - t0
    ok = (worst_resid < 1e-9 and worst_opt <= 1e-9 and worst_fd < 1e-4 and worst_dense <= 1e-15
          and elapsed < 30.0)
    _report("7 differential-allocation", bool(ok),
            f"residual {worst_resid:.1e}, opt slack {worst_opt:.1e}, FD err {worst_fd:.1e}, "
            f"dense A~ err {worst_dense:.1e}, {elapsed:.1f}s")


def test_criterion_08_singularity_handling():
    t0 = time.perf_counter()
    m = prototype_morphology()
    scan_off = condition_scan(m, bias_on=False, n_dirs=320)
    scan_on = condition_scan(m, bias_on=True, n_dirs=320)
    traj = named_trajectory("d")
    log_off = run(SimConfig(controller="pid"), m, traj)
    from tiltmav.diff_allocation import BiasConfig
    log_on = run(SimConfig(controller="pid"), m, traj, bias=BiasConfig(enabled=True))
    elapsed = time.perf_counter() - t0
    ok = (scan_off["max_log_kappa"] >= 30.0 and scan_on["max_log_kappa"] <= 10.0
          and not log_off.diverged and not log_on.diverged and elapsed < 120.0)
    _report("8 singularity-handling", bool(ok),
            f"log kappa off {scan_off['max_log_kappa']:.1f} / on {scan_on['max_log_kappa']:.1f}, "
            f"(d) diverged off={log_off.diverged} on={log_on.diverged}, {elapsed:.0f}s")


def test_criterion_09_closed_loop_regulation():
    t0 = time.perf_counter()
    m = prototype_morphology()
    hover = Trajectory([Waypoint(t=0.0, p=[0, 0, 1.3]), Waypoint(t=6.0, p=[0, 0, 1.3])])
    recover = {}
    for ctrl in ("pid", "lqri"):
        log = run(SimConfig(controller=ctrl), m, hover, p_offset=[0.1, 0.0, 0.0])
        e = np.linalg.norm(log.block("e_p"), axis=1)
        t = log.column("t")
        recover[ctrl] = e[t <= 5.0].min()
    survived = {}
    for kind in "abcdefg":
        log = run(SimConfig(controller="pid"), m, named_trajectory(kind))
        survived[kind] = not log.diverged
    log = run(SimConfig(controller="pid"), m, hover)
    eta_ok = np.abs(log.column("eta_f") - 1.0).max() < 1e-6
    elapsed = time.perf_counter() - t0
    ok = (all(v < 1e-3 for v in recover.values()) and all(survived.values())
          and eta_ok and elapsed < 300.0)
    _report("9 closed-loop-regulation", bool(ok),
            f"recovery pid {recover['pid']:.1e} lqri {recover['lqri']:.1e}, "
            f"survived {sum(survived.values())}/7, eta_ok {eta_ok}, {elapsed:.0f}s")


def test_criterion_10_unwinding():
    t0 = time.perf_counter()
    m = prototype_morphology()
    traj = named_trajectory("a")
    cfg = SimConfig(controller="lqri")
    base = run(cfg, m, traj)
    alpha_trim, _ = hover_trim(m, traj.sample(traj.t0).r_wb)
    alpha0 = alpha_trim.copy()
    alpha0[:4] += 2.0 * np.pi
    unw = run(cfg, m, traj, alpha0=alpha0, unwind=True)
    final_alpha = np.array([unw.column(f"alpha_{i}")[-1] for i in range(m.n_arms)])
    med_base = np.median(np.linalg.norm(base.block("e_p"), axis=1))
    med_unw = np.median(np.linalg.norm(unw.block("e_p"), axis=1))
    elapsed = time.perf_counter() - t0
    ok = (np.all(np.abs(final_alpha) < np.pi) and med_unw <= 3.0 * med_base
          and not unw.diverged and elapsed < 60.0)
    _report("10 unwinding", bool(ok),
            f"final |alpha| max {np.abs(final_alpha).max():.2f}, "
            f"median ratio {med_unw / med_base:.2f}, {elapsed:.0f}s")


def test_criterion_11_determinism(tmp_path):
    wps = [{"t": 0.0, "p": [0.0, 0.0, 1.3]}, {"t": 2.0, "p": [0.3, 0.0, 1.3]}]
    traj_file = tmp_path / "traj.json"
    traj_file.write_text(json.dumps(wps))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["simulate", "--traj", str(traj_file), "--seed", "9",
                         "--controller", "lqri", "--out", str(out)])
        assert code == 0
        outs.append(out)
    same_log = (outs[0] / "simlog.csv").read_bytes() == (outs[1] / "simlog.csv").read_bytes()
    same_manifest = ((outs[0] / "manifest.json").read_bytes()
                     == (outs[1] / "manifest.json").read_bytes())
    _report("11 determinism", bool(same_log and same_manifest),
            f"simlog identical {same_log}, manifest identical {same_manifest}")
