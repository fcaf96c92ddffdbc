import copy

import numpy as np
import pytest

from tiltmav.allocation import (condition_number, instantaneous_allocation,
                                static_allocation)
from tiltmav.diff_allocation import (AllocationConfig, BiasConfig,
                                     DifferentialAllocator, alpha_bias, condition_scan,
                                     exact_wrench_rate, optimal_targets,
                                     saturate_integrate, solve)
from tiltmav.rigid_body import RigidBodyState
from tiltmav.sim import hover_trim
from tiltmav.vehicle import RigidBodyParams, prototype_morphology

from oracles import (alpha_bias_loop, build_diff_allocation_dense, condition_scan_loop,
                     omega_tilde, random_morphology, schedule_unwinding_loop, solve_lu)


def _hover_setup():
    m = prototype_morphology()
    a = static_allocation(m)
    alpha, omega = hover_trim(m)
    return m, a, alpha, omega


def _a_tilde(m, omega, alpha):
    """The allocator's A~ at commanded tilts ``alpha`` and speeds ``omega``."""
    alloc = DifferentialAllocator(m)
    alloc.set_commands(alpha, omega)
    return alloc.a_tilde


def test_jacobian_finite_difference():
    m, a, _, _ = _hover_setup()
    rng = np.random.default_rng(21)
    omega_c = rng.uniform(300, 1000, m.n_rotors)
    alpha_c = rng.uniform(-1, 1, m.n_arms)
    a_tilde = _a_tilde(m, omega_c, alpha_c)
    d_omega = rng.normal(size=m.n_rotors)
    d_alpha = rng.normal(size=m.n_arms)
    du = np.concatenate([d_omega, d_alpha])

    def wrench(om, al):
        return a @ omega_tilde(om**2, al, m.arm_of_rotor)

    w0 = wrench(omega_c, alpha_c)
    for eps in (1e-5, 1e-6):
        fd = (wrench(omega_c + eps * d_omega, alpha_c + eps * d_alpha) - w0) / eps
        rel = np.linalg.norm(fd - a_tilde @ du) / np.linalg.norm(a_tilde @ du)
        assert rel < 1e-4


def test_a_tilde_and_solve_match_the_dense_forms():
    # A~ from A_alpha's columns against A @ dA, and the one-eigh solve against
    # eigvalsh + LU, on random layouts and commands. Both solves carry a forward
    # error of order eps kappa(G), so u~ agrees to 1e-12 relative where the
    # solved Gram is well conditioned (kappa(G) ~ 5e3 on the unwinding run) and
    # to a few eps kappa(G) elsewhere. Regularized rows stop all arms but one,
    # with a reachable rate: an unreachable one is amplified by 1/shift in both.
    rng = np.random.default_rng(67)
    eps = np.finfo(float).eps
    flags = []
    for trial in range(300):
        m = random_morphology(rng)
        a = static_allocation(m)
        omega = rng.uniform(0.0, m.rotor.omega_max, m.n_rotors)
        alpha = rng.uniform(-7.0, 7.0, m.n_arms)
        stopped = trial % 3 == 1
        if stopped:
            omega[m.arm_of_rotor != rng.integers(m.n_arms)] = 0.0
        a_tilde = _a_tilde(m, omega, alpha)
        dense = build_diff_allocation_dense(a, omega, alpha, m.arm_of_rotor)
        assert np.abs(a_tilde - dense).max() <= 1e-15 * np.abs(dense).max()
        w_inv = np.concatenate([np.ones(m.n_rotors),
                                np.full(m.n_arms, 10.0 ** rng.uniform(-4.0, 0.0))])
        u_star = rng.choice([-250.0, 0.0, 250.0], m.n_rotors + m.n_arms)
        w_dot = (a_tilde @ rng.normal(0.0, 100.0, a_tilde.shape[1]) if stopped
                 else rng.normal(0.0, 10.0, 6))
        u_tilde, regularized = solve(a_tilde, w_inv, u_star, w_dot)
        want, want_regularized = solve_lu(dense, w_inv, u_star, w_dot)
        assert regularized == want_regularized
        flags.append(regularized)
        gram = (dense * w_inv) @ dense.T
        lam = np.linalg.eigvalsh(gram) + (1e-9 * np.trace(gram) / 6 if regularized else 0.0)
        tol = max(1e-12, 4.0 * eps * lam[-1] / lam[0])
        assert np.abs(u_tilde - want).max() <= tol * np.abs(want).max()
    assert any(flags) and not all(flags)


def test_omega_zero_columns_vanish():
    m, a, alpha, _ = _hover_setup()
    a_tilde = _a_tilde(m, np.zeros(m.n_rotors), alpha)
    assert np.abs(a_tilde[:, :m.n_rotors]).max() == 0.0


def test_alpha_column_at_hover_is_lateral_only():
    m, a, alpha, omega = _hover_setup()
    a_tilde = _a_tilde(m, omega, alpha)
    col = a_tilde[:, m.n_rotors]    # first arm's tilt-rate column
    assert abs(col[2]) < 1e-12      # no f_z coupling at alpha = 0
    assert np.linalg.norm(col[:2]) > 0.0


def test_set_commands_rejects_negative_speed():
    m, _, alpha, omega = _hover_setup()
    alloc = DifferentialAllocator(m)
    alloc.set_commands(alpha, omega)
    before = alloc.a_tilde
    with pytest.raises(ValueError, match="non-negative"):
        alloc.set_commands(alpha + 0.1, -np.ones(m.n_rotors))
    assert np.array_equal(alloc.a_tilde, before)
    assert np.array_equal(alloc.alpha_cmd, alpha) and np.array_equal(alloc.omega_cmd, omega)


def test_exact_wrench_rate_block_diagonal_at_rest():
    # omega = psi = 0 and R = I: [f_dot; tau_dot] = blkdiag(m I, J) [j; psi_dot].
    params = RigidBodyParams(mass=2.0, inertia=np.diag([1.0, 2.0, 3.0]))
    st, w = RigidBodyState(), np.array([0.0, 0.0, 20.0, 0.0, 0.0, 0.0])

    def rate(u):
        return exact_wrench_rate(u[:3], u[3:], st, params, w)

    assert np.allclose(rate(np.zeros(6)), 0.0)
    assert np.allclose(rate(np.array([1.0, 0, 0, 0, 0, 0])), [2.0, 0, 0, 0, 0, 0])
    assert np.allclose(rate(np.array([0, 0, 0, 1.0, 1.0, 1.0]))[3:], [1.0, 2.0, 3.0])


def test_solve_consistency_and_residual():
    m, a, alpha, omega = _hover_setup()
    a_tilde = _a_tilde(m, omega, alpha)
    w_inv = np.concatenate([np.ones(m.n_rotors), np.full(m.n_arms, 1e-3)])
    rng = np.random.default_rng(22)
    u_star = rng.normal(size=18)
    u, reg = solve(a_tilde, w_inv, u_star, a_tilde @ u_star)
    assert not reg
    assert np.allclose(u, u_star, atol=1e-9)
    for _ in range(200):
        w_dot = rng.normal(0, 30, 6)
        u, _ = solve(a_tilde, w_inv, u_star, w_dot)
        assert np.linalg.norm(a_tilde @ u - w_dot) < 1e-9


def test_weighted_optimality_null_space():
    m, a, alpha, omega = _hover_setup()
    a_tilde = _a_tilde(m, omega, alpha)
    w_inv = np.concatenate([np.ones(m.n_rotors), np.full(m.n_arms, 1e-3)])
    w_cost = 1.0 / w_inv
    rng = np.random.default_rng(23)
    _, _, vt = np.linalg.svd(a_tilde)
    null_basis = vt[6:].T
    for _ in range(200):
        u_star = rng.normal(size=18)
        w_dot = rng.normal(0, 20, 6)
        u, _ = solve(a_tilde, w_inv, u_star, w_dot)
        j0 = (u - u_star) @ (w_cost * (u - u_star))
        z = null_basis @ rng.normal(size=12)
        for eps in (1e-3, 1e-2):
            u_pert = u + eps * z
            j_pert = (u_pert - u_star) @ (w_cost * (u_pert - u_star))
            assert j_pert >= j0 - 1e-9 * max(j0, 1.0)


def test_k_alpha_monotonicity():
    m, a, alpha, omega = _hover_setup()
    a_tilde = _a_tilde(m, omega, alpha)
    rng = np.random.default_rng(24)
    w_dots = rng.normal(0, 20, (20, 6))
    for w_dot in w_dots:
        norms = []
        for k_alpha in (1.0, 10.0, 100.0, 1000.0, 10000.0):
            w_inv = np.concatenate([np.ones(m.n_rotors), np.full(m.n_arms, 1.0 / k_alpha)])
            u, _ = solve(a_tilde, w_inv, np.zeros(18), w_dot)
            norms.append(np.linalg.norm(u[m.n_rotors:]))
        assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))


def test_regularized_flag_near_rank_loss():
    m, a, _, _ = _hover_setup()
    # all rotors stopped and all tilts identical: the Jacobian loses rank
    a_tilde = _a_tilde(m, np.zeros(m.n_rotors), np.zeros(m.n_arms))
    w_inv = np.ones(18)
    u, reg = solve(a_tilde, w_inv, np.zeros(18), np.array([1.0, 0, 0, 0, 0, 0]))
    assert reg
    assert np.all(np.isfinite(u))


def test_kinematic_singularity_finite_rates():
    # zero lateral demand: tilt angles not uniquely defined statically, but
    # the differential solve stays finite
    m, a, alpha, omega = _hover_setup()
    a_tilde = _a_tilde(m, omega, alpha)
    w_inv = np.concatenate([np.ones(m.n_rotors), np.full(m.n_arms, 1e-3)])
    u, _ = solve(a_tilde, w_inv, np.zeros(18), np.array([0, 0, 5.0, 0, 0, 0]))
    assert np.all(np.isfinite(u))
    assert np.linalg.norm(u) < 1e4


def test_optimal_targets_fixed_point():
    m, a, alpha, omega = _hover_setup()
    wrench = a @ omega_tilde(omega**2, alpha, m.arm_of_rotor)
    alpha_star, omega_star, u_star = optimal_targets(m, a, alpha, omega, wrench,
                                                     AllocationConfig())
    assert np.allclose(alpha_star, 0.0, atol=1e-9)
    assert np.allclose(omega_star, omega_star[0])
    assert np.allclose(u_star, 0.0)


def test_optimal_targets_branch_unwinds():
    m, a, alpha, omega = _hover_setup()
    wrench = a @ omega_tilde(omega**2, alpha, m.arm_of_rotor)
    alpha_c = alpha.copy()
    alpha_c[0] = 2.0 * np.pi
    _, _, u_star = optimal_targets(m, a, alpha_c, omega, wrench, AllocationConfig())
    assert u_star[m.n_rotors] == -1.0    # arm 0 unwinds toward 0 at v_alpha


def test_optimal_targets_omega_sign():
    m, a, alpha, omega = _hover_setup()
    wrench = a @ omega_tilde(omega**2, alpha, m.arm_of_rotor)
    slow = omega - 50.0
    _, _, u_star = optimal_targets(m, a, alpha, slow, wrench, AllocationConfig())
    assert np.allclose(u_star[:m.n_rotors], 250.0)


def test_alpha_bias_disabled_and_colinear():
    dirs = np.tile([0.0, 0.0, 1.0], (6, 1))
    mags = np.ones(6)
    assert np.allclose(alpha_bias(dirs, mags, BiasConfig(enabled=False)), 0.0)
    bias = alpha_bias(dirs, mags, BiasConfig(enabled=True, delta=0.15))
    assert np.allclose(np.abs(bias), 0.15)
    assert np.allclose(bias, 0.15 * (-1.0) ** np.arange(6))
    # diverse directions: no bias
    rng = np.random.default_rng(25)
    dirs = rng.normal(size=(6, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert np.allclose(alpha_bias(dirs, mags, BiasConfig(enabled=True)), 0.0)


def _unit(v):
    return v / np.linalg.norm(v)


def _bias_case(rng, kind, cfg):
    """(thrust directions, magnitudes) of one random arm set of a given kind."""
    n = int(rng.integers(3, 9))
    base = _unit(rng.normal(size=3))
    perp = _unit(np.cross(base, rng.normal(size=3)))
    mags = rng.uniform(0.5, 2.0, n)
    if kind == "diverse":
        dirs = np.array([_unit(rng.normal(size=3)) for _ in range(n)])
    elif kind == "near":
        # Within the tolerance of one axis, either way along it.
        angles = rng.uniform(0.0, 0.45 * cfg.colinearity_tol, n)
        signs = rng.choice([-1.0, 1.0], n)
        dirs = signs[:, None] * (np.cos(angles)[:, None] * base + np.sin(angles)[:, None] * perp)
    else:
        # One pair at the tolerance +- 1e-9 rad, the other arms along the axis.
        angle = cfg.colinearity_tol + (1e-9 if kind == "above" else -1e-9)
        dirs = np.tile(base, (n, 1))
        dirs[int(rng.integers(n))] = np.cos(angle) * base + np.sin(angle) * perp
    if rng.random() < 0.5:
        mags[rng.random(n) < 0.3] = 0.0
    if rng.random() < 0.1:
        mags[:] = 0.0
        mags[int(rng.integers(n))] = rng.choice([0.0, 1.0])   # fewer than two active
    return dirs, mags


def test_alpha_bias_matches_the_pairwise_oracle():
    rng = np.random.default_rng(29)
    outcomes = {}
    for k in range(600):
        kind = ("diverse", "near", "above", "below")[k % 4]
        cfg = BiasConfig(enabled=k % 50 != 7, delta=0.15,
                         colinearity_tol=float(rng.choice([0.1, 0.05, 0.3])))
        dirs, mags = _bias_case(rng, kind, cfg)
        got = alpha_bias(dirs, mags, cfg)
        assert got.tobytes() == alpha_bias_loop(dirs, mags, cfg).tobytes()
        outcomes.setdefault(kind, set()).add(bool(got.any()))
    # Every kind but the diverse one sees both outcomes (masked arms can
    # leave a set without a non-colinear pair).
    assert outcomes["diverse"] >= {False}
    assert all(outcomes[kind] == {False, True} for kind in ("near", "above", "below"))


def test_stacked_alpha_bias_equals_the_row_calls():
    rng = np.random.default_rng(43)
    cfg = BiasConfig(enabled=True, delta=0.15)
    by_count = {}
    for k in range(400):
        dirs, mags = _bias_case(rng, ("diverse", "near", "above", "below")[k % 4], cfg)
        by_count.setdefault(len(mags), []).append((dirs, mags))
    for rows in by_count.values():
        rows = rows[:2 * (len(rows) // 2)]
        dirs = np.stack([d for d, _ in rows]).reshape(2, -1, len(rows[0][1]), 3)
        mags = np.stack([g for _, g in rows]).reshape(2, -1, len(rows[0][1]))
        want = np.array([alpha_bias(d, g, cfg) for d, g in rows]).reshape(mags.shape)
        assert alpha_bias(dirs, mags, cfg).tobytes() == want.tobytes()
        assert want.tobytes() == np.array([alpha_bias_loop(d, g, cfg) for d, g in rows]).tobytes()
        assert np.any(want) and not np.all(want)
        off = alpha_bias(dirs, mags, BiasConfig())
        assert off.shape == mags.shape and not off.any()


def test_bias_restores_conditioning_and_wrench():
    m, a, alpha, omega = _hover_setup()
    wrench = a @ omega_tilde(omega**2, alpha, m.arm_of_rotor)
    cfg = AllocationConfig()
    alpha_plain, _, _ = optimal_targets(m, a, alpha, omega, wrench, cfg)
    alpha_biased, _, _ = optimal_targets(m, a, alpha, omega, wrench, cfg,
                                         BiasConfig(enabled=True))
    k_plain = condition_number(instantaneous_allocation(a, alpha_plain, m.arm_of_rotor))
    k_biased = condition_number(instantaneous_allocation(a, alpha_biased, m.arm_of_rotor))
    assert np.log(k_plain) > 30.0 or np.isinf(k_plain)
    assert np.log(k_biased) < 10.0
    # wrench still reachable at the biased tilt angles within speed limits
    a_inst = instantaneous_allocation(a, alpha_biased, m.arm_of_rotor)
    omega_sq, *_ = np.linalg.lstsq(a_inst, wrench, rcond=None)
    assert np.linalg.norm(a_inst @ omega_sq - wrench) < 1e-8
    assert omega_sq.min() >= 0.0
    assert np.sqrt(omega_sq.max()) <= m.rotor.omega_max


def test_saturate_integrate():
    m = prototype_morphology()
    alpha_prev = np.zeros(m.n_arms)
    omega_prev = np.full(m.n_rotors, 700.0)
    u = np.concatenate([np.full(m.n_rotors, 100.0), np.full(m.n_arms, 0.5)])
    cmd = saturate_integrate(u, m, 0.01, alpha_prev, omega_prev)
    assert np.allclose(cmd.omega_ref, 701.0)
    assert np.allclose(cmd.alpha_ref, 0.005)
    # clamping at the limits
    u = np.concatenate([np.full(m.n_rotors, 2 * m.tilt.omega_accel_max),
                        np.full(m.n_arms, 2 * m.tilt.alpha_rate_max)])
    cmd = saturate_integrate(u, m, 0.01, alpha_prev, omega_prev)
    assert np.allclose(cmd.u_tilde_sat[:m.n_rotors], m.tilt.omega_accel_max)
    assert np.allclose(cmd.u_tilde_sat[m.n_rotors:], m.tilt.alpha_rate_max)
    # repeated max-rate steps saturate at omega_max and hold
    omega = omega_prev.copy()
    for _ in range(400):
        cmd = saturate_integrate(u, m, 0.01, alpha_prev, omega)
        omega = cmd.omega_ref
    assert np.allclose(omega, m.rotor.omega_max)


def test_saturate_integrate_rejects_bad_dt():
    m = prototype_morphology()
    for dt in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"^dt must be a finite number > 0"):
            saturate_integrate(np.zeros(18), m, dt, np.zeros(6), np.zeros(12))


def test_condition_scan_targets():
    m = prototype_morphology()
    off = condition_scan(m, bias_on=False, n_dirs=320)
    on = condition_scan(m, bias_on=True, n_dirs=320)
    assert off["max_log_kappa"] >= 30.0
    assert on["max_log_kappa"] <= 10.0


def test_condition_scan_rejects_a_fractional_direction_count():
    with pytest.raises(ValueError, match="n_dirs"):
        condition_scan(prototype_morphology(), n_dirs=100.5)


def test_condition_scan_scale_invariance():
    # doubling rotor speeds leaves kappa unchanged (SVD homogeneity)
    m = prototype_morphology()
    a = static_allocation(m)
    a_inst = instantaneous_allocation(a, np.full(6, 0.2), m.arm_of_rotor)
    assert np.isclose(condition_number(a_inst), condition_number(a_inst * 4.0))


def test_allocator_holds_hover():
    m = prototype_morphology()
    alloc = DifferentialAllocator(m)
    alpha, omega = hover_trim(m)
    alloc.set_commands(alpha, omega)
    w0 = alloc.wrench
    out = alloc.step(np.zeros(6), 0.01)
    assert np.allclose(alloc.wrench, w0, atol=1e-9)
    assert out["residual"] < 1e-9


def test_held_wrench_is_the_wrench_of_the_held_commands():
    m, _, alpha, omega = _hover_setup()
    alloc = DifferentialAllocator(m, bias=BiasConfig(enabled=True), unwind=True)

    def assert_held():
        a_alpha = instantaneous_allocation(alloc.a, alloc.alpha_cmd, m.arm_of_rotor)
        assert alloc.a_alpha.tobytes() == a_alpha.tobytes()
        assert alloc.wrench.tobytes() == (alloc.a_alpha @ alloc.omega_cmd**2).tobytes()

    assert_held()
    alloc.set_commands(alpha + 2.0 * np.pi * (np.arange(m.n_arms) % 2), omega)
    assert_held()
    for w_dot in (np.zeros(6), np.array([3.0, -1.0, 8.0, 0.2, -0.4, 0.1])):
        out = alloc.step(w_dot, 0.01)
        assert out["command"].alpha_ref.tobytes() == alloc.alpha_cmd.tobytes()
        assert out["command"].omega_ref.tobytes() == alloc.omega_cmd.tobytes()
        assert_held()
        assert out["kappa"] == condition_number(alloc.a_alpha)


def test_condition_scan_bias_on_switches_a_given_bias_config():
    m = prototype_morphology()
    # bias_on alone switches the bias; the config supplies delta and tolerance.
    on = condition_scan(m, bias_on=True, n_dirs=100, bias_cfg=BiasConfig(delta=0.2))
    assert np.isfinite(on["max_log_kappa"]) and on["max_log_kappa"] <= 10.0
    off = condition_scan(m, bias_on=False, n_dirs=100)
    forced_off = condition_scan(m, bias_on=False, n_dirs=100, bias_cfg=BiasConfig(enabled=True))
    assert forced_off["log_kappa"].tobytes() == off["log_kappa"].tobytes()
    default_on = condition_scan(m, bias_on=True, n_dirs=100)
    assert default_on["log_kappa"].tobytes() != on["log_kappa"].tobytes()


def test_condition_scan_equals_the_per_direction_loop():
    # One stacked pass through the tick's functions, byte-equal to calling
    # them once per direction.
    rng = np.random.default_rng(47)
    cases = [(prototype_morphology(), {}),
             (prototype_morphology(), {"hover_dir": (0.6, 0.0, 0.8), "extra_force_mag": 12.5})]
    for k in range(8):
        hover_dir = rng.normal(size=3)
        cases.append((random_morphology(rng),
                      {"hover_dir": hover_dir / np.linalg.norm(hover_dir),
                       "extra_force_mag": rng.uniform(0.0, 60.0)} if k % 2 else {}))
    for m, kwargs in cases:
        for bias_on in (False, True):
            scan = condition_scan(m, bias_on=bias_on, **kwargs)
            want = condition_scan_loop(m, scan["directions"],
                                       bias_cfg=BiasConfig(enabled=bias_on), **kwargs)
            assert scan["log_kappa"].tobytes() == want.tobytes()


def test_unwinding_gates_match_the_per_arm_loop():
    rng = np.random.default_rng(53)
    for trial in range(300):
        m = random_morphology(rng)
        alloc = DifferentialAllocator(m, unwind=True)
        # Rotor speeds on both sides of the spin-down (+1) and tilt (+50) gates.
        offsets = rng.choice([0.0, 0.9, 1.1, 45.0, 49.9, 50.1, 500.0], m.n_rotors)
        speeds = m.rotor.omega_min + offsets
        alloc.set_commands(rng.uniform(-3.0, 3.0, m.n_arms), speeds)
        alloc._unwind_active[:] = rng.random(m.n_arms) < 0.4
        gaps = rng.choice([0.0, 0.01, 0.1, 0.5, 2.0], m.n_arms) * rng.choice([-1.0, 1.0], m.n_arms)
        u_star = rng.choice([-1.0, 0.0, 1.0], m.n_rotors + m.n_arms)
        u_star[:m.n_rotors] *= 250.0
        w_dot = rng.normal(0.0, 8.0 if trial % 2 else 1.0, 6)
        oracle = copy.deepcopy(alloc)
        want = schedule_unwinding_loop(oracle, alloc.alpha_cmd + gaps, u_star, w_dot)
        got = alloc._schedule_unwinding(alloc.alpha_cmd + gaps, u_star, w_dot)
        assert got.tobytes() == want.tobytes()
        assert alloc._unwind_active.tobytes() == oracle._unwind_active.tobytes()
