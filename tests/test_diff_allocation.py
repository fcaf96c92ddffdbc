import numpy as np
import pytest

from tiltmav.allocation import (condition_number, instantaneous_allocation,
                                static_allocation)
from tiltmav.diff_allocation import (AllocationConfig, BiasConfig,
                                     DifferentialAllocator, alpha_bias,
                                     build_diff_allocation, condition_scan,
                                     exact_wrench_rate, optimal_targets,
                                     saturate_integrate, solve)
from tiltmav.rigid_body import RigidBodyState
from tiltmav.sim import hover_trim
from tiltmav.vehicle import RigidBodyParams, prototype_morphology

from oracles import omega_tilde


def _hover_setup():
    m = prototype_morphology()
    a = static_allocation(m)
    alpha, omega = hover_trim(m)
    return m, a, alpha, omega


def test_jacobian_finite_difference():
    m, a, _, _ = _hover_setup()
    rng = np.random.default_rng(21)
    omega_c = rng.uniform(300, 1000, m.n_rotors)
    alpha_c = rng.uniform(-1, 1, m.n_arms)
    a_tilde, _ = build_diff_allocation(a, omega_c, alpha_c, m.arm_of_rotor)
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


def test_omega_zero_columns_vanish():
    m, a, alpha, _ = _hover_setup()
    a_tilde, _ = build_diff_allocation(a, np.zeros(m.n_rotors), alpha, m.arm_of_rotor)
    assert np.abs(a_tilde[:, :m.n_rotors]).max() == 0.0


def test_alpha_column_at_hover_is_lateral_only():
    m, a, alpha, omega = _hover_setup()
    a_tilde, _ = build_diff_allocation(a, omega, alpha, m.arm_of_rotor)
    col = a_tilde[:, m.n_rotors]    # first arm's tilt-rate column
    assert abs(col[2]) < 1e-12      # no f_z coupling at alpha = 0
    assert np.linalg.norm(col[:2]) > 0.0


def test_build_rejects_negative_speed():
    m, a, alpha, _ = _hover_setup()
    with pytest.raises(ValueError):
        build_diff_allocation(a, -np.ones(m.n_rotors), alpha, m.arm_of_rotor)


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
    a_tilde, _ = build_diff_allocation(a, omega, alpha, m.arm_of_rotor)
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
    a_tilde, _ = build_diff_allocation(a, omega, alpha, m.arm_of_rotor)
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
    a_tilde, _ = build_diff_allocation(a, omega, alpha, m.arm_of_rotor)
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
    a_tilde, _ = build_diff_allocation(a, np.zeros(m.n_rotors), np.zeros(m.n_arms),
                                       m.arm_of_rotor)
    w_inv = np.ones(18)
    u, reg = solve(a_tilde, w_inv, np.zeros(18), np.array([1.0, 0, 0, 0, 0, 0]))
    assert reg
    assert np.all(np.isfinite(u))


def test_kinematic_singularity_finite_rates():
    # zero lateral demand: tilt angles not uniquely defined statically, but
    # the differential solve stays finite
    m, a, alpha, omega = _hover_setup()
    a_tilde, _ = build_diff_allocation(a, omega, alpha, m.arm_of_rotor)
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
    with pytest.raises(ValueError):
        saturate_integrate(np.zeros(18), m, 0.0, np.zeros(6), np.zeros(12))


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
    w0 = alloc.current_wrench()
    out = alloc.step(np.zeros(6), 0.01)
    assert np.allclose(alloc.current_wrench(), w0, atol=1e-9)
    assert out["residual"] < 1e-9
