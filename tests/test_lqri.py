import itertools

import numpy as np
import pytest

from tiltmav.diff_allocation import exact_wrench_rate
from tiltmav.lqri import (LqriController, LqriGains, Q_GAINS, compute_error_state,
                          linearized_system, stability_rhs, STABILITY_COEFF)
from tiltmav.riccati import CareError, lqr_gain, solve_care
from tiltmav.rigid_body import RigidBodyState
from tiltmav.so3 import rot_x
from tiltmav.trajectory import TrajectorySample
from tiltmav.vehicle import RigidBodyParams


def _ref(**kw):
    base = dict(t=0.0, p=np.zeros(3), v=np.zeros(3), a=np.zeros(3), j=np.zeros(3),
                r_wb=np.eye(3), omega_b=np.zeros(3), psi_b=np.zeros(3),
                zeta_b=np.zeros(3))
    base.update(kw)
    return TrajectorySample(**base)


def test_linearized_system_structure():
    a, b = linearized_system()
    eye = np.eye(3)
    blocks = {(0, 2), (1, 0), (2, 3), (4, 6), (5, 4), (6, 7)}
    count = 0
    for i in range(8):
        for j in range(8):
            blk = a[3 * i:3 * i + 3, 3 * j:3 * j + 3]
            if (i, j) in blocks:
                assert np.array_equal(blk, eye)
                count += 1
            else:
                assert not blk.any()
    assert count == 6
    assert np.array_equal(b[9:12, 0:3], eye)
    assert np.array_equal(b[21:24, 3:6], eye)
    assert b.sum() == 6.0


def test_chain_action():
    a, _ = linearized_system()
    e = np.zeros(24)
    e[6:9] = [1.0, 2.0, 3.0]   # e_v only
    de = a @ e
    assert np.allclose(de[0:3], [1.0, 2.0, 3.0])   # e_p_dot = e_v
    assert np.allclose(np.delete(de, [0, 1, 2]), 0.0)


def test_controllability():
    a, b = linearized_system()
    kalman = np.concatenate([np.linalg.matrix_power(a, k) @ b for k in range(24)], axis=1)
    assert np.linalg.matrix_rank(kalman) == 24


def test_table_gains_give_hurwitz_loop():
    a, b = linearized_system()
    q, r = LqriGains().weight_matrices()
    p = solve_care(a, b, q, r)
    k = lqr_gain(p, b, r)
    assert np.linalg.eigvals(a - b @ k).real.max() < 0.0


def test_gain_sign_pattern():
    a, b = linearized_system()
    q, r = LqriGains().weight_matrices()
    k = lqr_gain(solve_care(a, b, q, r), b, r)
    e = np.zeros(24)
    e[0] = 1.0                   # +x position error
    u = -k @ e
    assert u[0] < 0.0            # jerk pushes back


def test_lqri_control_linearity():
    ctrl = LqriController()
    e = np.random.default_rng(0).normal(size=24)
    u1 = -ctrl.k @ e
    u2 = -ctrl.k @ (2.0 * e)
    assert np.allclose(u2, 2.0 * u1)
    assert np.allclose(-ctrl.k @ np.zeros(24), 0.0)


def test_error_state_zero_at_reference():
    state = RigidBodyState()
    state.p = np.array([0.0, 0.0, 1.0])
    ref = _ref(p=np.array([0.0, 0.0, 1.0]))
    err, ei_p, ei_r = compute_error_state(state, ref, np.zeros(3), np.zeros(3),
                                          None, None, 0.01)
    assert np.allclose(err.vector(), 0.0)


def test_error_state_position_only():
    state = RigidBodyState()
    state.p = np.array([1.0, 0.0, 0.0])
    err, ei_p, _ = compute_error_state(RigidBodyState(p=np.array([1.0, 0, 0])),
                                       _ref(), np.zeros(3), np.zeros(3), None, None, 0.01)
    assert np.allclose(err.e_p, [1.0, 0.0, 0.0])
    assert np.allclose(err.e_v, 0.0)
    assert np.allclose(err.e_r, 0.0)
    assert np.allclose(ei_p, [0.01, 0.0, 0.0])    # trapezoid with equal ends


def test_error_state_attitude_example():
    state = RigidBodyState(r_wb=rot_x(np.pi / 2.0))
    err, _, _ = compute_error_state(state, _ref(), np.zeros(3), np.zeros(3),
                                    None, None, 0.01)
    assert np.allclose(err.e_r, [1.0, 0.0, 0.0], atol=1e-12)


def test_integrator_windup_clamp():
    state = RigidBodyState(p=np.array([1e3, 0, 0]), r_wb=rot_x(1.0))
    e_p_i, e_r_i = np.zeros(3), np.zeros(3)
    prev_p = prev_r = None
    for _ in range(100):
        err, e_p_i, e_r_i = compute_error_state(state, _ref(), e_p_i, e_r_i,
                                                prev_p, prev_r, 0.1)
        prev_p, prev_r = err.e_p, err.e_r
    assert np.abs(e_p_i).max() <= 2.0
    assert np.abs(e_r_i).max() <= 1.0


def test_hover_feedback_linearization_is_zero():
    params = RigidBodyParams(mass=4.27, inertia=np.diag([0.086, 0.088, 0.16]))
    st = RigidBodyState()
    out = LqriController().step(st, _ref(), 0.01)
    w_dot = exact_wrench_rate(out["j_w"], out["psi_dot"], st, params,
                              np.array([0.0, 0.0, 4.27 * 9.81, 0.0, 0.0, 0.0]))
    assert np.allclose(w_dot, 0.0)


def test_torque_rate_inertia_example():
    # r_com = 0, omega = psi = 0, refs zero: tau_dot = J u_bar[3:6]
    j = np.diag([0.1, 0.2, 0.3])
    params = RigidBodyParams(mass=2.0, inertia=j)
    st = RigidBodyState(r_wb=rot_x(0.1))     # attitude error only
    out = LqriController().step(st, _ref(), 0.01)
    u_bar = out["u"]
    assert np.abs(u_bar[3:]).max() > 0.0
    w_dot = exact_wrench_rate(out["j_w"], out["psi_dot"], st, params, np.zeros(6))
    assert np.allclose(w_dot[3:], j @ u_bar[3:])


def test_lyapunov_decrease():
    a, b = linearized_system()
    q, r = LqriGains().weight_matrices()
    p = solve_care(a, b, q, r)
    k = lqr_gain(p, b, r)
    a_cl = a - b @ k
    rng = np.random.default_rng(14)
    for _ in range(1000):
        e = rng.normal(size=24)
        v_dot = 2.0 * e @ p @ (a_cl @ e)
        assert v_dot < 0.0


def test_stability_condition():
    a, b = linearized_system()
    q, r = LqriGains().weight_matrices()
    p = solve_care(a, b, q, r)
    rhs = stability_rhs(q, r, p, b)
    assert rhs > 0.0

    def stab(state):
        return LqriController().step(state, _ref(), 0.01)["stab"]

    # Position error only: e_omega = 0 gives lhs = 0, and the test holds.
    lhs, rhs_ctrl, ok = stab(RigidBodyState(p=np.array([1.0, 0, 0])))
    assert lhs == 0.0 and ok and np.isclose(rhs_ctrl, rhs)
    # ||e_omega|| == ||e||: lhs equals the constant (3+sqrt2)/sqrt2
    lhs, _, _ = stab(RigidBodyState(omega=np.array([1.0, 0, 0])))
    assert np.isclose(lhs, STABILITY_COEFF)
    assert np.isclose(STABILITY_COEFF, 3.1213203435596424)
    # zero error counts as satisfied
    lhs, _, ok = stab(RigidBodyState())
    assert lhs == 0.0 and ok


def test_detectability_guard():
    with pytest.raises(ValueError):
        LqriController(LqriGains(k_p=0.0, k_p_i=0.0, k_v=0.0, k_a=0.0,
                                 k_r=0.0, k_r_i=0.0, k_omega=0.0, k_psi=0.0))


def test_gains_accept_exactly_the_solvable_zero_patterns():
    # Every zero/non-zero pattern of the eight Q gains: the gains are accepted
    # exactly when the CARE of the error dynamics has a stabilizing solution.
    a, b = linearized_system()
    _, r = LqriGains().weight_matrices()
    for pattern in itertools.product((0.0, 1.0), repeat=len(Q_GAINS)):
        try:
            solve_care(a, b, np.diag(np.repeat(pattern, 3)), r)
            solvable = True
        except CareError:
            solvable = False
        try:
            LqriGains(**dict(zip(Q_GAINS, pattern)))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == solvable, pattern


def test_controller_step_at_hover_outputs_zero():
    ctrl = LqriController()
    st = RigidBodyState(p=np.array([0.0, 0.0, 1.3]))
    ref = _ref(p=np.array([0.0, 0.0, 1.3]))
    out = ctrl.step(st, ref, 0.01)
    assert np.allclose(out["u"], 0.0)
    assert np.allclose(out["j_w"], 0.0, atol=1e-12)
    assert np.allclose(out["psi_dot"], 0.0, atol=1e-12)
    assert out["stab"][2]
