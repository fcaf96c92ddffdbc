import math

import numpy as np
import pytest

from tiltmav.pid import PidController, PidGains
from tiltmav.rigid_body import RigidBodyState
from tiltmav.so3 import rot_z
from tiltmav.trajectory import TrajectorySample


# Plain backward differencing, without the jerk slew limits.
UNLIMITED = dict(j_max_lin=math.inf, j_max_ang=math.inf)


def _ref(p=np.zeros(3)):
    return TrajectorySample(t=0.0, p=np.asarray(p, dtype=float), v=np.zeros(3),
                            a=np.zeros(3), j=np.zeros(3), r_wb=np.eye(3),
                            omega_b=np.zeros(3), psi_b=np.zeros(3), zeta_b=np.zeros(3))


def test_zero_error_gives_zero_jerk():
    ctrl = PidController()
    st = RigidBodyState()
    for _ in range(2):
        out = ctrl.step(st, _ref(), 0.01)
        assert np.allclose(out["u"], 0.0)


def test_constant_error_zero_jerk_after_first_step():
    ctrl = PidController(PidGains(k_p=5.0, k_p_i=0.0, k_v=0.0, **UNLIMITED))
    st = RigidBodyState(p=np.array([0.5, 0.0, 0.0]))
    out1 = ctrl.step(st, _ref(), 0.01)
    assert not np.allclose(out1["u"][:3], 0.0)
    out2 = ctrl.step(st, _ref(), 0.01)
    assert np.allclose(out2["u"][:3], 0.0)


def test_step_backward_difference_value():
    # error step of [1,0,0] with k_p = 5, dt = 0.01: delta a = 5 -> jerk 500
    ctrl = PidController(PidGains(k_p=5.0, k_p_i=0.0, k_v=0.0, **UNLIMITED))
    ctrl.step(RigidBodyState(), _ref(), 0.01)
    out = ctrl.step(RigidBodyState(), _ref(p=[1.0, 0.0, 0.0]), 0.01)
    assert np.allclose(out["u"][:3], [500.0, 0.0, 0.0], atol=1e-9)


def test_jerk_rotates_into_body_frame():
    r = rot_z(np.pi / 2.0)
    ctrl = PidController(PidGains(k_p=5.0, k_p_i=0.0, k_v=0.0, **UNLIMITED))
    st = RigidBodyState(r_wb=r)
    ctrl.step(st, _ref(), 0.01)
    out = ctrl.step(st, _ref(p=[1.0, 0.0, 0.0]), 0.01)
    # world jerk [500,0,0] seen from a yawed body is [0,-500,0]
    assert np.allclose(out["u"][:3], [0.0, -500.0, 0.0], atol=1e-9)


def test_jerk_is_exact_finite_difference_and_reproducible():
    def run_once():
        ctrl = PidController(PidGains(**UNLIMITED))
        rng = np.random.default_rng(3)
        a_hist, j_hist = [], []
        for _ in range(20):
            st = RigidBodyState(p=rng.normal(0, 0.1, 3), v=rng.normal(0, 0.1, 3))
            out = ctrl.step(st, _ref(), 0.01)
            a_hist.append(out["a_cmd"])
            j_hist.append(out["u"][:3])
        return np.array(a_hist), np.array(j_hist)

    a1, j1 = run_once()
    a2, j2 = run_once()
    assert np.array_equal(a1, a2) and np.array_equal(j1, j2)   # bitwise
    prev = np.zeros(3)
    for a_cmd, j in zip(a1, j1):
        assert np.array_equal((a_cmd - prev) / 0.01, j)
        prev = a_cmd


def test_slew_limit_preserves_command_level():
    ctrl = PidController(PidGains(k_p=5.0, k_p_i=0.0, k_v=0.0, j_max_lin=10.0))
    st = RigidBodyState(p=np.array([1.0, 0.0, 0.0]))   # target a = -5 (ref-state flips)
    applied = []
    for _ in range(80):
        out = ctrl.step(st, _ref(), 0.01)
        assert np.abs(out["u"][:3]).max() <= 10.0 + 1e-12
        applied.append(out["a_cmd"][0])
    assert np.isclose(applied[-1], -5.0, atol=1e-9)


def test_angular_slew_limit_preserves_command_level():
    # A body yawed by +0.5 rad asks for psi = -k_r sin(0.5) z, about -1.68 rad/s^2:
    # reached in 17 clamped steps of at most j_max_ang dt = 0.1, with no linear jerk.
    ctrl = PidController(PidGains(k_p=0.0, k_p_i=0.0, k_v=0.0, k_r=3.5, k_r_i=0.0,
                                  k_omega=0.0, j_max_ang=10.0))
    st = RigidBodyState(r_wb=rot_z(0.5))
    steps = [ctrl.step(st, _ref(), 0.01) for _ in range(40)]
    assert all(np.abs(out["u"][3:]).max() <= 10.0 + 1e-12 for out in steps)
    assert all(np.array_equal(out["u"][:3], np.zeros(3)) for out in steps)
    assert np.abs(steps[0]["u"][3:]).max() == 10.0
    assert np.allclose(steps[-1]["psi_cmd"], [0.0, 0.0, -3.5 * np.sin(0.5)], atol=1e-12)
    assert np.array_equal(steps[-1]["u"][3:], np.zeros(3))


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_step_rejects_a_non_positive_time_step(dt):
    ctrl = PidController()
    with pytest.raises(ValueError, match="dt must be positive"):
        ctrl.step(RigidBodyState(), _ref(), dt)
    assert np.array_equal(ctrl.e_p_i, np.zeros(3))


def test_reference_feedforward():
    ctrl = PidController()
    ref = _ref()
    ref.a = np.array([0.0, 0.0, 2.0])
    out = ctrl.step(RigidBodyState(), ref, 0.01)
    assert np.isclose(out["a_target"][2], 2.0)
