import numpy as np
import pytest

from tiltmav.rigid_body import RigidBodyState, com_torque
from tiltmav.vehicle import GRAVITY, RigidBodyParams

from oracles import accelerations, kinetic_energy, tilt_step


def _params(mass=2.0, j=(1.0, 2.0, 3.0)):
    return RigidBodyParams(mass=mass, inertia=np.diag(j))


def test_hover_equilibrium():
    p = _params()
    a_w, psi = accelerations(np.eye(3), np.zeros(3), np.array([0.0, 0.0, p.mass * GRAVITY]),
                             np.zeros(3), p)
    assert np.allclose(a_w, 0.0, atol=1e-12)
    assert np.allclose(psi, 0.0)


def test_free_fall_sign_convention():
    p = _params()
    a_w, _ = accelerations(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), p)
    assert np.allclose(a_w, [0.0, 0.0, -GRAVITY])


def test_euler_equations_hand_value():
    p = _params()
    _, psi = accelerations(np.eye(3), np.ones(3), np.zeros(3), np.zeros(3), p)
    assert np.allclose(psi, [-1.0, 1.0, -1.0 / 3.0])


def test_accelerations_world_frame():
    p = _params()
    a_w, psi = accelerations(np.eye(3), np.zeros(3), np.array([0, 0, p.mass * GRAVITY]),
                             np.array([0.3, 0, 0]), p)
    assert np.allclose(a_w, 0.0, atol=1e-12)
    assert np.allclose(psi, [0.3, 0, 0])


def test_com_torque_subtracts_the_thrust_moment():
    p = RigidBodyParams(mass=2.0, inertia=np.eye(3), r_com=[0.02, 0.0, 0.0])
    # 10 N of thrust along z at the origin, CoM 2 cm along +x: the thrust
    # pitches the body about the CoM by -(r_com x f) = (0, 0.2, 0) N m.
    tau_c = com_torque(np.array([0.0, 0.0, 10.0]), np.zeros(3), p)
    assert np.allclose(tau_c, [0.0, 0.2, 0.0])


def test_tilt_step_initial_rate():
    # alphadot(0) = (ref - alpha)/tau = 5 rad/s for ref 1, tau 0.2.
    dt = 1e-7
    nxt = tilt_step(np.array([0.0]), np.array([1.0]), 0.2, dt)
    assert np.isclose((nxt[0] - 0.0) / dt, 5.0, rtol=1e-5)


def test_tilt_step_fixed_point_and_asymptote():
    ref = np.array([0.4])
    assert np.allclose(tilt_step(ref, ref, 0.2, 0.01), ref)
    assert np.allclose(tilt_step(np.array([0.0]), ref, 0.2, 1e3), ref)


def test_tilt_step_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        tilt_step(np.zeros(1), np.zeros(1), 0.2, 0.0)


def test_kinetic_energy():
    p = _params()
    state = RigidBodyState(v=np.array([1.0, 0, 0]), omega=np.array([0, 1.0, 0]))
    assert np.isclose(kinetic_energy(state, p), 0.5 * 2.0 + 0.5 * 2.0)
