import re

import numpy as np
import pytest

from tiltmav.so3 import rot_y, rot_z
from tiltmav.vehicle import (ArmGeometry, Morphology, RigidBodyParams, RotorParams,
                             TiltParams, arm_frames, hexarotor, prototype_morphology)


def test_prototype_counts():
    m = prototype_morphology()
    assert m.n_arms == 6
    assert m.n_rotors == 12
    assert np.array_equal(m.arm_of_rotor, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5])


def test_spin_signs_alternate():
    m = prototype_morphology()
    spins = m.spins.reshape(6, 2)
    for i in range(6):
        assert spins[i, 0] == -spins[i, 1]
        if i > 0:
            assert spins[i, 0] == -spins[i - 1, 0]


def test_rotor_params_validation():
    with pytest.raises(ValueError):
        RotorParams(c_f=-1.0)
    with pytest.raises(ValueError):
        RotorParams(omega_min=100.0, omega_max=50.0)
    with pytest.raises(ValueError):
        RotorParams(rotors_per_arm=3)


def test_body_params_validation():
    with pytest.raises(ValueError):
        RigidBodyParams(mass=-1.0, inertia=np.eye(3))
    with pytest.raises(ValueError):
        RigidBodyParams(mass=1.0, inertia=np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        RigidBodyParams(mass=1.0, inertia=np.ones((3, 3)))


def test_arm_geometry_validation():
    with pytest.raises(ValueError):
        ArmGeometry(gamma=0.0, length=-0.1)
    with pytest.raises(ValueError):
        ArmGeometry(gamma=0.0, beta=2.0)
    with pytest.raises(ValueError):
        ArmGeometry(gamma=0.0, spins=(2, -1))


def test_min_arms():
    m = prototype_morphology()
    with pytest.raises(ValueError):
        Morphology(arms=m.arms[:2], rotor=m.rotor, tilt=m.tilt, body=m.body)


def test_arm_frame_geometry():
    thetas = [0.1, -0.2, 0.0, 0.3, -0.1, 0.05]
    betas = [0.5, -0.5, 0.2, -1.0, 0.0, 1.2]
    m = hexarotor(betas=betas, thetas=thetas)
    axis, lat, vert = m.arm_axes, m.lateral_dirs, m.vertical_dirs
    assert axis.shape == lat.shape == vert.shape == (6, 3)
    for i, arm in enumerate(m.arms):
        frame = np.column_stack([axis[i], -lat[i], vert[i]])
        # Orthonormal triad, the arm's rotation; lateral stays horizontal.
        assert np.allclose(frame.T @ frame, np.eye(3), atol=1e-12)
        assert np.allclose(frame, rot_z(arm.azimuth) @ rot_y(-arm.beta), atol=1e-15)
        assert lat[i, 2] == 0.0
        assert np.sign(axis[i, 2]) == np.sign(arm.beta)  # positive beta inclines it upward
    # One arm alone gets the frame it has in the whole morphology.
    for alone, whole in zip(arm_frames(m.arms[3:4]), (axis, lat, vert)):
        assert np.array_equal(alone[0], whole[3])


def test_json_roundtrip(tmp_path):
    m = hexarotor(betas=np.deg2rad([10, -10, 10, -10, 10, -10]), thetas=0.05)
    path = tmp_path / "morph.json"
    m.save(path)
    m2 = Morphology.load(path)
    assert m2.n_rotors == m.n_rotors
    for a, b in zip(m.arms, m2.arms):
        assert np.isclose(a.beta, b.beta) and np.isclose(a.theta, b.theta)
    assert np.allclose(m2.body.inertia, m.body.inertia)
    assert m2.rotor.c_f == m.rotor.c_f


def test_tilt_params_validation():
    with pytest.raises(ValueError):
        TiltParams(tau=-0.1)


def test_from_dict_accepts_diagonal_inertia():
    m = prototype_morphology()
    data = m.to_dict()
    data["body"]["J"] = [0.086, 0.088, 0.16]
    m2 = Morphology.from_dict(data)
    assert np.allclose(m2.body.inertia, np.diag([0.086, 0.088, 0.16]))


def test_from_dict_defaults_match_the_dataclasses():
    m = prototype_morphology()
    data = m.to_dict()
    del data["tilt"]["rate_limits"]
    del data["rotor"]["omega_min"], data["rotor"]["rotors_per_arm"]
    m2 = Morphology.from_dict(data)
    assert m2.tilt == m.tilt
    assert m2.rotor == m.rotor


@pytest.mark.parametrize("path", ["arms", "rotor", "rotor.c_f", "rotor.omega_max", "tilt.tau",
                                  "body.J", "body.m", "arms[2].gamma", "arms[0].spins"])
def test_from_dict_names_a_missing_key_by_path(path):
    data = prototype_morphology().to_dict()
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    section = data
    for p in parents:
        section = section[int(p)] if p.isdigit() else section[p]
    del section[key]
    with pytest.raises(ValueError, match=rf"missing required key {re.escape(path)}$"):
        Morphology.from_dict(data)
