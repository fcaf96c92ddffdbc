import re

import numpy as np
import pytest

from tiltmav.vehicle import (ArmGeometry, Morphology, RigidBodyParams, RotorParams,
                             TiltParams, hexarotor, prototype_morphology)


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
        ArmGeometry(index=0, gamma=0.0, length=-0.1)
    with pytest.raises(ValueError):
        ArmGeometry(index=0, gamma=0.0, beta=2.0)
    with pytest.raises(ValueError):
        ArmGeometry(index=0, gamma=0.0, spins=(2, -1))


def test_min_arms():
    m = prototype_morphology()
    with pytest.raises(ValueError):
        Morphology(arms=m.arms[:2], rotor=m.rotor, tilt=m.tilt, body=m.body)


def test_arm_frame_geometry():
    arm = ArmGeometry(index=0, gamma=0.3, theta=0.1, beta=0.5)
    axis, lat, vert = arm.axis(), arm.lateral_dir(), arm.vertical_dir()
    # Orthonormal triad; lateral stays horizontal.
    for v in (axis, lat, vert):
        assert np.isclose(np.linalg.norm(v), 1.0)
    assert np.isclose(axis @ lat, 0.0, atol=1e-12)
    assert np.isclose(axis @ vert, 0.0, atol=1e-12)
    assert np.isclose(lat @ vert, 0.0, atol=1e-12)
    assert np.isclose(lat[2], 0.0)
    assert axis[2] > 0.0  # positive beta inclines the arm upward


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
