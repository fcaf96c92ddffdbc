import runpy
from pathlib import Path

import numpy as np

from tiltmav.mass_model import MassModel, compute_mass_inertia, default_mass_model
from tiltmav.vehicle import ArmGeometry, evenly_spaced_arms

from oracles import mass_inertia_loop

SCRIPT = Path(__file__).parents[1] / "scripts" / "calibrate_mass_model.py"


def _arms(betas=0.0, length=0.3):
    return evenly_spaced_arms(6, length, betas=betas)


def test_array_form_equals_the_per_arm_loop():
    # The stacked form keeps the loop's arithmetic, so they agree bit for bit.
    rng = np.random.default_rng(9)
    mm = default_mass_model()
    for _ in range(300):
        arms = [ArmGeometry(gamma=rng.uniform(0.0, 2.0 * np.pi), theta=rng.uniform(-1.5, 1.5),
                            beta=rng.uniform(-1.5, 1.5), length=rng.uniform(0.1, 0.5))
                for _ in range(int(rng.integers(3, 9)))]
        mass, j = compute_mass_inertia(arms, mm)
        mass_ref, j_ref = mass_inertia_loop(arms, mm)
        assert mass == mass_ref and np.array_equal(j, j_ref)


def test_degenerate_geometry_reduces_to_core():
    mm = default_mass_model()
    tiny = MassModel(**{**mm.__dict__,
                        "m_tube_per_m": 1e-12, "m_rotor_group": 1e-12})
    arms = _arms(length=1e-9)
    mass, j = compute_mass_inertia(arms, tiny)
    m_core = tiny.m_core_const + 6 * tiny.m_arm_actuation
    expected = np.diag([
        m_core * (3 * tiny.r_core**2 + tiny.h_core**2) / 12.0,
        m_core * (3 * tiny.r_core**2 + tiny.h_core**2) / 12.0,
        0.5 * m_core * tiny.r_core**2,
    ])
    assert np.isclose(mass, m_core, rtol=1e-9)
    assert np.allclose(j, expected, rtol=1e-6)


def test_flat_hex_perpendicular_axis_ratio():
    # Arm-dominated planar mass distribution gives J_zz ~ 2 J_xx.
    mm = default_mass_model()
    heavy_arms = MassModel(**{**mm.__dict__, "m_core_const": 1e-6,
                              "m_arm_actuation": 1e-7, "r_core": 1e-3,
                              "h_core": 1e-3, "m_rotor_group": 0.4})
    _, j = compute_mass_inertia(_arms(), heavy_arms)
    assert abs(j[2, 2] / j[0, 0] - 2.0) < 0.05


def test_calibrated_defaults_hit_paper_targets():
    mm = default_mass_model()
    mass, j = compute_mass_inertia(_arms(), mm)
    assert abs(mass - 4.0) < 1e-6
    assert abs(j[0, 0] - 0.0725) < 1e-6
    assert abs(j[1, 1] - 0.0725) < 1e-6
    assert abs(j[2, 2] - 0.1439) < 1e-6
    assert np.abs(j - np.diag(np.diag(j))).max() < 1e-9


def test_calibration_script_matches_frozen_defaults():
    fresh = runpy.run_path(str(SCRIPT))["calibrate_mass_model"]()
    frozen = default_mass_model()
    for name in frozen.__dataclass_fields__:
        assert np.isclose(getattr(fresh, name), getattr(frozen, name), rtol=1e-6)


def test_calibration_script_prints_the_calibrated_model(capsys):
    runpy.run_path(str(SCRIPT))["main"]()
    out = capsys.readouterr().out
    assert "Calibrated MassModel(" in out
    assert "check: mass = 4.000000 kg" in out


def test_tilted_pattern_moves_inertia_toward_isotropy():
    mm = default_mass_model()
    betas = np.deg2rad(35.26) * (-1.0) ** np.arange(6)
    mass, j = compute_mass_inertia(_arms(betas=betas), mm)
    assert np.isclose(mass, 4.0, atol=1e-6)       # mass independent of angles
    _, j_flat = compute_mass_inertia(_arms(), mm)
    assert j[0, 0] > j_flat[0, 0]
    assert j[2, 2] < j_flat[2, 2]
    # products of inertia stay negligible for the alternating pattern
    assert np.abs(j - np.diag(np.diag(j))).max() < 1e-3 * j[2, 2]
