import numpy as np
import pytest

from tiltmav import envelope as envelope_module
from tiltmav.design import DesignProblem, build_candidate
from tiltmav.envelope import (envelope, hover_sphere, icosphere, max_wrench_in_direction,
                              min_total_thrust, pinv_radii)
from tiltmav.vehicle import GRAVITY, RotorParams, hexarotor, prototype_morphology

from oracles import max_wrench_alpha_grid, min_thrusts_linprog, optimal_radii_linprog


def _parity_morphology(name):
    if name == "prototype":
        return prototype_morphology()
    if name == "flat_hex":
        return hexarotor(body=prototype_morphology().body)
    theta, beta = np.random.default_rng(7).uniform(-0.6, 0.6, size=(2, 6))
    return build_candidate(DesignProblem(), theta, beta)


PARITY_CASES = [(name, mode) for name in ("prototype", "candidate", "flat_hex")
                for mode in ("force", "torque")]


def test_icosphere_counts():
    verts, faces = icosphere(0)
    assert verts.shape == (12, 3) and faces.shape == (20, 3)
    verts, faces = icosphere(3)
    assert faces.shape == (1280, 3)
    assert np.allclose(np.linalg.norm(verts, axis=1), 1.0)


def test_synthetic_sphere_volume(monkeypatch):
    m = prototype_morphology()
    rho = 2.5
    monkeypatch.setattr("tiltmav.envelope.pinv_radii",
                        lambda m, dirs, **kw: (np.full(len(dirs), rho), np.ones(len(dirs))))
    metrics = envelope(m, n_dirs=1280)
    exact = 4.0 / 3.0 * np.pi * rho**3
    assert abs(metrics.volume - exact) / exact < 0.02
    assert metrics.min == metrics.max == rho


def test_thrust_budget_along_z():
    m = prototype_morphology()
    expected = 12 * m.rotor.c_f * m.rotor.omega_max**2
    val = max_wrench_in_direction(m, [0.0, 0.0, 1.0])
    assert abs(val - expected) < 1e-6
    # tilt symmetry alpha -> pi - alpha
    val_down = max_wrench_in_direction(m, [0.0, 0.0, -1.0])
    assert abs(val_down - expected) < 1e-6


def test_rotational_symmetry_of_radial_values():
    m = prototype_morphology()
    from tiltmav.so3 import rot_z
    d = np.array([0.8, 0.1, 0.59160798])
    d /= np.linalg.norm(d)
    v1 = max_wrench_in_direction(m, d)
    v2 = max_wrench_in_direction(m, rot_z(np.pi / 3.0) @ d)
    assert abs(v1 - v2) / v1 < 1e-6


def test_optimal_matches_alpha_grid_oracle():
    # 3 dual-rotor arms keep the oracle grid tractable.
    m = hexarotor()
    from tiltmav.vehicle import Morphology, evenly_spaced_arms
    m3 = Morphology(arms=evenly_spaced_arms(3, m.arms[0].length), rotor=m.rotor,
                    tilt=m.tilt, body=m.body)
    for d in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8]):
        mine = max_wrench_in_direction(m3, d)
        oracle = max_wrench_alpha_grid(m3, d, n_grid=12, refine=2)
        assert abs(mine - oracle) / max(oracle, 1e-12) < 0.01, (d, mine, oracle)


@pytest.mark.parametrize("name,mode", PARITY_CASES)
def test_optimal_sweep_matches_cold_linprog_oracle(name, mode):
    # The sweep re-solves one warm model; every 8th direction is checked
    # against a cold linprog solve of the same polygonal LP.
    m = _parity_morphology(name)
    lever = 1.0 if mode == "force" else m.arms[0].length
    hover = m.body.mass * GRAVITY * np.array([0.0, 0.0, 1.0]) if mode == "torque" else None
    metrics = envelope(m, mode, n_dirs=320, hover_force=hover, allocation="optimal")
    dirs = metrics.directions[::8]
    values, eta = metrics.values[::8], metrics.eta[::8]
    oracle, vertex_eta = optimal_radii_linprog(m, dirs, mode, hover)
    assert np.all(oracle > 0.0)
    assert np.max(np.abs(values - oracle) / oracle) < 1e-9
    # eta is defined by the least thrust that attains lambda*d (plus hover),
    # so it is never below the index read off any optimal vertex.
    wrenches = np.zeros((len(dirs), 6))
    wrenches[:, :3] = 0.0 if hover is None else hover
    wrenches[:, slice(0, 3) if mode == "force" else slice(3, 6)] += values[:, None] * dirs
    least = min_thrusts_linprog(m, wrenches, n_vertices=64)
    assert np.max(np.abs(eta - np.minimum(values / (lever * least), 1.0))) < 1e-9
    assert np.all(eta >= vertex_eta - 1e-9)


@pytest.mark.parametrize("name,mode", PARITY_CASES)
def test_optimal_sweep_is_order_independent(name, mode):
    m = _parity_morphology(name)
    hover = m.body.mass * GRAVITY * np.array([0.0, 0.0, 1.0]) if mode == "torque" else None
    dirs = envelope_module.sample_directions(320)[0]
    n_vertices = envelope_module._SWEEP_VERTICES
    values, eta = envelope_module._optimal_radii(m, dirs, mode, hover, n_vertices)
    rev_values, rev_eta = envelope_module._optimal_radii(m, dirs[::-1], mode, hover, n_vertices)
    assert np.max(np.abs(rev_values[::-1] - values) / values) < 1e-9
    assert np.max(np.abs(rev_eta[::-1] - eta)) < 1e-9


@pytest.mark.parametrize("name", ["prototype", "candidate", "flat_hex"])
def test_hover_sphere_matches_cold_linprog_oracle(name):
    m = _parity_morphology(name)
    sphere = hover_sphere(m, n_dirs=320)
    mg = m.body.mass * GRAVITY
    dirs = sphere["directions"][::8]
    least = min_thrusts_linprog(m, np.concatenate([mg * dirs, np.zeros((len(dirs), 3))], axis=1))
    oracle = np.where(np.isfinite(least), np.minimum(mg / least, 1.0), 0.0)
    assert np.array_equal(sphere["feasible"][::8], np.isfinite(least))
    assert np.max(np.abs(sphere["eta_f"][::8] - oracle)) < 1e-9


def test_disc_lp_status_handling():
    m = prototype_morphology()
    # An unreachable hover force makes every torque direction infeasible: 0.
    assert max_wrench_in_direction(m, [0.0, 0.0, 1.0], mode="torque",
                                   hover_force=[0.0, 0.0, 1e5]) == 0.0
    metrics = envelope(m, "torque", n_dirs=320, hover_force=[0.0, 0.0, 1e5],
                       allocation="optimal")
    assert np.all(metrics.values == 0.0) and np.all(metrics.eta == 0.0)
    # Any status other than optimal or infeasible is an error, not a value.
    cols, budget, cost = envelope_module._disc_lp(m, 64)
    lp = envelope_module._WarmLp(cost, cols, np.r_[0.0, 0.0, 50.0, 0.0, 0.0, 0.0], budget, np.inf)
    lp.model.setOptionValue("simplex_iteration_limit", 0)
    with pytest.raises(RuntimeError, match="Iteration limit"):
        lp.solve()


def test_pinv_envelope_ratio_flat_hex():
    m = hexarotor(body=prototype_morphology().body)
    metrics = envelope(m, n_dirs=1280)
    ratio = metrics.max / metrics.min
    assert abs(ratio - 2.0) < 0.2
    assert metrics.min <= metrics.mean <= metrics.max


def test_envelope_volume_monotone_in_omega_max():
    vols = []
    for omega_max in (900.0, 1100.0, 1250.0):
        m = hexarotor(rotor=RotorParams(omega_max=omega_max))
        vols.append(envelope(m, n_dirs=320).volume)
    assert vols[0] < vols[1] < vols[2]


def test_max_wrench_and_min_thrust_agree():
    # Both queries solve the same polygonal LP, so the largest wrench along a
    # direction is exactly where the minimum thrust stops being finite.
    octahedral = build_candidate(DesignProblem(), np.zeros(6),
                                 np.arctan(1.0 / np.sqrt(2.0)) * (-1.0) ** np.arange(6))
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [-0.48, 0.6, -0.64]])
    for m in (prototype_morphology(), octahedral):
        hover = m.body.mass * GRAVITY * np.array([0.0, 0.0, 1.0])
        for d in dirs:
            lam = max_wrench_in_direction(m, d)
            assert lam > 0.0
            assert np.isfinite(min_total_thrust(m, np.r_[0.999 * lam * d, np.zeros(3)]))
            assert np.isinf(min_total_thrust(m, np.r_[1.001 * lam * d, np.zeros(3)]))
            lam = max_wrench_in_direction(m, d, mode="torque", hover_force=hover)
            assert lam > 0.0
            assert np.isfinite(min_total_thrust(m, np.r_[hover, 0.999 * lam * d]))
            assert np.isinf(min_total_thrust(m, np.r_[hover, 1.001 * lam * d]))
    # Along +z every prototype rotor thrusts straight up, so eta = 1 and the
    # least thrust for f_z is f_z itself.
    m = prototype_morphology()
    f_z = max_wrench_in_direction(m, [0.0, 0.0, 1.0])
    assert abs(f_z - 133.125) < 1e-6
    assert abs(min_total_thrust(m, [0.0, 0.0, f_z, 0.0, 0.0, 0.0]) - f_z) < 1e-6


def test_hover_sphere_flat_hex():
    m = hexarotor(body=prototype_morphology().body)
    sphere = hover_sphere(m, n_dirs=320)
    assert sphere["feasible"].all()       # f_min well above mg
    # best-case efficiency along +-z is 1 (aligned thrusts)
    z_idx = np.argmax(sphere["directions"] @ np.array([0, 0, 1.0]))
    assert sphere["eta_f"][z_idx] > 0.999
    assert np.all(sphere["eta_f"] <= 1.0 + 1e-12)


def test_min_total_thrust_infeasible():
    m = prototype_morphology()
    # far beyond the envelope
    assert np.isinf(min_total_thrust(m, [0, 0, 1e5, 0, 0, 0]))


def test_hover_sphere_thrust_deficient():
    rotor = RotorParams(omega_max=1250.0 / 4.0)
    m = hexarotor(rotor=rotor, body=prototype_morphology().body)
    sphere = hover_sphere(m, n_dirs=320)
    assert not sphere["feasible"].all()


def test_pinv_radii_torque_mode_hover_budget():
    m = hexarotor(body=prototype_morphology().body)
    mg = m.body.mass * GRAVITY
    vals = pinv_radii(m, np.array([[0.0, 0.0, 1.0]]), mode="torque",
                      hover_force=[0.0, 0.0, mg])
    assert vals[0] > 0.0
    # hover alone infeasible -> zero radius
    vals = pinv_radii(m, np.array([[0.0, 0.0, 1.0]]), mode="torque",
                      hover_force=[0.0, 0.0, 1e5])
    assert vals[0] == 0.0


def test_envelope_requires_enough_directions():
    for n_dirs in (50, 100.5, float("nan")):
        with pytest.raises(ValueError, match="n_dirs"):
            envelope(prototype_morphology(), n_dirs=n_dirs)
    with pytest.raises(ValueError, match="hover_force"):
        envelope(prototype_morphology(), "torque", n_dirs=320, hover_force=[0.0, 40.0])


def test_envelope_eta_sampled():
    m = hexarotor(body=prototype_morphology().body)
    metrics = envelope(m, n_dirs=320)
    assert metrics.eta.shape == metrics.values.shape
    assert np.all(metrics.eta >= 0.0) and np.all(metrics.eta <= 1.0 + 1e-12)
    # near-vertical directions approach perfect efficiency; exactly on the
    # axis all thrusts align and the index is 1
    z_idx = np.argmax(metrics.directions @ np.array([0.0, 0.0, 1.0]))
    assert metrics.eta[z_idx] > 0.98
    _, eta_exact = pinv_radii(m, np.array([[0.0, 0.0, 1.0]]), return_eta=True)
    assert np.isclose(eta_exact[0], 1.0)
