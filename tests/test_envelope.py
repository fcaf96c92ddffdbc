import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tiltmav import envelope as envelope_module
from tiltmav.design import DesignProblem, build_candidate
from tiltmav.envelope import (arm_wrench_blocks, envelope, hover_sphere, icosphere,
                              max_wrench_in_direction, min_total_thrust, pinv_radii)
from tiltmav.vehicle import (GRAVITY, ArmGeometry, Morphology, RotorParams, evenly_spaced_arms,
                             hexarotor, prototype_morphology)

from oracles import max_wrench_alpha_grid, min_thrusts_linprog, optimal_radii_linprog

COS64 = np.cos(np.pi / 64)


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


def _thrust_bracket(m, wrenches, n_vertices):
    """(lower, upper) bounds on the least thrust of each wrench from polygon LPs.

    The N-gon around each disc holds it, and any disc point costs at most
    1/cos(pi/N) of its own thrust there, so cos(pi/N) times that LP's least
    thrust is a lower bound. The N-gon inside each disc gives an upper bound,
    inf where it cannot reach the wrench.
    """
    outer = min_thrusts_linprog(m, wrenches, n_vertices, circumscribed=True)
    inner = min_thrusts_linprog(m, wrenches, n_vertices)
    return np.cos(np.pi / n_vertices) * outer, inner


def _radial_certificate_gap(m, y, base, values):
    """sum_a |C_a^T y| - y.base - lambda per row, with C_a = r_a B_a built here."""
    blocks, radii = arm_wrench_blocks(m)
    support = np.linalg.norm(np.einsum("aij,ri->raj", blocks * radii[:, None, None], y),
                             axis=-1).sum(-1)
    return support - y @ base - values


@pytest.mark.parametrize("name,mode", PARITY_CASES)
def test_optimal_sweep_matches_cold_linprog_oracle(name, mode):
    # Every 8th direction of the exact sweep is bracketed by cold linprog
    # solves of the 64-gon LP: the inscribed polygons never reach further,
    # and without a hover offset they reach at least cos(pi/64) as far.
    m = _parity_morphology(name)
    lever = m.arm_lengths.max() if mode == "torque" else 1.0
    hover = m.body.mass * GRAVITY * np.array([0.0, 0.0, 1.0]) if mode == "torque" else None
    metrics = envelope(m, mode, n_dirs=320, hover_force=hover, allocation="optimal")
    dirs = metrics.directions[::8]
    values, eta = metrics.values[::8], metrics.eta[::8]
    oracle, _ = optimal_radii_linprog(m, dirs, mode, hover)
    assert np.all(oracle > 0.0)
    assert np.all(values >= oracle * (1.0 - 1e-9))
    if hover is None:
        assert np.all(values <= oracle / COS64 * (1.0 + 1e-9))
    # eta is defined by the least thrust that attains lambda*d (plus hover);
    # polygon LPs bracket that thrust on both sides.
    wrenches = np.zeros((len(dirs), 6))
    wrenches[:, :3] = 0.0 if hover is None else hover
    wrenches[:, slice(0, 3) if mode == "force" else slice(3, 6)] += values[:, None] * dirs
    lower, upper = _thrust_bracket(m, wrenches, 64)
    assert np.all(eta <= np.minimum(values / (lever * lower), 1.0) + 1e-9)
    assert np.all(eta >= np.minimum(values / (lever * upper), 1.0) - 1e-9)


@pytest.mark.parametrize("name,mode", PARITY_CASES)
def test_radial_values_carry_their_duality_certificate(name, mode):
    # The returned dual point y (d.y = 1) bounds lambda* from above by
    # sum_a |C_a^T y| - y.base, and that bound is within 1e-10 of lambda.
    m = _parity_morphology(name)
    dirs = envelope_module.sample_directions(320)[0][::4]
    d6, base = np.zeros((len(dirs), 6)), np.zeros(6)
    if mode == "force":
        d6[:, :3] = dirs
    else:
        d6[:, 3:] = dirs
        base[2] = m.body.mass * GRAVITY
    cm, k = envelope_module._disc_maps(m)
    values, y, _ = envelope_module._solve(cm, k, 0.0 * k, np.tile(base, (len(dirs), 1)), d6)
    assert np.all(values > 0.0)
    assert np.allclose((d6 * y).sum(-1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(_radial_certificate_gap(m, y, base, values) <= 1e-10 * values)


@pytest.mark.parametrize("mode", ["force", "torque"])
def test_eta_on_coincident_arms_takes_the_least_thrust(mode):
    # Three pairs of coincident arms: the free arms' block at the optimum has
    # a null space, so the attaining allocation is not unique and eta must
    # come from the least thrust over it, inside the polygon-LP bracket.
    proto = prototype_morphology()
    arms = tuple(ArmGeometry(gamma=g, beta=b, length=0.3) for g, b in
                 [(0.3, 0.5), (2.4, -0.3), (4.4, 0.1)] * 2)
    m = Morphology(arms=arms, rotor=proto.rotor, tilt=proto.tilt, body=proto.body)
    hover = 0.3 * m.body.mass * GRAVITY * np.array([0.0, 0.0, 1.0]) if mode == "torque" else None
    dirs = envelope_module.sample_directions(320)[0][::16]
    values, eta = envelope_module._optimal_radii(m, dirs, mode, hover)
    wrenches = np.zeros((len(dirs), 6))
    wrenches[:, :3] = 0.0 if hover is None else hover
    wrenches[:, slice(0, 3) if mode == "force" else slice(3, 6)] += values[:, None] * dirs
    lower, upper = _thrust_bracket(m, wrenches, 64)
    lever = 1.0 if mode == "force" else 0.3
    assert np.all(values > 0.0)
    assert np.all(eta <= np.minimum(values / (lever * lower), 1.0) + 1e-9)
    assert np.all(eta >= np.minimum(values / (lever * upper), 1.0) - 1e-9)


@pytest.mark.parametrize("name,mode", PARITY_CASES)
def test_optimal_sweep_is_order_independent(name, mode):
    m = _parity_morphology(name)
    hover = m.body.mass * GRAVITY * np.array([0.0, 0.0, 1.0]) if mode == "torque" else None
    dirs = envelope_module.sample_directions(320)[0]
    values, eta = envelope_module._optimal_radii(m, dirs, mode, hover)
    rev_values, rev_eta = envelope_module._optimal_radii(m, dirs[::-1], mode, hover)
    assert np.max(np.abs(rev_values[::-1] - values) / values) < 1e-9
    assert np.max(np.abs(rev_eta[::-1] - eta)) < 1e-9


@pytest.mark.parametrize("name", ["prototype", "candidate", "flat_hex"])
def test_hover_sphere_matches_cold_linprog_oracle(name):
    m = _parity_morphology(name)
    sphere = hover_sphere(m, n_dirs=320)
    mg = m.body.mass * GRAVITY
    dirs = sphere["directions"][::8]
    lower, upper = _thrust_bracket(m, np.concatenate([mg * dirs, np.zeros((len(dirs), 3))], axis=1),
                                   128)
    assert np.all(sphere["feasible"][::8]) and np.all(np.isfinite(upper))
    eta = sphere["eta_f"][::8]
    assert np.all(eta <= np.minimum(mg / lower, 1.0) + 1e-9)
    assert np.all(eta >= np.minimum(mg / upper, 1.0) - 1e-9)


def test_disc_lp_status_handling(monkeypatch):
    m = prototype_morphology()
    # An unreachable hover force makes every torque direction infeasible: 0.
    assert max_wrench_in_direction(m, [0.0, 0.0, 1.0], mode="torque",
                                   hover_force=[0.0, 0.0, 1e5]) == 0.0
    metrics = envelope(m, "torque", n_dirs=320, hover_force=[0.0, 0.0, 1e5],
                       allocation="optimal")
    assert np.all(metrics.values == 0.0) and np.all(metrics.eta == 0.0)
    # A sweep that cannot certify its queries within the step cap is an
    # error, not a value.
    monkeypatch.setattr(envelope_module, "_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="not certified"):
        envelope(m, "force", n_dirs=320, allocation="optimal")


@settings(max_examples=25, deadline=None)
@given(n_arms=st.integers(3, 8), rotors_per_arm=st.integers(1, 2),
       betas=st.lists(st.floats(-1.2, 1.2), min_size=8, max_size=8),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       mode=st.sampled_from(["force", "torque"]))
# A degenerate dual: Newton on the exact optimality conditions diverges
# there, and the smoothed dual point itself certifies.
@example(n_arms=3, rotors_per_arm=1, betas=[1.0, 1e-9, 1.0] + [0.0] * 5,
         direction=[0.0, 0.0, 1.0], mode="force")
def test_disc_kernel_on_random_layouts(n_arms, rotors_per_arm, betas, direction, mode):
    d = np.asarray(direction)
    assume(np.linalg.norm(d) > 0.1)
    d /= np.linalg.norm(d)
    m = Morphology(arms=evenly_spaced_arms(n_arms, 0.3, betas=betas[:n_arms],
                                           rotors_per_arm=rotors_per_arm),
                   rotor=RotorParams(rotors_per_arm=rotors_per_arm),
                   tilt=prototype_morphology().tilt, body=prototype_morphology().body)
    # Torque mode holds half the largest force along +z, which is reachable.
    hover = None
    if mode == "torque":
        hover = 0.5 * max_wrench_in_direction(m, [0.0, 0.0, 1.0]) * np.array([0.0, 0.0, 1.0])
    base = np.zeros(6) if hover is None else np.r_[hover, np.zeros(3)]
    d6 = np.r_[d, np.zeros(3)] if mode == "force" else np.r_[np.zeros(3), d]
    cm, k = envelope_module._disc_maps(m)
    values, y, _ = envelope_module._solve(cm, k, 0.0 * k, base[None], d6[None])
    lam = values[0]
    assume(lam > 0.0)
    assert _radial_certificate_gap(m, y, base, values)[0] <= 1e-10 * lam
    assert lam >= optimal_radii_linprog(m, d[None], mode, hover)[0][0] * (1.0 - 1e-9)
    assert np.isfinite(min_total_thrust(m, base + 0.999 * lam * d6))
    assert np.isinf(min_total_thrust(m, base + 1.001 * lam * d6))


_BLOCK_SCIPY = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, BlockScipy())
import tiltmav.cli
from tiltmav.sim import SimConfig, run
from tiltmav.trajectory import Trajectory, Waypoint
from tiltmav.vehicle import prototype_morphology
hover = Trajectory([Waypoint(t=0.0, p=[0, 0, 1.3]), Waypoint(t=0.5, p=[0, 0, 1.3])])
log = run(SimConfig(controller="lqri"), prototype_morphology(), hover)
print(len(log), log.diverged)
"""


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # The disc kernel and the CARE solver are plain numpy; envelope.linprog
    # binds on first lookup.
    code = ("import sys, tiltmav.cli; print('scipy.optimize' in sys.modules, "
            "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(envelope_module.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False False"
    # A numpy-only install: with scipy unimportable, the CLI loads and an
    # LQRI hover runs.
    out = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "51 False"
    from scipy.optimize import linprog
    assert envelope_module.linprog is linprog
    with pytest.raises(AttributeError):
        envelope_module.no_such_name


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
    # Both queries go through the same radial kernel, so the largest wrench
    # along a direction is exactly where the minimum thrust stops being finite.
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


@pytest.mark.parametrize("allocation", ["pinv", "optimal"])
def test_torque_eta_levers_on_the_longest_arm(allocation):
    # With a short arm 0, a lever read from arm 0 alone overstates eta past
    # its clamp of 1 in every direction; the longest arm bounds it.
    spec = prototype_morphology().to_dict()
    for i, arm in enumerate(spec["arms"]):
        arm["length"] = 0.1 if i == 0 else 0.3
    m = Morphology.from_dict(spec)
    metrics = envelope(m, "torque", n_dirs=320, hover_force=[0.0, 0.0, m.body.mass * GRAVITY],
                       allocation=allocation)
    assert np.all(metrics.eta <= 1.0)
    assert np.any(metrics.eta < 1.0)
