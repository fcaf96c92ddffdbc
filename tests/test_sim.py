import copy
import dataclasses
import json

import numpy as np
import pytest

from tiltmav.allocation import instantaneous_allocation
from tiltmav.cli import main as cli_main
from tiltmav.diff_allocation import BiasConfig
from tiltmav.sim import NonFiniteState, Plant, SimConfig, hover_trim, run
from tiltmav.trajectory import Trajectory, Waypoint
from tiltmav.vehicle import (GRAVITY, RigidBodyParams, hexarotor,
                             prototype_morphology)

from oracles import is_rotation, kinetic_energy, random_rotation


def _hover_traj(duration=3.0, z=1.3):
    return Trajectory([Waypoint(t=0.0, p=[0, 0, z]), Waypoint(t=duration, p=[0, 0, z])])


def test_hover_fixed_point_per_step():
    m = prototype_morphology()
    alpha, omega = hover_trim(m)
    plant = Plant(m)
    plant.state.p = np.array([0.0, 0.0, 1.3])
    plant.alpha = alpha.copy()
    plant.omega = omega.copy()
    plant.refresh_accelerations()
    before = plant.state.copy()
    plant.step(alpha, omega, 1e-3)
    assert np.linalg.norm(plant.state.p - before.p) < 1e-9
    assert np.linalg.norm(plant.state.v - before.v) < 1e-9
    assert np.linalg.norm(plant.state.r_wb - before.r_wb) < 1e-12


def test_ballistic_drop():
    m = prototype_morphology()
    plant = Plant(m)
    plant.refresh_accelerations()
    for _ in range(50):
        plant.step(np.zeros(6), np.zeros(12), 1e-3, 10)
    assert abs(plant.state.p[2] - (-0.5 * GRAVITY * 0.25)) < 1e-6


def test_torque_free_spin_conservation():
    # intermediate-axis tumble: energy and |J omega| conserved over 10 s
    m = hexarotor(body=RigidBodyParams(mass=2.0, inertia=np.diag([1.0, 2.0, 3.0]),
                                       gravity_w=np.zeros(3)))
    plant = Plant(m)
    plant.state.omega = np.array([0.1, 3.0, 0.1])
    plant.refresh_accelerations()
    params = m.body
    e0 = kinetic_energy(plant.state, params)
    h0 = np.linalg.norm(params.inertia @ plant.state.omega)
    for _ in range(100):
        plant.step(np.zeros(6), np.zeros(12), 1e-3, 100)
    e1 = kinetic_energy(plant.state, params)
    h1 = np.linalg.norm(params.inertia @ plant.state.omega)
    assert abs(e1 - e0) / e0 < 1e-6
    assert abs(h1 - h0) / h0 < 1e-6


def test_energy_conservation_no_gravity():
    m = hexarotor(body=RigidBodyParams(mass=2.0, inertia=np.diag([0.5, 0.7, 0.9]),
                                       gravity_w=np.zeros(3)))
    plant = Plant(m)
    plant.state.v = np.array([1.0, -0.5, 0.3])
    plant.state.omega = np.array([0.7, -0.2, 1.1])
    plant.refresh_accelerations()
    e0 = kinetic_energy(plant.state, m.body)
    for _ in range(100):
        plant.step(np.zeros(6), np.zeros(12), 1e-3, 100)
    assert abs(kinetic_energy(plant.state, m.body) - e0) / e0 < 1e-6


def test_rotation_stays_orthonormal_100k_steps():
    m = hexarotor(body=RigidBodyParams(mass=2.0, inertia=np.diag([1.0, 2.0, 3.0]),
                                       gravity_w=np.zeros(3)))
    plant = Plant(m)
    plant.state.omega = np.array([0.5, 1.5, -0.8])
    plant.refresh_accelerations()
    for _ in range(1_000):
        plant.step(np.zeros(6), np.zeros(12), 1e-3, 100)
    r = plant.state.r_wb
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(r) - 1.0) < 1e-9
    assert is_rotation(r)


def test_offset_com_turns_origin_thrust_into_torque():
    body = RigidBodyParams(mass=4.27, inertia=np.diag([0.086, 0.088, 0.16]),
                           r_com=[0.02, 0.0, 0.0])
    m = hexarotor(body=body)
    # Trim of the centered body: thrust m g along z, zero torque about the origin.
    alpha, omega = hover_trim(prototype_morphology())
    plant = Plant(m)
    plant.alpha, plant.omega = alpha, omega
    plant.refresh_accelerations()
    w = plant.wrench
    assert np.abs(w[3:]).max() < 1e-9
    expected = np.linalg.solve(body.inertia, -np.cross(body.r_com, w[:3]))
    assert np.abs(expected[1]) > 1.0
    assert np.allclose(plant.state.psi, expected, atol=1e-9)


def test_offset_com_hover_and_step_recovery():
    body = RigidBodyParams(mass=4.27, inertia=np.diag([0.086, 0.088, 0.16]),
                           r_com=[0.02, -0.01, 0.03])
    m = hexarotor(body=body)
    for ctrl in ("pid", "lqri"):
        hover = run(SimConfig(controller=ctrl), m, _hover_traj())
        assert not hover.diverged
        assert np.linalg.norm(hover.block("e_p"), axis=1).max() < 1e-12, ctrl
        step = run(SimConfig(controller=ctrl), m, _hover_traj(6.0), p_offset=[0.1, 0, 0])
        e = np.linalg.norm(step.block("e_p"), axis=1)
        assert e[step.column("t") <= 5.0].min() < 1e-3, ctrl


def test_run_hover_both_controllers():
    m = prototype_morphology()
    for ctrl in ("pid", "lqri"):
        log = run(SimConfig(controller=ctrl), m, _hover_traj())
        assert not log.diverged
        e = np.linalg.norm(log.block("e_p"), axis=1)
        assert e.max() < 1e-6
        assert np.allclose(log.column("eta_f"), 1.0, atol=1e-9)


def test_logged_eta_reads_the_plant_wrench_of_the_last_refresh(monkeypatch):
    calls = []
    wrench_at = Plant._wrench_at

    def counted(self, alpha, omega):
        calls.append(1)
        return wrench_at(self, alpha, omega)

    monkeypatch.setattr(Plant, "_wrench_at", counted)
    log = run(SimConfig(controller="pid"), prototype_morphology(), _hover_traj(1.0))
    # The initial refresh, then per tick one batch of the midpoint wrenches of
    # its physics steps and the refresh; the 101 logged ticks form none of their own.
    assert len(log) == 101
    assert len(calls) == 1 + 2 * (len(log) - 1)


def test_step_recovery_within_five_seconds():
    m = prototype_morphology()
    for ctrl in ("pid", "lqri"):
        log = run(SimConfig(controller=ctrl), m, _hover_traj(6.0), p_offset=[0.1, 0, 0])
        e = np.linalg.norm(log.block("e_p"), axis=1)
        t = log.column("t")
        assert e[t <= 5.0].min() < 1e-3, ctrl


def test_zero_length_trajectory_logs_hover_only():
    m = prototype_morphology()
    traj = Trajectory([Waypoint(t=0.0, p=[0, 0, 1.0]),
                       Waypoint(t=1e-9, p=[0, 0, 1.0])])
    log = run(SimConfig(), m, traj)
    assert len(log) == 1
    assert np.allclose(log.block("e_p")[0], 0.0)


def test_determinism_bitwise(tmp_path):
    m = prototype_morphology()
    cfg = SimConfig(controller="pid", seed=7, sigma_a=0.01, sigma_omega=0.01,
                    use_estimator=True)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(cfg, m, _hover_traj(1.0)).to_csv(p1)
    run(cfg, m, _hover_traj(1.0)).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def _overweight():
    # Four times the prototype's mass outweighs the rotors' full thrust: it falls.
    m = prototype_morphology()
    return dataclasses.replace(m, body=dataclasses.replace(m.body, mass=4.0 * m.body.mass))


def test_divergence_abort_partial_log():
    log = run(SimConfig(controller="pid"), _overweight(), _hover_traj(20.0),
              p_offset=[0.2, 0, 0])
    assert log.diverged
    assert len(log) > 0
    assert log.column("t")[-1] < 20.0


def test_divergence_raises_when_requested():
    # A divergence is reported once, on the log: its time and its cause.
    log = run(SimConfig(controller="pid"), _overweight(), _hover_traj(20.0),
              p_offset=[0.2, 0, 0])
    assert len(log) > 0
    # The tick whose position error crossed the limit is the last one logged.
    assert log.divergence == (log.column("t")[-1], "position error exceeded the divergence limit")
    assert np.linalg.norm(log.block("e_p")[-1]) > SimConfig().divergence_limit


def test_estimator_path_runs():
    m = prototype_morphology()
    cfg = SimConfig(controller="lqri", sigma_a=0.05, sigma_omega=0.02,
                    use_estimator=True, seed=3)
    log = run(cfg, m, _hover_traj(2.0))
    assert not log.diverged
    e = np.linalg.norm(log.block("e_p"), axis=1)
    assert e.max() < 0.05   # noisy but stable


def test_sim_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        SimConfig(dt_physics=0.02, dt_control=0.01)
    with pytest.raises(ValueError):
        SimConfig(sg_window=10)
    for name, value in (("seed", 1.5), ("seed", True), ("seed", -1), ("sg_window", 21.0),
                        ("sg_window", 1), ("sg_order", 1.0), ("sg_order", -1), ("sg_order", 21),
                        ("controller", "mpc"), ("divergence_limit", 0.0)):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: value})
    assert SimConfig(seed=np.int64(3)).seed == 3
    with pytest.raises(ValueError):
        SimConfig(dt_control=0.0095)
    for dt in (-0.001, 0.0):
        with pytest.raises(ValueError, match="dt_physics"):
            SimConfig(dt_physics=dt)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"dt_physics": dt}}))
        assert cli_main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ValueError, match="dt_control"):
        SimConfig(dt_control=float("inf"))
    for name in ("sigma_a", "sigma_omega"):
        for value in (float("nan"), float("inf"), -0.01):
            with pytest.raises(ValueError, match=name):
                SimConfig(**{name: value})
    for value in (0.0, -1e4, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rotor_slew"):
            SimConfig(rotor_slew=value)
    # JSON NaN parses; unchecked, it reached the allocator's SVD.
    cfg.write_text('{"sim": {"use_estimator": true, "sigma_a": NaN}}')
    assert cli_main(["simulate", "--config", str(cfg), "--controller", "lqri",
                     "--out", str(tmp_path / "o")]) == 2
    assert "sigma_a" in capsys.readouterr().err


def test_lqri_leans_harder_on_acceleration_estimates():
    # With noisy SG-estimated accelerations the jerk-level LQR degrades
    # relatively more than the PID, which never consumes the estimates.
    m = prototype_morphology()
    traj = Trajectory([Waypoint(t=0.0, p=[0, 0, 1.3]),
                       Waypoint(t=5.0, p=[0.8, 0, 1.3]),
                       Waypoint(t=10.0, p=[0, 0, 1.3])])
    ratios = {}
    for ctrl in ("lqri", "pid"):
        ideal = run(SimConfig(controller=ctrl), m, traj)
        noisy = run(SimConfig(controller=ctrl, sigma_a=0.1, sigma_omega=0.02,
                              use_estimator=True, seed=5), m, traj)
        e_i = np.median(np.linalg.norm(ideal.block("e_p"), axis=1))
        e_n = np.median(np.linalg.norm(noisy.block("e_p"), axis=1))
        ratios[ctrl] = e_n / max(e_i, 1e-12)
    assert ratios["lqri"] > ratios["pid"]


def test_plant_step_matches_numpy_reference():
    from oracles import rk4_step_reference

    rng = np.random.default_rng(11)
    for _ in range(200):
        q = random_rotation(rng)
        inertia = q @ np.diag(rng.uniform(0.05, 0.3, 3)) @ q.T
        body = RigidBodyParams(mass=rng.uniform(2.0, 6.0), inertia=inertia,
                               r_com=rng.normal(0.0, 0.02, 3))
        m = hexarotor(body=body)
        plant = Plant(m, rotor_slew=rng.choice([1e4, 1e5]))
        plant.state.p = rng.normal(size=3)
        plant.state.v = rng.normal(size=3)
        plant.state.r_wb = random_rotation(rng)
        w = rng.normal(size=3)
        plant.state.omega = w / np.linalg.norm(w) * rng.uniform(0.0, 20.0)
        plant.alpha = rng.uniform(-np.pi, np.pi, m.n_arms)
        plant.omega = rng.uniform(0.0, m.rotor.omega_max, m.n_rotors)
        alpha_ref = rng.uniform(-np.pi, np.pi, m.n_arms)
        omega_ref = rng.uniform(0.0, m.rotor.omega_max, m.n_rotors)
        ref, alpha, omega = rk4_step_reference(m, plant.state.copy(), plant.alpha,
                                               plant.omega, alpha_ref, omega_ref,
                                               1e-3, plant.rotor_slew)
        plant.step(alpha_ref, omega_ref, 1e-3)
        for name in ("p", "v", "omega", "r_wb", "a", "psi"):
            got, want = getattr(plant.state, name), getattr(ref, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        assert np.array_equal(plant.alpha, alpha)
        assert np.array_equal(plant.omega, omega)


def test_tick_matches_the_per_step_reference():
    # One call of n steps equals n reference steps under the held commands,
    # with rotors that slew all tick long and rotors that reach omega_ref mid-tick.
    from oracles import rk4_step_reference

    rng = np.random.default_rng(12)
    n, dt = 10, 1e-3
    saturated = reached = 0
    for _ in range(100):
        q = random_rotation(rng)
        inertia = q @ np.diag(rng.uniform(0.05, 0.3, 3)) @ q.T
        body = RigidBodyParams(mass=rng.uniform(2.0, 6.0), inertia=inertia,
                               r_com=rng.normal(0.0, 0.02, 3))
        m = hexarotor(body=body)
        plant = Plant(m, rotor_slew=rng.choice([1e4, 1e5]))
        plant.state.p = rng.normal(size=3)
        plant.state.v = rng.normal(size=3)
        plant.state.r_wb = random_rotation(rng)
        w = rng.normal(size=3)
        plant.state.omega = w / np.linalg.norm(w) * rng.uniform(0.0, 20.0)
        plant.alpha = rng.uniform(-np.pi, np.pi, m.n_arms)
        plant.omega = rng.uniform(0.0, m.rotor.omega_max, m.n_rotors)
        alpha_ref = rng.uniform(-np.pi, np.pi, m.n_arms)
        # Up to three ticks' worth of slew away: some rotors get there, some do not.
        # Rotor speed references are non-negative.
        omega_ref = np.maximum(
            plant.omega + rng.uniform(-3.0, 3.0, m.n_rotors) * n * dt * plant.rotor_slew, 0.0)
        gap = omega_ref - plant.omega
        saturated += np.sum(np.abs(gap) > n * dt * plant.rotor_slew)
        reached += np.sum(np.abs(gap) < n * dt * plant.rotor_slew)
        ref, alpha, omega = plant.state.copy(), plant.alpha, plant.omega
        for _ in range(n):
            ref, alpha, omega = rk4_step_reference(m, ref, alpha, omega, alpha_ref, omega_ref,
                                                   dt, plant.rotor_slew)
        plant.step(alpha_ref, omega_ref, dt, n)
        for name in ("p", "v", "omega", "r_wb", "a", "psi"):
            got, want = getattr(plant.state, name), getattr(ref, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        assert np.abs(plant.alpha - alpha).max() <= 1e-12 * np.abs(alpha).max()
        assert np.abs(plant.omega - omega).max() <= 1e-12 * np.abs(omega).max()
    assert saturated > 100 and reached > 100


def test_tick_names_its_non_finite_step_and_keeps_the_state(monkeypatch):
    m = prototype_morphology()
    alpha, omega = hover_trim(m)
    plant = Plant(m, alpha=alpha, omega=omega)
    plant.refresh_accelerations()
    # The 17th physics step is the 7th of the second call.
    monkeypatch.setattr(Plant, "_wrench_at", _poison_physics_step(17))
    plant.step(alpha, omega, 1e-3, 10)
    before, actuators = plant.state.copy(), (plant.alpha, plant.omega)
    with pytest.raises(NonFiniteState) as err:
        plant.step(alpha, omega, 1e-3, 10)
    assert err.value.step == 7
    for name in ("p", "v", "a", "r_wb", "omega", "psi"):
        assert np.array_equal(getattr(plant.state, name), getattr(before, name)), name
    assert plant.alpha is actuators[0] and plant.omega is actuators[1]


@pytest.mark.parametrize("n", [0, -1, 2.0, True, "1"])
def test_step_count_must_be_a_positive_integer(n):
    m = prototype_morphology()
    alpha, omega = hover_trim(m)
    plant = Plant(m, alpha=alpha, omega=omega)
    with pytest.raises(ValueError, match="^n must be an integer >= 1"):
        plant.step(alpha, omega, 1e-3, n)


def _random_plant(rng, r_com):
    q = random_rotation(rng)
    inertia = q @ np.diag(rng.uniform(0.05, 0.3, 3)) @ q.T
    m = hexarotor(body=RigidBodyParams(mass=rng.uniform(2.0, 6.0), inertia=inertia, r_com=r_com))
    plant = Plant(m, alpha=rng.uniform(-np.pi, np.pi, m.n_arms),
                  omega=rng.uniform(0.0, m.rotor.omega_max, m.n_rotors),
                  rotor_slew=rng.choice([1e4, 1e5]))
    plant.state.p = rng.normal(size=3)
    plant.state.v = rng.normal(size=3)
    plant.state.r_wb = random_rotation(rng)
    w = rng.normal(size=3)
    plant.state.omega = w / np.linalg.norm(w) * rng.uniform(0.0, 20.0)
    plant.refresh_accelerations()
    return plant


@pytest.mark.parametrize("centred", [True, False], ids=["centred_com", "offset_com"])
@pytest.mark.parametrize("n", [1, 10])
def test_tick_equals_the_list_based_kernel_byte_for_byte(n, centred):
    # Each plant takes four calls: as built, then after rotor_slew, dt and the
    # tilt time constant change in turn, so a tick constant kept past a
    # change of what it was formed from shows in the bits.
    from oracles import plant_step_lists

    rng = np.random.default_rng(40 + n + centred)
    slewing = reaching = 0
    for _ in range(40):
        plant = _random_plant(rng, np.zeros(3) if centred else rng.normal(0.0, 0.02, 3))
        twin = copy.deepcopy(plant)
        m, dt = plant.morphology, rng.choice([1e-3, 5e-4])
        alpha_ref = rng.uniform(-np.pi, np.pi, m.n_arms)
        for change in (None, "rotor_slew", "dt", "tau"):
            if change == "rotor_slew":
                plant.rotor_slew = twin.rotor_slew = plant.rotor_slew * rng.uniform(0.2, 5.0)
            elif change == "dt":
                dt *= 2.0
            elif change == "tau":
                tilt = dataclasses.replace(m.tilt, tau=m.tilt.tau * rng.uniform(0.2, 5.0))
                plant.morphology = twin.morphology = dataclasses.replace(m, tilt=tilt)
            # Up to three ticks' worth of slew away: some rotors get there, some do
            # not. Rotor speed references are non-negative.
            reach = n * dt * plant.rotor_slew
            omega_ref = np.maximum(plant.omega + rng.uniform(-3.0, 3.0, m.n_rotors) * reach, 0.0)
            gap = omega_ref - plant.omega
            slewing += np.sum(np.abs(gap) > reach)
            reaching += np.sum(np.abs(gap) < reach)
            plant.step(alpha_ref, omega_ref, dt, n)
            plant_step_lists(twin, alpha_ref, omega_ref, dt, n)
            for name in ("p", "v", "r_wb", "omega", "a", "psi"):
                got, want = getattr(plant.state, name), getattr(twin.state, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (change, name)
            for got, want in ((plant.alpha, twin.alpha), (plant.omega, twin.omega)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), change
    assert slewing > 100 and reaching > 100


@pytest.mark.parametrize("kwargs, match", [
    ({"rotor_slew": -5.0}, r"^rotor_slew must be a finite number > 0"),
    ({"rotor_slew": 0.0}, r"^rotor_slew must be a finite number > 0"),
    ({"rotor_slew": np.nan}, r"^rotor_slew must be a finite number > 0"),
    ({"rotor_slew": np.inf}, r"^rotor_slew must be a finite number > 0"),
    ({"alpha": np.zeros(5)}, r"^alpha must have shape \(6,\)"),
    ({"alpha": np.zeros((1, 6))}, r"^alpha must have shape \(6,\)"),
    ({"alpha": [0.0] * 5 + [np.nan]}, r"^each entry of alpha must be a finite number"),
    ({"omega": np.zeros(13)}, r"^omega must have shape \(12,\)"),
    ({"omega": [500.0] * 11 + [np.inf]}, r"^each entry of omega must be a finite number"),
    ({"omega": [500.0] * 11 + [-1.0]}, r"^omega must have entries >= 0"),
], ids=["slew_negative", "slew_zero", "slew_nan", "slew_inf", "alpha_short", "alpha_2d",
        "alpha_nan", "omega_long", "omega_inf", "omega_negative"])
def test_plant_rejects_bad_actuator_states_and_slew(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Plant(prototype_morphology(), **kwargs)


def _stepped_hover_plant():
    m = prototype_morphology()
    alpha, omega = hover_trim(m)
    plant = Plant(m, alpha=alpha, omega=omega)
    plant.refresh_accelerations()
    plant.step(alpha, omega, 1e-3, 10)   # a formed tick must not let a later bad value through
    return plant, alpha, omega


def _assert_plant_unchanged(plant, before, actuators):
    for name in ("p", "v", "a", "r_wb", "omega", "psi"):
        assert np.array_equal(getattr(plant.state, name), getattr(before, name)), name
    assert plant.alpha is actuators[0] and plant.omega is actuators[1]


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan, True])
def test_step_rejects_a_bad_time_step_and_keeps_the_state(dt):
    plant, alpha, omega = _stepped_hover_plant()
    before, actuators = plant.state.copy(), (plant.alpha, plant.omega)
    with pytest.raises(ValueError, match=r"^dt must be a finite number > 0"):
        plant.step(alpha, omega, dt, 10)
    _assert_plant_unchanged(plant, before, actuators)


@pytest.mark.parametrize("refs, match", [
    ({"alpha_ref": np.zeros(5)}, r"^alpha_ref must be finite with shape \(6,\)"),
    ({"alpha_ref": np.zeros((1, 6))}, r"^alpha_ref must be finite with shape \(6,\)"),
    ({"alpha_ref": [0.0] * 5 + [np.nan]}, r"^alpha_ref must be finite with shape \(6,\)"),
    ({"omega_ref": np.full(11, 700.0)}, r"^omega_ref must be finite with shape \(12,\)"),
    ({"omega_ref": [700.0] * 11 + [np.inf]}, r"^omega_ref must be finite with shape \(12,\)"),
    ({"omega_ref": np.full(12, -700.0)}, r"^omega_ref must have entries >= 0"),
    ({"omega_ref": [700.0] * 11 + [-1.0]}, r"^omega_ref must have entries >= 0"),
], ids=["alpha_short", "alpha_2d", "alpha_nan", "omega_short", "omega_inf", "omega_negated",
        "omega_one_negative"])
def test_step_rejects_bad_reference_commands_and_keeps_the_state(refs, match):
    plant, alpha, omega = _stepped_hover_plant()
    before, actuators = plant.state.copy(), (plant.alpha, plant.omega)
    refs = {"alpha_ref": alpha, "omega_ref": omega, **refs}
    with pytest.raises(ValueError, match=match):
        plant.step(refs["alpha_ref"], refs["omega_ref"], 1e-3, 10)
    _assert_plant_unchanged(plant, before, actuators)


@pytest.mark.parametrize("slew", [-5.0, 0.0, np.nan, np.inf])
def test_step_rejects_a_rotor_slew_set_after_construction(slew):
    plant, alpha, omega = _stepped_hover_plant()
    before, actuators = plant.state.copy(), (plant.alpha, plant.omega)
    plant.rotor_slew = slew
    with pytest.raises(ValueError, match=r"^rotor_slew must be a finite number > 0"):
        plant.step(alpha, omega, 1e-3, 10)
    _assert_plant_unchanged(plant, before, actuators)


def test_step_from_infinite_spin_raises_floating_point_error():
    m = prototype_morphology()
    plant = Plant(m)
    plant.state.omega = np.array([np.inf, 0.0, 0.0])
    before = plant.state.copy()
    with pytest.raises(FloatingPointError):
        plant.step(np.zeros(6), np.zeros(12), 1e-3)
    for name in ("p", "v", "r_wb", "omega"):
        assert np.array_equal(getattr(plant.state, name), getattr(before, name)), name


def _poison_physics_step(n, original=Plant._wrench_at):
    """A ``Plant._wrench_at`` whose midpoint wrench of the n-th physics step is NaN."""
    seen = [0]

    def wrench_at(self, alpha, omega):
        w = original(self, alpha, omega)
        if w.ndim == 2:     # the midpoint wrenches of one call's physics steps
            if 0 <= n - 1 - seen[0] < len(w):
                w[n - 1 - seen[0]] = np.nan
            seen[0] += len(w)
        return w
    return wrench_at


def test_non_finite_plant_state_is_a_divergence(monkeypatch, tmp_path):
    m = prototype_morphology()
    monkeypatch.setattr(Plant, "_wrench_at", _poison_physics_step(206))
    log = run(SimConfig(), m, _hover_traj(2.0))
    assert log.diverged
    assert len(log) == 21 and log.column("t")[-1] == pytest.approx(0.2)
    # The 206th physics step failed: 6 ms into the tick logged last.
    t, cause = log.divergence
    assert t == pytest.approx(0.206) and cause == "plant state turned non-finite"

    traj = tmp_path / "hover.json"
    traj.write_text(json.dumps([{"t": 0.0, "p": [0, 0, 1.3]}, {"t": 2.0, "p": [0, 0, 1.3]}]))
    monkeypatch.setattr(Plant, "_wrench_at", _poison_physics_step(206))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--traj", str(traj), "--out", str(out)]) == 3
    lines = (out / "simlog.csv").read_text().splitlines()
    assert "diverged=1" in lines[0] and len(lines) == 2 + 21


def test_non_finite_position_error_is_a_divergence(monkeypatch):
    from tiltmav.pid import PidController
    original = PidController.step

    def step(self, *args):
        out = original(self, *args)
        out["e_p"] = np.full(3, np.nan)
        return out
    monkeypatch.setattr(PidController, "step", step)
    log = run(SimConfig(controller="pid"), prototype_morphology(), _hover_traj(1.0))
    assert log.diverged and len(log) == 1


def test_run_rejects_non_finite_start():
    m = prototype_morphology()
    with pytest.raises(ValueError, match="p_offset"):
        run(SimConfig(), m, _hover_traj(1.0), p_offset=[np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="alpha0"):
        run(SimConfig(), m, _hover_traj(1.0), alpha0=[np.inf] + [0.0] * 5)


def test_static_pseudoinverse_is_factored_in_setup_not_per_tick(monkeypatch):
    # The allocator's secondary tasks invert the static map every tick;
    # its pseudoinverse is constant, so longer runs must not factor it more.
    m = prototype_morphology()
    pinv = np.linalg.pinv
    calls = []

    def counting_pinv(a, *args, **kwargs):
        if np.shape(a) == (6, 2 * m.n_rotors):
            calls.append(1)
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    counts = []
    for seconds in (0.5, 1.0):
        traj = _hover_traj(seconds)
        alpha0, _ = hover_trim(m)
        alpha0[::2] += 2.0 * np.pi
        calls.clear()
        log = run(SimConfig(), m, traj, bias=BiasConfig(enabled=True), unwind=True,
                  alpha0=alpha0)
        assert log.divergence is None
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_allocator_forms_a_alpha_once_per_tick(monkeypatch):
    # The held commands carry their A_alpha and wrench: the wrench-rate map,
    # the secondary tasks and kappa read them instead of forming them again.
    m = prototype_morphology()
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return instantaneous_allocation(*args, **kwargs)

    monkeypatch.setattr("tiltmav.diff_allocation.instantaneous_allocation", counting)
    counts = []
    for seconds in (0.5, 1.0):
        alpha0, _ = hover_trim(m)
        alpha0[::2] += 2.0 * np.pi
        calls.clear()
        log = run(SimConfig(), m, _hover_traj(seconds), bias=BiasConfig(enabled=True),
                  unwind=True, alpha0=alpha0)
        assert log.divergence is None
        counts.append(len(calls))
    assert counts[1] - counts[0] == 50
