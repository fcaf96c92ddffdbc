import json

import numpy as np
import pytest

from tiltmav.so3 import exp_so3, log_so3
from tiltmav.trajectory import Trajectory, Waypoint, load_waypoints, named_trajectory

from oracles import trajectory_sample_loop


def test_constant_trajectory():
    traj = Trajectory([Waypoint(t=0.0, p=[1.0, 2.0, 3.0]),
                                  Waypoint(t=2.0, p=[1.0, 2.0, 3.0])])
    for t in np.linspace(0, 2, 11):
        s = traj.sample(t)
        assert np.allclose(s.p, [1.0, 2.0, 3.0], atol=1e-9)
        for field in (s.v, s.a, s.j, s.omega_b, s.psi_b, s.zeta_b):
            assert np.allclose(field, 0.0, atol=1e-8)
        assert np.allclose(s.r_wb, np.eye(3))


def test_straight_line_profile():
    traj = Trajectory([Waypoint(t=0.0, p=[0.0, 0.0, 0.0]),
                                  Waypoint(t=2.0, p=[1.0, 0.0, 0.0])])
    v_mid = traj.sample(1.0).v[0]
    assert v_mid > 0.8   # velocity peaks mid-segment (septic: 2.1875 * L/T)
    for t in (0.0, 2.0):
        s = traj.sample(t)
        assert np.allclose(s.v, 0.0, atol=1e-9)
        assert np.allclose(s.a, 0.0, atol=1e-8)
        assert np.allclose(s.j, 0.0, atol=1e-6)
    # net jerk integrates to zero (acceleration starts and ends at rest);
    # tolerance limited by the trapezoid quadrature of the sampled jerk
    ts = np.linspace(0, 2, 2001)
    jerk = np.array([traj.sample(t).j[0] for t in ts])
    accel = np.array([traj.sample(t).a[0] for t in ts])
    assert abs(np.trapezoid(jerk, ts)) < 1e-4
    assert abs(np.trapezoid(accel, ts)) < 1e-6


def test_derivatives_match_finite_differences():
    wps = [Waypoint(t=0.0, p=[0, 0, 0]),
           Waypoint(t=1.5, p=[1.0, -0.5, 0.3], r_wb=exp_so3([0.4, 0.2, 0.0])),
           Waypoint(t=3.2, p=[0.2, 0.8, -0.1], r_wb=exp_so3([-0.3, 0.5, 0.2]))]
    traj = Trajectory(wps)
    dt = 1e-4
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.01, 3.19, 25):
        sm = traj.sample(t - dt)
        s0 = traj.sample(t)
        sp = traj.sample(t + dt)
        v_fd = (sp.p - sm.p) / (2 * dt)
        a_fd = (sp.v - sm.v) / (2 * dt)
        assert np.abs(v_fd - s0.v).max() < 1e-6
        assert np.abs(a_fd - s0.a).max() < 1e-5
        # angular velocity from the attitude sequence
        # R^T R_dot = [omega_b]x, so omega_b = (m21, m02, m10)
        m = s0.r_wb.T @ (sp.r_wb - sm.r_wb) / (2 * dt)
        assert np.abs(m + m.T).max() <= 1e-2 * max(1.0, np.abs(m).max())
        omega_fd = np.array([m[2, 1], m[0, 2], m[1, 0]])
        assert np.abs(omega_fd - s0.omega_b).max() < 1e-5


def test_rotation_runs_are_continuous():
    # Consecutive same-axis segments share one angle spline: the angular
    # velocity does not return to zero at the interior waypoint.
    axis = np.array([1.0, 0.0, 0.0])
    wps = [Waypoint(t=0.0, p=np.zeros(3)),
           Waypoint(t=2.0, p=np.zeros(3), r_wb=exp_so3(axis * np.pi / 2)),
           Waypoint(t=4.0, p=np.zeros(3), r_wb=exp_so3(axis * np.pi))]
    traj = Trajectory(wps)
    assert np.linalg.norm(traj.sample(2.0).omega_b) > 0.1
    # And the full turn is reached.
    assert np.allclose(traj.sample(4.0).r_wb, exp_so3(axis * np.pi), atol=1e-9)


def test_duplicate_times_rejected():
    with pytest.raises(ValueError):
        Trajectory([Waypoint(t=0.0, p=np.zeros(3)),
                               Waypoint(t=0.0, p=np.ones(3))])
    with pytest.raises(ValueError):
        Trajectory([Waypoint(t=0.0, p=np.zeros(3))])


def test_named_durations():
    expected = {"a": 29.4, "b": 29.4, "c": 10.7, "d": 36.1, "e": 35.5,
                "f": 16.0, "g": 8.0}
    for kind, dur in expected.items():
        assert abs(named_trajectory(kind).duration - dur) < 1e-9


def test_low_angle_reference_tilt_bound():
    traj = named_trajectory("a")
    worst = 0.0
    for t in np.linspace(0, traj.duration, 1471):
        r = traj.sample(t).r_wb
        tilt = np.arccos(np.clip(r[2, 2], -1.0, 1.0))
        worst = max(worst, tilt)
    assert worst <= np.deg2rad(30.0) + 1e-6
    assert worst > np.deg2rad(20.0)    # actually tilts


def test_high_angle_reference_tilt():
    traj = named_trajectory("b")
    tilts = [np.arccos(np.clip(traj.sample(t).r_wb[2, 2], -1, 1))
             for t in np.linspace(0, traj.duration, 600)]
    assert np.deg2rad(70) < max(tilts) <= np.deg2rad(80) + 1e-6


def test_roll_flip_net_rotation():
    traj = named_trajectory("f")
    ts = np.linspace(0, traj.duration, 4001)
    omega_x = np.array([traj.sample(t).omega_b[0] for t in ts])
    total = np.trapezoid(omega_x, ts)
    assert abs(total - 2.0 * np.pi) < 1e-6
    assert np.allclose(traj.sample(traj.duration).r_wb, np.eye(3), atol=1e-9)


def test_pitch_flip_axis():
    traj = named_trajectory("g")
    ts = np.linspace(0, traj.duration, 2001)
    omega = np.array([traj.sample(t).omega_b for t in ts])
    assert abs(np.trapezoid(omega[:, 1], ts) - 2.0 * np.pi) < 1e-6
    assert np.abs(omega[:, [0, 2]]).max() < 1e-9


def test_unknown_kind():
    with pytest.raises(ValueError):
        named_trajectory("z")


def test_load_waypoints(tmp_path):
    data = [{"t": 0.0, "p": [0, 0, 1.0]},
            {"t": 2.0, "p": [1, 0, 1.0], "rpy": [10.0, 0.0, 0.0]}]
    path = tmp_path / "wps.json"
    path.write_text(json.dumps(data))
    traj = load_waypoints(path)
    assert traj.duration == 2.0
    r_end = traj.sample(2.0).r_wb
    assert np.allclose(log_so3(r_end), [np.deg2rad(10.0), 0, 0], atol=1e-9)


def test_waypoints_take_only_finite_numbers():
    # A non-finite or misshapen value would otherwise surface deep in the spline solve.
    for bad in ({"t": np.nan}, {"t": True}, {"p": [0.0, np.inf, 1.0]}, {"p": [0.0, 1.0]},
                {"r_wb": np.full((3, 3), np.nan)}, {"r_wb": np.eye(2)}):
        with pytest.raises(ValueError, match=rf"\b{next(iter(bad))}\b"):
            Waypoint(**{"t": 0.0, "p": np.zeros(3), **bad})


def test_waypoints_take_only_rotations():
    # A scaled or reflecting attitude would otherwise be sampled as some other rotation.
    for r in (2.0 * np.eye(3), -np.eye(3), np.diag([1.0, 1.0, -1.0]), np.eye(3) + 1e-6):
        with pytest.raises(ValueError, match=r"\br_wb\b"):
            Waypoint(t=0.0, p=np.zeros(3), r_wb=r)
    assert Waypoint(t=0.0, p=np.zeros(3), r_wb=exp_so3([0.3, -1.2, 2.0])).r_wb.shape == (3, 3)


def test_named_trajectory_scale():
    small = named_trajectory("a", scale=0.5)
    full = named_trajectory("a", scale=1.0)
    ts = np.linspace(0, 29.4, 50)
    ratio = [np.linalg.norm(small.sample(t).p[:2]) / max(np.linalg.norm(full.sample(t).p[:2]), 1e-12)
             for t in ts if np.linalg.norm(full.sample(t).p[:2]) > 0.1]
    assert np.allclose(ratio, 0.5, atol=1e-9)


def test_sample_is_bit_equal_to_the_numpy_oracle(tmp_path):
    path = tmp_path / "wps.json"
    path.write_text(json.dumps([
        {"t": 0.5, "p": [0.0, 0.0, 1.0]},
        {"t": 2.0, "p": [1.0, -0.5, 1.4], "rpy": [30.0, -20.0, 45.0]},
        {"t": 3.25, "p": [0.4, 0.9, 1.1], "rpy": [-10.0, 60.0, 0.0]},
        {"t": 5.0, "p": [0.0, 0.0, 1.0]}]))
    trajectories = [named_trajectory(kind) for kind in "abcdefg"] + [load_waypoints(path)]
    rng = np.random.default_rng(37)
    fields = ("t", "p", "v", "a", "j", "r_wb", "omega_b", "psi_b", "zeta_b")
    n_samples = 0
    for traj in trajectories:
        t0, t1 = traj.t0, float(traj.times[-1])
        times = [*traj.times, -0.0, t0 - 1.0, t0 - 1e-12, t1 + 1e-9, t1 + 5.0,
                 *rng.uniform(t0, t1, 250)]
        for t in times:
            got, want = traj.sample(t), trajectory_sample_loop(traj, t)
            for name in fields:
                # Bytes compare the signs of zeros too.
                assert (np.asarray(getattr(got, name)).tobytes()
                        == np.asarray(getattr(want, name)).tobytes()), (name, t)
            n_samples += 1
    assert n_samples >= 2000
