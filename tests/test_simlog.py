import numpy as np
import pytest

from tiltmav.rigid_body import RigidBodyState
from tiltmav.simlog import SimLog, _quat_wxyz, axis_stats, tracking_stats
from tiltmav.so3 import exp_so3
from tiltmav.trajectory import TrajectorySample

from oracles import random_rotation


def _fake_log(e_p_series):
    log = SimLog(n_arms=6, n_rotors=12)
    state = RigidBodyState()
    ref = TrajectorySample(t=0.0, p=np.zeros(3), v=np.zeros(3), a=np.zeros(3),
                           j=np.zeros(3), r_wb=np.eye(3), omega_b=np.zeros(3),
                           psi_b=np.zeros(3), zeta_b=np.zeros(3))
    for k, e in enumerate(e_p_series):
        log.append(t=0.01 * k, state=state, ref=ref, e_p=e, e_r=np.zeros(3),
                   alpha_cmd=np.zeros(6), omega_cmd=np.zeros(12),
                   alpha_act=np.zeros(6), omega_act=np.zeros(12),
                   u=np.zeros(6), eta_f=1.0, kappa=5.0, residual=0.0,
                   regularized=False, stab_lhs=0.0, stab_rhs=1.0, stab_ok=True)
    return log


def test_constant_error_stats():
    log = _fake_log([np.array([0.3, 0.0, 0.0])] * 50)
    stats = tracking_stats(log)
    sx = stats["pos_x"]
    assert sx.median == 0.3
    assert sx.q3 - sx.q1 == 0.0
    assert sx.whisker_lo == sx.whisker_hi == 0.3


def test_uniform_error_quartiles_match_order_statistics():
    rng = np.random.default_rng(51)
    vals = rng.uniform(0.0, 1.0, 5001)
    log = _fake_log([np.array([v, 0, 0]) for v in vals])
    stats = tracking_stats(log)["pos_x"]
    # order-statistics oracle
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    assert np.isclose(stats.q1, q1) and np.isclose(stats.median, med)
    assert np.isclose(stats.q3, q3)
    assert abs(stats.q1 - 0.25) < 0.02 and abs(stats.q3 - 0.75) < 0.02
    assert np.isclose(stats.whisker_hi, q3 + 1.5 * (q3 - q1))


def test_axis_stats_ordering_guard():
    s = axis_stats(np.array([1.0, 2.0, 3.0]))
    assert s.q1 <= s.median <= s.q3


def test_empty_log_raises():
    log = SimLog(6, 12)
    with pytest.raises(ValueError):
        tracking_stats(log)


def test_csv_roundtrip(tmp_path):
    log = _fake_log([np.array([0.1, -0.2, 0.3])] * 5)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    cols, data, diverged = SimLog.read_csv(path)
    assert cols == log.columns
    assert not diverged
    assert np.allclose(data, log.array())


def test_diverged_csv_header_names_time_and_cause(tmp_path):
    log = _fake_log([np.array([0.1, -0.2, 0.3])] * 3)
    log.divergence = (0.20600000000000002, "plant state turned non-finite")
    path = tmp_path / "log.csv"
    log.to_csv(path)
    assert path.read_text().splitlines()[0] == (
        "# simlog schema v1 diverged=1 t=0.20600000000000002 cause=plant state turned non-finite")
    cols, data, divergence = SimLog.read_csv(path)
    assert divergence == log.divergence
    assert cols == log.columns and np.allclose(data, log.array())
    log.divergence = None
    log.to_csv(path)
    assert path.read_text().splitlines()[0] == "# simlog schema v1 diverged=0"
    assert SimLog.read_csv(path)[2] is None


def test_quaternion_conversion_roundtrip():
    rng = np.random.default_rng(52)
    for _ in range(100):
        r = random_rotation(rng)
        w, x, y, z = _quat_wxyz(r)
        # rebuild rotation from quaternion
        q = np.array([w, x, y, z])
        assert np.isclose(np.linalg.norm(q), 1.0)
        r_back = np.array([
            [1 - 2 * (y**2 + z**2), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x**2 + z**2), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x**2 + y**2)],
        ])
        assert np.abs(r_back - r).max() < 1e-9
    # near-pi rotation hits the trace<=0 branch
    r = exp_so3(np.array([0.0, 3.14, 0.0]))
    q = _quat_wxyz(r)
    assert np.isfinite(q).all()
