"""The workloads' output checks accept correct outputs and reject perturbed ones."""

import numpy as np

from perfbench import workloads as wl
from perfbench.tracer import Tracer
from tiltmav.simlog import SimLog
from tiltmav.trajectory import Trajectory, Waypoint


def _sim_out(n_rows=50, e_p=0.01, final_alpha=0.1, diverged=False):
    columns = SimLog(6, 12).columns
    log = np.zeros((n_rows, len(columns)))
    log[:, columns.index("e_p_x")] = e_p
    for i in range(6):
        log[-1, columns.index(f"alpha_{i}")] = final_alpha
    return {"columns": list(columns), "log": log, "diverged": diverged}


def test_sim_checks_pass_a_good_log():
    assert wl.check_sim_flip(_sim_out()) == []
    assert wl.check_sim_unwind(_sim_out(e_p=0.005)) == []


def test_sim_checks_reject_a_diverged_log():
    assert wl.check_sim_flip(_sim_out(diverged=True))
    assert wl.check_sim_unwind(_sim_out(e_p=0.005, diverged=True))


def test_sim_checks_reject_non_finite_values_and_large_errors():
    bad = _sim_out()
    bad["log"][3, 2] = np.nan
    assert wl.check_sim_flip(bad)
    assert wl.check_sim_flip(_sim_out(e_p=0.2))
    assert wl.check_sim_unwind(_sim_out(e_p=0.03))


def test_unwind_check_rejects_a_wound_arm():
    assert wl.check_sim_unwind(_sim_out(e_p=0.005, final_alpha=2.0 * np.pi))


def _design_out():
    return {"theta_deg": [0.0] * 6, "beta_deg": [35.3, -35.3, 35.3, -35.3, 35.3, -35.3],
            "feasible": True}


def test_design_check():
    assert wl.check_design_oct(_design_out()) == []
    flipped = _design_out()
    flipped["beta_deg"][2] = -35.3
    assert wl.check_design_oct(flipped)
    off = _design_out()
    off["beta_deg"] = [30.0, -30.0] * 3
    assert wl.check_design_oct(off)
    tilted = _design_out()
    tilted["theta_deg"][0] = 2.0
    assert wl.check_design_oct(tilted)
    infeasible = _design_out()
    infeasible["feasible"] = False
    assert wl.check_design_oct(infeasible)


def _reach_out():
    pinv = np.full(5, 100.0)
    return {"f_z": 133.12, "prototype_force_optimal": pinv * 1.005,
            "prototype_force_pinv": pinv, "scan_off": np.array([1.0, 36.0]),
            "scan_on": np.array([1.0, 4.0])}


def test_reach_check():
    assert wl.check_reach_optimal(_reach_out()) == []
    off = _reach_out()
    off["f_z"] += 1.0
    assert wl.check_reach_optimal(off)
    short = _reach_out()
    short["prototype_force_optimal"][3] = 99.0
    assert wl.check_reach_optimal(short)
    scan = _reach_out()
    scan["scan_on"][1] = 12.0
    assert wl.check_reach_optimal(scan)
    scan = _reach_out()
    scan["scan_off"][1] = 20.0
    assert wl.check_reach_optimal(scan)


def test_digest_sees_one_bit_and_ignores_key_order(tmp_path):
    a = _reach_out()
    assert wl.digest(a) == wl.digest(dict(reversed(list(a.items()))))
    b = _reach_out()
    b["prototype_force_pinv"][0] = np.nextafter(100.0, 200.0)
    assert wl.digest(a) != wl.digest(b)


def test_traced_pass_matches_untraced_pass(tmp_path):
    inputs = wl.build_sim_flip(seed=5)
    inputs["trajectory"] = Trajectory([Waypoint(t=0.0, p=[0.0, 0.0, 1.3]),
                                       Waypoint(t=0.2, p=[0.05, 0.0, 1.3])])
    plain = wl.run_sim_flip(inputs, tmp_path)
    with Tracer() as t:
        traced = wl.run_sim_flip(inputs, tmp_path)
    assert any(s.name == "sim.Plant.step" for s in t.finished())
    assert wl.digest(plain) == wl.digest(traced)
