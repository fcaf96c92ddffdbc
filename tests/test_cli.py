import json

import numpy as np
import pytest

from tiltmav.cli import main

HOVER_WPS = [{"t": 0.0, "p": [0.0, 0.0, 1.3]}, {"t": 2.0, "p": [0.0, 0.0, 1.3]}]


@pytest.fixture
def hover_file(tmp_path):
    path = tmp_path / "hover.json"
    path.write_text(json.dumps(HOVER_WPS))
    return str(path)


def test_simulate_writes_outputs(tmp_path, hover_file):
    out = tmp_path / "run"
    code = main(["simulate", "--traj", hover_file, "--controller", "pid",
                 "--out", str(out), "--seed", "1"])
    assert code == 0
    assert (out / "simlog.csv").exists()
    stats = json.loads((out / "tracking_stats.json").read_text())
    assert set(stats) == {f"{kind}_{ax}" for kind in ("pos", "att") for ax in "xyz"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["timestamp"] == ""
    assert set(manifest["outputs"]) == {"simlog.csv", "tracking_stats.json"}


def test_simulate_deterministic_across_runs(tmp_path, hover_file):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["simulate", "--traj", hover_file, "--out", str(out),
                     "--seed", "42"]) == 0
        outs.append(out)
    assert (outs[0] / "simlog.csv").read_bytes() == (outs[1] / "simlog.csv").read_bytes()
    assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sim": \n  oops}')
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_non_object_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_divergence_exit_code(tmp_path, hover_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gains": {"pid": {"k_p": -5.0}},
                               "trajectory": hover_file}))
    # destabilizing gain with an offset start: use unwind to perturb? the
    # negative gain alone destabilizes hover through numerical noise too
    # slowly, so command a real trajectory instead.
    wps = [{"t": 0.0, "p": [0.0, 0.0, 1.3]}, {"t": 6.0, "p": [1.0, 0.0, 1.3]},
           {"t": 12.0, "p": [1.0, 1.0, 1.3]}]
    traj = tmp_path / "move.json"
    traj.write_text(json.dumps(wps))
    code = main(["simulate", "--config", str(cfg), "--traj", str(traj),
                 "--out", str(tmp_path / "div")])
    assert code == 3
    assert (tmp_path / "div" / "simlog.csv").exists()


def test_envelope_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"n_dirs": 320}}))
    out = tmp_path / "env"
    assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "envelope_metrics.json").read_text())
    assert metrics["min"] <= metrics["mean"] <= metrics["max"]
    lines = (out / "envelope_samples.csv").read_text().strip().splitlines()
    assert lines[0] == "dir_x,dir_y,dir_z,value,eta"
    assert len(lines) == 321


def test_optimize_command_fast_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "design": {"cost": 1, "n_dirs_search": 320, "n_dirs_final": 320,
                   "n_random_starts": 0, "step_min": 0.01}
    }))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "design_result.json").read_text())
    assert result["feasible"]
    assert np.abs(np.array(result["beta_deg"])).max() < 1.0
    assert (out / "envelope_force.csv").exists()
    assert (out / "envelope_torque.csv").exists()


def test_condition_scan_command(tmp_path):
    out_off = tmp_path / "off"
    assert main(["condition-scan", "--bias", "off", "--out", str(out_off)]) == 0
    off = json.loads((out_off / "condition_scan.json").read_text())
    out_on = tmp_path / "on"
    assert main(["condition-scan", "--bias", "on", "--out", str(out_on)]) == 0
    on = json.loads((out_on / "condition_scan.json").read_text())
    # rank loss serializes as the string "inf" (strict JSON has no Infinity)
    assert off["max_log_kappa"] == "inf" or off["max_log_kappa"] >= 30.0
    assert on["max_log_kappa"] <= 10.0


def test_unwind_flag_outputs(tmp_path, hover_file):
    out = tmp_path / "unw"
    code = main(["simulate", "--traj", hover_file, "--unwind", "2",
                 "--controller", "lqri", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "unwinding.json").read_text())
    assert len(report["final_alpha"]) == 6


def test_optimize_with_config_beta_sweep(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "design": {"cost": 1, "n_dirs_search": 320, "n_dirs_final": 320,
                   "n_random_starts": 0, "step_min": 0.05, "beta_sweep": True}
    }))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "beta_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "beta_rad,f_min"
    assert len(lines) > 100
