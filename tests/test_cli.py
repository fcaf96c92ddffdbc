import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tiltmav.cli import _sim_pieces, build_parser, main
from tiltmav.diff_allocation import AllocationConfig, BiasConfig, condition_scan
from tiltmav.envelope import envelope, pinv_radii
from tiltmav.lqri import LqriGains
from tiltmav.pid import PidGains
from tiltmav.sim import SimConfig
from tiltmav.vehicle import prototype_morphology

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


def test_divergence_exit_code(tmp_path, hover_file, capsys):
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
    lines = (tmp_path / "div" / "simlog.csv").read_text().splitlines()
    assert lines[0] == "# simlog schema v1 diverged=1"
    t_last = float(lines[-1].split(",")[0])
    err = capsys.readouterr().err
    assert f"diverged at t={t_last:.3f} s" in err
    assert "position error exceeded the divergence limit" in err


@pytest.mark.parametrize("command,config,path,key", [
    ("simulate", {"simm": {"controller": "lqri"}}, "unknown key(s)", "simm"),
    ("envelope", {"envelope": {"n_dir": 320}}, "envelope: ", "'n_dir'"),
    ("simulate", {"gains": {"pid": {"kp": 1.0}}}, "gains.pid: ", "'kp'"),
    # Both gain sets are built whichever controller runs (PID here).
    ("simulate", {"gains": {"lqri": {"kp": 1.0}}}, "gains.lqri: ", "'kp'"),
    ("simulate", {"gains": {"pdi": {}}}, "gains: ", "pdi"),
    # The JSON names are v_alpha_dot and v_omega_dot.
    ("simulate", {"allocation": {"unwind_alpha_rate": 5.0}}, "allocation: ", "'unwind_alpha_rate'"),
    ("simulate", {"bias": {"enable": True}}, "bias: ", "'enable'"),
    ("simulate", {"sim": {"dt_physic": 1e-3}}, "sim: ", "'dt_physic'"),
    # The scan's switch is bias_on, the parameter of condition_scan.
    ("condition-scan", {"condition_scan": {"bias": True}}, "condition_scan: ", "'bias'"),
    ("simulate", {"sim": {"use_estimator": "yes"}}, "sim: ", "use_estimator"),
    ("envelope", {"envelope": {"n_dirs": 100.5}}, "envelope: ", "n_dirs"),
    ("envelope", {"envelope": {"mode": "torque", "n_dirs": 320, "hover_force": [0.0, 40.0]}},
     "envelope: ", "hover_force"),
    ("envelope", {"envelope": [320]}, "must be a JSON object", "envelope"),
    ("simulate", {"sim": {"seed": 1.5}}, "sim: ", "seed"),
    ("simulate", {"sim": {"seed": True}}, "sim: ", "seed"),
    ("simulate", {"sim": {"sg_window": 21.0, "use_estimator": True}}, "sim: ", "sg_window"),
    ("simulate", {"sim": {"sg_order": 1.0}}, "sim: ", "sg_order"),
    ("simulate", {"sim": {"sg_window": 5, "sg_order": 5}}, "sim: ", "sg_order"),
    ("simulate", {"sim": {"controller": "mpc"}}, "sim: ", "controller"),
    ("condition-scan", {"condition_scan": {"n_dirs": 100.5}}, "condition_scan: ", "n_dirs"),
    ("simulate", {"morphology": {"arms": 3}}, "morphology: ", "arms"),
    ("simulate", {"gains": {"pid": {"k_p": "5"}}}, "gains.pid: ", "k_p"),
    ("simulate", {"gains": {"lqri": {"k_p": -1.0}}}, "gains.lqri: ", "Q gains"),
    ("optimize", {"design": {"n_arms": 2}}, "design: ", "n_arms"),
    ("optimize", {"design": {"step_init": "large"}}, "design: ", "step_init"),
])
def test_config_errors_name_the_key(tmp_path, hover_file, capsys, command, config, path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--traj", hover_file,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert path in err and key in err


def test_empty_sections_build_the_defaults():
    config = {key: {} for key in ("sim", "allocation", "bias")}
    config["gains"] = {"pid": {}, "lqri": {}}
    _, sim, _, gains, alloc, bias = _sim_pieces(build_parser().parse_args(["simulate"]), config)
    assert sim == SimConfig() and alloc == AllocationConfig() and bias == BiasConfig()
    assert gains == {"pid": PidGains(), "lqri": LqriGains()}


def test_readme_lists_every_config_key():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    keys_paragraph = text[text.index("Configuration keys"):].split("\n\n")[0]
    names = {f.name for cls in (SimConfig, AllocationConfig, BiasConfig, LqriGains, PidGains)
             for f in dataclasses.fields(cls)}
    for fn in (envelope, condition_scan):
        names |= set(inspect.signature(fn).parameters) - {"m", "alloc", "bias_cfg"}
    missing = sorted(n for n in names if not re.search(rf"\b{n}\b", keys_paragraph))
    assert not missing


def test_unwind_count_must_fit_the_arms(tmp_path, hover_file, capsys):
    for n in (-1, 7):
        assert main(["simulate", "--traj", hover_file, "--unwind", str(n),
                     "--out", str(tmp_path / "o")]) == 2
        assert "--unwind" in capsys.readouterr().err


def test_missing_input_files_are_config_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"morphology": str(tmp_path / "nope.json")}))
    assert main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "nope.json" in capsys.readouterr().err
    assert main(["simulate", "--traj", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_malformed_input_files_are_config_errors(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('[{"t": 0.0, ')
    no_t = tmp_path / "no_t.json"
    no_t.write_text(json.dumps([{"p": [0.0, 0.0, 1.3]}]))
    for path, message in ((broken, "Expecting"), (no_t, "missing key 't'")):
        assert main(["simulate", "--traj", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"morphology": str(broken)}))
    assert main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert str(broken) in capsys.readouterr().err


def test_trajectory_scale_is_checked(tmp_path, hover_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trajectory_scale": "large"}))
    assert main(["simulate", "--config", str(cfg), "--traj", "g",
                 "--out", str(tmp_path / "o")]) == 2
    assert "trajectory_scale: " in capsys.readouterr().err
    # A waypoint file has no scale; the key would be silently ignored.
    cfg.write_text(json.dumps({"trajectory_scale": 7.0}))
    assert main(["simulate", "--config", str(cfg), "--traj", hover_file,
                 "--out", str(tmp_path / "o")]) == 2
    assert "trajectory_scale applies to the named trajectories" in capsys.readouterr().err


def test_internal_faults_are_not_config_errors(tmp_path, hover_file, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr("tiltmav.cli.run", singular)
    with pytest.raises(np.linalg.LinAlgError):
        main(["simulate", "--traj", hover_file, "--out", str(tmp_path / "o")])


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


def test_envelope_command_optimal_allocation(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"allocation": "optimal", "n_dirs": 320}}))
    out = tmp_path / "env"
    assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "envelope_samples.csv", delimiter=",", skiprows=1)
    dirs, values, eta = rows[:, :3], rows[:, 3], rows[:, 4]
    assert len(rows) == 320
    assert np.all(eta > 0.0) and np.all(eta <= 1.0)
    # The 64-gon LP holds cos(pi/64) of each disc and never loses to the
    # pseudoinverse feed by more than that.
    assert np.all(values >= np.cos(np.pi / 64) * pinv_radii(prototype_morphology(), dirs))
    # The direction nearest +z (9.9 deg off the axis) is the most efficient one.
    z_idx = np.argmax(dirs[:, 2])
    assert eta[z_idx] > 0.98 and eta[z_idx] >= eta.max() - 1e-9


def test_missing_morphology_key_names_its_path(tmp_path, capsys):
    spec = prototype_morphology().to_dict()
    del spec["tilt"]["tau"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"morphology": spec, "envelope": {"n_dirs": 320}}))
    assert main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "env")]) == 2
    assert "tilt.tau" in capsys.readouterr().err


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
