import copy
import dataclasses
import inspect
import json
import functools
import math
import numbers
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltmav.cli import ConfigError, _morphology_from_config, _sim_pieces, build_parser, main
from tiltmav.design import DesignProblem
from tiltmav.diff_allocation import AllocationConfig, BiasConfig, condition_scan
from tiltmav.envelope import envelope, pinv_radii
from tiltmav.lqri import LqriGains
from tiltmav.mass_model import default_mass_model
from tiltmav.pid import PidGains
from tiltmav.sim import SimConfig
from tiltmav.trajectory import named_trajectory
from tiltmav.vehicle import Morphology, prototype_morphology

HOVER_WPS = [{"t": 0.0, "p": [0.0, 0.0, 1.3]}, {"t": 2.0, "p": [0.0, 0.0, 1.3]}]


def _morphology_with(value, *path):
    """A config whose inline morphology is the prototype's with value set at path."""
    doc = prototype_morphology().to_dict()
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return {"morphology": doc}


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
    # Four times the prototype's mass outweighs the rotors' full thrust: it falls.
    heavy = prototype_morphology().to_dict()
    heavy["body"]["m"] *= 4.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"morphology": heavy, "trajectory": hover_file}))
    wps = [{"t": 0.0, "p": [0.0, 0.0, 1.3]}, {"t": 6.0, "p": [1.0, 0.0, 1.3]},
           {"t": 12.0, "p": [1.0, 1.0, 1.3]}]
    traj = tmp_path / "move.json"
    traj.write_text(json.dumps(wps))
    code = main(["simulate", "--config", str(cfg), "--traj", str(traj),
                 "--out", str(tmp_path / "div")])
    assert code == 3
    lines = (tmp_path / "div" / "simlog.csv").read_text().splitlines()
    t_last = float(lines[-1].split(",")[0])
    assert lines[0].startswith("# simlog schema v1 diverged=1 t=")
    assert lines[0].endswith(" cause=position error exceeded the divergence limit")
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
    ("simulate", {"allocation": {"k_alpha": 0}}, "allocation: ", "k_alpha"),
    ("simulate", {"allocation": {"k_alpha": float("inf")}}, "allocation: ", "k_alpha"),
    ("simulate", {"allocation": {"v_omega_dot": -250.0}}, "allocation: ", "v_omega_dot"),
    ("simulate", {"allocation": {"v_alpha_dot": float("nan")}}, "allocation: ", "v_alpha_dot"),
    ("simulate", {"allocation": {"max_unwind_arms": 1.5}}, "allocation: ", "max_unwind_arms"),
    ("simulate", {"allocation": {"max_unwind_arms": 0}}, "allocation: ", "max_unwind_arms"),
    ("simulate", {"allocation": {"unwind_release": 0.3}}, "allocation: ", "unwind_release"),
    ("condition-scan", {"bias": {"delta": float("inf")}}, "bias: ", "delta"),
    ("simulate", {"bias": {"colinearity_tol": 0.0}}, "bias: ", "colinearity_tol"),
    ("simulate", {"bias": {"colinearity_tol": 2.0}}, "bias: ", "colinearity_tol"),
    ("simulate", {"morphology": {"arms": [1, 2, 3]}}, "morphology: ",
     "arms[0] must be an object"),
    ("envelope", {"envelope": {"n_dirs": 50}}, "envelope: ", "n_dirs"),
    ("envelope", {"envelope": {"allocation": "x"}}, "envelope: ", "allocation"),
    ("condition-scan", {"condition_scan": {"hover_dir": [0.0, 1.0]}}, "condition_scan: ",
     "hover_dir"),
    ("simulate", {"allocation": {"home_alpha": float("nan")}}, "allocation: ", "home_alpha"),
    ("condition-scan", {"condition_scan": {"extra_force_mag": True}}, "condition_scan: ",
     "extra_force_mag"),
    ("simulate", {"gains": {"pid": {"k_p": float("nan")}}}, "gains.pid: ", "k_p"),
    ("simulate", {"gains": {"pid": {"k_p": -5.0}}}, "gains.pid: ", "k_p"),
    ("simulate", {"gains": {"pid": {"j_max_lin": -1}}}, "gains.pid: ", "j_max_lin"),
    ("simulate", {"gains": {"pid": {"j_max_ang": 0.0}}}, "gains.pid: ", "j_max_ang"),
    ("simulate", {"gains": {"lqri": {"k_p": float("nan")}}}, "gains.lqri: ", "k_p"),
    ("simulate", {"gains": {"lqri": {"k_omega": float("inf")}}}, "gains.lqri: ", "k_omega"),
    ("simulate", {"gains": {"lqri": {"r_f_dot": [1, 1]}}}, "gains.lqri: ", "r_f_dot"),
    ("simulate", {"gains": {"lqri": {"r_tau_dot": [1, 1, float("nan")]}}}, "gains.lqri: ",
     "r_tau_dot"),
    ("optimize", {"design": {"beta_sweep": "no"}}, "design: ", "beta_sweep"),
    ("optimize", {"design": {"hover_axis": [0, 0, 2]}}, "design: ", "hover_axis"),
    ("optimize", {"design": {"force_ref": 0}}, "design: ", "force_ref"),
    ("optimize", {"design": {"torque_ref": 1.0}}, "design: ", "torque_ref"),
    # Unknown morphology keys are rejected like those of every other section.
    ("simulate", _morphology_with(1000.0, "rotor", "omega_mx"), "morphology: rotor: ",
     "omega_mx"),
    ("simulate", _morphology_with(0.3, "arms", 0, "lenght"), "morphology: arms[0]: ", "lenght"),
    ("simulate", _morphology_with({}, "bodyy"), "morphology: ", "bodyy"),
    # Non-finite numbers and short vectors stop at the config boundary, before any computation.
    ("envelope", _morphology_with(float("nan"), "rotor", "c_f"), "morphology: rotor: ", "c_f"),
    ("envelope", _morphology_with(float("nan"), "rotor", "c_d"), "morphology: rotor: ", "c_d"),
    ("simulate", _morphology_with(float("nan"), "tilt", "tau"), "morphology: tilt: ", "tau"),
    ("simulate", _morphology_with(float("inf"), "body", "m"), "morphology: ", "body.m must"),
    ("optimize", {"design": {"arm_length": float("inf")}}, "design: ", "arm_length"),
    ("simulate", _morphology_with([0, 0], "body", "r_com"), "morphology: body: ", "r_com"),
    # A first step below step_min skipped the search.
    ("optimize", {"design": {"step_init": -1}}, "design: ", "step_init"),
    ("optimize", {"design": {"rotor": {"c_f": float("nan")}}}, "design.rotor: ", "c_f"),
    ("optimize", {"design": {"mass_model": {"r_core": 0.1}}}, "design.mass_model: ",
     "m_core_const"),
    # An integral gain of 0 leaves its integral state unobservable: no CARE
    # solution, whichever controller runs.
    ("simulate", {"gains": {"lqri": {"k_p_i": 0}}}, "gains.lqri: ", "k_p_i"),
    ("simulate", {"gains": {"lqri": {"k_r_i": 0}}}, "gains.lqri: ", "k_r_i"),
    # Force mode fixes no force, so hover_force there would be ignored.
    ("envelope", {"envelope": {"mode": "force", "n_dirs": 320, "hover_force": [0, 0, 40]}},
     "envelope: ", "hover_force"),
    # A value under a renamed document key is reported under that key.
    ("simulate", _morphology_with(-1, "body", "m"), "morphology: ", "body.m must"),
    ("simulate", _morphology_with("x", "body", "J"), "morphology: ", "body.J must"),
    ("simulate", _morphology_with(-2, "tilt", "rate_limits", "alpha_dot"), "morphology: ",
     "tilt.rate_limits.alpha_dot must"),
    ("simulate", _morphology_with(0, "tilt", "rate_limits", "omega_dot"), "morphology: ",
     "tilt.rate_limits.omega_dot must"),
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


def _document_keys(doc) -> set:
    """Every key of a JSON document, at any depth."""
    if isinstance(doc, list):
        return set().union(*map(_document_keys, doc))
    if isinstance(doc, dict):
        return set(doc).union(*map(_document_keys, doc.values()))
    return set()


def test_readme_lists_every_config_key():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    keys_paragraph = text[text.index("Configuration keys"):].split("\n\n")[0]
    names = {f.name for cls in (SimConfig, AllocationConfig, BiasConfig, LqriGains, PidGains,
                                DesignProblem)
             for f in dataclasses.fields(cls)}
    names |= _document_keys(prototype_morphology().to_dict())
    for fn in (envelope, condition_scan):
        names |= set(inspect.signature(fn).parameters) - {"m", "bias_cfg"}
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
    files = [(broken, "Expecting")]
    # Waypoint files follow the number rule and name the offending item.
    for name, waypoints, message in (
            ("no_t", [{"p": [0.0, 0.0, 1.3]}], "missing required key [0].t"),
            ("nan_t", [HOVER_WPS[0], {**HOVER_WPS[1], "t": math.nan}], "[1]: t "),
            ("bool_t", [{**HOVER_WPS[0], "t": True}, HOVER_WPS[1]], "[0]: t "),
            ("nan_p", [HOVER_WPS[0], {**HOVER_WPS[1], "p": [0.0, math.nan, 1.3]}],
             "[1]: each entry of p "),
            ("inf_rpy", [{**HOVER_WPS[0], "rpy": [0.0, math.inf, 0.0]}, HOVER_WPS[1]],
             "[0]: each entry of rpy "),
            ("yaw", [HOVER_WPS[0], {**HOVER_WPS[1], "yaw": 90.0}], "[1]: unknown key(s) yaw"),
            ("object", {"waypoints": HOVER_WPS}, "must be a JSON list")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(waypoints))
        files.append((path, message))
    for path, message in files:
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
    # A NaN scale would otherwise reach the spline solve as a LinAlgError.
    cfg.write_text(json.dumps({"trajectory_scale": math.nan}))
    assert main(["simulate", "--config", str(cfg), "--traj", "g",
                 "--out", str(tmp_path / "o")]) == 2
    assert "trajectory_scale: scale must be a finite number" in capsys.readouterr().err
    # A waypoint file has no scale; the key would be silently ignored.
    cfg.write_text(json.dumps({"trajectory_scale": 7.0}))
    assert main(["simulate", "--config", str(cfg), "--traj", hover_file,
                 "--out", str(tmp_path / "o")]) == 2
    assert "trajectory_scale applies to the named trajectories" in capsys.readouterr().err


@pytest.mark.parametrize("trajectory", [7, ["a"], None, {"name": "a"}])
def test_a_non_string_trajectory_is_a_config_error(tmp_path, capsys, trajectory):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trajectory": trajectory}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "trajectory must be a-g or a waypoint file" in capsys.readouterr().err


def test_internal_faults_are_not_config_errors(tmp_path, hover_file, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr("tiltmav.cli.run", singular)
    with pytest.raises(np.linalg.LinAlgError):
        main(["simulate", "--traj", hover_file, "--out", str(tmp_path / "o")])


def test_faults_inside_envelope_and_scan_are_not_config_errors(tmp_path, monkeypatch):
    # Only the arguments of a computing section are config errors; a
    # numerical fault (LinAlgError is a ValueError) in its computation is not.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr("tiltmav.diff_allocation.condition_number", singular)
    with pytest.raises(np.linalg.LinAlgError):
        main(["condition-scan", "--out", str(tmp_path / "scan")])
    monkeypatch.setattr("tiltmav.envelope.pinv_radii", singular)
    with pytest.raises(np.linalg.LinAlgError):
        main(["envelope", "--out", str(tmp_path / "env")])


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


@pytest.mark.parametrize("enabled", [True, False])
def test_condition_scan_rejects_bias_enabled(tmp_path, capsys, enabled):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bias": {"enabled": enabled, "delta": 0.2}}))
    for flags in ([], ["--bias", "on"]):
        out = tmp_path / f"scan{len(flags)}"
        assert main(["condition-scan", "--config", str(cfg), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bias.enabled" in err and "--bias" in err and "condition_scan.bias_on" in err
        assert not (out / "condition_scan.json").exists()


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


@pytest.mark.parametrize("base", [
    default_mass_model(), DesignProblem(), SimConfig(), AllocationConfig(), BiasConfig(),
    PidGains(), LqriGains()], ids=lambda base: type(base).__name__)
def test_every_number_field_takes_only_finite_numbers(base):
    # The vehicle's own dataclasses have these cases in tests/test_vehicle.py.
    for f in dataclasses.fields(base):
        if not isinstance(getattr(base, f.name), float):
            continue
        for value in (math.nan, math.inf, -math.inf, True, False, "1.0", None, [1.0]):
            if f.name.startswith("j_max_") and value == math.inf:
                continue                    # the PID slew limits take +inf: no limit
            with pytest.raises(ValueError, match=f.name):
                dataclasses.replace(base, **{f.name: value})


def _other_kinds(value) -> tuple:
    """Values of another kind than value: a number, true or false, text or a vector."""
    if isinstance(value, bool):
        return (1, "yes", "no")     # "no" is truthy: read as a switch it would turn it on
    if isinstance(value, numbers.Real):
        return ("1.0", True)
    if isinstance(value, str):
        return (1, True)
    if isinstance(value, (tuple, np.ndarray)):
        return ("text", True)
    return ()      # a nested dataclass: its own section's constructor is covered here


def _replacing(base):
    """dataclasses.replace on base, with every field's valid value."""
    return pytest.param(functools.partial(dataclasses.replace, base),
                        {f.name: getattr(base, f.name) for f in dataclasses.fields(base)},
                        id=type(base).__name__)


_PROTOTYPE = prototype_morphology()


@pytest.mark.parametrize("make,valid", [
    *map(_replacing, (_PROTOTYPE.rotor, _PROTOTYPE.tilt, _PROTOTYPE.body, _PROTOTYPE.arms[0],
                      default_mass_model(), DesignProblem(), SimConfig(), AllocationConfig(),
                      BiasConfig(), PidGains(), LqriGains())),
    # The computing functions a config section reaches; bias_cfg is built
    # from the bias section, so BiasConfig above covers it.
    pytest.param(functools.partial(envelope, _PROTOTYPE),
                 {"mode": "torque", "n_dirs": 100, "hover_force": (0.0, 0.0, 40.0),
                  "allocation": "pinv"}, id="envelope"),
    pytest.param(functools.partial(condition_scan, _PROTOTYPE, bias_cfg=None),
                 {"hover_dir": (0.0, 0.0, 1.0), "extra_force_mag": 10.0, "bias_on": False,
                  "n_dirs": 100}, id="condition_scan"),
    pytest.param(functools.partial(named_trajectory, "g"), {"scale": 1.0},
                 id="named_trajectory"),
])
def test_every_field_rejects_a_value_of_another_kind(make, valid):
    # The constructors own the kind rule; no later check catches what they let through.
    if make.func is not dataclasses.replace:
        assert set(inspect.signature(make).parameters) - set(make.keywords) == set(valid)
    for name, value in valid.items():
        for other in _other_kinds(value):
            with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
                make(**{**valid, name: other})


# Copies, since a later mutation may edit an inserted list or object.
_BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, True, False, "text", None,
                               [1.0], {"x": 1.0}]).map(copy.deepcopy)


@st.composite
def _mutated_documents(draw):
    """The prototype's morphology document with 1-3 keys dropped, unknown keys
    added or values replaced, and the label (section or unknown key) of each."""
    doc = prototype_morphology().to_dict()
    labels = []
    for _ in range(draw(st.integers(1, 3))):
        path, node = [], doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            path.append(key)
            node = node[key]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["drop", "replace", "add"]))
        if op == "add" and isinstance(node, dict):
            node["extra_key"] = draw(_BAD_VALUES)
            path = path or ["extra_key"]
        elif not path:
            continue
        elif op == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_BAD_VALUES)
        labels.append(f"arms[{path[1]}]" if path[0] == "arms" and len(path) > 1 else path[0])
    return doc, labels


@settings(max_examples=300, deadline=None)
@given(_mutated_documents())
def test_morphology_loader_builds_or_names_a_path(mutated):
    doc, labels = mutated
    try:
        m = _morphology_from_config({"morphology": doc})
    except ConfigError as exc:
        message = str(exc)
        assert message.startswith("morphology: ")
        assert any(label in message for label in labels), message
    else:
        assert isinstance(m, Morphology)
