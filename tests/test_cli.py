"""CLI contract: config validation messages, deterministic artifacts,
resolved-config round-trips, and exit codes."""

import json
from pathlib import Path
import re

import numpy as np
import pytest

from pfluid import cli
from pfluid.assembly import LinearSolveError
from pfluid.cli import ConfigError, main, parse_config, report
from pfluid.stepper import NonConvergenceError

from fem_reference import pure_strain


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def simulate_doc(**overrides):
    doc = {
        "command": "simulate",
        "model": {"p": 1.8, "delta": 0.1},
        "discretization": {"n": 2, "T": 0.1, "M": 2},
        "manufactured": None,
    }
    doc.update(overrides)
    return doc


# -- config validation -------------------------------------------------

def parse_error(doc):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    return str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(ConfigError) as err:
        parse_config("{,}")
    assert "line 1" in str(err.value) and "column" in str(err.value)


def test_config_must_be_object():
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1, 2]")


def test_command_validation():
    assert "command must be one of" in parse_error({"command": "solve"})
    assert "command must be one of" in parse_error({})


def test_unknown_keys_rejected_everywhere():
    assert "unknown config key 'frobnicate' in the top level" in parse_error(
        simulate_doc(frobnicate=1))
    assert "in model" in parse_error(
        simulate_doc(model={"p": 1.8, "delta": 0.1, "nu": 1}))
    doc = simulate_doc()
    doc["discretization"]["mesh"] = "x"
    assert "in discretization" in parse_error(doc)
    doc = simulate_doc()
    doc["discretization"]["quadrature"] = {"flow": 5, "fast": True}
    assert "in discretization.quadrature" in parse_error(doc)


def test_model_validation():
    assert "p must lie in (1,2]" in parse_error(
        simulate_doc(model={"p": 2.5, "delta": 0.1}))
    assert "p must lie in (1,2]" in parse_error(
        simulate_doc(model={"p": 1.0, "delta": 0.1}))
    assert "delta must be >= 0" in parse_error(
        simulate_doc(model={"p": 1.8, "delta": -0.1}))
    # bool is an int subclass in Python; true must not pass as 1
    assert "p must lie in (1,2]" in parse_error(
        simulate_doc(model={"p": True, "delta": 0.1}))
    assert "delta must be >= 0" in parse_error(
        simulate_doc(model={"p": 1.8, "delta": True}))
    assert "model.p is required" in parse_error(
        simulate_doc(model={"delta": 0.1}))
    assert "model.delta is required" in parse_error(
        simulate_doc(model={"p": 1.8}))
    doc = simulate_doc()
    del doc["model"]
    assert "model is required" in parse_error(doc)


def test_discretization_validation():
    doc = simulate_doc()
    doc["discretization"]["element"] = "P3"
    assert "element must be MINI, TH or P2P1" in parse_error(doc)
    doc = simulate_doc()
    del doc["discretization"]["T"]
    assert "discretization.T is required" in parse_error(doc)
    doc = simulate_doc()
    del doc["discretization"]["n"]
    assert "discretization.n is required" in parse_error(doc)
    doc = simulate_doc()
    doc["discretization"]["n"] = 0
    assert "integer >= 1" in parse_error(doc)
    doc = simulate_doc()
    doc["discretization"]["T"] = True
    assert "T must be > 0" in parse_error(doc)
    doc = simulate_doc()
    doc["discretization"]["sigma"] = True
    assert "sigma must be > 0" in parse_error(doc)


def test_study_argument_validation():
    base = {
        "command": "study",
        "model": {"p": 1.8, "delta": 0.1},
        "discretization": {"T": 0.5, "levels": [4, 8], "sigma": 0.25},
    }
    doc = json.loads(json.dumps(base))
    doc["discretization"]["steps"] = [8, 16]
    assert "mutually exclusive" in parse_error(doc)
    doc = json.loads(json.dumps(base))
    del doc["discretization"]["sigma"]
    assert "sigma is required" in parse_error(doc)
    doc = {"command": "study", "model": {"p": 1.8, "delta": 0.1},
           "discretization": {"T": 0.5, "steps": [8, 16]}}
    assert "n is required for a temporal study" in parse_error(doc)
    doc = {"command": "study", "model": {"p": 1.8, "delta": 0.1},
           "discretization": {"T": 0.5}}
    assert "study needs" in parse_error(doc)
    doc = json.loads(json.dumps(base))
    doc["manufactured"] = None
    assert "manufactured solution id" in parse_error(doc)
    doc = json.loads(json.dumps(base))
    doc["discretization"]["levels"] = [4, 0]
    assert "levels must each be >= 1" in parse_error(doc)


def test_misc_field_validation():
    assert "unknown manufactured solution id" in parse_error(
        simulate_doc(manufactured="steady"))
    assert "forcing must be" in parse_error(simulate_doc(forcing="random"))
    assert "seed must be a nonnegative integer" in parse_error(
        simulate_doc(seed=-1))
    assert "seed must be a nonnegative integer" in parse_error(
        simulate_doc(seed=True))
    assert "output must be" in parse_error(simulate_doc(output=""))
    assert "data must be" in parse_error(simulate_doc(data=7))


def test_defaults_materialized():
    cfg = parse_config(json.dumps(simulate_doc()))
    assert cfg.element == "MINI"
    assert cfg.quad_flow == 5 and cfg.quad_error == 7
    assert cfg.seed == 42
    assert cfg.output == "results"
    resolved = cfg.resolved()
    assert resolved["discretization"]["quadrature"] == {"flow": 5, "error": 7}
    assert resolved["model"] == {"p": 1.8, "delta": 0.1}
    assert resolved["command"] == "simulate"


# -- report formatting -------------------------------------------------

def test_report_golden():
    table = [["a", "bb"], [1, 2.5], [np.nan, True]]
    assert report(table) == "a    bb\n1   2.5\n   True\n"


def test_report_no_trailing_spaces():
    out = report([["x", "y"], [1.0, np.nan], [2.0, 3.0]])
    for line in out.splitlines():
        assert line == line.rstrip()
    assert out.endswith("\n")
    assert report([["x", "y"], [1.0, np.nan]]) == report([["x", "y"], [1.0, np.nan]])


# -- end-to-end runs ---------------------------------------------------

def test_simulate_zero_data(tmp_path):
    cfgfile = write_config(tmp_path, simulate_doc())
    out = tmp_path / "out"
    assert main(["--config", cfgfile, "--output", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "m,t_m,energy,divergence,iterations"
    assert len(lines) == 4
    for line in lines[1:]:
        m, tm, energy, div, its = line.split(",")
        assert energy == "0" and div == "0" and its == "0"
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["command"] == "simulate"
    assert "resolved config" in (out / "report.txt").read_text()


def test_simulate_unforced_degenerate_exits_zero(tmp_path):
    """delta = 0 without forcing: the run exits 0 (every step converges
    while the flow comes to rest) and the energy never grows."""
    doc = {"command": "simulate", "model": {"p": 1.8, "delta": 0.0},
           "discretization": {"element": "MINI", "n": 8, "T": 0.5, "M": 64},
           "forcing": "zero"}
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, doc),
                 "--output", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 65
    energy = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert energy[-1] > 0.0
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])


def test_output_dir_from_config(tmp_path):
    doc = simulate_doc(output=str(tmp_path / "fromcfg"))
    assert main(["--config", write_config(tmp_path, doc)]) == 0
    assert (tmp_path / "fromcfg" / "trajectory.csv").exists()


def test_bochner_check_deterministic(tmp_path):
    doc = {"command": "bochner-check"}
    cfgfile = write_config(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfgfile, "--output", str(a)]) == 0
    assert main(["--config", cfgfile, "--output", str(b)]) == 0
    assert (a / "bochner.csv").read_bytes() == (b / "bochner.csv").read_bytes()
    lines = (a / "bochner.csv").read_text().strip().split("\n")
    assert lines[0] == "family,M,kappa,lhs,rhs,holds"
    assert len(lines) == 1 + 3 * 3
    assert "lhs ~ kappa^" in (a / "report.txt").read_text()


def test_properties_seed_sensitivity(tmp_path):
    doc = {"command": "properties", "model": {"p": 1.8, "delta": 0.1},
           "samples": 500}
    cfgfile = write_config(tmp_path, doc)
    outs = [tmp_path / name for name in ("s42", "s42b", "s1")]
    assert main(["--config", cfgfile, "--output", str(outs[0])]) == 0
    assert main(["--config", cfgfile, "--output", str(outs[1])]) == 0
    assert main(["--config", cfgfile, "--output", str(outs[2]), "--seed", "1"]) == 0
    read = lambda d: (d / "properties.csv").read_bytes()
    assert read(outs[0]) == read(outs[1])
    assert read(outs[0]) != read(outs[2])
    header = read(outs[0]).decode().split("\n")[0]
    assert header == "ratio,p,delta,ratio_min,ratio_max,seed"


def artifacts(outdir):
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


@pytest.mark.parametrize("doc", [
    simulate_doc(manufactured="smooth-periodic"),
    {"command": "study", "model": {"p": 2.0, "delta": 1.0},
     "discretization": {"T": 0.1, "levels": [2, 4], "sigma": 0.5}},
    {"command": "properties", "model": {"p": 1.6, "delta": 0.01},
     "samples": 300},
    {"command": "gronwall-check"},
    {"command": "bochner-check", "discretization": {"steps": [2, 4]}},
], ids=lambda doc: doc["command"])
def test_resolved_config_round_trip(tmp_path, doc):
    first = tmp_path / "first"
    assert main(["--config", write_config(tmp_path, doc),
                 "--output", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["--config", str(first / "resolved_config.json"),
                 "--output", str(second)]) == 0
    assert artifacts(first) == artifacts(second)


def test_seed_override_is_validated(tmp_path, capsys):
    doc = {"command": "properties", "model": {"p": 1.6, "delta": 0.01},
           "samples": 300}
    cfgfile = write_config(tmp_path, doc)
    bad = tmp_path / "bad"
    assert main(["--config", cfgfile, "--output", str(bad), "--seed", "-1"]) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert "seed must be a nonnegative integer" in payload["message"]
    assert not bad.exists()
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--config", cfgfile, "--output", str(first), "--seed", "7"]) == 0
    assert json.loads((first / "resolved_config.json").read_text())["seed"] == 7
    assert main(["--config", str(first / "resolved_config.json"),
                 "--output", str(second)]) == 0
    assert artifacts(first) == artifacts(second)


def test_study_cli_coupled(tmp_path):
    doc = {"command": "study", "model": {"p": 2.0, "delta": 1.0},
           "discretization": {"T": 0.1, "levels": [2, 4], "sigma": 0.5}}
    out = tmp_path / "study"
    assert main(["--config", write_config(tmp_path, doc),
                 "--output", str(out)]) == 0
    lines = (out / "study.csv").read_text().strip().split("\n")
    assert lines[0] == ("p,delta,level,h,kappa,err_L2max,err_Fagg,"
                        "eoc_L2,eoc_F,gronwall_mu4,energy")
    assert len(lines) == 3
    quality = (out / "mesh_quality.csv").read_text().strip().split("\n")
    assert quality[0] == "level,h_max,h_min,gamma"
    assert len(quality) == 3
    assert "least-squares rates" in (out / "report.txt").read_text()


def test_gronwall_default_demo(tmp_path):
    out = tmp_path / "g"
    assert main(["--config", write_config(tmp_path, {"command": "gronwall-check"}),
                 "--output", str(out)]) == 0
    results = json.loads((out / "gronwall.json").read_text())
    assert results["zero"]["conclusion_ok"] is True
    assert results["doubling"]["stepwise_ok"] is False
    assert results["doubling"]["violations_bis"]


# -- exit codes and error channel --------------------------------------

def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    payload = stderr_payload(capsys)
    assert payload["exit_code"] == 2


def test_invalid_config_exit_code(tmp_path, capsys):
    doc = simulate_doc(model={"p": 2.5, "delta": 0.1})
    assert main(["--config", write_config(tmp_path, doc)]) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert "p must lie in (1,2]" in payload["message"]


@pytest.mark.parametrize("constant", [
    "NaN", "Infinity", "-Infinity", "1e400",
    pytest.param("1" + "0" * 400, id="int-1e400")])
@pytest.mark.parametrize("doc,key", [
    (simulate_doc(), "T"),
    ({"command": "bochner-check", "discretization": {}}, "T"),
    ({"command": "study", "model": {"p": 1.8, "delta": 0.1},
      "discretization": {"T": 0.5, "levels": [2, 4]}}, "sigma"),
], ids=["simulate", "bochner-check", "study"])
def test_non_finite_constant_rejected(tmp_path, capsys, constant, doc, key):
    # Python's JSON reader accepts these constants and reads an overflowing
    # literal as inf, range checks compare false on NaN, and an integer too
    # large for a float raises OverflowError where it is converted
    doc = json.loads(json.dumps(doc))
    doc["discretization"][key] = 12345.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace("12345.0", constant))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--output", str(out)]) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert f"non-finite number {constant}" in payload["message"]
    assert not out.exists()


def test_runtime_value_error_exit_code(tmp_path, capsys):
    # kappa > 1 is rejected by the solver after config validation passes
    doc = simulate_doc()
    doc["discretization"].update({"T": 4.0, "M": 2})
    assert main(["--config", write_config(tmp_path, doc),
                 "--output", str(tmp_path / "o")]) == 2
    assert stderr_payload(capsys)["error"] == "ValueError"


def test_degenerate_forcing_exit_code(tmp_path, capsys, monkeypatch):
    # the pure strain degenerates at the step time t = 0.5, which a
    # delta = 0 forcing refuses when the step evaluates it
    monkeypatch.setattr(cli.verif, "manufactured_default", lambda kind: pure_strain())
    doc = simulate_doc(model={"p": 1.8, "delta": 0.0},
                       discretization={"n": 2, "T": 0.5, "M": 2},
                       manufactured="smooth-periodic")
    assert main(["--config", write_config(tmp_path, doc),
                 "--output", str(tmp_path / "o")]) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "DegenerateGradientError"
    assert "t=0.5" in payload["message"]


def test_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    def fail(cfg, outdir):
        raise NonConvergenceError("step at t=0.05 did not reach tol")

    monkeypatch.setitem(cli._RUNNERS, "simulate", fail)
    assert main(["--config", write_config(tmp_path, simulate_doc()),
                 "--output", str(tmp_path / "o")]) == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "NonConvergenceError"
    assert payload["exit_code"] == 3


def test_unexpected_error_exit_code(tmp_path, capsys, monkeypatch):
    def fail(cfg, outdir):
        raise LinearSolveError("Factor is exactly singular")

    monkeypatch.setitem(cli._RUNNERS, "simulate", fail)
    assert main(["--config", write_config(tmp_path, simulate_doc()),
                 "--output", str(tmp_path / "o")]) == 5
    payload = stderr_payload(capsys)
    assert payload["error"] == "LinearSolveError"
    assert payload["exit_code"] == 5


def test_check_failure_exit_code(tmp_path, capsys):
    data = {"kappa": 0.1, "h": 0.1, "p": 1.8,
            "a": (1e-3 * 2.0 ** np.arange(6)).tolist(),
            "b": [0.0] * 6}
    datafile = tmp_path / "gronwall_data.json"
    datafile.write_text(json.dumps(data))
    doc = {"command": "gronwall-check", "data": str(datafile)}
    assert main(["--config", write_config(tmp_path, doc),
                 "--output", str(tmp_path / "o")]) == 4
    payload = stderr_payload(capsys)
    assert payload["error"] == "CheckFailureError"
    # artifacts are still written for post-mortem inspection
    assert (tmp_path / "o" / "gronwall.json").exists()


def test_gronwall_bad_data_file(tmp_path, capsys):
    datafile = tmp_path / "data.json"
    datafile.write_text(json.dumps({"kappa": 0.1, "h": 0.1, "p": 1.8,
                                    "a": [0.0, 0.0], "b": [0.0, 0.0],
                                    "extra": 1}))
    doc = {"command": "gronwall-check", "data": str(datafile)}
    assert main(["--config", write_config(tmp_path, doc),
                 "--output", str(tmp_path / "o")]) == 2
    assert "unknown config key" in stderr_payload(capsys)["message"]


@pytest.mark.parametrize("text,message", [
    ("5", "must be a JSON object"),
    ('{"kappa": 0.1, "h": 0.1, "p": 1.8, "a": [NaN, 0], "b": [0, 0]}',
     "non-finite number NaN"),
], ids=["not-an-object", "nan"])
def test_gronwall_data_file_read_like_config(tmp_path, capsys, text, message):
    datafile = tmp_path / "data.json"
    datafile.write_text(text)
    doc = {"command": "gronwall-check", "data": str(datafile)}
    out = tmp_path / "o"
    assert main(["--config", write_config(tmp_path, doc),
                 "--output", str(out)]) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert message in payload["message"]
    assert not out.exists()


def test_readme_example_configs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert examples
    for text in examples:
        parse_config(text)


def test_log_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("PFLUID_LOG", "debug")
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, simulate_doc()),
                 "--output", str(out)]) == 0
    assert (out / "report.txt").exists()
