import contextlib
import copy
import ctypes
import dataclasses
import errno
import functools
import io
import json
import math
import operator
import os
import re
import stat
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwb_locsim import Gaussian, RandomStream, SolverConfig
from uwb_locsim.cli import main
from uwb_locsim.scenarios import PRESETS, preset_scenario, scenario_to_dict


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_dw1000(capsys):
    code, out, _ = _run(capsys, "energy", "--profile", "dw1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["energy_per_ranging_uJ"] == pytest.approx(180.8961, abs=1e-4)
    assert abs(payload["energy_per_ranging_uJ"] - 180.0) / 180.0 < 0.01


def test_energy_3db_with_period(capsys):
    code, out, _ = _run(capsys, "energy", "--profile", "3db", "--period", "1.0", "--sleep")
    assert code == 0
    payload = json.loads(out)
    assert payload["energy_per_ranging_uJ"] == pytest.approx(28.0, abs=1e-9)
    assert payload["rest_state"] == "sleep"
    assert payload["average_power_mW"] > 0


def test_energy_sleep_without_a_period_is_a_usage_error(capsys):
    # --sleep only chooses the rest state of the average power, which needs --period
    code, out, err = _run(capsys, "energy", "--profile", "3db", "--sleep")
    assert (code, out) == (1, "")
    assert "--sleep" in err and "--period" in err


def test_energy_profile_from_file(tmp_path, capsys):
    spec = {"name": "custom", "p_tx": 10.0, "p_rx": 20.0, "p_idle": 1.0,
            "p_sleep": 0.001, "t_packet": 100.0, "e_transition": 0.5}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(spec))
    code, out, _ = _run(capsys, "energy", "--profile", str(path))
    assert code == 0
    assert json.loads(out)["energy_per_ranging_uJ"] == pytest.approx(3.5)


def test_energy_unknown_profile(capsys):
    code, _, err = _run(capsys, "energy", "--profile", "nonexistent")
    assert code == 2
    assert "nonexistent" in err


def test_energy_period_too_short_is_numerical_usage(capsys):
    code, _, err = _run(capsys, "energy", "--profile", "dw1000", "--period", "0.0001")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert _run(capsys, "energy")[0] == 1  # missing required --profile
    assert _run(capsys, "frobnicate")[0] == 1
    assert _run(capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert _run(capsys, "--help")[0] == 0
    for sub in ("fit", "sample", "solve", "simulate", "range-stats", "energy"):
        assert _run(capsys, sub, "--help")[0] == 0


def test_sample_deterministic_with_seed(tmp_path, capsys):
    model = '{"family": "gaussian", "params": {"mu": 0.0, "sigma": 0.071}}'
    code, out1, _ = _run(capsys, "sample", "--model", model, "-n", "5", "--seed", "9")
    code2, out2, _ = _run(capsys, "sample", "--model", model, "-n", "5", "--seed", "9")
    assert code == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "error_m"
    expected = Gaussian(0.0, 0.071).sample(RandomStream(9), 5)
    np.testing.assert_allclose([float(v) for v in lines[1:]], expected)


def test_sample_bad_model_spec(capsys):
    code, _, err = _run(capsys, "sample", "--model", '{"family": "zeta", "params": {}}')
    assert code == 2


def test_fit_command(tmp_path, capsys):
    data = Gaussian(0.01, 0.05).sample(RandomStream(21), 4000)
    path = tmp_path / "errors.csv"
    path.write_text("error_m\n" + "\n".join(str(float(v)) for v in data) + "\n")
    code, out, _ = _run(capsys, "fit", "--input", str(path), "--families", "gaussian,lognormal")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_samples"] == 4000
    assert [r["family"] for r in payload["ranking"]][0] in ("gaussian", "lognormal")
    top = payload["ranking"][0]
    assert set(top) >= {"family", "params", "nll", "sse", "converged", "evaluations"}


def test_fit_with_a_repeated_family_exits_2(tmp_path, capsys):
    path = tmp_path / "errors.csv"
    path.write_text("error_m\n" + "\n".join(str(0.01 * k) for k in range(100)) + "\n")
    code, out, err = _run(capsys, "fit", "--input", str(path), "--families", "gaussian,gaussian")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "'gaussian'" in err


def test_fit_no_header_and_bad_value(tmp_path, capsys):
    path = tmp_path / "errors.csv"
    path.write_text("0.01\n0.02\nbogus\n")
    code, _, err = _run(capsys, "fit", "--input", str(path), "--no-header")
    assert code == 2
    assert "line" in err or ":3:" in err


def test_solve_command(tmp_path, capsys):
    truth = np.array([5.0, 5.0, 1.0])
    anchors = [
        {"id": "a1", "x": 0.0, "y": 0.0, "z": 0.0},
        {"id": "a2", "x": 10.0, "y": 0.0, "z": 0.0},
        {"id": "a3", "x": 0.0, "y": 10.0, "z": 0.0},
        {"id": "a4", "x": 10.0, "y": 10.0, "z": 3.0},
    ]
    distances = [
        float(np.linalg.norm(truth - np.array([a["x"], a["y"], a["z"]]))) for a in anchors
    ]
    payload = {
        "anchors": anchors,
        "distances": distances,
        "config": {"delta": 1e-9, "k_max": 25, "c": 0.0, "x0": {"x": 4.0, "y": 4.0, "z": 0.0}},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    code, out, _ = _run(capsys, "solve", "--input", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["converged"]
    np.testing.assert_allclose([result["x"], result["y"], result["z"]], truth, atol=1e-6)


def test_solve_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"anchors": []}')
    assert _run(capsys, "solve", "--input", str(path))[0] == 2
    path.write_text("not json")
    assert _run(capsys, "solve", "--input", str(path))[0] == 2
    path.write_text('{"anchors": [1, 2, 3, 4], "distances": [1, 2, 3, 4]}')
    code, _, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2
    assert "anchors[0]" in err


def test_solve_numerical_failure_exit_code(tmp_path, capsys):
    payload = {
        "anchors": [{"id": str(i), "x": float(i), "y": 0.0, "z": 0.0} for i in range(4)],
        "distances": [1.0, 1.0, 1.0, 2.0],
        "config": {"c": 0.0, "x0": {"x": 1.0, "y": 0.0, "z": 0.0}},
    }
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(payload))
    code, _, err = _run(capsys, "solve", "--input", str(path))
    assert code == 3
    assert "numerical" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_solve_non_finite_distance_is_a_data_error(tmp_path, capsys, bad):
    anchors = [{"id": str(i), "x": x, "y": y, "z": 2.5}
               for i, (x, y) in enumerate([(0, 0), (9, 0), (9, 20), (0, 20)])]
    path = tmp_path / "problem.json"
    path.write_text(f'{{"anchors": {json.dumps(anchors)}, "distances": [5.0, 6.0, {bad}, 7.0]}}')
    code, _, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2
    assert "finite" in err
    assert "Traceback" not in err


def test_solve_config_reads_numeric_strings_and_names_bad_fields(tmp_path, capsys):
    anchors = [{"id": str(i), "x": x, "y": y, "z": 2.5}
               for i, (x, y) in enumerate([(0, 0), (9, 0), (9, 20), (0, 20)])]
    payload = {"anchors": anchors, "distances": [10.0, 11.0, 12.0, 10.5],
               "config": {"c": "0.1", "weights": ["0.1", "0.1", "0.2", "0.2"]}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    assert _run(capsys, "solve", "--input", str(path))[0] == 0
    payload["config"]["weights"] = ["0.1", "x", "0.2", "0.2"]
    path.write_text(json.dumps(payload))
    code, _, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2
    assert "config.weights" in err


def test_range_stats_groups(tmp_path, capsys):
    rows = ["true_m,measured_m,channel,condition"]
    rows += ["5.0,5.10,6.5,los", "5.0,5.20,6.5,los", "5.0,5.66,6.5,concrete"]
    path = tmp_path / "ranges.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = _run(capsys, "range-stats", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    by_condition = {g["condition"]: g for g in payload["groups"]}
    assert by_condition["los"]["count"] == 2
    assert by_condition["los"]["mean_m"] == pytest.approx(0.15, abs=1e-12)
    assert by_condition["concrete"]["mean_m"] == pytest.approx(0.66, abs=1e-12)


def _small_scenario():
    return {
        "area": {"w": 3.0, "h": 3.0},
        "anchors": [
            {"id": "a1", "x": 0.0, "y": 0.0, "z": 2.0},
            {"id": "a2", "x": 3.0, "y": 0.0, "z": 2.5},
            {"id": "a3", "x": 3.0, "y": 3.0, "z": 2.2},
            {"id": "a4", "x": 0.0, "y": 3.0, "z": 2.8},
        ],
        "walls": [{"ax": 0.0, "ay": 1.5, "bx": 3.0, "by": 1.5, "material": "drywall"}],
        "grid_step": 0.5,
        "tag_height": 1.0,
        "runs": 2,
        "seed": 5,
        "models": {
            "los": {"family": "gaussian", "params": {"mu": 0.004, "sigma": 0.071}},
            "drywall": {"family": "gaussian", "params": {"mu": -0.043, "sigma": 0.092}},
        },
        "solver": {"delta": 0.001, "k_max": 10, "c": 0.1, "x_r_mode": "median"},
        "diversity": None,
    }


def test_simulate_writes_outputs(tmp_path, capsys):
    config = _small_scenario()
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    code, out, _ = _run(capsys, "simulate", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 0
    for name in ("points.csv", "ecdf.csv", "report.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["grid_points"] == 49
    assert report["runs"] == 2
    assert report["solves"] == 98
    points = (out_dir / "points.csv").read_text().strip().split("\n")
    assert points[0] == "run,px,py,pz,ex,ey,ez,err2d_m,err3d_m,conditions"
    assert len(points) == 1 + 98
    assert out == (out_dir / "report.json").read_text()


def test_simulate_seed_and_threads_determinism(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a, _, _ = _run(capsys, "simulate", "--preset", "paper-los", "--seed", "11",
                        "--threads", "1", "--out", str(out_a))
    code_b, _, _ = _run(capsys, "simulate", "--preset", "paper-los", "--seed", "11",
                        "--threads", "4", "--out", str(out_b))
    assert code_a == code_b == 0
    for name in ("points.csv", "ecdf.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_non_numeric_field_is_a_data_error(tmp_path, capsys):
    config = _small_scenario()
    config["area"]["w"] = "x"
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "area.w" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("models", []), ("walls", 5), ("anchors", 5),
    ("diversity", False), ("diversity", 0), ("diversity", ""), ("diversity", []), ("diversity", {}),
])
def test_simulate_wrongly_typed_collection_is_a_data_error(tmp_path, capsys, field, value):
    config = _small_scenario()
    config[field] = value
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert field in err
    assert "Traceback" not in err


def test_simulate_reads_string_weights(tmp_path, capsys):
    config = _small_scenario()
    config["solver"]["weights"] = ["0.071", "0.071", "0.092", "0.092"]
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    code, _, _ = _run(capsys, "simulate", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["scenario"]["solver"]["weights"] == [0.071, 0.071, 0.092, 0.092]


def test_weights_of_the_wrong_length_name_their_path(tmp_path, capsys):
    # Checked where the anchors are read, not when the study or solve starts
    scenario = scenario_to_dict(preset_scenario("paper-concrete"))
    scenario["solver"]["weights"] = [1, 1, 1]
    problem = {"anchors": scenario["anchors"], "distances": [10.0, 11.0, 12.0, 10.5],
               "config": {"weights": [1, 1, 1]}}
    for command, flag, payload, owner in [("simulate", "--config", scenario, "solver"),
                                          ("solve", "--input", problem, "config")]:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(payload))
        code, _, err = _run(capsys, command, flag, str(path), "--out", str(tmp_path / command))
        assert (code, err) == (2, f"error: {owner}.weights: one weight per anchor required, "
                                  "got 3 for 4 anchors\n")


def test_sample_malformed_inline_model(capsys):
    code, _, err = _run(capsys, "sample", "--model", "{bad")
    assert code == 2
    assert "--model" in err
    assert "Traceback" not in err


def test_simulate_requires_source(capsys):
    assert _run(capsys, "simulate", "--out", "x")[0] == 1


_BAD_PARAMS = [
    pytest.param({"family": "gaussian", "params": {"mu": "abc", "sigma": 0.071}}, "params.mu",
                 id="non-numeric-param"),
    pytest.param({"family": "gaussian", "params": "ab"}, "params", id="params-not-an-object"),
]


@pytest.mark.parametrize("spec, field", _BAD_PARAMS)
def test_sample_bad_model_params_are_a_parameter_error(capsys, spec, field):
    code, _, err = _run(capsys, "sample", "--model", json.dumps(spec))
    assert code == 2
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec, field", _BAD_PARAMS)
def test_simulate_bad_model_params_are_a_parameter_error(tmp_path, capsys, spec, field):
    config = _small_scenario()
    config["models"]["los"] = spec
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert field in err
    assert "Traceback" not in err


def test_simulate_timings_go_to_stderr_only(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(_small_scenario()))
    plain, timed = tmp_path / "plain", tmp_path / "timed"
    code_a, out_a, err_a = _run(capsys, "simulate", "--config", str(cfg_path), "--out", str(plain))
    code_b, out_b, err_b = _run(capsys, "simulate", "--config", str(cfg_path), "--out", str(timed),
                                "--timings")
    assert code_a == code_b == 0
    assert out_a == out_b
    for name in ("points.csv", "ecdf.csv", "report.json"):
        assert (plain / name).read_bytes() == (timed / name).read_bytes()
    assert "timing:" not in err_a
    for stage in ("scenario build", "run_scenario", "points.csv", "ecdf.csv", "report", "peak RSS"):
        assert f"timing: {stage} " in err_b
    for stage in ("scenario build", "run_scenario", "points.csv", "ecdf.csv", "report"):
        seconds, = re.findall(rf"^timing: {stage} (\S+) s$", err_b, re.MULTILINE)
        assert float(seconds) > 0.0, (stage, seconds)  # each stage takes a readable time
    faults, = re.findall(r"^timing: minor page faults (\d+)$", err_b, re.MULTILINE)
    assert int(faults) > 0  # the process's own count: importing numpy alone faults pages in


_HEAP_SCRIPT = textwrap.dedent(
    """
    import ctypes, json

    from uwb_locsim import cli


    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                                         "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


    libc = ctypes.CDLL("libc.so.6")
    libc.mallinfo2.restype = MallInfo2
    libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
    libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None
    assert cli.main(["energy", "--profile", "3db"]) == 0
    mapped = libc.mallinfo2().hblks
    block = libc.malloc(6 << 20)
    from_heap = libc.mallinfo2().hblks == mapped
    libc.free(block)
    print(json.dumps({"from_heap": from_heap, "kept_at_top": libc.mallinfo2().keepcost}))
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's heap")
def test_the_cli_serves_a_6_mib_array_from_its_heap_and_keeps_it_there(tmp_path):
    """After main's warm-up, glibc takes a 6 MiB block from the heap instead of
    mapping it, and keeps it at the top of the heap once freed; in a fresh
    interpreter without the warm-up both fail (mmap threshold about 300 kB)."""
    try:
        ctypes.CDLL("libc.so.6").mallinfo2
    except (OSError, AttributeError):
        pytest.skip("needs glibc 2.33 or later")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {name: value for name, value in os.environ.items()  # no fixed malloc settings
           if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", _HEAP_SCRIPT], capture_output=True, text=True, env=env,
                          cwd=tmp_path, check=True, timeout=120)
    heap = json.loads(done.stdout.splitlines()[-1])  # after the energy report
    assert heap["from_heap"]
    assert heap["kept_at_top"] >= 6 << 20


_NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from uwb_locsim import cli, fitting

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--preset", "paper-los", "--out", sys.argv[1]])
    print(json.dumps({
        "code": code,
        "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
        "minimize": callable(getattr(fitting, "minimize", None)),
    }))
    """
)


def test_simulate_process_never_imports_scipy(tmp_path):
    # A simulation needs numpy only. The benchmark's tracer wraps
    # fitting.minimize by name, so it must stay a module attribute.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    outcome = json.loads(done.stdout)
    assert outcome["code"] == 0
    assert outcome["scipy"] == []
    assert outcome["minimize"] is True
    assert (tmp_path / "out" / "points.csv").exists()


_FIT_NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from uwb_locsim import BurrXII, RandomStream, cli

    samples = BurrXII(9.64, 0.98, -0.46, 0.72).sample(RandomStream(3), 2000)
    with open(sys.argv[1], "w") as handle:
        handle.write("error_m\\n" + "".join(f"{x!r}\\n" for x in samples.tolist()))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["fit", "--input", sys.argv[1], "--families", "gaussian,burr12,lognormal"])
    print(json.dumps({
        "code": code,
        "families": sorted(fit["family"] for fit in json.loads(stdout.getvalue())["ranking"]),
        "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    }))
    """
)


def test_fit_process_never_imports_scipy(tmp_path):
    # Fits run on the in-house minimizer and math.erfc: numpy is the only dependency.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _FIT_NO_SCIPY_SCRIPT, str(tmp_path / "errors.csv")],
        capture_output=True, text=True, env=env, check=True,
    )
    outcome = json.loads(done.stdout)
    assert outcome == {"code": 0, "families": ["burr12", "gaussian", "lognormal"], "scipy": []}


def _fuzz_base():
    """paper-concrete with diversity, weights and x0 set, one run, a 1 m grid."""
    config = scenario_to_dict(preset_scenario("paper-concrete"))
    config.update(runs=1, grid_step=1.0, diversity={"channels": 3, "strategy": "min"})
    config["solver"].update(weights=[0.071, 0.071, 0.72, 0.72],
                            x0={"x": 4.5, "y": 10.0, "z": 1.2})
    return config


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_FUZZ_PATHS = list(_paths(_fuzz_base()))[1:]
_FUZZ_VALUES = st.sampled_from([
    None, True, False, "", "abc", "nan", "inf", "-1e999", [], [1.0], {}, {"x": 1.0},
    0, -1, math.nan, math.inf, -math.inf,
])
_DROP = object()
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(_FUZZ_PATHS), st.one_of(st.just(_DROP), _FUZZ_VALUES)),
    min_size=1, max_size=3,
)


def _mutate(config, path, value):
    try:
        node = config
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)  # the sampled [] and {} are shared
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation removed or retyped this path


def _simulate_config(config):
    """Exit code and stderr of ``simulate --config`` on a config dict."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "scenario.json")
        with open(cfg_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)  # NaN and Infinity as Python's json writes them
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", cfg_path, "--out", os.path.join(tmp, "out")])
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutations=_MUTATIONS)
def test_fuzzed_simulate_config_exits_cleanly(mutations):
    config = _fuzz_base()
    for path, value in mutations:
        _mutate(config, path, value)
    code, err = _simulate_config(config)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


def test_every_non_finite_config_number_exits_cleanly():
    # The random search above reaches a given field only now and then;
    # this sweep puts each non-finite value into every key and item once.
    # Every one is a config error naming its JSON path (an enum string
    # names its key), except an anchor id, which is any string.
    for path in _FUZZ_PATHS:
        if path[-1] == "id":
            continue
        name = path[-1] if path[-1] in ("material", "x_r_mode", "strategy") else _json_path(path)
        for value in (math.nan, math.inf, -math.inf, "inf"):
            config = _fuzz_base()
            _mutate(config, path, value)
            code, err = _simulate_config(config)
            assert code == 2, (path, value, err)
            assert "Traceback" not in err, (path, value)
            assert "empty error list" not in err, (path, value)
            assert name in err, (path, value, err)


def _checked_by(path):
    """The JSON path of the object whose constructor range-checks the value
    at ``path`` (a model's params, a wall, the solver, the diversity block)."""
    for k in range(len(path) - 1, 0, -1):
        owner = path[:k]
        if owner[-1] in ("params", "solver", "diversity") or owner == ("walls", path[1]):
            return _json_path(owner)
    return None


def test_every_out_of_range_config_value_names_its_path():
    # Finite values that a constructor may reject: 0 and -1 in every number,
    # an unknown word in every enum. A rejection names the object the value
    # was read from ("solver: k_max must be >= 1"); the scenario's own
    # checks name their top-level key ("runs must be >= 1").
    rejected = set()
    for path in _leaves(_fuzz_base()):
        if path[-1] == "id":
            continue
        words = path[-1] in ("family", "material", "x_r_mode", "strategy")
        for value in ("unknown",) if words else (0, -1):
            config = _fuzz_base()
            _mutate(config, path, value)
            code, err = _simulate_config(config)
            if code == 0:
                continue
            owner = _checked_by(path)
            assert code == 2, (path, value, err)
            assert err.startswith(f"error: {owner}: ") if owner else path[0] in err, (path, value, err)
            rejected.add(_json_path(path))
    assert {"models.los.params.sigma", "walls[0].material", "solver.k_max", "solver.weights[0]",
            "diversity.channels", "runs"} <= rejected


@pytest.mark.parametrize("step", [1e-300, 1e-4])
def test_simulate_rejects_an_oversized_tag_grid(step):
    # 1e-4 m on the 9 x 20 m floor would be 1.8e10 tag points
    config = _fuzz_base()
    config["grid_step"] = step
    code, err = _simulate_config(config)
    assert code == 2, err
    assert "tag points" in err


@pytest.mark.parametrize("path, value, message", [
    (("runs",), 1.5, "scenario.runs must be an integer, got 1.5"),
    (("seed",), 42.7, "scenario.seed must be an integer, got 42.7"),
    (("solver", "k_max"), 2.9, "solver.k_max must be an integer, got 2.9"),
    (("diversity", "channels"), 2.5, "diversity.channels must be an integer, got 2.5"),
    (("config", "k_max"), 1.7, "config.k_max must be an integer, got 1.7"),
    (("grid_step",), True, "scenario.grid_step is not a number: True"),
    (("runs",), True, "scenario.runs is not a number: True"),
    (("runs",), 5.0, None),
])
def test_integer_fields_take_whole_numbers_only(tmp_path, capsys, path, value, message):
    # A fraction is not truncated and a JSON boolean is not 1 or 0, so the
    # report's scenario echo reproduces the input
    if path[0] == "config":
        payload = {"anchors": _fuzz_base()["anchors"], "distances": [10.0, 11.0, 12.0, 10.5],
                   "config": {}}
        argv = ["solve", "--input"]
    else:
        payload = _fuzz_base()
        argv = ["simulate", "--out", str(tmp_path / "out"), "--config"]
    _mutate(payload, path, value)
    config_path = tmp_path / "input.json"
    config_path.write_text(json.dumps(payload))
    code, _, err = _run(capsys, *argv, str(config_path))
    if message is None:
        assert code == 0, err
        assert json.loads((tmp_path / "out" / "report.json").read_text())["scenario"]["runs"] == 5
    else:
        assert (code, err) == (2, f"error: {message}\n")


# ------------------------------------------------- the input contract sweep

def _strict_json(out):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(out, parse_constant=refuse)


def _main_quiet(argv):
    """Exit code, stdout and stderr of ``main`` without pytest's capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exits_cleanly(argv, expected, case):
    code, out, err = _main_quiet(argv)
    assert code == expected, (case, err)
    assert "Traceback" not in err, case
    if code == 0:
        _strict_json(out)
    return err


_BAD_CELLS = ["nan", "NaN", "inf", "-inf", "Infinity", "abc", ""]


def _csv_case(tmp_path, header, rows, bad_row, bad_col, bad, blanks):
    """Write a CSV with ``bad`` in one cell (``None`` drops that cell and every
    later one); return its path and the bad row's physical line number."""
    rows = [list(row) for row in rows]
    if bad is None:
        del rows[bad_row][bad_col:]
    else:
        rows[bad_row][bad_col] = bad
    lines = ([",".join(header)] if header else []) + [",".join(row) for row in rows]
    if blanks:  # a blank line before and after the first data row
        first = 1 if header else 0
        lines[first:first + 1] = ["", lines[first], "  "]
    bad_line = lines.index(",".join(rows[bad_row])) + 1
    path = tmp_path / "case.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path), bad_line


_RANGE_ROWS = [("5.0", "5.10", "6.5", "los"), ("5.0", "5.66", "6.5", "concrete"),
               ("3.0", "3.05", "3.5", "los"), ("3.0", "3.02", "3.5", "los")]


@pytest.mark.parametrize("width", [2, 3, 4])
@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("blanks", [False, True])
def test_range_stats_rejects_every_bad_cell(tmp_path, width, header, blanks):
    names = ("true_m", "measured_m", "channel", "condition")[:width]
    rows = [row[:width] for row in _RANGE_ROWS]
    flags = [] if header else ["--no-header"]
    for col in (0, 1):
        for bad in _BAD_CELLS + [None]:
            if bad is None and col == 0:
                continue  # a row without its first cell is a blank line
            path, line = _csv_case(tmp_path, names if header else None, rows, 2, col, bad, blanks)
            case = (width, header, blanks, col, bad)
            err = _assert_exits_cleanly(["range-stats", "--input", path, *flags], 2, case)
            assert f"{path}:{line}: column {names[col]!r}" in err, (case, err)
    path, _ = _csv_case(tmp_path, names if header else None, rows, 2, 0, "3.0", blanks)
    _assert_exits_cleanly(["range-stats", "--input", path, *flags], 0, (width, header, blanks))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("blanks", [False, True])
def test_fit_rejects_every_bad_cell(tmp_path, width, header, blanks):
    names = ("error_m", "b", "c", "d")[:width]
    values = ["0.12", "-0.03", "0.07", "0.21", "0.05", "-0.11"]
    rows = [(v,) + ("1.0",) * (width - 1) for v in values]
    flags = ["--families", "gaussian"] + ([] if header else ["--no-header"])
    column = names[0] if header else "column 1"
    for bad in _BAD_CELLS if width > 1 else _BAD_CELLS[:-1]:  # an empty one-cell row is blank
        path, line = _csv_case(tmp_path, names if header else None, rows, 3, 0, bad, blanks)
        case = (width, header, blanks, bad)
        err = _assert_exits_cleanly(["fit", "--input", path, *flags], 2, case)
        assert f"{path}:{line}: column {column!r}" in err, (case, err)
    path, _ = _csv_case(tmp_path, names if header else None, rows, 3, 0, "0.3", blanks)
    _assert_exits_cleanly(["fit", "--input", path, *flags], 0, (width, header, blanks))


def test_results_that_overflow_are_a_data_error(tmp_path):
    # Finite inputs whose errors or energies overflow would print Infinity
    ranges = tmp_path / "ranges.csv"
    ranges.write_text("true_m,measured_m\n-1e308,1e308\n0.0,1.0\n")
    _assert_exits_cleanly(["range-stats", "--input", str(ranges)], 2, "range-stats")
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"name": "x", "p_tx": 1e308, "p_rx": 1e308, "p_idle": 1.0,
                                   "p_sleep": 0.0, "t_packet": 1.0}))
    _assert_exits_cleanly(["energy", "--profile", str(profile)], 2, "energy")


def _overflow_case(tmp_path, case):
    """``(argv, exit code, stderr)`` of an input whose numbers overflow in numpy."""
    study = scenario_to_dict(dataclasses.replace(preset_scenario("paper-concrete"), runs=1))
    out = str(tmp_path / "out")
    if case == "heavy-tailed study":  # the concrete quantile overflows for most uniforms
        study["models"]["concrete"]["params"].update(c=0.05, d=0.05)
        (tmp_path / "study.json").write_text(json.dumps(study))
        return ["simulate", "--config", str(tmp_path / "study.json"), "--out", out], 0, \
            f"wrote points.csv, ecdf.csv, report.json to {out}\n"
    for anchor in study["anchors"]:
        anchor["x"] = 1.5e308  # the anchors' median x overflows
    if case == "far-anchor study":
        (tmp_path / "study.json").write_text(json.dumps(study))
        return ["simulate", "--config", str(tmp_path / "study.json"), "--out", out], 3, \
            "numerical failure: all 2997 solves failed\n"
    if case == "far-anchor solve":
        (tmp_path / "solve.json").write_text(json.dumps({"anchors": study["anchors"],
                                                         "distances": [1.0, 2.0, 3.0, 4.0]}))
        return ["solve", "--input", str(tmp_path / "solve.json")], 3, \
            "numerical failure: rank-deficient anchor geometry or non-finite iterate\n"
    if case == "sample":
        model = '{"family": "gaussian", "params": {"mu": 0, "sigma": 1e308}}'
        return ["sample", "-n", "5", "--model", model], 2, \
            "error: model: 2 of 5 draws overflow the float range\n"
    if case == "fit equal samples":  # no spread; only their sum, inside the mean, overflows
        (tmp_path / "errors.csv").write_text("error_m\n1e308\n1e308\n1e308\n")
        return ["fit", "--input", str(tmp_path / "errors.csv")], 2, \
            "error: degenerate data: all values are equal, no scale can be fitted\n"
    if case == "fit overflowing mean":  # a spread of 2e292; only their sum, inside the mean, overflows
        (tmp_path / "errors.csv").write_text("error_m\n1e308\n1e308\n1.0000000000000002e308\n")
        return ["fit", "--input", str(tmp_path / "errors.csv")], 2, \
            "error: samples must have a finite mean: their sum must not overflow, got 1e+308 to 1.0000000000000002e+308\n"
    path = tmp_path / "ranges.csv"
    if case == "range-stats mean":  # finite errors whose sum overflows
        path.write_text("true_m,measured_m\n0.0,1e308\n0.0,1e308\n")
        return ["range-stats", "--input", str(path)], 2, \
            "error: a result is not finite and cannot be written as JSON\n"
    path.write_text("true_m,measured_m\n0.0,1.0\n1e308,-1e308\n")
    return ["range-stats", "--input", str(path)], 2, \
        f"error: {path}:3: measured_m - true_m overflows the float range\n"


@pytest.mark.parametrize("case", ["heavy-tailed study", "far-anchor study", "far-anchor solve", "sample",
                                  "range-stats", "range-stats mean", "fit equal samples", "fit overflowing mean"])
def test_overflows_exit_as_stated_without_a_numpy_warning(tmp_path, case):
    # A draw, x_r or error beyond the float range fails its solves or is
    # refused; numpy must not warn on the way, as python -W error and this
    # suite's filterwarnings turn a warning into a traceback
    argv, code, message = _overflow_case(tmp_path, case)
    assert _assert_exits_cleanly(argv, code, case) == message
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "uwb_locsim.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (code, message)
    if case == "heavy-tailed study":
        report = _strict_json(done.stdout)
        assert 0 < report["failed_solves"] < report["solves"]


def test_fit_rejects_a_span_beyond_the_float_range(tmp_path):
    path = tmp_path / "errors.csv"
    path.write_text("error_m\n1e308\n-1e308\n0.3\n")
    err = _assert_exits_cleanly(["fit", "--input", str(path)], 2, "span")
    assert "finite" in err


def test_fit_rejects_samples_whose_spread_overflows(tmp_path):
    # A finite span whose standard deviation overflows: no numpy warning,
    # and a message that names the spread, not the Gaussian's sigma.
    path = tmp_path / "errors.csv"
    path.write_text("error_m\n1e307\n-1e307\n0.3\n0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _assert_exits_cleanly(["fit", "--input", str(path)], 2, "spread")
    assert "spread must not overflow" in err
    assert "sigma" not in err


def test_fit_rejects_samples_too_narrow_for_the_bins(tmp_path):
    # Three doubles one ulp apart cannot hold 200 bins of finite width
    path = tmp_path / "errors.csv"
    path.write_text("0.1\n0.10000000000000002\n0.1\n")
    err = _assert_exits_cleanly(["fit", "--input", str(path), "--no-header"], 2, "narrow")
    assert err == "error: cannot make 200 bins of finite width over [0.1, 0.10000000000000002]\n"


_BAD_JSON_VALUES = [math.nan, math.inf, -math.inf, "inf", "abc", _DROP]


def _leaves(node):
    """The paths of ``node``'s numbers and strings."""
    return [path for path in _paths(node)
            if not isinstance(functools.reduce(operator.getitem, path, node), (dict, list))]


def _json_path(leaf):
    """``("config", "weights", 2)`` as ``config.weights[2]``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in leaf).lstrip(".")


_SOLVE_BASE = {
    "anchors": [{"id": "a1", "x": 0.0, "y": 0.0, "z": 3.0}, {"id": "a2", "x": 9.0, "y": 0.0, "z": 2.7},
                {"id": "a3", "x": 9.0, "y": 20.0, "z": 3.0}, {"id": "a4", "x": 0.0, "y": 20.0, "z": 2.7}],
    "distances": [10.2, 11.5, 12.3, 10.9],
    "config": {"delta": 1e-6, "k_max": 20, "c": 0.05, "x_r_mode": "mean",
               "weights": [0.1, 0.2, 0.3, 0.4], "x_r": {"x": 4.0, "y": 9.0, "z": 1.0},
               "x0": {"x": 1.0, "y": 2.0, "z": 1.5}},
}


def test_solve_rejects_every_bad_leaf(tmp_path):
    # Any string is a valid anchor id, and a dropped id or top-level
    # config field takes its default; every other case is a data error.
    path = tmp_path / "problem.json"
    for leaf in _leaves(_SOLVE_BASE):
        for value in _BAD_JSON_VALUES:
            payload = copy.deepcopy(_SOLVE_BASE)
            _mutate(payload, leaf, value)
            path.write_text(json.dumps(payload))
            valid = (leaf[-1] == "id" and (value is _DROP or isinstance(value, str))
                     or value is _DROP and len(leaf) == 2 and leaf[0] == "config")
            err = _assert_exits_cleanly(["solve", "--input", str(path)], 0 if valid else 2, (leaf, value))
            if not valid and value is not _DROP:
                name = "x_r_mode" if leaf[-1] == "x_r_mode" else _json_path(leaf)
                assert name in err, (leaf, value, err)


def test_energy_profile_rejects_every_bad_field(tmp_path):
    good = {"name": "custom", "p_tx": 10.0, "p_rx": 20.0, "p_idle": 1.0, "p_sleep": 0.001,
            "t_packet": 100.0, "e_transition": 0.5}
    path = tmp_path / "profile.json"
    for field in good:
        for value in _BAD_JSON_VALUES:
            spec = dict(good)
            _mutate(spec, (field,), value)
            path.write_text(json.dumps(spec))
            valid = field == "name" and isinstance(value, str) or field == "e_transition" and value is _DROP
            argv = ["energy", "--profile", str(path), "--period", "0.5"]
            err = _assert_exits_cleanly(argv, 0 if valid else 2, (field, value))
            if not valid:
                name = f"missing {field!r} in profile" if value is _DROP else f"profile.{field}"
                assert name in err, (field, value, err)
    for name in (["x"], {"x": 1}, 3, None):  # the name is echoed into the result, so only a string
        path.write_text(json.dumps({**good, "name": name}))
        err = _assert_exits_cleanly(["energy", "--profile", str(path)], 2, name)
        assert err == f"error: profile.name must be a string, got {name!r}\n", err


def test_energy_profile_out_of_range_values_name_the_profile(tmp_path):
    good = {"name": "custom", "p_tx": 10.0, "p_rx": 20.0, "p_idle": 1.0, "p_sleep": 0.001,
            "t_packet": 100.0, "e_transition": 0.5}
    path = tmp_path / "profile.json"
    for field in ("p_tx", "p_rx", "p_idle", "p_sleep", "t_packet", "e_transition"):
        path.write_text(json.dumps({**good, field: -1.0}))
        err = _assert_exits_cleanly(["energy", "--profile", str(path)], 2, field)
        assert err.startswith(f"error: profile: {field} must be"), (field, err)
    path.write_text(json.dumps({**good, "t_packet": 0}))
    assert "profile: t_packet" in _assert_exits_cleanly(["energy", "--profile", str(path)], 2, 0)


def test_energy_rejects_a_non_finite_period():
    for period in ("nan", "inf", "-inf", "1e999"):
        argv = ["energy", "--profile", "dw1000", f"--period={period}"]
        assert "finite" in _assert_exits_cleanly(argv, 2, period)
    _assert_exits_cleanly(["energy", "--profile", "dw1000", "--period", "abc"], 1, "usage")


def test_json_nested_beyond_the_recursion_limit_is_a_data_error(tmp_path):
    nested = "[" * 5000 + "]" * 5000
    path = tmp_path / "problem.json"
    path.write_text(nested)
    assert "invalid JSON" in _assert_exits_cleanly(["solve", "--input", str(path)], 2, "file")
    model = '{"family": ' + nested + "}"
    assert "invalid JSON" in _assert_exits_cleanly(["sample", "--model", model], 2, "inline")


def test_sample_rejects_a_negative_count():
    model = '{"family": "gaussian", "params": {"mu": 0.0, "sigma": 0.071}}'
    _assert_exits_cleanly(["sample", "--model", model, "-n", "-1"], 2, "-1")
    code, out, _ = _main_quiet(["sample", "--model", model, "-n", "0"])
    assert code == 0 and out == "error_m\n"


def test_inputs_beyond_the_memory_limit_are_a_data_error(tmp_path):
    # Each asks for at least 1 PiB in one array, so the allocation fails at once;
    # the larger sizes are beyond what one numpy array can even index.
    for path, size in ((("runs",), 10**12), (("runs",), 10**15), (("runs",), 10**20),
                       (("diversity", "channels"), 10**15), (("diversity", "channels"), 2**63 - 1),
                       (("diversity", "channels"), 10**20)):
        config = _fuzz_base()
        _mutate(config, path, size)
        code, err = _simulate_config(config)
        assert code == 2, err
        assert "more memory than is available" in err
    path = tmp_path / "errors.csv"
    path.write_text("0.1\n0.2\n0.4\n")
    model = '{"family": "gaussian", "params": {"mu": 0.0, "sigma": 0.071}}'
    for argv in (["fit", "--input", str(path), "--no-header", "--bins", str(10**15)],
                 ["fit", "--input", str(path), "--no-header", "--bins", str(10**30)],
                 ["sample", "--model", model, "-n", str(10**15)],
                 ["sample", "--model", model, "-n", str(2**62)],
                 ["sample", "--model", model, "-n", str(2**63)]):  # numpy's arange gives [] here
        assert "more memory" in _assert_exits_cleanly(argv, 2, argv[0])


@pytest.mark.parametrize("path", [("tag_height",), ("anchors", 0, "x")])
def test_a_study_whose_every_solve_fails_is_a_numerical_failure(path):
    # 1e200 m away, every distance overflows to inf and no point can be solved
    config = _fuzz_base()
    _mutate(config, path, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _simulate_config(config)
    assert code == 3, err
    assert "all 210 solves failed" in err


def test_simulate_accepts_a_seed_beyond_the_float_range():
    config = _fuzz_base()
    config["seed"] = 10**400
    code, err = _simulate_config(config)
    assert code == 0, err


def test_a_report_that_is_not_finite_is_a_data_error(tmp_path, monkeypatch):
    from uwb_locsim import simulator

    real = simulator.aggregate
    monkeypatch.setattr(simulator, "aggregate",
                        lambda errors: dataclasses.replace(real(errors), mean=math.nan))
    (tmp_path / "scenario.json").write_text(json.dumps(_small_scenario()))
    argv = ["simulate", "--config", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "out")]
    code, out, err = _main_quiet(argv)
    assert code == 2, err
    assert "NaN" not in out
    assert "not finite" in err
    assert not any((tmp_path / "out" / name).exists()
                   for name in ("points.csv", "ecdf.csv", "report.json"))


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["models"].pop("los"), "models: missing conditions ['los']"),
    (lambda c: c["walls"][0].update(material="concrete"), "models: missing conditions ['concrete']"),
    (lambda c: c["anchors"][3].update(id="a2"), "anchors: id 'a2' is repeated"),
    (lambda c: c["models"].update(drywal=c["models"]["los"]), "models: unknown condition 'drywal'"),
    (lambda c: c["walls"][0].update(bx=0.0), "walls[0]: wall endpoints must differ"),
    (lambda c: c.update(anchors=c["anchors"][:2]), "at least three anchors are required"),
], ids=["no-los-model", "no-wall-model", "repeated-anchor-id", "misspelt-condition",
        "wall-without-length", "two-anchors"])
def test_scenario_errors_name_their_json_key(tmp_path, edit, message):
    config = _small_scenario()
    edit(config)
    (tmp_path / "scenario.json").write_text(json.dumps(config))
    argv = ["simulate", "--config", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "out")]
    assert message in _assert_exits_cleanly(argv, 2, message)


@pytest.mark.parametrize("argv, content, message", [
    (["fit", "--input"], None, "cannot read input: "),
    (["fit", "--input"], b"\xff\xfe\n", "cannot read input: "),
    (["fit", "--input"], b"\n  \n", "input: file is empty"),
    (["range-stats", "--input"], b"true_m,measured\n5.0,5.1\n",
     "input: header must contain 'true_m' and 'measured_m', got ['true_m', 'measured']"),
    (["solve", "--input"], None, "cannot read input: "),
    (["solve", "--input"], b'{"anchors": \xff}', "cannot read input: "),
], ids=["fit-directory", "fit-not-utf8", "fit-empty", "range-stats-no-columns",
        "solve-directory", "solve-not-utf8"])
def test_unreadable_inputs_are_a_data_error(tmp_path, monkeypatch, argv, content, message):
    # content None makes the input a directory, which open() cannot read
    monkeypatch.chdir(tmp_path)
    if content is None:
        (tmp_path / "input").mkdir()
    else:
        (tmp_path / "input").write_bytes(content)
    assert _assert_exits_cleanly([*argv, "input"], 2, argv[0]).startswith(f"error: {message}")


@pytest.mark.parametrize("argv, text, message", [
    (["simulate", "--out", "out", "--config", "input"],
     json.dumps(_small_scenario())[:-1] + ', "runs": 1}', "input: repeated key 'runs'"),
    (["solve", "--input", "input"], json.dumps(_SOLVE_BASE).replace('"c": 0.05', '"c": 0.05, "c": 0'),
     "input: repeated key 'c'"),
    (["sample", "-n", "3", "--model", '{"family": "gaussian", "params": {"mu": 0, "sigma": 1, "sigma": 2}}'],
     None, "--model: repeated key 'sigma'"),
], ids=["scenario", "solve", "inline-model"])
def test_a_repeated_json_key_is_a_data_error(tmp_path, monkeypatch, argv, text, message):
    # json.loads would keep the last value of a repeated key and run with it
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "input").write_text(text)
    code, out, err = _main_quiet(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


_MODULE_CASES = [  # (solve input on stdin, exit code, text stderr must hold)
    ({**_SOLVE_BASE, "anchors": _SOLVE_BASE["anchors"][:2], "distances": [10.2, 11.5],
      "config": {}}, 2, "at least three anchors are required"),
    (_SOLVE_BASE, 0, ""),
]


@pytest.mark.parametrize("payload, code, message", _MODULE_CASES, ids=["two-anchors", "four-anchors"])
def test_the_module_entry_point_reads_stdin_and_sets_the_exit_code(payload, code, message):
    # ``python -m uwb_locsim.cli`` is the process a user starts: its exit
    # status comes from main(), and "-" reads the input from stdin.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "uwb_locsim.cli", "solve", "--input", "-"],
                          input=json.dumps(payload), capture_output=True, text=True, env=env)
    assert done.returncode == code, done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    if code == 0:
        assert _strict_json(done.stdout)["converged"] is True
    else:
        assert done.stdout == ""


def test_repeated_main_calls_match_fresh_processes(capsys):
    # main() builds its parser once per process; a parse that fails must not
    # leave state behind for the next call in the same process.
    model = '{"family": "burr12", "params": {"c": 9.64, "d": 0.98, "mu": -0.46, "sigma": 0.72}}'
    calls = [["energy"], ["energy", "--profile", "dw1000", "--period", "0.5"],
             ["sample", "--model", model, "-n", "4", "--seed", "3"], ["sample"],
             ["energy", "--profile", "3db"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    in_process = [_run(capsys, *argv)[:2] for argv in calls]
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "uwb_locsim.cli", *argv],
                              capture_output=True, text=True, env=env)
        fresh.append((done.returncode, done.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [1, 0, 0, 1, 0]


def test_an_unwritable_out_is_a_data_error_naming_the_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in _GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "scenario.json").write_text(json.dumps(_small_scenario()))
    (tmp_path / "a_file").write_text("")
    model = '{"family": "gaussian", "params": {"mu": 0.0, "sigma": 0.071}}'
    cases = [
        (["fit", "--input", "errors.csv", "--families", "gaussian"], "nodir/x.json"),
        (["sample", "--model", model, "-n", "3"], "nodir/x.csv"),
        (["solve", "--input", "problem.json"], "nodir/x.json"),
        (["simulate", "--config", "scenario.json"], "a_file"),
        (["simulate", "--config", "scenario.json"], "a_file/results"),
        (["range-stats", "--input", "ranges.csv"], "nodir/x.json"),
        (["energy", "--profile", "3db"], "nodir/x.json"),
    ]
    for argv, out in cases:
        err = _assert_exits_cleanly([*argv, "--out", out], 2, (argv[0], out))
        assert err.startswith(f"error: cannot write {out}: "), err


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_write_error_without_a_filename_names_the_target(tmp_path, monkeypatch):
    # ENOSPC or EIO from write() carries no filename: the message names the
    # simulate output directory, the --out file or stdout
    from uwb_locsim import cli, outputs

    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(json.dumps(_small_scenario()))
    monkeypatch.setattr(outputs, "write_points_csv", lambda stats, path: _FullDisk().write(""))
    err = _assert_exits_cleanly(["simulate", "--config", "scenario.json", "--out", "results"], 2, "simulate")
    assert err == f"error: cannot write results: {os.strerror(errno.ENOSPC)}\n", err
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullDisk(), raising=False)
    err = _assert_exits_cleanly(["energy", "--profile", "3db", "--out", "x.json"], 2, "--out")
    assert err == f"error: cannot write x.json: {os.strerror(errno.ENOSPC)}\n", err
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullDisk()), contextlib.redirect_stderr(err):
        assert main(["energy", "--profile", "3db"]) == 2
    assert err.getvalue() == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


# ------------------------------------------- rewriting existing files

_ARTIFACTS = ("points.csv", "ecdf.csv", "report.json")


def _simulate_into(tmp_path, out, seed):
    (tmp_path / "scenario.json").write_text(json.dumps({**_small_scenario(), "seed": seed}))
    code, _, err = _main_quiet(["simulate", "--config", str(tmp_path / "scenario.json"), "--out", str(out)])
    assert code == 0, err
    return {name: (out / name).read_bytes() for name in _ARTIFACTS}


def test_simulate_over_a_previous_study_writes_new_files(tmp_path):
    # The second study's bytes are those of a study into a fresh directory, and
    # hard links to the first study's files keep its bytes: each file was
    # replaced, not truncated and rewritten
    expected = _simulate_into(tmp_path, tmp_path / "fresh", seed=11)
    first = _simulate_into(tmp_path, tmp_path / "out", seed=12)
    for name in _ARTIFACTS:
        assert first[name] != expected[name]
        os.link(tmp_path / "out" / name, tmp_path / f"first-{name}")
    assert _simulate_into(tmp_path, tmp_path / "out", seed=11) == expected
    assert {name: (tmp_path / f"first-{name}").read_bytes() for name in _ARTIFACTS} == first


def test_a_symlinked_artifact_is_written_through(tmp_path):
    expected = _simulate_into(tmp_path, tmp_path / "fresh", seed=11)
    (tmp_path / "out").mkdir()
    (tmp_path / "target.csv").write_text("stale\n" * 5000)
    (tmp_path / "out" / "ecdf.csv").symlink_to(tmp_path / "target.csv")
    assert _simulate_into(tmp_path, tmp_path / "out", seed=11) == expected
    assert (tmp_path / "out" / "ecdf.csv").is_symlink()
    assert (tmp_path / "target.csv").read_bytes() == expected["ecdf.csv"]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file, so nothing is refused")
def test_a_read_only_report_is_refused_and_the_previous_study_kept(tmp_path):
    out = tmp_path / "out"
    first = _simulate_into(tmp_path, out, seed=12)
    (out / "report.json").chmod(0o444)
    (tmp_path / "scenario.json").write_text(json.dumps(_small_scenario()))
    err = _assert_exits_cleanly(["simulate", "--config", str(tmp_path / "scenario.json"), "--out", str(out)],
                                2, "read-only report")
    assert err.startswith(f"error: cannot write {out / 'report.json'}: "), err
    assert {name: (out / name).read_bytes() for name in _ARTIFACTS} == first


def test_a_report_path_that_is_a_directory_is_refused_and_the_previous_study_kept(tmp_path):
    # The read-only report above refuses no one who runs as root; a directory does
    out = tmp_path / "out"
    first = _simulate_into(tmp_path, out, seed=12)
    (out / "report.json").unlink()
    (out / "report.json").mkdir()
    (tmp_path / "scenario.json").write_text(json.dumps(_small_scenario()))
    err = _assert_exits_cleanly(["simulate", "--config", str(tmp_path / "scenario.json"), "--out", str(out)],
                                2, "report is a directory")
    assert err == f"error: cannot write {out / 'report.json'}: Is a directory\n"
    assert {name: (out / name).read_bytes() for name in ("points.csv", "ecdf.csv")} == \
        {name: first[name] for name in ("points.csv", "ecdf.csv")}


def test_a_report_that_cannot_be_encoded_leaves_the_previous_study(tmp_path, monkeypatch):
    from uwb_locsim import simulator

    first = _simulate_into(tmp_path, tmp_path / "out", seed=12)
    (tmp_path / "scenario.json").write_text(json.dumps(_small_scenario()))
    real = simulator.aggregate
    monkeypatch.setattr(simulator, "aggregate",
                        lambda errors: dataclasses.replace(real(errors), mean=math.inf))
    err = _assert_exits_cleanly(["simulate", "--config", str(tmp_path / "scenario.json"),
                                 "--out", str(tmp_path / "out")], 2, "infinite mean")
    assert "not finite" in err
    assert {name: (tmp_path / "out" / name).read_bytes() for name in _ARTIFACTS} == first


def test_an_existing_out_file_is_replaced(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, expected, err = _main_quiet(["energy", "--profile", "3db"])
    assert code == 0, err
    Path("result.json").write_text("x" * 100_000)
    os.link("result.json", "old.json")
    assert _main_quiet(["energy", "--profile", "3db", "--out", "result.json"]) == (0, "", "")
    assert Path("result.json").read_text() == expected
    assert Path("old.json").read_text() == "x" * 100_000


def test_out_to_dev_null_writes_through_the_device():
    model = json.dumps({"family": "gaussian", "params": {"mu": 0.0, "sigma": 0.071}})
    assert _main_quiet(["sample", "--model", model, "-n", "3", "--out", "/dev/null"]) == (0, "", "")
    assert stat.S_ISCHR(os.lstat("/dev/null").st_mode)


_MODEL = {"family": "burr12", "params": {"c": 9.64, "d": 0.98, "mu": -0.46, "sigma": 0.72}}


def _scenario_with_x_r():
    config = _fuzz_base()
    config["solver"]["x_r"] = {"x": 4.5, "y": 10.0, "z": 1.5}
    return config


_INPUTS = {  # command -> (argv before the input path, a good input)
    "simulate": (["simulate", "--out", "out", "--config"], _scenario_with_x_r),
    "solve": (["solve", "--input"], lambda: copy.deepcopy(_SOLVE_BASE)),
    "energy": (["energy", "--profile"], lambda: json.loads(_GOLDEN_INPUTS["profile.json"])),
    "sample": (["sample", "--model"], lambda: copy.deepcopy(_MODEL)),
}


_UNKNOWN_KEY_CASES = [  # (command, path of the object in its input, the name the error gives it)
    ("simulate", (), "scenario"),
    ("simulate", ("area",), "area"),
    ("simulate", ("anchors", 1), "anchors[1]"),
    ("simulate", ("walls", 0), "walls[0]"),
    ("simulate", ("models", "concrete"), "models.concrete"),
    ("simulate", ("solver",), "solver"),
    ("simulate", ("solver", "x_r"), "solver.x_r"),
    ("simulate", ("solver", "x0"), "solver.x0"),
    ("simulate", ("diversity",), "diversity"),
    ("solve", (), "solve input"),
    ("solve", ("anchors", 0), "anchors[0]"),
    ("solve", ("config",), "config"),
    ("solve", ("config", "x_r"), "config.x_r"),
    ("solve", ("config", "x0"), "config.x0"),
    ("energy", (), "profile"),
    ("sample", (), "model"),
    ("simulate", ("models", "concrete", "params"), "models.concrete.params"),
    ("sample", ("params",), "model.params"),
]


@pytest.mark.parametrize("command, path, name", _UNKNOWN_KEY_CASES,
                         ids=[f"{command}:{name}" for command, _, name in _UNKNOWN_KEY_CASES])
def test_unknown_keys_are_a_data_error(tmp_path, monkeypatch, command, path, name):
    # A misspelt optional key ("kmax" for "k_max") must not be silently ignored
    monkeypatch.chdir(tmp_path)
    argv, good = _INPUTS[command]
    payload = good()
    functools.reduce(operator.getitem, path, payload)["kmax"] = 1
    (tmp_path / "input.json").write_text(json.dumps(payload))
    err = _assert_exits_cleanly([*argv, "input.json"], 2, path)
    assert err == f"error: {name}: unknown key 'kmax'\n"
    assert not (tmp_path / "out").exists()


_MISSING_KEY_CASES = [  # (command, path of a required key, the message when it is missing)
    ("simulate", ("models", "concrete", "params", "c"), "missing 'c' in models.concrete.params"),
    ("sample", ("params", "sigma"), "missing 'sigma' in model.params"),
    ("simulate", ("diversity", "channels"), "missing 'channels' in diversity"),
    ("simulate", ("anchors", 1, "id"), "missing 'id' in anchors[1]"),
    ("solve", ("distances",), "missing 'distances' in solve input"),
]


@pytest.mark.parametrize("command, path, message", _MISSING_KEY_CASES,
                         ids=[f"{command}:{_json_path(path)}" for command, path, _ in _MISSING_KEY_CASES])
def test_missing_keys_are_a_data_error(tmp_path, monkeypatch, command, path, message):
    monkeypatch.chdir(tmp_path)
    argv, good = _INPUTS[command]
    payload = good()
    _mutate(payload, path, _DROP)
    (tmp_path / "input.json").write_text(json.dumps(payload))
    assert _assert_exits_cleanly([*argv, "input.json"], 2, path) == f"error: {message}\n"


@pytest.mark.parametrize("anchor_id", [{"k": 1}, 1, True, ["a"]], ids=json.dumps)
def test_anchor_ids_must_be_strings(tmp_path, monkeypatch, anchor_id):
    # The id is echoed into report.json, so it is not turned into text
    monkeypatch.chdir(tmp_path)
    for command in ("simulate", "solve"):
        argv, good = _INPUTS[command]
        payload = good()
        payload["anchors"][0]["id"] = anchor_id
        (tmp_path / "input.json").write_text(json.dumps(payload))
        err = _assert_exits_cleanly([*argv, "input.json"], 2, command)
        assert err == f"error: anchors[0].id must be a string, got {anchor_id!r}\n"


_OPTIONAL_KEYS = [  # (command, path of a key that may be absent or null)
    ("simulate", ("walls",)), ("simulate", ("solver",)), ("simulate", ("diversity",)),
    *[("simulate", ("solver", f.name)) for f in dataclasses.fields(SolverConfig)],
    ("solve", ("config",)), ("solve", ("anchors", 0, "id")),
    *[("solve", ("config", f.name)) for f in dataclasses.fields(SolverConfig)],
    ("energy", ("e_transition",)),
]


@pytest.mark.parametrize("command, path", _OPTIONAL_KEYS,
                         ids=[f"{command}:{_json_path(path)}" for command, path in _OPTIONAL_KEYS])
def test_a_null_optional_key_reads_as_absent(tmp_path, monkeypatch, command, path):
    monkeypatch.chdir(tmp_path)
    argv, good = _INPUTS[command]
    outcomes = []
    for value in (None, _DROP):
        payload = good()
        _mutate(payload, path, value)
        (tmp_path / "input.json").write_text(json.dumps(payload))
        code, out, err = _main_quiet([*argv, "input.json"])
        assert code == 0, (value, err)
        outcomes.append(out)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "errors.csv", "--families", "gaussian"],
    ["sample", "--model", json.dumps(_MODEL), "-n", "3"],
    ["solve", "--input", "problem.json"],
    ["range-stats", "--input", "ranges.csv"],
    ["energy", "--profile", "profile.json", "--period", "0.5"],
], ids=operator.itemgetter(0))
def test_out_file_holds_the_bytes_of_stdout(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in _GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    code, expected, err = _main_quiet(argv)
    assert code == 0 and expected, err
    code, out, err = _main_quiet([*argv, "--out", "result.txt"])
    assert code == 0, err
    assert out == ""
    assert (tmp_path / "result.txt").read_bytes() == expected.encode()


# ------------------------------------------- stdout pinned on good inputs

_GOLDEN_INPUTS = {
    "errors.csv": "error_m\n0.12\n-0.03\n0.07\n\n0.21\n0.05\n-0.11\n0.02\n0.09\n0.15\n-0.01\n",
    "ranges.csv": "true_m,measured_m,channel,condition\n5.0,5.10,6.5,los\n5.0,5.20,6.5,los\n"
                  "5.0,5.66,6.5,concrete\n\n3.0,3.05,3.5,los\n3.0,3.61,3.5,concrete\n3.0,3.02,3.5,los\n",
    "ranges_nh.csv": "5.0,5.10,6.5\n5.0,5.21\n3.0,3.05,3.5\n3.0,3.02,3.5\n",
    "problem.json": json.dumps({
        "anchors": [{"x": 0, "y": 0, "z": 3.0}, {"id": "b", "x": 9, "y": 0, "z": 2.7},
                    {"x": "9", "y": 20, "z": 3.0}, {"x": 0, "y": 20, "z": 2.7}],
        "distances": ["10.2", 11.5, 12.3, 10.9],
        "config": {"delta": 1e-9, "k_max": 30, "c": "0.05", "x_r_mode": "mean",
                   "x0": {"x": 1, "y": 2, "z": "1.5"}, "weights": [0.1, 0.2, "0.3", 0.4]},
    }),
    "profile.json": json.dumps({"name": "custom", "p_tx": 10.0, "p_rx": 20.0, "p_idle": 1.0,
                                "p_sleep": 0.001, "t_packet": 100.0, "e_transition": 0.5}),
}


def _group(count, mean, iqr, std, **labels):
    return {"count": count, "iqr_m": iqr, "mean_m": mean, "median_m": mean, "std_m": std, **labels}


# Recorded from the command line before its input readers were unified.
_GOLDEN = [
    (["fit", "--input", "errors.csv", "--families", "gaussian", "--bins", "4"],
     {"bins": 4, "input": "errors.csv", "n_samples": 10, "ranking": [{
         "converged": True, "evaluations": 0, "family": "gaussian", "nll": -10.037914148639633,
         "params": {"mu": 0.055999999999999994, "sigma": 0.08867919710958146},
         "sse": 1.1395328565034184}]}),
    (["range-stats", "--input", "ranges.csv"],
     {"input": "ranges.csv", "groups": [
         _group(1, 0.6099999999999999, 0.0, 0.0, channel="3.5", condition="concrete"),
         _group(1, 0.6600000000000001, 0.0, 0.0, channel="6.5", condition="concrete"),
         _group(2, 0.03499999999999992, 0.014999999999999902, 0.014999999999999902,
                channel="3.5", condition="los"),
         _group(2, 0.1499999999999999, 0.050000000000000266, 0.050000000000000266,
                channel="6.5", condition="los")]}),
    (["range-stats", "--input", "ranges_nh.csv", "--no-header"],
     {"input": "ranges_nh.csv", "groups": [
         _group(2, 0.03499999999999992, 0.014999999999999902, 0.014999999999999902, channel="3.5"),
         _group(1, 0.09999999999999964, 0.0, 0.0, channel="6.5"),
         _group(1, 0.20999999999999996, 0.0, 0.0)]}),
    (["solve", "--input", "problem.json"],
     {"converged": True, "final_step_norm_m": 1.758139864190412e-10, "iterations": 8,
      "x": 2.852106007594179, "y": 9.575587422329304, "z": 0.9588005341003207}),
    (["energy", "--profile", "profile.json", "--period", "0.5"],
     {"average_power_mW": 1.0066000000000002, "energy_per_ranging_uJ": 3.5, "profile": "custom",
      "rest_state": "idle", "t_packet_us": 100.0, "update_period_s": 0.5}),
    (["energy", "--profile", "dw1000"],
     {"energy_per_ranging_uJ": 180.8961, "profile": "dw1000", "t_packet_us": 287.0}),
]


@pytest.mark.parametrize("argv, expected", _GOLDEN, ids=[
    "fit", "range-stats", "range-stats-no-header", "solve", "energy-file", "energy-builtin"])
def test_stdout_on_good_input_is_pinned(tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    for name, text in _GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    code, out, err = _main_quiet(argv)
    assert code == 0, err
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


_STDIN_GOLDEN = [(argv, expected) for argv, expected in _GOLDEN if argv[2] in _GOLDEN_INPUTS]


@pytest.mark.parametrize("argv, expected", _STDIN_GOLDEN, ids=[argv[2] for argv, _ in _STDIN_GOLDEN])
def test_input_dash_reads_stdin(monkeypatch, argv, expected):
    # "--input -" prints what the file path prints, but for the echoed input name
    monkeypatch.setattr(sys, "stdin", io.StringIO(_GOLDEN_INPUTS[argv[2]]))
    code, out, err = _main_quiet([*argv[:2], "-", *argv[3:]])
    assert code == 0, err
    if "input" in expected:
        expected = {**expected, "input": "-"}
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("preset", PRESETS)
def test_a_preset_echo_reproduces_its_run(tmp_path, preset):
    # report.json echoes a scenario that, given to --config, writes the same files
    code, _, err = _main_quiet(["simulate", "--preset", preset, "--out", str(tmp_path / "preset")])
    assert code == 0, err
    echo = json.loads((tmp_path / "preset" / "report.json").read_text())["scenario"]
    (tmp_path / "echo.json").write_text(json.dumps(echo))
    code, _, err = _main_quiet(["simulate", "--config", str(tmp_path / "echo.json"),
                                "--out", str(tmp_path / "config")])
    assert code == 0, err
    for name in ("points.csv", "ecdf.csv", "report.json"):
        assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "preset" / name).read_bytes(), name
