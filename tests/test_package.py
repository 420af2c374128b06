import ast
from pathlib import Path

import pytest

import uwb_locsim

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_export_resolves_and_is_listed_once():
    names = uwb_locsim.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(uwb_locsim, name)] == []


def test_no_assert_statements_in_the_package():
    # Numerical guards must survive `python -O`, which strips asserts
    modules = sorted(Path(uwb_locsim.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(modules) > 10
    assert found == []


def test_every_name_the_benchmark_imports_or_wraps_exists(monkeypatch):
    # The benchmark imports and wraps package names; a rename must fail here first
    monkeypatch.syspath_prepend(str(_BENCH))
    import layers
    import workloads  # noqa: F401  (its imports are the check)
    from tracing import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        wrapped = list(tracer._originals)
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
    finally:
        tracer.restore()
    assert len(wrapped) >= 20
    assert [attr for owner, attr, original in wrapped if getattr(owner, attr) is not original] == []


@pytest.mark.parametrize("seed", [42, 7])
def test_every_benchmark_workload_passes_its_own_checks(monkeypatch, tmp_path, seed):
    # The benchmark is frozen, so what it uses of the package (reference_point,
    # solve_batch with (B, 3) starts, scenario_to_dict, the results recorded in
    # bench/reference.json) must keep working: one smoke cycle of each workload
    monkeypatch.syspath_prepend(str(_BENCH))
    from workloads import WORKLOADS

    problems = []
    for name, workload in WORKLOADS.items():
        (tmp_path / name).mkdir()
        wl = workload(seed, str(tmp_path / name), smoke=True)
        wl.setup()
        wl.prepare_checks()
        problems += [(name, wl.label(k), wl.check(k, wl.op(k))) for k in range(wl.cycle)]
        if wl.threaded:
            problems.append((name, "threads=1", wl.single_thread_study()))
        problems += [(name, what, problem) for what, problem in wl.final_checks()]
    assert len(problems) > len(WORKLOADS)
    assert [problem for problem in problems if problem[2] is not None] == []


def test_the_full_size_reference_checks_pass_and_catch_a_wrong_reference(monkeypatch, tmp_path):
    # Smoke runs skip the checks against bench/reference.json's full-size
    # figures (fit-select's seed-42 rankings, scaled-diversity's seed-42
    # study); the benchmark runs them once per run, so they are run here
    monkeypatch.syspath_prepend(str(_BENCH))
    from workloads import FIT_TOLERANCE_REL, FitSelect, ScaledDiversity, load_reference

    for workload in (FitSelect, ScaledDiversity):
        for wrong in (False, True):
            workdir = tmp_path / f"{workload.name}-{wrong}"
            workdir.mkdir()
            wl = workload(7, str(workdir), wrong_reference=wrong)
            wl.setup()
            problems = [problem for _, problem in wl.final_checks()]
            assert problems and (any(problems) if wrong else not any(problems)), (workload.name, wrong, problems)
            assert all("differs from reference" in problem for problem in problems if problem)
    # half the benchmark's tolerance: a fit that drifts toward it fails here first
    fit_select = FitSelect(7, str(tmp_path))
    fit_select.setup()
    got = fit_select.reference_rankings()
    for ranking, expected in zip(got, load_reference()["fit-select"], strict=True):
        assert [fit["family"] for fit in ranking] == [fit["family"] for fit in expected]
        for fit, reference in zip(ranking, expected):
            for name, value in reference["params"].items():
                assert abs(fit["params"][name] - value) <= 0.5 * FIT_TOLERANCE_REL * abs(value), (fit["family"], name)


def test_scenarios_turns_no_json_value_into_text_or_a_default():
    # Text must be a JSON string and a default comes only from an absent or
    # null optional key, so the reader never calls str() or dict.get()
    path = Path(uwb_locsim.__file__).parent / "scenarios.py"
    calls = [node.func for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    found = [f"{path.name}:{func.lineno}" for func in calls
             if isinstance(func, ast.Name) and func.id == "str"
             or isinstance(func, ast.Attribute) and func.attr == "get"]
    assert len(calls) > 50
    assert found == []


def test_outputs_formats_floats_only_in_its_formatter():
    # Every CSV float goes through outputs._fixed6; a ".6f" format anywhere
    # else in the module (a % template, an f-string, format()) is a second path
    path = Path(uwb_locsim.__file__).parent / "outputs.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    formatter = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_fixed6")
    inside = {id(node) for node in ast.walk(formatter)}
    formats = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and isinstance(node.value, (str, bytes)) and id(node) not in docstrings
               and (b".6f" if isinstance(node.value, bytes) else ".6f") in node.value]
    assert len(formats) >= 1
    assert [f"{path.name}:{node.lineno}" for node in formats if id(node) not in inside] == []


def test_the_anchor_rules_are_worded_once_in_the_solver():
    # solver.check_anchors states both rules on a solve's anchors; a copy of
    # either text in another module is a second check that can drift from it
    rules = ("at least three anchors", "one weight per anchor")
    places, raised = set(), []
    for path in sorted(Path(uwb_locsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_raise = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise)
                    for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            for rule in rules:
                if isinstance(node, ast.Constant) and isinstance(node.value, str) and rule in node.value:
                    places.add(path.name)
                    raised += [rule] if id(node) in in_raise else []
    assert places == {"solver.py"}
    assert sorted(raised) == sorted(rules)


def test_the_strategy_and_x_r_mode_rules_are_each_raised_from_one_place():
    # ranging.check_strategy and SolverConfig state these rules; a second
    # raise of either text is a second check that can drift from it
    rules = {"strategy must be one of": "ranging.py", "must be 'median' or 'mean'": "solver.py"}
    raised = {rule: [] for rule in rules}
    for path in sorted(Path(uwb_locsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in (node for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise) for node in ast.walk(stmt)):
            for rule in rules:
                if isinstance(node, ast.Constant) and isinstance(node.value, str) and rule in node.value:
                    raised[rule].append(path.name)
    assert raised == {rule: [module] for rule, module in rules.items()}


def test_no_plain_error_message_is_raised_from_two_places():
    # A rule whose text is raised twice is checked twice and can drift; one
    # check function (like check_anchors) raises it once for every caller
    places = {}
    for path in sorted(Path(uwb_locsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = node.exc.args[0]
                if isinstance(message, ast.Constant) and isinstance(message.value, str):
                    places.setdefault(message.value, []).append(f"{path.name}:{node.lineno}")
    assert len(places) > 20
    assert {text: where for text, where in places.items() if len(where) > 1} == {}


def test_only_main_writes_a_commands_result():
    # Each _cmd_* handler returns its text and cli.main writes it, to --out or
    # stdout; a handler that opens a file, writes stdout or prints there is a
    # second writer (print(..., file=sys.stderr) for diagnostics is allowed)
    path = Path(uwb_locsim.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    found = []
    for handler in handlers:
        for node in ast.walk(handler):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 0:
                found.append(f"{handler.name}:{node.lineno} return 0")
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                to = next((ast.unparse(kw.value) for kw in node.keywords if kw.arg == "file"), "sys.stdout")
                if name in ("open", "sys.stdout.write") or name == "print" and to != "sys.stderr":
                    found.append(f"{handler.name}:{node.lineno} {name}")
    assert len(handlers) == 6
    assert found == []


def test_input_is_opened_and_read_only_by_the_scenario_reader():
    # scenarios.read_text opens every input file and reads stdin; another
    # open() for reading or use of sys.stdin would be a second file reader
    opens, found, readers = 0, [], []
    for path in sorted(Path(uwb_locsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = [node for node in tree.body if path.name == "scenarios.py"
                  and isinstance(node, ast.FunctionDef) and node.name == "read_text"]
        inside = {id(node) for function in reader for node in ast.walk(function)}
        readers += reader
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                opens += 1
                mode = [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "mode")]
                writes = mode and isinstance(mode[0], ast.Constant) and mode[0].value in ("w", "wb")
                found += [] if writes or id(node) in inside else [f"{path.name}:{node.lineno} open"]
            if isinstance(node, ast.Attribute) and node.attr == "stdin" and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno} stdin")
    assert found == []
    assert len(readers) == 1 and opens >= 5


def test_every_imported_name_is_used():
    # No linter runs on the package, so an import left behind by a refactor
    # (dataclasses.replace, os) would stay unnoticed; __init__ imports to export
    found = []
    for path in sorted(Path(uwb_locsim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                found += [f"{path.name}:{node.lineno} {name}" for name in bound
                          if name not in used and name != "annotations"]
    assert found == []
