import ast
from pathlib import Path

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
