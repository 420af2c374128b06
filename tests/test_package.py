import ast
from pathlib import Path

import uwb_locsim


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
