import ast
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


# The public examples import numpy and sympectra alone, and run without a
# warning (the suite turns warnings into errors).
@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in imported} <= {"numpy", "sympectra"}
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
