"""The package's layering: the library modules compute, and `cli` alone writes
files. No module under src/ but cli.py imports json or calls open."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sigmak_lab"


def _file_io(tree: ast.AST) -> list[str]:
    """Each `import json` (or from json) and each call of open, by name or as
    a method, in tree, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call):
            func = node.func
            names = ["open()"] if getattr(func, "id", getattr(func, "attr", None)) == "open" else []
        else:
            continue
        found += [f"{name} at line {node.lineno}" for name in names
                  if name == "open()" or name.split(".")[0] == "json"]
    return found


def test_only_the_cli_imports_json_or_opens_a_file():
    found = {path.name: _file_io(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    assert found.pop("cli.py"), "the detector finds the cli's own json import and open call"
    assert {name: io for name, io in found.items() if io} == {}


def _callers(tree: ast.Module, names: set[str]) -> dict[str, set[str]]:
    """Each name in names that is called in tree, mapped to the top-level
    functions that call it ("<module>" for a call outside any function)."""
    found = {}
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names:
                found.setdefault(node.func.id, set()).add(where)
    return found


def test_in_the_cli_only_main_prints_and_writes():
    # each command returns its exit code, lines and files; main prints the
    # lines and writes the files, through the one writer
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _callers(tree, {"print", "open", "_write_text"}) \
        == {"print": {"main"}, "open": {"_write_text"}, "_write_text": {"main"}}
