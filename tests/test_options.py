"""The number of options in the package: defaulted parameters of every
function plus defaulted fields of every dataclass under src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_OPTIONS = 17


def _options(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_option_count_does_not_grow():
    total = sum(_options(ast.parse(p.read_text())) for p in SRC.rglob("*.py"))
    assert total <= MAX_OPTIONS, f"{total} defaulted options in src/, at most {MAX_OPTIONS}"
