"""The options of the package, by name: the defaulted parameters of every
function (`module.function.param`, `module.Class.method.param` for a method)
and the defaulted fields of every dataclass (`module.Class.field`) under src/.
They must equal a checked-in list, so a knob that joins or leaves shows up by
name in review."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
OPTIONS = [
    "bubbles.harnack_product.n_angular",
    "bubbles.harnack_product.n_radial",
    "bubbles.harnack_sweep.mobius_words",
    "bubbles.harnack_sweep.seed",
    "cli.main.argv",
    "conformal.ScalarField.__init__.evaluator",
    "conformal.ScalarField.__init__.jets",
    "conformal.ScalarField.__init__.tag",
    "continuation.BvpSpec.a_init",
    "continuation.BvpSpec.m",
    "continuation.BvpSpec.t_step",
    "halton.box_points.halfwidth",
    "halton.halton_sequence.start",
    "radial.shoot.tol",
]


def _options(node: ast.AST, prefix: str):
    """The qualified names of the options defined under node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{prefix}{child.name}.{arg.arg}" for arg in defaulted)
            yield from _options(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                yield from (f"{prefix}{child.name}.{s.target.id}" for s in child.body
                            if isinstance(s, ast.AnnAssign) and s.value is not None)
            yield from _options(child, f"{prefix}{child.name}.")
        else:
            yield from _options(child, prefix)


def test_option_count_does_not_grow():
    assert OPTIONS == sorted(OPTIONS)
    found = sorted(name for p in SRC.rglob("*.py")
                   for name in _options(ast.parse(p.read_text()), f"{p.stem}."))
    assert found == OPTIONS
