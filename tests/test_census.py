"""The census of code that no CLI workflow runs: the four subcommands run under
`sys.settrace`, and the package functions they never enter must equal a
checked-in list that gives each one's reason to stay, so a function that joins
or leaves it shows up in review.

A package function is a function or method, unwrapped (`inspect.unwrap`),
whose code lies in the source file of the module that defines it. Code compiled
from strings (dataclass methods, the exec'd `radial._dop853_step`) and nested
closures are not counted.
"""

import functools
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import sigmak_lab as sl
from sigmak_lab.cli import main

# Why each listed function stays, one reason per name (sorted):
# - "bench": a bench probe (bench/probes.py) reaches it; it goes, or gains a
#   caller, once the probes move to the batch paths;
# - "oracle": a test calls it, or it serves one that a test calls, to check
#   the batch paths and solvers against;
# - "failure-only": an exception's constructor, run only when a check fails;
# - "import": it runs only while its module is imported, before any command.
NEVER_ENTERED = {
    "bubbles.HarnackReport.__post_init__": "bench",
    "bubbles._grid_directions": "bench",
    "bubbles._grid_extrema": "bench",
    "bubbles._harnack_grid": "bench",
    "bubbles.harnack_product": "bench",
    "bubbles.verify_solution": "bench",
    "conformal.Jet2.__post_init__": "oracle",
    "conformal.MobiusMap._walk": "oracle",
    "conformal.MobiusMap.inverse": "oracle",
    "conformal.MobiusMap.jet": "bench",
    "conformal.MobiusMap.then": "oracle",
    "conformal.Rotation.__post_init__": "oracle",
    "conformal.ScalarField._row": "bench",
    "conformal.ScalarField.jet": "bench",
    "conformal.ScalarField.raw_jet": "bench",
    "conformal.ScalarField.values": "oracle",
    "conformal._lift": "bench",
    "conformal.constant_field": "oracle",
    "conformal.schouten_flat": "oracle",
    "conformal.schouten_spectrum": "bench",
    "conformal.transform_field": "oracle",
    "continuation._NodeState.jacobian_dense": "oracle",
    "continuation.assemble_jacobian": "oracle",
    "continuation.assemble_residual": "oracle",
    "errors.SigmakLabError.__init__": "failure-only",
    "halton._normal_quantile": "bench",
    "halton.sphere_directions": "bench",
    "radial.EigenPair.vector": "oracle",
    "radial._weighted": "import",
    "radial.radial_eigenvalues": "oracle",
    "symfun.OperatorSpec.__post_init__": "oracle",
    "symfun._as_lambda": "oracle",
    "symfun._esym_gradient_batch": "oracle",
    "symfun._mixed_esym": "oracle",
    "symfun._uniform_chain": "oracle",
    "symfun._uniform_mix": "oracle",
    "symfun.f_homotopy": "oracle",
    "symfun.f_homotopy_gradient": "oracle",
    "symfun.homotopy_vector": "oracle",
    "symfun.in_gamma_k": "oracle",
    "symfun.sigma": "oracle",
}


def _package_functions() -> dict:
    """Code object -> 'module.qualname' of every package function. A cached
    function's cache is cleared, so the census sees its body run whatever ran
    before in this process."""
    found = {}
    for info in pkgutil.iter_modules(sl.__path__):
        mod = importlib.import_module(f"sigmak_lab.{info.name}")
        for obj in vars(mod).values():
            own_class = isinstance(obj, type) and obj.__module__ == mod.__name__
            for member in vars(obj).values() if own_class else [obj]:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                if callable(getattr(member, "cache_clear", None)):
                    member.cache_clear()
                member = inspect.unwrap(member)
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename == mod.__file__:
                    found[code] = f"{info.name}.{member.__qualname__}"
    return found


def test_the_functions_no_subcommand_enters_are_the_listed_ones(tmp_path):
    functions = _package_functions()
    argvs = [
        ["verify-bubble", "--n", "3", "--k", "2", "--samples", "20", "--images", "2",
         "--out", str(tmp_path / "verify.csv")],
        ["solve-radial", "--n", "3", "--k", "2", "--rmax", "2",
         "--out", str(tmp_path / "profile.csv")],
        ["homotopy", "--n", "3", "--k", "2", "--m", "32",
         "--trace", str(tmp_path / "trace.json"), "--profile", str(tmp_path / "path.csv")],
        ["harnack-sweep", "--n", "3", "--k", "2", "--a", "0.5:2:3", "--images", "1",
         "--out", str(tmp_path / "sweep.csv")],
    ]
    entered = set()

    def tracer(frame, event, arg):  # a global trace function sees every call
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.settrace(previous)
    assert codes == [0, 0, 0, 0]
    # decorated functions are counted, code compiled from a string is not
    assert {"continuation._solve_band", "bubbles._grid_directions",
            "continuation.BvpSpec.mesh"} <= set(functions.values())
    assert "radial._dop853_step" not in functions.values()
    assert sorted(name for code, name in functions.items() if code not in entered) \
        == sorted(NEVER_ENTERED)


def _called_name(qualname: str) -> str:
    """The name a caller writes: a constructor's class, else the function's own."""
    parts = qualname.split(".")
    return parts[-2] if parts[-1].startswith("__") else parts[-1]


def test_every_listed_oracle_is_named_by_a_test():
    # an oracle is named in a test file other than this one, or is named in the
    # code of an oracle that is (a private helper of a public oracle)
    assert set(NEVER_ENTERED.values()) <= {"bench", "oracle", "failure-only", "import"}
    tests = Path(__file__).parent
    text = "\n".join(path.read_text() for path in sorted(tests.glob("*.py"))
                     if path.name != Path(__file__).name)
    codes = {name: code for code, name in _package_functions().items()}
    oracles = {name for name, why in NEVER_ENTERED.items() if why == "oracle"}
    named = {name for name in oracles
             if re.search(rf"\b{re.escape(_called_name(name))}\b", text)}
    callees = {word for name in named for word in codes[name].co_names}
    assert sorted(name for name in oracles - named if _called_name(name) not in callees) == []


def test_every_failure_only_function_constructs_an_exception():
    for name, why in NEVER_ENTERED.items():
        if why == "failure-only":
            module, cls, _ = name.split(".")
            klass = getattr(importlib.import_module(f"sigmak_lab.{module}"), cls)
            assert issubclass(klass, Exception), name
