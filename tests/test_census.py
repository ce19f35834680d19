"""The census of code that no CLI workflow runs: the four subcommands run under
`sys.settrace`, and the package functions they never enter must equal a
checked-in list, so a function that joins or leaves it shows up in review.

A package function is a function or method, unwrapped (`inspect.unwrap`),
whose code lies in the source file of the module that defines it. Code compiled
from strings (dataclass methods, the exec'd `radial._dop853_step`) and nested
closures are not counted.
"""

import functools
import importlib
import inspect
import pkgutil
import sys

import sigmak_lab as sl
from sigmak_lab.cli import main

# sorted: the grid path of `harnack_product`, the per-point entries of the batch
# paths, the oracles the tests import, and constructors that only failures run
NEVER_ENTERED = [
    "bubbles.HarnackReport.__post_init__",
    "bubbles._grid_directions",
    "bubbles._grid_extrema",
    "bubbles._harnack_grid",
    "bubbles.harnack_product",
    "bubbles.verify_solution",
    "conformal.Jet2.__post_init__",
    "conformal.MobiusMap._walk",
    "conformal.MobiusMap.apply",
    "conformal.MobiusMap.inverse",
    "conformal.MobiusMap.jacobian_det",
    "conformal.MobiusMap.jet",
    "conformal.MobiusMap.then",
    "conformal.Rotation.__post_init__",
    "conformal.ScalarField._row",
    "conformal.ScalarField.jet",
    "conformal.ScalarField.raw_jet",
    "conformal.ScalarField.value",
    "conformal.ScalarField.values",
    "conformal._lift",
    "conformal.constant_field",
    "conformal.kelvin_transform",
    "conformal.schouten_flat",
    "conformal.schouten_spectrum",
    "conformal.transform_field",
    "continuation._NodeState.jacobian_dense",
    "continuation.assemble_jacobian",
    "continuation.assemble_residual",
    "errors.ConeBoundaryError.__init__",
    "errors.ConeDomainError.__init__",
    "errors.FloatRangeError.__init__",
    "errors.NewtonError.__init__",
    "errors.PathError.__init__",
    "errors.PositivityError.__init__",
    "errors.StepUnderflowError.__init__",
    "halton._normal_quantile",
    "halton.sphere_directions",
    "radial.EigenPair.vector",
    "radial.RadialProfile.r_max",
    "radial._weighted",
    "symfun.OperatorSpec.__post_init__",
    "symfun._as_lambda",
    "symfun._esym_gradient_batch",
    "symfun._mixed_esym",
    "symfun._uniform_chain",
    "symfun._uniform_mix",
    "symfun.check_concavity",
    "symfun.check_ellipticity",
    "symfun.f_homotopy",
    "symfun.f_homotopy_gradient",
    "symfun.homotopy_vector",
    "symfun.in_gamma_k",
    "symfun.in_gamma_t",
    "symfun.sigma",
    "symfun.sigma_gradient",
]


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
        == NEVER_ENTERED
