"""Command-line front end.

Four workflows: closed-form solution verification, radial shooting with
the desk-scale classification check, homotopy continuation, and the
Harnack product sweep. Exit codes follow one contract everywhere:
0 success, 1 configuration error, 2 numerical or verification failure.
All randomness (word generation) hangs off a single --seed flag, so a
fixed command line produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bubbles, continuation, radial
from .conformal import random_mobius_map_avoiding, transform_field
from .errors import ConfigError, SigmakLabError
from .halton import box_points

CSV_HEADER = "# sigmak-lab v1"


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (usage errors are 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: 'v' | 'start:stop:count' | 'start:stop:countlog'."""
    text = text.strip()
    if not text:
        return np.empty(0)
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([float(parts[0])])
    if len(parts) != 3:
        raise ConfigError(f"bad grid spec {text!r} (want start:stop:count[log])")
    start, stop = float(parts[0]), float(parts[1])
    count_text = parts[2]
    log = count_text.endswith("log")
    if log:
        count_text = count_text[:-3]
    count = int(count_text)
    if count <= 0:
        return np.empty(0)
    if count == 1:
        return np.array([start])
    if log:
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("log grids need positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _check_nk(n: int, k: int):
    if n < 3:
        raise ConfigError(f"dimension n={n} must be >= 3")
    if not 1 <= k <= n:
        raise ConfigError(f"cone index k={k} outside 1..{n}")


def _write_text(path: str, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _csv(lines: list[str]) -> str:
    return "\n".join([CSV_HEADER] + lines) + "\n"


# ---------------------------------------------------------------------------
# verify-bubble
# ---------------------------------------------------------------------------

def cmd_verify_bubble(args) -> int:
    _check_nk(args.n, args.k)
    if args.a <= 0.0:
        raise ConfigError(f"scale a={args.a} must be positive")
    if args.tol <= 0.0:
        raise ConfigError("tolerance must be positive")
    if args.samples < 1:
        raise ConfigError(f"samples={args.samples} must be >= 1")
    if not args.box > 0.0:
        raise ConfigError(f"box half-width {args.box} must be positive")
    spec = bubbles.BubbleSpec(args.n, args.k, args.a)
    base = bubbles.bubble_field(spec)
    pts = box_points(args.samples, args.n, halfwidth=args.box)
    rng = np.random.default_rng(args.seed)
    # every sample point stays clear of the words' poles
    fields = [("bubble", base)] + [
        (f"mobius{j}", transform_field(
            base, random_mobius_map_avoiding(rng, args.n, pts, 1e-2)))
        for j in range(args.images)]
    rows = []
    ok = True
    for label, fld in fields:
        rep = bubbles.verify_solution(fld, args.n, args.k, sample_points=pts)
        rows.append((label, rep))
        if rep.max_residual > args.tol or rep.min_margin <= 0.0:
            ok = False
        print(f"{label}: residual {rep.max_residual:.3e}  "
              f"margin {rep.min_margin:.3e}  ({rep.n_samples} points)")
    if args.out:
        if args.format == "json":
            payload = [{"label": label, "n": args.n, "k": args.k, "a": args.a,
                        "points": rep.n_samples, "max_residual": rep.max_residual,
                        "min_margin": rep.min_margin,
                        "cone_violations": rep.cone_violations}
                       for label, rep in rows]
            _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        else:
            lines = ["label,n,k,a,points,max_residual,min_margin,cone_violations"]
            lines += [f"{label},{args.n},{args.k},{args.a!r},{rep.n_samples},"
                      f"{rep.max_residual!r},{rep.min_margin!r},{rep.cone_violations}"
                      for label, rep in rows]
            _write_text(args.out, _csv(lines))
    if not ok:
        print(f"verification failed at tolerance {args.tol:g}")
        return 2
    return 0


# ---------------------------------------------------------------------------
# solve-radial
# ---------------------------------------------------------------------------

def cmd_solve_radial(args) -> int:
    _check_nk(args.n, args.k)
    if args.u0 is not None and args.u0 <= 0.0:
        raise ConfigError(f"initial value u0={args.u0} must be positive")
    if args.rmax <= 0.0:
        raise ConfigError(f"rmax={args.rmax} must be positive")
    if args.tol <= 0.0:
        raise ConfigError("tolerance must be positive")
    u0 = args.u0 if args.u0 is not None else bubbles.c_constant(args.n, args.k)
    profile = radial.shoot(u0, args.n, args.k, args.rmax, tol=args.tol)
    report = radial.liouville_report(profile)
    print(f"fitted a = {report.fitted_a!r}")
    print(f"max relative deviation = {report.max_rel_deviation:.3e} "
          f"(at r = {report.worst_r:.4g})")
    if not report.tail.sufficient:
        print("kelvin probe: insufficient tail (profile does not reach r >= 2)")
    else:
        status = "monotone decay" if report.tail.monotone else "NOT monotone"
        print(f"kelvin probe: {status}, scaled gradient "
              f"{report.tail.scaled_grad[-1]:.3e} at rho = {report.tail.rho[-1]:.3g}")
    if args.out:
        radial.write_profile_csv(profile, args.out)
    return 0


# ---------------------------------------------------------------------------
# homotopy
# ---------------------------------------------------------------------------

def cmd_homotopy(args) -> int:
    _check_nk(args.n, args.k)
    if args.steps < 1:
        raise ConfigError(f"steps={args.steps} must be >= 1")
    if args.a <= 0.0:
        raise ConfigError(f"target scale a={args.a} must be positive")
    m_exp = (args.n - 2.0) / 2.0
    u_b = args.ub if args.ub is not None else \
        bubbles.c_constant(args.n, args.k) \
        * (args.a / (1.0 + args.a ** 2 * args.rb ** 2)) ** m_exp
    spec = continuation.BvpSpec(
        args.n, args.k, args.rb, u_b, m=args.m,
        t_path=np.linspace(0.0, 1.0, args.steps + 1),
        use_kth_root=args.kth_root, a_init=args.a if args.ub is None else None)
    try:
        profile, trace = continuation.continue_path(spec)
    except SigmakLabError as exc:
        last = getattr(exc, "last_good_t", None)
        trace = getattr(exc, "trace", None)
        print(f"homotopy failed: {exc}")
        if last is not None:
            print(f"last good t = {last!r}")
        if args.trace and trace is not None:
            _write_text(args.trace, trace.to_json())
        return 2
    solved = [r for r in trace.records if r.converged]
    print(f"reached t = 1 in {len(solved)} solves "
          f"({len(trace.records) - len(solved)} failed attempts)")
    print(f"final residual = {solved[-1].residual:.3e}, "
          f"cone margin = {solved[-1].cone_margin:.3e}, "
          f"ellipticity = {solved[-1].ellipticity:.3e}")
    if args.ub is None:
        w = 1.0 + (args.a * profile.r) ** 2
        model = bubbles.c_constant(args.n, args.k) * (args.a / w) ** m_exp
        dev = float(np.max(np.abs(profile.u - model) / model))
        print(f"max relative deviation from the target profile = {dev:.3e}")
    if args.trace:
        _write_text(args.trace, trace.to_json())
    if args.profile:
        radial.write_profile_csv(profile, args.profile)
    return 0


# ---------------------------------------------------------------------------
# harnack-sweep
# ---------------------------------------------------------------------------

def cmd_harnack_sweep(args) -> int:
    _check_nk(args.n, args.k)
    a_grid = _parse_grid(args.a)
    r_grid = _parse_grid(args.R)
    if a_grid.size == 0 or r_grid.size == 0:
        raise ConfigError("empty sweep grid")
    rows = bubbles.harnack_sweep(args.n, args.k, a_grid, r_grid,
                                 n_radial=args.nrad, n_angular=args.nang,
                                 mobius_words=args.images, seed=args.seed)
    sup = bubbles.sweep_supremum(rows)
    limit = bubbles.c_constant(args.n, args.k) ** 2 * 2.0 ** (2.0 - args.n)
    print(f"empirical sup of scaled product = {sup!r} "
          f"({len(rows)} cells; centered-family limit {limit!r})")
    if args.out:
        lines = ["n,k,a,R,maxBR,min2BR,product_scaled"]
        lines += [f"{row.n},{row.k},{row.a!r},{row.R!r},{row.max_br!r},"
                  f"{row.min_2br!r},{row.product_scaled!r}" for row in rows]
        _write_text(args.out, _csv(lines))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="sigmak-lab",
                     description="Numerical lab for sigma_k Schouten operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-bubble", parents=[], help="residual-check the "
                       "closed-form family and random word images of it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--box", type=float, default=3.0)
    p.add_argument("--images", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_verify_bubble)

    p = sub.add_parser("solve-radial", help="shoot the radial equation and "
                       "compare against the closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u0", type=float, default=None)
    p.add_argument("--rmax", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_solve_radial)

    p = sub.add_parser("homotopy", help="continuation from the sigma_1-type "
                       "endpoint to sigma_k on a radial Dirichlet problem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rb", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=10,
                   help="number of t-intervals (1 = endpoints only)")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--a", type=float, default=1.0,
                   help="target family scale fixing the boundary value")
    p.add_argument("--ub", type=float, default=None,
                   help="explicit boundary value (overrides --a)")
    p.add_argument("--kth-root", action="store_true")
    p.add_argument("--trace", type=str, default=None)
    p.add_argument("--profile", type=str, default=None)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("harnack-sweep", help="scaled Harnack products over "
                       "the family; empirical sup is a lower constant bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=str, default="1")
    p.add_argument("--R", type=str, default="1")
    p.add_argument("--nrad", type=int, default=64)
    p.add_argument("--nang", type=int, default=64)
    p.add_argument("--images", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_harnack_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors (and --help)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SigmakLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        last = getattr(exc, "last_good_t", None)
        if last is not None:
            print(f"last good t = {last!r}", file=sys.stderr)
        return 2
    except Exception as exc:  # the contract forbids raw tracebacks
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
