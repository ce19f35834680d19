"""Command-line front end, and the one module that writes files.

Four workflows: closed-form solution verification, radial shooting with the desk-scale
classification check, homotopy continuation, and the Harnack product sweep. Each command
returns its exit code, its stdout lines (one at least) and its files ({path: text});
`main` alone prints and writes, every file before the first line. Exit codes follow one
contract everywhere: 0 success, 1 configuration error (a bad flag value, or an output
path that cannot be written), 2 numerical or verification failure. Commands run with
numpy's float traps on: an overflow, a division by zero or an invalid operation is a
numerical failure (2), not a warning and a nan. All randomness (word generation) hangs
off a single --seed flag, so a fixed command line produces byte-identical output files.
Each size a command allocates by has a cap, named in --help and checked before any work;
so has each dimension --n: verify-bubble's by its Halton bases, homotopy's by the time of
its largest run. The file formats are defined here: every CSV starts `# sigmak-lab v1`
and writes floats by `repr`; every JSON is a list of records.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bubbles, continuation, radial
from .conformal import random_mobius_map_avoiding
from .errors import ConfigError, FloatRangeError, PathError, SigmakLabError, _FloatTraps, \
    check_count, check_positive
from .halton import _PRIMES, box_points

# Size caps. verify-bubble holds (1 + images) * samples rows at once, about
# 14 KB each at n = 15, so its largest run holds 50,000; harnack-sweep holds
# one row per grid cell and image.
MAX_SAMPLES = 10_000     # verify-bubble --samples
MAX_IMAGES = 4           # --images of verify-bubble and harnack-sweep
MAX_MESH = 65_536        # homotopy --m
MAX_STEPS = 1_000_000    # homotopy --steps
MAX_GRID = 200           # the count of a start:stop:count grid
MAX_HOMOTOPY_N = 20      # homotopy --n: at n = 21 the largest run takes minutes
MAX_VERIFY_N = len(_PRIMES)  # verify-bubble --n: one Halton base per coordinate


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: 'v' | 'start:stop:count' | 'start:stop:countlog'."""
    text = text.strip()
    if not text:
        return np.empty(0)
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"bad grid spec {text!r} (want start:stop:count[log])")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        start, stop = float(parts[0]), float(parts[1])
        log = parts[2].endswith("log")
        count = int(parts[2].removesuffix("log"))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}: {exc}") from exc
    check_count("grid count", count, 0, MAX_GRID)
    if not math.isfinite(stop - start):  # numpy's spacing would overflow
        raise ConfigError(f"grid endpoints in {text!r} and their difference must be finite")
    if log:
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("log grids need positive endpoints")
        with np.errstate(over="ignore"):  # stop near the float maximum; both ends stay exact
            return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _write_text(path, text: str):
    """Write text to path; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _csv(lines: list[str]) -> str:
    """CSV lines under the versioned header line every CSV of the lab starts with."""
    return "\n".join(["# sigmak-lab v1"] + lines) + "\n"


def _json(records: list[dict]) -> str:
    """A JSON file: the list of records, each a dict of its fields in order."""
    return json.dumps(records, indent=2) + "\n"


def _reprs(a: np.ndarray) -> list[str]:
    """`repr` of every entry of the float array a, formatting each distinct
    bit pattern once: by bits, not by value, -0.0 stays apart from 0.0 and
    every nan finds itself."""
    keys, inverse = np.unique(np.ascontiguousarray(a, dtype=float).view(np.int64),
                              return_inverse=True)
    text = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def _profile_csv(profile: radial.RadialProfile) -> str:
    """A profile's CSV, with per-node certificate columns (`radial._node_solves`).

    sigma_residual is |sigma_k - 1| at the node's curvature solve (machine-level
    along shot profiles), cone_margin the Gamma_k margin of its eigenpair; a
    failed solve gives nan residual and the failing margin. Every field is the
    `repr` of a Python float, the origin row's du always +0.0 (`0.0`); the
    certificates repeat few values, so `_reprs` formats each distinct one once.
    """
    _, margin, res = radial._node_solves(profile.r, profile.u, profile.du, profile.n, profile.k)
    du = [0.0] + profile.du.tolist()[1:]  # the origin row as +0.0
    text = _reprs(np.concatenate([res, margin]))
    rows = zip(profile.r.tolist(), profile.u.tolist(), du, text[:res.size], text[res.size:])
    return _csv(["r,u,du,sigma_residual,cone_margin"] + [
        f"{r!r},{u!r},{du!r},{res},{margin}" for r, u, du, res, margin in rows])


# ---------------------------------------------------------------------------
# verify-bubble
# ---------------------------------------------------------------------------

def cmd_verify_bubble(args):
    check_count("--n", args.n, 3, MAX_VERIFY_N)
    check_positive("--tol", args.tol)
    check_count("--samples", args.samples, 1, MAX_SAMPLES)
    check_count("--images", args.images, 0, MAX_IMAGES)
    check_positive("--box", args.box)
    check_count("--seed", args.seed, 0, math.inf)
    spec = bubbles.BubbleSpec(args.n, args.k, args.a)
    base = bubbles.bubble_field(spec)
    pts = box_points(args.samples, args.n, halfwidth=args.box)
    rng = np.random.default_rng(args.seed)
    # every sample point stays clear of the words' poles
    words = [random_mobius_map_avoiding(rng, args.n, pts, 1e-2) for _ in range(args.images)]
    reports = bubbles.verify_images(base, words, args.n, args.k, pts)
    labels = ["bubble"] + [f"mobius{j}" for j in range(args.images)]
    records = [{"label": label, "n": args.n, "k": args.k, "a": args.a,
                "points": rep.n_samples, "max_residual": rep.max_residual,
                "min_margin": rep.min_margin, "cone_violations": rep.cone_violations}
               for label, rep in zip(labels, reports)]
    lines = [f"{label}: residual {rep.max_residual:.3e}  margin {rep.min_margin:.3e}  "
             f"({rep.n_samples} points)" for label, rep in zip(labels, reports)]
    files = {}
    if args.out:  # JSON, or the same records as CSV: strings bare and numbers by repr
        files[args.out] = _json(records) if args.format == "json" else _csv(
            [",".join(records[0])] + [",".join(v if isinstance(v, str) else repr(v)
                                               for v in rec.values()) for rec in records])
    if any(rep.max_residual > args.tol or rep.min_margin <= 0.0 for rep in reports):
        return 2, lines + [f"verification failed at tolerance {args.tol:g}"], files
    return 0, lines, files


# ---------------------------------------------------------------------------
# solve-radial
# ---------------------------------------------------------------------------

def cmd_solve_radial(args):
    if args.u0 is not None:
        check_positive("--u0", args.u0)
    u0 = args.u0 if args.u0 is not None else bubbles.c_constant(args.n, args.k)
    profile = radial.shoot(u0, args.n, args.k, args.rmax, tol=args.tol)
    report = radial.liouville_report(profile)
    tail = report.tail
    if tail.sufficient:
        status = "monotone decay" if tail.monotone else "NOT monotone"
        probe = f"{status}, scaled gradient {tail.scaled_grad[-1]:.3e} at rho = {tail.rho[-1]:.3g}"
    else:
        probe = "insufficient tail (fewer than 4 nodes with (n-2) + r u'/u <= 1/2)"
    return 0, [f"fitted a = {report.fitted_a!r}",
               f"max relative deviation = {report.max_rel_deviation:.3e} "
               f"(at r = {report.worst_r:.4g})",
               f"kelvin probe: {probe}"], {args.out: _profile_csv(profile)} if args.out else {}


# ---------------------------------------------------------------------------
# homotopy
# ---------------------------------------------------------------------------

def cmd_homotopy(args):
    check_count("--n", args.n, 3, MAX_HOMOTOPY_N)
    check_count("--m", args.m, 16, MAX_MESH)
    check_count("--steps", args.steps, 1, MAX_STEPS)
    check_positive("--a", args.a)
    check_positive("--rb", args.rb)
    u_b = args.ub
    if u_b is None:
        u_b = float(bubbles._bubble(args.n, args.k, args.a, np.array([[args.rb]]))[0][0])
        if not u_b > 0.0:
            raise FloatRangeError(f"the family's boundary value at --a={args.a!r}, "
                                  f"--rb={args.rb!r} underflows to {u_b!r}",
                                  where=(args.a, args.rb))
    spec = continuation.BvpSpec(
        args.n, args.k, args.rb, u_b, m=args.m,
        t_step=1.0 / args.steps, a_init=args.a if args.ub is None else None)
    try:
        profile, records = continuation.continue_path(spec)
    except PathError as exc:
        lines = [f"homotopy failed: {exc}"]
        if exc.last_good_t is not None:
            lines.append(f"last good t = {exc.last_good_t!r}")
        return 2, lines, {args.trace: _json([vars(r) for r in exc.trace])} if args.trace else {}
    solved = [r for r in records if r.converged]
    lines = [f"reached t = 1 in {len(solved)} solves "
             f"({len(records) - len(solved)} failed attempts)",
             f"final residual = {solved[-1].residual:.3e}, "
             f"cone margin = {solved[-1].cone_margin:.3e}, "
             f"ellipticity = {solved[-1].ellipticity:.3e}"]
    if args.ub is None:
        model = continuation.initial_guess(spec)  # the --a member on the mesh
        dev = float(np.max(np.abs(profile.u - model) / model))
        lines.append(f"max relative deviation from the target profile = {dev:.3e}")
    files = {args.trace: _json([vars(r) for r in records])} if args.trace else {}
    if args.profile:  # a profile on the --trace path replaces the trace
        files[args.profile] = _profile_csv(profile)
    return 0, lines, files


# ---------------------------------------------------------------------------
# harnack-sweep
# ---------------------------------------------------------------------------

def cmd_harnack_sweep(args):
    check_count("--nrad", args.nrad, 1, math.inf)
    check_count("--nang", args.nang, 0, math.inf)
    check_count("--images", args.images, 0, MAX_IMAGES)
    a_grid = _parse_grid(args.a)
    r_grid = _parse_grid(args.R)
    rows = bubbles.harnack_sweep(args.n, args.k, a_grid, r_grid,
                                 mobius_words=args.images, seed=args.seed)
    if not rows:
        raise ConfigError("cannot take the supremum of an empty sweep")
    sup = max(row.product_scaled for row in rows)
    limit = bubbles.c_constant(args.n, args.k) ** 2 * 2.0 ** (2.0 - args.n)
    line = (f"empirical sup of scaled product = {sup!r} "
            f"({len(rows)} cells; centered-family limit {limit!r})")
    return 0, [line], {args.out: _csv(["n,k,a,R,maxBR,min2BR,product_scaled"] + [
        f"{row.n},{row.k},{row.a!r},{row.R!r},{row.max_br!r},"
        f"{row.min_2br!r},{row.product_scaled!r}" for row in rows])} if args.out else {}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sigmak-lab",
                                     description="Numerical lab for sigma_k Schouten operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-bubble", help="residual-check the "
                       "closed-form family and random word images of it")
    p.add_argument("--n", type=int, required=True, help=f"at most {MAX_VERIFY_N}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--samples", type=int, default=1000, help=f"at most {MAX_SAMPLES}")
    p.add_argument("--box", type=float, default=3.0)
    p.add_argument("--images", type=int, default=3, help=f"at most {MAX_IMAGES}")
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
    p.add_argument("--n", type=int, required=True, help=f"at most {MAX_HOMOTOPY_N}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rb", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=10,
                   help="first t-step is 1/steps; steps double while Newton "
                   f"converges in <= 3 iterations; at most {MAX_STEPS}")
    p.add_argument("--m", type=int, default=256,
                   help=f"mesh intervals, at least 16 and at most {MAX_MESH}")
    p.add_argument("--a", type=float, default=1.0,
                   help="target family scale fixing the boundary value")
    p.add_argument("--ub", type=float, default=None,
                   help="explicit boundary value (overrides --a)")
    p.add_argument("--trace", type=str, default=None)
    p.add_argument("--profile", type=str, default=None)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("harnack-sweep", help="exact scaled Harnack products over "
                       "the family and word images; their sup is a lower constant bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    grid = f"v, start:stop:count or start:stop:countlog, count at most {MAX_GRID}"
    p.add_argument("--a", type=str, default="1", help=grid)
    p.add_argument("--R", type=str, default="1", help=grid)
    p.add_argument("--nrad", type=int, default=64,
                   help="checked (>= 1) but unused: the rows are exact, with no grid")
    p.add_argument("--nang", type=int, default=64,
                   help="checked (>= 0) but unused: the rows are exact, with no grid")
    p.add_argument("--images", type=int, default=0, help=f"at most {MAX_IMAGES}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_harnack_sweep)
    return parser


def _check_outputs(args):
    """Fail before the work when an output path is a directory, or its
    directory is missing or not writable."""
    for path in filter(None, (getattr(args, name, None) for name in ("out", "trace", "profile"))):
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
            raise ConfigError(f"cannot write {path}: {folder} is not a writable directory")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
    try:
        _check_outputs(args)
        with _FloatTraps():
            code, lines, files = args.func(args)
        for path, text in files.items():
            _write_text(path, text)
        print("\n".join(lines))
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (SigmakLabError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the contract forbids raw tracebacks
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
