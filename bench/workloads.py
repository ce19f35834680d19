"""Workload items for the CLI benchmark and the correctness gate on their outputs.

An item is one `sigmak_lab.cli.main(argv)` call. Every argv is generated
here from the benchmark seed; the program sees nothing else. The checks
read the files each item wrote and compare them against closed forms that
are computed here, independently of the package.

Workloads (why each exists):

verify-images   verify-bubble for the 18 pairs 3 <= n <= 6, 1 <= k <= n,
                three word seeds each. Per-point jet transport, the Schouten
                spectrum and esym do most of the work; radial and
                continuation sit idle.
harnack-sweep   harnack-sweep for the 18 pairs over 25 scales with two word
                images. Uses conformal through the batched ScalarField.values
                path, Halton directions for every cell and the sweep's
                thread pool; per-point jets appear only in the polish step.
radial-bvp      solve-radial at rmax 10 and rmax 100 plus homotopy at
                m = 1024 for the 18 pairs. Scalar ODE and Newton work in
                radial and continuation; conformal is untouched. Seven of
                the rmax-100 shooting runs fail at the parent of this
                benchmark; they stay in the workload as counted failures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-images", "harnack-sweep", "radial-bvp")

PAIRS = tuple((n, k) for n in range(3, 7) for k in range(1, n + 1))
TINY_PAIRS = ((3, 2), (5, 4))

VERIFY_TOL = 1e-7
VERIFY_IMAGES = 3
WORD_SEEDS_PER_PAIR = 3
HARNACK_IMAGES = 2
SHOOT_DEVIATION_GATE = 1e-6      # solve-radial at rmax 10
HARNACK_GATE = 0.01              # bubble rows against their closed form


def load_package(root: Path):
    """Import sigmak_lab.cli from the checkout's src/ and return the module.

    Refuses a package found anywhere else, so a run outside a full checkout
    fails instead of measuring some other copy.
    """
    src = (root / "src").resolve()
    if not (src / "sigmak_lab" / "__init__.py").is_file():
        raise SystemExit(f"no sigmak_lab package under {src}; run from the "
                         "root of a source checkout")
    sys.path.insert(0, str(src))
    from sigmak_lab import cli
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"sigmak_lab imported from {cli.__file__}, not {src}")
    return cli


def c_constant(n: int, k: int) -> float:
    """2^{(n-2)/4} C(n,k)^{(n-2)/(4k)}, the amplitude of the closed-form family."""
    return 2.0 ** ((n - 2.0) / 4.0) * math.comb(n, k) ** ((n - 2.0) / (4.0 * k))


def bubble_profile(n: int, k: int, a: float, r: np.ndarray) -> np.ndarray:
    """Closed-form radial solution c(n,k) (a / (1 + a^2 r^2))^{(n-2)/2}."""
    return c_constant(n, k) * (a / (1.0 + (a * r) ** 2)) ** ((n - 2.0) / 2.0)


@dataclass
class Item:
    """One CLI call with the files it writes and what its check needs."""

    kind: str                    # verify | shoot | homotopy | harnack
    n: int
    k: int
    argv: list[str]
    outputs: list[Path]
    may_fail: bool = False       # a failure is counted but breaches no gate
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        extra = f" rmax={self.params['rmax']:g}" if self.kind == "shoot" else ""
        return f"{self.kind}(n={self.n},k={self.k}{extra})"


def build_items(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Item]:
    """The workload's items for this seed, writing their files under out_dir.

    tiny=True gives a small version of each workload for the self-test.
    """
    pairs = TINY_PAIRS if tiny else PAIRS
    rng = np.random.default_rng(seed)

    def word_seed() -> str:
        return str(rng.integers(2 ** 31))

    items: list[Item] = []
    if workload == "verify-images":
        samples = 20 if tiny else 100
        for n, k in pairs:
            for j in range(1 if tiny else WORD_SEEDS_PER_PAIR):
                out = out_dir / f"verify-{n}-{k}-{j}.csv"
                argv = ["verify-bubble", "--n", str(n), "--k", str(k),
                        "--samples", str(samples), "--images", str(VERIFY_IMAGES),
                        "--tol", repr(VERIFY_TOL), "--seed", word_seed(),
                        "--out", str(out)]
                items.append(Item("verify", n, k, argv, [out]))
    elif workload == "harnack-sweep":
        a_count = 4 if tiny else 25
        nrad, nang = (8, 4) if tiny else (48, 16)
        for n, k in pairs:
            out = out_dir / f"harnack-{n}-{k}.csv"
            argv = ["harnack-sweep", "--n", str(n), "--k", str(k),
                    "--a", f"1e-2:1e4:{a_count}log", "--R", "1",
                    "--images", str(HARNACK_IMAGES), "--nrad", str(nrad),
                    "--nang", str(nang), "--seed", word_seed(), "--out", str(out)]
            items.append(Item("harnack", n, k, argv, [out], params={"a_count": a_count}))
    elif workload == "radial-bvp":
        m, steps = (64, 4) if tiny else (1024, 40)
        for rmax in (10.0, 100.0):
            for n, k in pairs:
                out = out_dir / f"shoot-{n}-{k}-{rmax:g}.csv"
                argv = ["solve-radial", "--n", str(n), "--k", str(k),
                        "--rmax", f"{rmax:g}", "--out", str(out)]
                items.append(Item("shoot", n, k, argv, [out], may_fail=rmax > 10.0,
                                  params={"rmax": rmax}))
        for n, k in pairs:
            trace = out_dir / f"homotopy-{n}-{k}.json"
            prof = out_dir / f"homotopy-{n}-{k}.csv"
            argv = ["homotopy", "--n", str(n), "--k", str(k), "--a", "1",
                    "--m", str(m), "--steps", str(steps), "--trace", str(trace),
                    "--profile", str(prof)]
            items.append(Item("homotopy", n, k, argv, [trace, prof],
                              params={"a": 1.0}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def digest(item: Item) -> str:
    """SHA-256 over the bytes of every output file the item wrote."""
    h = hashlib.sha256()
    for path in item.outputs:
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _profile_deviation(path: Path, n: int, k: int, a: float | None) -> float:
    """Worst relative deviation of a written radial profile from the closed form.

    With a=None the scale is fitted from u(0), as for an entire solution.
    """
    rows = _csv_rows(path)
    r = np.array([float(row["r"]) for row in rows])
    u = np.array([float(row["u"]) for row in rows])
    if a is None:
        a = float((u[0] / c_constant(n, k)) ** (2.0 / (n - 2.0)))
    model = bubble_profile(n, k, a, r)
    return float(np.max(np.abs(u - model) / model))


def check(item: Item, rc: int) -> tuple[bool, float | None, str]:
    """Correctness gate for one finished item.

    Returns (gate passed, error against the closed form or None, reason).
    A nonzero exit breaches the gate unless the item may fail, in which
    case it only counts as a failure.
    """
    if rc != 0:
        return item.may_fail, None, f"exit {rc}"
    n, k = item.n, item.k
    if item.kind == "verify":
        rows = _csv_rows(item.outputs[0])
        if len(rows) != 1 + VERIFY_IMAGES:
            return False, None, f"{len(rows)} report rows, want {1 + VERIFY_IMAGES}"
        worst = max(float(row["max_residual"]) for row in rows)
        if worst > VERIFY_TOL:
            return False, worst, f"residual {worst:.3e} > {VERIFY_TOL:g}"
        if any(float(row["min_margin"]) <= 0.0 or int(row["cone_violations"])
               for row in rows):
            return False, worst, "cone margin not positive"
        return True, worst, "ok"
    if item.kind == "shoot":
        dev = _profile_deviation(item.outputs[0], n, k, None)
        if item.params["rmax"] <= 10.0 and not dev <= SHOOT_DEVIATION_GATE:
            return False, dev, f"deviation {dev:.3e} > {SHOOT_DEVIATION_GATE:g}"
        return True, dev, "ok"
    if item.kind == "homotopy":
        records = json.loads(item.outputs[0].read_text())
        if not records or not (records[-1]["converged"] and records[-1]["t"] == 1.0):
            return False, None, "path did not reach t = 1"
        return True, _profile_deviation(item.outputs[1], n, k, item.params["a"]), "ok"
    if item.kind == "harnack":
        rows = _csv_rows(item.outputs[0])
        cells = item.params["a_count"]
        if len(rows) != cells * (1 + HARNACK_IMAGES):
            return False, None, f"{len(rows)} sweep rows, want {cells * (1 + HARNACK_IMAGES)}"
        # rows are label-major with the bubble rows first
        bubble = rows[:cells]
        limit = c_constant(n, k) ** 2 * 2.0 ** (2.0 - n)
        m = (n - 2.0) / 2.0
        for row in bubble:
            a, R = float(row["a"]), float(row["R"])
            got = float(row["product_scaled"])
            exact = c_constant(n, k) ** 2 * ((a * R) ** 2 / (1.0 + 4.0 * (a * R) ** 2)) ** m
            if got > limit * (1.0 + HARNACK_GATE) \
                    or abs(got - exact) > HARNACK_GATE * exact:
                return False, None, (f"bubble row a={a:g}: product {got!r}, closed "
                                     f"form {exact!r}, limit {limit!r}")
        top = max(float(row["product_scaled"]) for row in bubble)
        return True, abs(top - limit) / limit, "ok"
    raise ValueError(f"unknown item kind {item.kind!r}")
