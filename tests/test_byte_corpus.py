"""Output identity across commits: each argv of a small CLI corpus runs into a
fresh directory, and its exit code and the SHA-256 of its stdout, stderr and
every file it writes must equal the digests committed in byte_corpus.json.

Each stream and file also carries an 8-hex digest per line, so a mismatch names
the first line that differs. The LAPACK calls (`eigvalsh` in verify-bubble,
`qr` in word draws) may differ in their last bits across numpy or BLAS builds,
and numpy's vectorised `power` and `exp` across the SIMD targets it dispatches
to (AVX512 against AVX2), so the digest file records the build and the enabled
targets and a mismatch message names both sides' of each.

A change that alters an output on purpose regenerates the digests in the same
commit:

    PYTHONPATH=src python tests/test_byte_corpus.py
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from sigmak_lab.cli import main

CORPUS = Path(__file__).with_name("byte_corpus.json")
OUTPUT_FLAGS = ("--out", "--trace", "--profile")
ARGVS = [
    "verify-bubble --n 3 --k 2 --samples 40 --images 2 --seed 3 --out verify.csv",
    "verify-bubble --n 8 --k 3 --samples 30 --images 2 --seed 1 --format json --out verify.json",
    "verify-bubble --n 5 --k 5 --a 1e-200 --samples 20 --images 1 --out tiny.csv",
    "solve-radial --n 3 --k 2 --rmax 5 --out profile.csv",
    "solve-radial --n 8 --k 4 --rmax 20 --out profile8.csv",
    "homotopy --n 3 --k 2 --m 32 --trace trace.json --profile path.csv",
    "homotopy --n 8 --k 3 --rb 2 --m 48 --trace trace8.json --profile path8.csv",
    "homotopy --n 3 --k 2 --m 16 --trace trace16.json --profile path16.csv",
    "homotopy --n 3 --k 2 --m 17 --trace trace17.json --profile path17.csv",
    "homotopy --n 6 --k 3 --m 64 --trace trace6.json",
    "harnack-sweep --n 4 --k 2 --a 0.5:2:3 --R 0.5:1:2 --images 2 --seed 5 --out sweep.csv",
    "harnack-sweep --n 3 --k 1 --a 1e-200 --images 1 --out tiny_sweep.csv",
    "harnack-sweep --n 8 --k 8 --a 1e-3:1e3:4log --images 2 --seed 9 --out sweep8.csv",
    "homotopy --n 7 --k 3 --m 128 --trace trace7.json",
    "homotopy --n 3 --k 2 --m 32 --ub 0.05 --profile pathub.csv",
    "homotopy --n 3 --k 1 --m 32 --a 1e100",
]


def _build() -> str:
    """numpy's BLAS, as its build configuration names it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy without mode="dicts"
        return "unknown"


def _dispatch() -> list[str]:
    """The SIMD targets numpy dispatches to on this CPU (NPY_DISABLE_CPU_FEATURES
    removes some)."""
    return [target for target in __cpu_dispatch__ if __cpu_features__[target]]


def _digest(data: bytes) -> dict:
    lines = data.splitlines(keepends=True)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "lines": " ".join(hashlib.sha256(line).hexdigest()[:8] for line in lines)}


def _run(argv: str, folder: Path) -> tuple[dict, dict]:
    """Run argv with its output files in folder: its exit code and the digests
    of stdout, stderr and each written file, then the bytes of each."""
    words = shlex.split(argv)
    words = [str(folder / word) if prev in OUTPUT_FLAGS else word
             for prev, word in zip([None] + words, words)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(words)
    raw = {"<stdout>": out.getvalue().encode(), "<stderr>": err.getvalue().encode()}
    raw |= {path.name: path.read_bytes() for path in sorted(folder.iterdir())}
    return {"exit": code, "outputs": {name: _digest(data) for name, data in raw.items()}}, raw


def _first_difference(data: bytes, want: str) -> str:
    lines, want = data.splitlines(keepends=True), want.split()
    for i, line in enumerate(lines):
        if i >= len(want) or hashlib.sha256(line).hexdigest()[:8] != want[i]:
            return f"line {i + 1}: {line.decode(errors='replace')!r}"
    return f"line {len(lines) + 1}: missing (the corpus has {len(want)} lines)"


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("argv", ARGVS)
def test_outputs_match_the_committed_digests(argv, corpus, tmp_path):
    got, raw = _run(argv, tmp_path)
    want = corpus["runs"][argv]
    where = (f"digests from numpy {corpus['numpy']} with {corpus['blas']} dispatching to "
             f"{corpus['dispatch']}; this is numpy {np.__version__} with {_build()} "
             f"dispatching to {_dispatch()}")
    assert got["exit"] == want["exit"], where
    assert sorted(got["outputs"]) == sorted(want["outputs"]), where
    for name, digest in want["outputs"].items():
        if got["outputs"][name]["sha256"] != digest["sha256"]:
            pytest.fail(f"{argv}: {name} differs at "
                        f"{_first_difference(raw[name], digest['lines'])} ({where})")


def test_the_corpus_covers_each_command_format_and_extreme(corpus):
    assert sorted(corpus["runs"]) == sorted(ARGVS)
    assert {argv.split()[0] for argv in ARGVS} \
        == {"verify-bubble", "solve-radial", "homotopy", "harnack-sweep"}
    for needle in ("--format json", "--trace", "--profile", "--n 8", "1e-200"):
        assert any(needle in argv for argv in ARGVS), needle


if __name__ == "__main__":
    import tempfile

    runs = {}
    for argv in ARGVS:
        with tempfile.TemporaryDirectory() as folder:
            runs[argv] = _run(argv, Path(folder))[0]
    CORPUS.write_text(json.dumps({"numpy": np.__version__, "blas": _build(),
                                  "dispatch": _dispatch(), "runs": runs}, indent=1) + "\n")
