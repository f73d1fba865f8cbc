"""Golden transcripts of the CLI: write them, or run one case and compare it.

Run from the root of a source checkout, with the package importable:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case of ``CASES`` is a list of command lines run in order through
``mubpurity.cli.main``, in a fresh temporary working directory that holds
the case's ``INPUTS`` (copied from ``tests/golden/inputs/``). Every path
the commands name is relative to that directory, so an output names the
same file everywhere. The case's directory ``tests/golden/<case>/`` holds
``transcript.json``, with the provenance line, each step's argv, exit code,
stdout and stderr (as lists of lines), and the map from each file the case
leaves behind to the golden file that holds its bytes: files of equal
bytes, such as a ``mub --load`` round trip, share one golden file.

The provenance line names the numpy version, the BLAS build, and the
kernel and thread count OpenBLAS runs with. ``tests/test_golden.py`` compares bytes
when it matches the golden's, and floats within a relative bound
otherwise, since the bytes hold only per BLAS kernel.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from mubpurity import cli

GOLDEN = Path(__file__).resolve().parent
INPUT_DIR = GOLDEN / "inputs"


def _verify(d, m, big_d, trials, *extra):
    return [["verify", "--d", str(d), "--m", str(m), "--big-d", str(big_d), "--trials", str(trials),
             "--seed", "5", *extra]]


def _mub(d):
    return [["mub", "--d", str(d), "--out", "mubs.json"],
            ["mub", "--d", str(d), "--load", "mubs.json", "--out", "reloaded.json"]]


CASES = {
    **{f"verify-d7-m{m}": _verify(7, m, 7, 15) for m in range(2, 9)},
    "verify-d3-m2-D2": _verify(3, 2, 2, 200, "--out", "report.txt"),
    "verify-d11-m6-D11": _verify(11, 6, 11, 6),
    "verify-d23-m12-D2": _verify(23, 12, 2, 3),
    "relation-family": [["relation"], ["relation", "--alpha", "3pi/8", "--x", "0.6", "--m", "2", "--out", "relation.json"]],
    "relation-state": [["mub", "--d", "3", "--m", "3", "--out", "mubs.json"],
                       ["relation", "--state", "state32.json", "--mubs", "mubs.json", "--out", "relation.json"],
                       ["relation", "--state", "state32.json"]],
    "sweep-sim-csv": [["sweep", "--param", "alpha", "--fixed", "0.8", "--steps", "7", "--simulate", "--noise", "0.01",
                       "--out", "sweep.csv"]],
    "sweep-sim-json": [["sweep", "--param", "x", "--fixed", "pi/3", "--steps", "5", "--simulate", "--format", "json",
                        "--out", "sweep.json"]],
    "expsim": [["expsim", "--alpha", "3pi/8", "--x", "0.8", "--noise", "0.02", "--out", "panel.json"]],
    **{f"mub-d{d}": _mub(d) for d in (2, 3, 5, 11, 13)},
}

# a (3, 2) Ginibre state of full rank, density_to_json(random_density(6, 6, 3, dims=(3, 2)))
INPUTS = {"relation-state": ("state32.json",)}

# (prefix, suffix) of the OpenBLAS query functions: numpy's 64-bit and 32-bit wheel builds, and a plain build
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", ""))


def _openblas_state() -> tuple[str, str]:
    """The kernel OpenBLAS chose at load time and its thread count, or "unknown" when numpy's bundled library does not say."""
    root = Path(np.__file__).resolve().parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        # the library numpy loaded: dlopen of a loaded path returns its handle
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in _OPENBLAS_NAMES:
            core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if core is not None and threads is not None:
                core.restype = ctypes.c_char_p
                return core().decode(), str(threads())
    return "unknown", "unknown"


def provenance() -> str:
    """The one line that decides whether a golden's bytes are expected to hold here.

    The thread count belongs to it: at d = 11 and 23, one and two OpenBLAS
    threads give outputs that differ in the last bits.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    core, threads = _openblas_state()
    return f"numpy {np.__version__}, blas {blas.get('name')} {blas.get('version')}, core {core}, threads {threads}"


def run_case(name: str, workdir: Path) -> tuple[list[dict], dict[str, bytes]]:
    """Run case ``name`` in ``workdir``: each step's record, and the bytes of every file the case leaves behind."""
    inputs = INPUTS.get(name, ())
    for file in inputs:
        shutil.copy(INPUT_DIR / file, workdir / file)
    steps = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in CASES[name]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            steps.append({"argv": argv, "exit": code, "stdout": out.getvalue().splitlines(keepends=True),
                          "stderr": err.getvalue().splitlines(keepends=True)})
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.name not in inputs}
    return steps, files


def write_golden(name: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        steps, files = run_case(name, Path(tmp))
    case_dir = GOLDEN / name
    shutil.rmtree(case_dir, ignore_errors=True)
    case_dir.mkdir()
    stored, by_bytes = {}, {}
    for file, data in files.items():
        stored[file] = by_bytes.setdefault(data, file)
        if stored[file] == file:
            (case_dir / file).write_bytes(data)
    transcript = {"provenance": provenance(), "steps": steps, "files": stored}
    (case_dir / "transcript.json").write_text(json.dumps(transcript, indent=1) + "\n")


def main() -> int:
    for name in CASES:
        write_golden(name)
    print(f"wrote {len(CASES)} golden transcripts to {GOLDEN} ({provenance()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
