"""Mutation gate: each historical bug, put back into a copy of the code, must fail its test.

Run from any directory, with the test extras installed:

    python mutants/run.py

The checkout's ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a
temporary directory, and the repository itself is never edited. Each
mutant names the one test that must kill it, and those tests first run
once unmutated and must pass. Then, for each mutant, the script checks
that its pattern occurs exactly once in its file, so code that moved fails
loudly, writes the mutated file and runs the mutant's test with ``pytest
-x -q -p no:cacheprovider`` on one BLAS thread, hypothesis's plugin the
one installed plugin loaded. Only pytest's exit code 1, a failed test,
kills the mutant; a collection error (2) or a pass (0) lets it survive.
One line is printed per mutant, naming the failed test, and the script
exits 1 on any survivor.

The script imports numpy and pytest once, and each run, the unmutated one
too, is a child forked from it: the child enters the copy, puts its ``src``
first on ``sys.path`` and calls ``pytest.main``, whose exit code it exits
with, and a small plugin sends back the first failed test. One child runs
at a time. The parent never imports ``mubpurity``, so every child reads
the copy as it is now, nor ``hypothesis``: a module that pytest is to
rewrite must not be imported before pytest starts, or pytest warns, and
the project's ``filterwarnings = error`` makes that a failure. The script
needs ``os.fork``, so a POSIX system.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

# set before numpy loads, so the parent has no BLAS thread when it forks, and
# inherited by every child; no bytecode: a mutant of the same size and second
# as its original would leave a stale .pyc
os.environ.update(OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
sys.dont_write_bytecode = True

import numpy  # noqa: E402,F401  imported once, for every child
import pytest  # noqa: E402


class Mutant(NamedTuple):
    name: str
    path: str
    pattern: str
    replacement: str
    test: str


RELATIONS, LINALG, EXPSIM, MUB, STATES, CLI = (
    f"src/mubpurity/{m}.py" for m in ("relations", "linalg", "expsim", "mub", "states", "cli")
)

GAMMA_BY_KRON = "tests/test_relations.py::TestGamma::test_matches_kron_definition"
PSD_AT_THE_SLACK = "tests/test_linalg.py::TestTypes::test_psd_gate_sits_at_the_slack"
TWISTED_BY_KRON = "tests/test_relations.py::TestBipartiteBasis::test_twisted_matches_kron_reference[3]"

MUTANTS = (
    # the realigned gamma
    Mutant("pinched sum without the conjugate of Pi", RELATIONS,
           "pairs.conj().T @ blocks", "pairs.T @ blocks", GAMMA_BY_KRON),
    # gamma is realigned back with the same transpose, hence the context
    Mutant("pinch blocks read without the realignment", RELATIONS,
           "four.transpose(0, 1, 3, 2, 4)", "four.transpose(0, 1, 2, 3, 4)",
           "tests/test_relations.py::TestPostMeasurement::test_matches_kron_reference"),
    Mutant("rho_B added on the rows :: d, not the rows (a, a)", RELATIONS,
           "g[:, :: d + 1]", "g[:, :: d]", GAMMA_BY_KRON),
    Mutant("gamma scaled by M/d, not (M-1)/d", RELATIONS,
           "(m - 1) / d", "m / d", "tests/test_relations.py::TestGamma::test_complete_set_vanishes_d2"),
    Mutant("purity read as Tr(m m^T)", LINALG,
           '"...ab,...ba->..."', '"...ab,...ab->..."',
           "tests/test_linalg.py::TestPurity::test_matches_squared_eigenvalues"),
    Mutant("projector from the conjugated span", RELATIONS,
           "span.T @ span.conj()", "span.conj().T @ span",
           "tests/test_relations.py::TestBipartiteBasis::test_projector_invariants"),
    Mutant("PSD gate shifted by 0.8 TOL_PSD", LINALG,
           "cholesky(a + TOL_PSD *", "cholesky(a + 0.8 * TOL_PSD *", PSD_AT_THE_SLACK),
    Mutant("PSD gate shifted by 1.2 TOL_PSD", LINALG,
           "cholesky(a + TOL_PSD *", "cholesky(a + 1.2 * TOL_PSD *", PSD_AT_THE_SLACK),
    Mutant("depolarizing without the 1/2", EXPSIM,
           "(dev + dev[..., flip[:, None], flip]) * 0.5", "(dev + dev[..., flip[:, None], flip])",
           "tests/test_expsim.py::TestGates::test_depolarize_matches_slice_loop"),
    # the simulator gates read one qubit-bit table
    Mutant("(1 - p) dev computed as dev - p dev, which cancels near p = 1", EXPSIM,
           "out = (1.0 - p) * dev", "out = dev - p * dev",
           "tests/test_expsim.py::TestNoiseAndRescaling::test_rescaling_holds_near_p_one"),
    Mutant("CSWAP without its control", EXPSIM,
           "swap = _QUBIT_BITS[control] & (_QUBIT_BITS[q1] ^ _QUBIT_BITS[q2])",
           "swap = _QUBIT_BITS[q1] ^ _QUBIT_BITS[q2]",
           "tests/test_expsim.py::TestGates::test_cswap_matches_dense_unitary"),
    Mutant("rotation about the other Pauli: RY turns about X", EXPSIM,
           '"RY": np.array([[0, -1j], [1j, 0]])', '"RY": np.array([[0, 1], [1, 0]])',
           "tests/test_expsim.py::TestGates::test_rotation_matches_kron_embedding"),
    Mutant("calibration reads the ideal panel as the noisy one", EXPSIM,
           "noisy = _read_panel(rho, observables)", "noisy = _read_panel(rho, _noise_level(0.0)[0])",
           "tests/test_expsim.py::TestNoiseAndRescaling::test_calibration_matches_fresh_preparation_reference[0.05]"),
    Mutant("calibration accepts a factor where (1 - p)**k is 0", EXPSIM,
           "if expected == 0.0 or not abs(", "if not abs(",
           "tests/test_expsim.py::TestNoiseAndRescaling::test_exact_zero_read_at_p_one_is_rejected"),
    Mutant("construct_mubs takes M unread", MUB,
           'd, M = _as_int("d", d), _as_int("M", M)', 'd = _as_int("d", d)',
           "tests/test_linalg.py::test_integer_rule_rejects_non_integers[2.5-construct_mubs M]"),
    Mutant("float texts deduplicated by value, merging -0.0 and 0.0", LINALG,
           "np.unique(a.view(np.uint64), return_inverse=True)", "np.unique(a, return_inverse=True)",
           "tests/test_mub.py::test_saved_text_keeps_float_reprs"),
    # the checks the builders dropped: each fact must still be caught by a test
    Mutant("phi dropped from the constructed states", RELATIONS,
           "twisted[0, :1]", "twisted[0, :0]",
           "tests/test_relations.py::TestBipartiteBasis::test_d3_m2_counts_and_gram"),
    # a set MubSet accepts can give states d/2 times its unbiasedness deviation off orthonormal
    Mutant("build's Gram check at ten times its bound", RELATIONS,
           "if gram_dev > TOL_STRUCTURAL:", "if gram_dev > 10 * TOL_STRUCTURAL:",
           "tests/test_relations.py::TestBipartiteBasis::test_rejects_states_off_orthonormal"),
    Mutant("Ginibre state left unnormalized", STATES,
           "scaled *= 1.0 / np.trace(row).real", "scaled *= 1.0",
           "tests/test_states.py::TestRandomDensity::test_psd_and_trace"),
    Mutant("family state mixed with (1 - x)/2", STATES,
           "(1.0 - x) / 4.0", "(1.0 - x) / 2.0", "tests/test_states.py::TestRhoFamily::test_x_zero_maximally_mixed"),
    Mutant("indefinite Ginibre draw", STATES,
           "np.matmul(g, g.conj().T, out=row)", "np.subtract(g @ g.conj().T, 1e-3 * np.eye(dim), out=row)",
           "tests/test_states.py::TestRandomDensityStack::test_stack_checked_as_density_matrices"),
    # a valid state of other bits, and a route that still runs
    Mutant("imaginary part filled from the real normals", STATES,
           ".standard_normal((2, dim, rank))", ".standard_normal((2, dim, rank))[[0, 0]]",
           "tests/test_states.py::TestDrawBits::test_rows_match_the_two_call_formula"),
    Mutant("projector route without its partial transpose", RELATIONS,
           "partial_transpose(basis.projector, (d, d), subsystem=1)", "basis.projector",
           "tests/test_relations.py::TestGamma::test_projector_route_agrees"),
    # the basis layer forms each operand once
    Mutant("quadratic phase a*s*s read as linear in the amplitude table", MUB,
           "[(a * s * s + j * s) % d]", "[(a * s + j * s) % d]",
           "tests/test_mub.py::test_construction_matches_row_loop[3]"),
    Mutant("twisted states scaled by 1/d, not 1/sqrt(d)", RELATIONS,
           "scaled *= 1.0 / np.sqrt(d)", "scaled *= 1.0 / d", TWISTED_BY_KRON),
    Mutant("twist index shifted", RELATIONS,
           "np.outer(np.arange(d), np.arange(d))", "np.outer(np.arange(d) + 1, np.arange(d))", TWISTED_BY_KRON),
    # a near-equivalent site: q = V^T V* is I up to rounding for every orthonormal basis V, so on
    # a constructed set phi's deviation moves only in its last bits (1.9e-16 -> 3.6e-16 at d = 7).
    # Only sets perturbed to the acceptance bound tell the bases apart: 2.2e-12 > TOL_STRUCTURAL.
    Mutant("phi's identity taken with basis 2's swap", RELATIONS,
           "-swap_left[0]], axis=1)\n                             @ np.concatenate([phi.conj()[None], swap_right[0]])",
           "-swap_left[1]], axis=1)\n                             @ np.concatenate([phi.conj()[None], swap_right[1]])",
           "tests/test_relations.py::TestBipartiteBasis::test_near_bound_sets_build_or_fail_validation"),
    # the CLI contracts; load_mubs and relation --state read through the one catch of linalg._read_json,
    # which catches ValueError, so also json's error past the integer digit limit
    Mutant("load_mubs without the decode catch", LINALG,
           "except (OSError, ValueError, RecursionError) as exc:  # UnicodeDecodeError",
           "except (OSError, RecursionError) as exc:  # UnicodeDecodeError",
           "tests/test_cli.py::TestMubCommand::test_load_invalid_exits_2[non-utf-8]"),
    Mutant("load_mubs and relation --state read catch without RecursionError", LINALG,
           "except (OSError, ValueError, RecursionError) as exc:  # UnicodeDecodeError",
           "except (OSError, ValueError) as exc:  # UnicodeDecodeError",
           "tests/test_cli.py::TestMubCommand::test_load_invalid_exits_2[deeply-nested]"),
    Mutant("main exits 1 for a MubValidationError", CLI,
           "return 2 if isinstance(exc, MubValidationError) else 1", "return 1",
           "tests/test_cli.py::TestMubCommand::test_non_prime_exits_2[mub]"),
    # 3825123056546413051 is a strong pseudoprime to every prime base up to 31
    Mutant("Miller-Rabin without the base 37", MUB,
           "29, 31, 37)", "29, 31)",
           "tests/test_mub.py::test_construct_rejects_strong_pseudoprimes[3825123056546413051]"),
    Mutant("cmd_verify prints the report before writing --out", CLI,
           '    if ns.out is not None:\n        Path(ns.out).write_text(text)\n    print(text, end="")\n',
           '    print(text, end="")\n    if ns.out is not None:\n        Path(ns.out).write_text(text)\n',
           "tests/test_cli.py::TestVerifyCommand::test_unwritable_out_exits_1_before_the_report"),
    # one presence rule for every path flag: '' is a path that cannot be read, not a missing flag
    Mutant("an empty --load or --mubs read as no flag", CLI,
           "if path is not None:", "if path:",
           "tests/test_cli.py::test_empty_input_path_is_a_bad_path[mub-load]"),
    Mutant("an empty --state read as no flag", CLI,
           "if ns.state is not None:", "if ns.state:",
           "tests/test_cli.py::test_empty_input_path_is_a_bad_path[relation-state]"),
    # input checks that no test reached: each mutant lets the bad input past
    Mutant("sweep accepts a single step", CLI,
           '_as_int("steps", ns.steps, 2)', '_as_int("steps", ns.steps, 1)',
           "tests/test_cli.py::TestSweepCommand::test_steps_below_two_exit_1[1]"),
    # subsystem -1 swaps a valid pair of axes and returns a matrix
    Mutant("partial_transpose accepts a negative subsystem", LINALG,
           "if subsystem not in (0, 1):", "if subsystem > 1:",
           "tests/test_linalg.py::TestPartialTranspose::test_subsystem_out_of_range[-1]"),
    Mutant("state reader lets a JSON list raise TypeError", LINALG,
           "    except TypeError:\n        raise ValueError(f\"expected a density matrix object",
           "    except ZeroDivisionError:\n        raise ValueError(f\"expected a density matrix object",
           "tests/test_cli.py::TestRelationCommand::test_state_file_not_an_object_exits_1[list]"),
    Mutant("_as_stack accepts a non-square stack", LINALG,
           " or a.shape[-2] != a.shape[-1]:", ":",
           "tests/test_linalg.py::test_empty_arrays_refused[hermitian_eigenvalues-shape3]"),
    # the one check rule and the one pair reader
    Mutant("lowest check compared with <=", RELATIONS,
           "value >= bound if lowest else value <= bound", "value <= bound if lowest else value <= bound",
           "tests/test_relations.py::TestVerifyRelations::test_chunked_read_equals_per_trial_reports"),
    Mutant("pair reader accepts boolean leaves", LINALG,
           "t is not bool and issubclass(t, numbers.Real)", "issubclass(t, numbers.Real)",
           "tests/test_linalg.py::TestPairReader::test_rejects_malformed_pairs[boolean-entry]"),
    Mutant("pair reader checks the nesting depth, not the declared sizes", LINALG,
           "if a.shape != (*shape, 2):", "if a.ndim != len(shape) + 1 or a.shape[-1] != 2:",
           "tests/test_linalg.py::TestPairReader::test_rejects_malformed_pairs[sizes-disagree]"),
    Mutant("pair reader lets an integer beyond float range raise OverflowError", LINALG,
           "except OverflowError:", "except ZeroDivisionError:",
           "tests/test_linalg.py::TestPairReader::test_rejects_malformed_pairs[401-digit-integer]"),
    # the one set check
    Mutant("MubSet accepted without validate_mubs", MUB,
           "report = validate_mubs(self)",
           "report = MubValidationReport(a.shape[1], a.shape[0], 0.0, 0.0, (1, 0, 0), (1, 2, 0, 0))",
           "tests/test_mub.py::test_duplicated_basis_fails"),
    Mutant("pair stack formed without .conj()", MUB,
           "pairs = b.conj()[rows] @", "pairs = b[rows] @",
           "tests/test_mub.py::test_validation_matches_pair_loop[3]"),
    # identical bases tie in every block, and the reference loop keeps the first
    Mutant("worst entry taken at its last occurrence", LINALG,
           "k = int(values.argmin() if lowest else values.argmax())",
           "k = int(values.argmin() if lowest else values.size - 1 - values.ravel()[::-1].argmax())",
           "tests/test_mub.py::test_validation_matches_pair_loop[2]"),
    # operator swaps that no test caught before
    Mutant("expsim prints lhs + rhs as the gap", CLI,
           "gap={lhs - rhs!r}", "gap={lhs + rhs!r}",
           "tests/test_cli.py::TestExpsimCommand::test_prints_the_rescaled_relation_sides"),
    Mutant("sweep accepts from == to", CLI,
           "if not start < stop:", "if not start <= stop:",
           "tests/test_cli.py::TestSweepCommand::test_empty_range_exits_1"),
    Mutant("state reader refuses rows = cols = 1", LINALG,
           '_as_int("rows", rows, 1)', '_as_int("rows", rows, 2)',
           "tests/test_cli.py::TestRelationCommand::test_state_dims_decide_the_exit[one-by-one]"),
    # historical simulator bugs
    Mutant("panel read with optimize=True, which reorders the sums", EXPSIM,
           '"sabcd,nca,ndb->sn", observables, rho, rho)', '"sabcd,nca,ndb->sn", observables, rho, rho, optimize=True)',
           "tests/test_expsim.py::TestBatch::test_one_read_equals_per_setting_reads[0.05]"),
    # a cache of size 0 keeps cache_info and cache_clear, so only the count of reads tells
    Mutant("noise-level cache removed", EXPSIM,
           "@lru_cache(maxsize=8)", "@lru_cache(maxsize=0)",
           "tests/test_expsim.py::TestNoiseAndRescaling::test_calibration_runs_once_per_level"),
    Mutant("probe DEPOL moved before its CSWAP", EXPSIM,
           '        gates.append(("CSWAP", _PROBE) + pair)\n        if p > 0.0:\n'
           '            gates.append(("DEPOL", _PROBE, p))\n',
           '        if p > 0.0:\n            gates.append(("DEPOL", _PROBE, p))\n'
           '        gates.append(("CSWAP", _PROBE) + pair)\n',
           "tests/test_expsim.py::TestObservables::test_noise_sites_follow_each_cswap"),
    # historical relation-layer bugs
    Mutant("partial transpose of the other factor", LINALG,
           "row = a.ndim - 2 + subsystem", "row = a.ndim - 1 - subsystem",
           "tests/test_linalg.py::TestPartialTranspose::test_entrywise_index_map"),
    Mutant("all trials read in one stack", RELATIONS,
           "_CHUNK_BYTES = 1 << 18", "_CHUNK_BYTES = 1 << 60",
           "tests/test_relations.py::TestVerifyRelations::test_trial_memory_is_bounded[2]"),
    Mutant("gamma hermiticity line dropped", RELATIONS,
           ',\n               _check("gamma hermiticity max deviation", skews, TOL_PSD, seeds=trial_seeds)]',
           "]",
           "tests/test_relations.py::TestVerifyRelations::test_non_hermitian_gamma_fails_verification[3]"),
    # each input rule stated once: each mutant lets a bad input past the one place that refuses it
    Mutant("integer rule ignores its lower bound", LINALG,
           "if low is not None and value < low:", "if False:",
           "tests/test_cli.py::TestVerifyCommand::test_zero_trials_exits_1"),
    Mutant("basis sets of M = d + 2 bases pass the size rule", MUB,
           "if not 2 <= m <= d + 1:", "if not 2 <= m <= d + 2:",
           "tests/test_cli.py::TestMubCommand::test_m_out_of_range_exits_1"),
    Mutant("partial_transpose reads subsystem without the integer rule", LINALG,
           '    subsystem = _as_int("subsystem", subsystem)\n', "",
           "tests/test_linalg.py::test_integer_rule_rejects_non_integers[True-partial_transpose subsystem]"),
    # dims (-2, -2) ended in numpy's reshape error, and an empty matrix in its reduction error
    Mutant("partial_transpose reads dims without the floor", LINALG,
           '_as_int("dims", d, 1)', '_as_int("dims", d)',
           "tests/test_linalg.py::test_integer_rule_refuses_below_the_floor[partial_transpose dims]"),
    Mutant("_as_stack accepts a zero-size array", LINALG,
           "a.ndim < 2 or a.size == 0 or", "a.ndim < 2 or",
           "tests/test_linalg.py::test_empty_arrays_refused[hermitian_eigenvalues-shape0]"),
)


class _FirstFailure:
    """pytest plugin: the node id of the first failed test, or of a collector that failed."""

    nodeid = ""

    def pytest_runtest_logreport(self, report):
        if report.failed and not self.nodeid:
            self.nodeid = report.nodeid

    pytest_collectreport = pytest_runtest_logreport


def _child(work: Path, tests, result: int) -> None:
    """Run ``tests`` in the copy ``work``, write the first failed node id to the fd ``result``, exit with pytest's code."""
    code = 3  # pytest's internal-error code, should anything here raise
    try:
        os.chdir(work)
        src = str(work / "src")
        sys.path.insert(0, src)
        os.environ["PYTHONPATH"] = src  # for the interpreters the tests start
        quiet = os.open(os.devnull, os.O_WRONLY)
        os.dup2(quiet, 1)
        os.dup2(quiet, 2)
        # of the installed plugins only hypothesis's, by name: pytest then rewrites the asserts of that one
        # module, not of every module of every plugin's distribution, which without bytecode it redoes each run
        os.environ["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
        first = _FirstFailure()
        code = pytest.main(["-x", "-q", "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", *tests],
                           plugins=[first])
        os.write(result, first.nodeid.encode())
    finally:
        os._exit(int(code))


def _forked(work: Path, tests) -> tuple[int, str]:
    """pytest's exit code on ``tests``, and the id of the first test that failed ("" if none did)."""
    read, write = os.pipe()
    sys.stdout.flush()  # else the child inherits, and may write, the lines not yet flushed
    pid = os.fork()
    if pid == 0:
        os.close(read)
        _child(work, tests, write)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        nodeid = pipe.read().decode()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), nodeid


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(root / "pyproject.toml", work)
        tests = sorted({mutant.test for mutant in MUTANTS})
        code, first = _forked(work, tests)
        if code != 0:
            print(f"unmutated tests fail (pytest exit {code}): {first or 'no test failed'}")
            return 1
        for mutant in MUTANTS:
            path = work / mutant.path
            original = path.read_text()
            count = original.count(mutant.pattern)
            if count != 1:
                print(f"{mutant.name}: ERROR, pattern occurs {count} times in {mutant.path}")
                failures += 1
                continue
            path.write_text(original.replace(mutant.pattern, mutant.replacement))
            start = time.perf_counter()
            try:
                code, killer = _forked(work, [mutant.test])
            finally:
                path.write_text(original)
            killed = code == 1
            failures += not killed
            verdict = f"killed by {killer}" if killed else f"SURVIVED {mutant.test} (pytest exit {code})"
            print(f"{time.perf_counter() - start:5.1f} s  {mutant.name}: {verdict}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
