"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import subprocess
import sys
import time

import numpy as np

from mubpurity.expsim import PANEL_FIELDS, NoiseModel, run_protocol
from mubpurity.linalg import frobenius_norm, hermitian_eigenvalues
from mubpurity.mub import construct_mubs
from mubpurity.relations import (
    _constructed_states,
    build_bipartite_basis,
    check_pt_identities,
    gamma_direct,
    gamma_via_projector,
    relation_report,
)
from mubpurity.states import random_density, rho_family

ALPHA_GRID = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
X_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _seeds(base, n):
    return [int(s) for s in np.random.SeedSequence(base).generate_state(n, dtype=np.uint64)]


def _trial_state(d, big_d, seed, index):
    rank = (d * big_d, 1, 2)[index % 3]
    return random_density(d * big_d, rank, seed, dims=(d, big_d))


def test_criterion_1_bipartite_states_orthonormal():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 5):
        for m in range(2, d + 2):
            basis = build_bipartite_basis(construct_mubs(d, m))
            states = _constructed_states(basis.twisted)
            gram = states.conj() @ states.T
            worst = max(worst, float(np.abs(gram - np.eye(states.shape[0])).max()))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"Gram deviation {worst:.3e} (tol 1e-12), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_gamma_psd_or_vanishing():
    start = time.perf_counter()
    worst_eig = 0.0
    worst_fro = 0.0
    trials = 200
    for d in (2, 3):
        for big_d in (d, d + 1):
            for m in range(2, d + 2):
                mubs = construct_mubs(d, m)
                for i, seed in enumerate(_seeds(20_000 + 100 * d + 10 * big_d + m, trials)):
                    rho = _trial_state(d, big_d, seed, i)
                    g = gamma_direct(rho, mubs)
                    if m == d + 1:
                        worst_fro = max(worst_fro, frobenius_norm(g))
                    else:
                        worst_eig = min(worst_eig, float(hermitian_eigenvalues(g)[0]))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst_eig >= -1e-10 and worst_fro <= 1e-9 and elapsed < 60.0,
        f"min eig {worst_eig:.3e} (bound -1e-10), max Frobenius {worst_fro:.3e} "
        f"(tol 1e-9), {elapsed:.2f}s (limit 60s)",
    )


def test_criterion_3_conservation_equality_and_inequality():
    worst_eq = 0.0
    worst_gap = 0.0
    for d in (2, 3):
        complete = construct_mubs(d, d + 1)
        for i, seed in enumerate(_seeds(30_000 + d, 200)):
            rho = _trial_state(d, d, seed, i)
            worst_eq = max(worst_eq, abs(relation_report(rho, complete).gap))
        for m in range(2, d + 1):
            mubs = construct_mubs(d, m)
            for i, seed in enumerate(_seeds(31_000 + 10 * d + m, 200)):
                rho = _trial_state(d, d, seed, i)
                worst_gap = min(worst_gap, relation_report(rho, mubs).gap)
    _report(
        3,
        worst_eq <= 1e-9 and worst_gap >= -1e-9,
        f"|gap| at complete sets {worst_eq:.3e} (tol 1e-9), "
        f"min gap at M<=d {worst_gap:.3e} (bound -1e-9)",
    )


def test_criterion_4_family_closed_forms():
    start = time.perf_counter()
    mubs = construct_mubs(2, 3)
    worst = 0.0
    for alpha in ALPHA_GRID:
        for x in X_GRID:
            rep = relation_report(rho_family(alpha, x), mubs)
            # pair purity is alpha-independent
            worst = max(worst, abs(rep.purity_AB - (1 + 3 * x * x) / 4))
    for x in X_GRID:
        rep = relation_report(rho_family(np.pi / 2, x), mubs)
        worst = max(worst, abs(rep.purity_B - 0.5))
        for p in rep.purity_thetaB:
            worst = max(worst, abs(p - (1 + x * x) / 4))
    elapsed = time.perf_counter() - start
    _report(
        4,
        worst <= 1e-12 and elapsed < 1.0,
        f"closed-form deviation {worst:.3e} (tol 1e-12), {elapsed:.3f}s (limit 1s)",
    )


def test_criterion_5_gamma_cross_derivation():
    worst = 0.0
    configs = [(2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 4, 3)]  # (d, M, D); second has D != d
    for d, m, big_d in configs:
        mubs = construct_mubs(d, m)
        basis = build_bipartite_basis(mubs)
        for i, seed in enumerate(_seeds(50_000 + 100 * d + 10 * m + big_d, 50)):
            rho = _trial_state(d, big_d, seed, i)
            diff = gamma_direct(rho, mubs) - gamma_via_projector(rho, basis)
            worst = max(worst, frobenius_norm(diff))
    _report(5, worst <= 1e-10, f"route disagreement {worst:.3e} (tol 1e-10)")


def test_criterion_6_partial_transpose_identities():
    worst = 0.0
    for d in (2, 3):
        report = check_pt_identities(build_bipartite_basis(construct_mubs(d, d + 1)))
        worst = max(worst, report.max_deviation)
    _report(6, worst <= 1e-12, f"identity deviation {worst:.3e} (tol 1e-12)")


def test_criterion_7_simulator_matches_analytic_panel():
    start = time.perf_counter()
    mubs = construct_mubs(2, 3)
    worst = 0.0
    worst_gap = 0.0
    for alpha in ALPHA_GRID:
        for x in X_GRID:
            panel = run_protocol(alpha, x)
            rep = relation_report(rho_family(alpha, x), mubs)
            expected = {
                "purity_AB": rep.purity_AB,
                "purity_xB": rep.purity_thetaB[1],
                "purity_yB": rep.purity_thetaB[2],
                "purity_zB": rep.purity_thetaB[0],
                "purity_B": rep.purity_B,
                "purity_B_given_x": rep.purity_B_given_theta[1],
                "purity_B_given_y": rep.purity_B_given_theta[2],
                "purity_B_given_z": rep.purity_B_given_theta[0],
            }
            for name in PANEL_FIELDS:
                worst = max(worst, abs(panel.raw[name] - expected[name]))
            lhs, rhs = panel.relation_sides()
            worst_gap = max(worst_gap, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    _report(
        7,
        worst <= 1e-10 and worst_gap <= 1e-9 and elapsed < 120.0,
        f"panel deviation {worst:.3e} (tol 1e-10), simulated |gap| {worst_gap:.3e} "
        f"(tol 1e-9), {elapsed:.2f}s (limit 120s)",
    )


def test_criterion_8_noise_and_rescaling():
    noise = NoiseModel(0.01)
    ideal = run_protocol(np.pi / 2, 1.0)
    noisy = run_protocol(np.pi / 2, 1.0, noise)
    attenuated = all(noisy.raw[name] < ideal.raw[name] for name in PANEL_FIELDS)
    worst_rel = max(
        abs(noisy.rescaled[name] - ideal.raw[name]) / ideal.raw[name]
        for name in PANEL_FIELDS
    )
    _report(
        8,
        attenuated and worst_rel <= 0.02,
        f"raw strictly attenuated: {attenuated}, rescaled relative error "
        f"{worst_rel:.3e} (tol 2e-2)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["mub", "--d", "3", "--m", "4", "--out", "OUT"],
        ["verify", "--d", "2", "--m", "3", "--trials", "10", "--seed", "7", "--out", "OUT"],
        ["sweep", "--param", "x", "--fixed", "pi/2", "--steps", "5", "--simulate",
         "--noise", "0.01", "--seed", "3", "--out", "OUT"],
        ["expsim", "--alpha", "pi/2", "--x", "0.75", "--noise", "0.01", "--out", "OUT"],
    ]
    all_identical = True
    details = []
    for i, template in enumerate(commands):
        outputs = []
        for run in (0, 1):
            out = tmp_path / f"cmd{i}_run{run}.out"
            argv = [str(out) if a == "OUT" else a for a in template]
            proc = subprocess.run(
                [sys.executable, "-m", "mubpurity", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{template[0]} failed: {proc.stderr}"
            outputs.append(out.read_bytes())
        identical = outputs[0] == outputs[1]
        all_identical = all_identical and identical
        details.append(f"{template[0]}={'identical' if identical else 'DIFFERS'}")
    _report(9, all_identical, ", ".join(details))
