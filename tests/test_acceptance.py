"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a one-line PASS marker after its assertions; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import contextlib
import io
import math
import os
import time
from itertools import product

import numpy as np

from chshkit.causality import (
    causally_independent,
    correlated_noise_joint,
    influences,
    non_interacting,
    one_way_copy_joint,
    product_joint,
    swap_joint,
)
from chshkit.cli import main
from chshkit.configio import save_strategy
from chshkit.game import (
    Deterministic,
    NSBox,
    box_of_strategy,
    enumerate_deterministic,
    expected_score,
    is_no_signaling,
    ns_box,
    score_from_correlators,
    score_from_loss_terms,
    win_probability,
)
from chshkit.linalg import haar_unitary, spectral_norm
from chshkit.stochastic import dilation_report, qcor
from chshkit.tsirelson import (
    CHSH_OPERATOR_CEILING,
    TSIRELSON_SCORE,
    chsh_operator,
    optimize,
    random_setup,
    score_of_setup,
)

COS2_PI8 = math.cos(math.pi / 8) ** 2

WITNESS_3X3 = 0.5 * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])


def random_box(rng):
    box = np.zeros((2, 2, 2, 2))
    for x, y in product((0, 1), repeat=2):
        box[:, :, x, y] = rng.dirichlet(np.ones(4)).reshape(2, 2)
    return box


def simulate(tmp_path, strategy, n, seed, out=os.devnull):
    """The report of ``chshkit simulate`` on a strategy's config, its records written to ``out``."""
    config = tmp_path / "strategy.json"
    save_strategy(strategy, config)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["simulate", "--config", str(config), "--n", str(n), "--seed", str(seed),
                     "--out", str(out)]) == 0
    return dict(line.split("=", 1) for line in stdout.getvalue().splitlines())


def test_criterion_01_classical_bound():
    enumerate_deterministic()  # warm up so the timed run measures the work alone
    t0 = time.perf_counter()
    best, argmax = enumerate_deterministic()
    elapsed = time.perf_counter() - t0
    assert best == 0.5
    assert win_probability(best) == 0.75
    assert all(isinstance(s, Deterministic) for s in argmax)
    assert elapsed < 1e-3
    print(f"ACCEPTANCE 1 classical-bound: PASS (best=0.5, {elapsed * 1e6:.0f} us)")


def test_criterion_02_ns_box_score_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        e = rng.uniform(-1.0, 1.0)
        worst = max(worst, abs(expected_score(ns_box(e)) - e))
    assert worst <= 1e-12
    print(f"ACCEPTANCE 2 ns-box-score-identity: PASS (worst |score-E|={worst:.2e})")


def test_criterion_03_pr_box(tmp_path):
    box = box_of_strategy(NSBox(1.0))
    assert win_probability(expected_score(box)) == 1.0
    assert is_no_signaling(box)
    report = simulate(tmp_path, NSBox(1.0), 100_000, seed=303)
    assert float(report["empirical_win_rate"]) == 1.0
    print("ACCEPTANCE 3 pr-box: PASS (exact and empirical win rate 1.0)")


def test_criterion_04_tsirelson_saturation():
    t0 = time.perf_counter()
    result = optimize((2, 2), restarts=100, seed=404)
    elapsed = time.perf_counter() - t0
    assert TSIRELSON_SCORE - 1e-6 <= result.score <= TSIRELSON_SCORE + 1e-9
    assert abs(win_probability(result.score) - COS2_PI8) <= 1e-6
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 4 tsirelson-saturation: PASS "
        f"(score={result.score!r}, {elapsed:.1f}s, 100 restarts)"
    )


def test_criterion_05_tsirelson_ceiling():
    rng = np.random.default_rng(505)
    worst_norm = 0.0
    worst_score = 0.0
    for _ in range(1000):
        setup = random_setup((2, 2), rng)
        worst_norm = max(worst_norm, spectral_norm(chsh_operator(setup)))
        worst_score = max(worst_score, abs(score_of_setup(setup)))
    assert worst_norm <= CHSH_OPERATOR_CEILING + 1e-9
    assert worst_score <= TSIRELSON_SCORE + 1e-9
    print(
        f"ACCEPTANCE 5 tsirelson-ceiling: PASS "
        f"(max norm={worst_norm:.12f}, max |score|={worst_score:.12f})"
    )


def test_criterion_06_cross_formula_consistency():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        box = random_box(rng)
        s1 = expected_score(box)
        worst = max(worst, abs(s1 - score_from_loss_terms(box)), abs(s1 - score_from_correlators(box)))
    assert worst <= 1e-12
    print(f"ACCEPTANCE 6 cross-formula-consistency: PASS (worst gap={worst:.2e})")


def test_criterion_07_cross_representation_consistency():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        setup = random_setup((2, 2), rng)
        gap = abs(score_of_setup(setup) - expected_score(box_of_strategy(setup)))
        worst = max(worst, gap)
    assert worst <= 1e-10
    print(f"ACCEPTANCE 7 cross-representation-consistency: PASS (worst gap={worst:.2e})")


def test_criterion_08_quantum_boxes_are_no_signaling():
    rng = np.random.default_rng(808)
    for _ in range(200):
        assert is_no_signaling(box_of_strategy(random_setup((2, 2), rng)), tol=1e-9)
    print("ACCEPTANCE 8 quantum-no-signaling: PASS (200/200 setups)")


def test_criterion_09_causality_suite():
    rng = np.random.default_rng(909)
    factorized = product_joint(
        rng.dirichlet(np.ones(2), size=2).T, rng.dirichlet(np.ones(2), size=2).T
    )
    assert not influences(factorized, "r_on_q") and not influences(factorized, "q_on_r")
    swap = swap_joint(2)
    assert influences(swap, "r_on_q") and influences(swap, "q_on_r")
    copy = one_way_copy_joint(2)
    assert influences(copy, "q_on_r") and not influences(copy, "r_on_q")
    noise = correlated_noise_joint()
    assert causally_independent(noise) and not non_interacting(noise)
    print("ACCEPTANCE 9 causality-suite: PASS (factorized/swap/copy/noise verdicts)")


def test_criterion_10_qcor_properties():
    rng = np.random.default_rng(1010)
    worst_col = 0.0
    for k in range(500):
        dim = 2 + k % 3
        m = qcor(haar_unitary(dim, rng), haar_unitary(dim, rng))
        worst_col = max(worst_col, float(np.max(np.abs(m.sum(axis=0)))))
    assert worst_col <= 1e-10

    perm = np.zeros((3, 3), dtype=complex)
    for i, j in enumerate((1, 2, 0)):
        perm[j, i] = 1.0
    assert np.max(np.abs(qcor(haar_unitary(3, rng), perm))) <= 1e-15

    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]], dtype=complex)

    got = qcor(rot(math.pi / 4), rot(math.pi / 8))
    assert np.max(np.abs(got - np.array([[-0.25, 0.25], [0.25, -0.25]]))) <= 1e-12
    print(f"ACCEPTANCE 10 qcor-properties: PASS (worst column sum={worst_col:.2e})")


def test_criterion_11_dilation():
    rng = np.random.default_rng(1111)
    for k in range(100):
        a = rng.uniform(0.0, 1.0)
        g = np.array([[a, 1 - a], [1 - a, a]])
        u = dilation_report(g, tol=1e-8, seed=k).unitary
        assert u is not None
        assert np.max(np.abs(np.abs(u) ** 2 - g)) <= 1e-8
    report = dilation_report(WITNESS_3X3, tol=1e-8, max_restarts=64, seed=1111)
    assert report.unitary is None
    print(
        f"ACCEPTANCE 11 dilation: PASS "
        f"(100/100 two-level draws, witness absent with best residual {report.residual:.3f})"
    )


def test_criterion_12_monte_carlo_convergence(tmp_path):
    n = 1_000_000
    strategies = [
        Deterministic((0, 0), (0, 0)),
        NSBox(0.5),
        NSBox(1 / math.sqrt(2)),
    ]
    worst = 0.0
    for k, strategy in enumerate(strategies):
        exact = win_probability(expected_score(box_of_strategy(strategy)))
        report = simulate(tmp_path, strategy, n, seed=1200 + k)
        worst = max(worst, abs(float(report["empirical_win_rate"]) - exact))
    assert worst < 0.002

    # 131 072 rounds are two whole chunks, which a longer run keeps byte for byte.
    prefix, full = tmp_path / "prefix.csv", tmp_path / "full.csv"
    simulate(tmp_path, NSBox(0.5), 131_072, seed=1212, out=prefix)
    simulate(tmp_path, NSBox(0.5), 200_000, seed=1212, out=full)
    assert full.read_bytes().startswith(prefix.read_bytes())
    print(
        f"ACCEPTANCE 12 monte-carlo-convergence: PASS "
        f"(worst |empirical-exact|={worst:.2e}, records keyed by seed and chunk)"
    )
