"""The block-batched dilation search against a one-restart-at-a-time oracle.

``dilation_report`` runs its restarts in lock-step blocks of 1, 2, 4, ...,
or of 64 from the first when no unitary can match, through one stacked SVD
per iteration.  The oracle below is the plain sequential loop: draw
restart ``k``'s phases from its substream, alternate
projections until the residual reaches ``tol`` or stalls, return the first
restart that finds.  Every per-slice operation of the batched kernel is the
same floating-point operation as the oracle's, so unitaries and residuals
must agree exactly, not within a tolerance.
"""

import sys

import numpy as np
import pytest

from chshkit import stochastic
from chshkit.linalg import RESTART_BLOCK, haar_unitary
from chshkit.stochastic import _MAX_ITERATIONS, DIVISION_TOL, dilation_report

#: Doubly stochastic but not unistochastic.
WITNESS_3X3 = 0.5 * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
J_MINUS_I = (np.ones((3, 3)) - np.eye(3)) / 2.0

#: Squared moduli of a 4x4 Haar unitary, written out so the input does not
#: depend on the platform's QR.  With seed 2, restart 2 finds while restart 1,
#: in the same block, still runs and later stalls; with seed 3, restart 2
#: finds first and restart 1 finds later, so restart 1 is the answer.
GAMMA_4X4 = np.array([
    [0.7961558837119304, 0.05672271541396451, 0.06668649840231963, 0.08043490247178565],
    [0.03720056652488618, 0.3383640948593722, 0.620410032503849, 0.004025306111893043],
    [0.14157942299873502, 0.44258270539438926, 0.1855584319146274, 0.23027943969224834],
    [0.025064126764448545, 0.16233048433227437, 0.12734503717920417, 0.6852603517240732],
])

SEEDS = (0, 7, 2**64 - 1)


def philox(seed, k):
    """Substream ``k`` of ``seed``, built here rather than through ``linalg.Substreams``."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


def oracle_restart(gamma, tol, seed, restart):
    """One restart: ``(unitary or None, residual, iterations run)``."""
    roots = np.sqrt(np.clip(gamma, 0.0, None))
    m = roots * np.exp(2j * np.pi * philox(seed, restart).random(gamma.shape))
    best = np.inf
    checkpoint = np.inf
    for iteration in range(_MAX_ITERATIONS):
        w, _, vh = np.linalg.svd(m)
        u = w @ vh
        residual = float(np.max(np.abs(np.abs(u) ** 2 - gamma)))
        if residual <= tol:
            return u, residual, iteration + 1
        best = min(best, residual)
        if iteration % 100 == 99:
            if best > 0.9 * checkpoint:
                break  # stalled; cannot reach tol within the budget
            checkpoint = best
        m = roots * np.exp(1j * np.angle(u))
    return None, best, iteration + 1


def oracle_restarts(gamma, tol, seed, max_restarts):
    """Every restart's outcome in order, up to the first that finds."""
    outcomes = []
    for restart in range(max_restarts):
        outcomes.append(oracle_restart(gamma, tol, seed, restart))
        if outcomes[-1][0] is not None:
            break
    return outcomes


def oracle_report(outcomes):
    """The first restart that found, else no unitary and the best residual."""
    for u, residual, _ in outcomes:
        if u is not None:
            return u, residual
    return None, min(residual for _, residual, _ in outcomes)


def assert_same_report(report, want):
    u, residual = want
    assert report.residual == residual
    if u is None:
        assert report.unitary is None
    else:
        assert np.array_equal(report.unitary, u)


#: Restarts per dim: all 64 up to 5, fewer where a restart takes longer.
HAAR_RESTARTS = {2: 64, 3: 64, 4: 64, 5: 64, 6: 15, 7: 7, 8: 7, 12: 3}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", sorted(HAAR_RESTARTS))
def test_blocked_search_matches_sequential_oracle_on_haar_inputs(dim, seed):
    gamma = np.abs(haar_unitary(dim, np.random.default_rng(dim))) ** 2
    restarts = HAAR_RESTARTS[dim]
    want = oracle_report(oracle_restarts(gamma, DIVISION_TOL, seed, restarts))
    assert_same_report(dilation_report(gamma, max_restarts=restarts, seed=seed), want)


@pytest.mark.parametrize("check", ["chain_links", "forced_pass"])
@pytest.mark.parametrize("seed", SEEDS[1:])
@pytest.mark.parametrize("gamma", [WITNESS_3X3, J_MINUS_I], ids=["witness", "j_minus_i"])
def test_restart_counts_across_block_boundaries_match_the_oracle(gamma, seed, check, monkeypatch):
    # Both inputs fail the chain-links check and run in blocks of 64; forced
    # to pass, they run in doubling blocks.
    if check == "forced_pass":
        monkeypatch.setattr(stochastic, "_chain_links_slack", lambda gamma, tol: 0.0)
    counts = (1, 2, 3, 7, 64, 65, 130)
    outcomes = oracle_restarts(gamma, DIVISION_TOL, seed, max(counts))
    assert len(outcomes) == max(counts)  # no dilation exists: every restart runs
    for restarts in counts:
        report = dilation_report(gamma, max_restarts=restarts, seed=seed)
        assert_same_report(report, oracle_report(outcomes[:restarts]))


@pytest.mark.parametrize("seed, finder", [(2, 2), (3, 1)])
def test_a_higher_restart_that_finds_first_waits_for_the_lower_ones(seed, finder):
    outcomes = [oracle_restart(GAMMA_4X4, DIVISION_TOL, seed, k) for k in range(3)]
    # Restarts 1 and 2 share a block; restart 2 finds before restart 1 ends.
    assert outcomes[2][0] is not None and outcomes[1][2] > outcomes[2][2]
    assert [u is not None for u, _, _ in outcomes[: finder + 1]] == [False] * finder + [True]
    for restarts in (3, RESTART_BLOCK):
        report = dilation_report(GAMMA_4X4, max_restarts=restarts, seed=seed)
        assert_same_report(report, oracle_report(outcomes[: finder + 1]))


@pytest.mark.parametrize("restarts", (1, 2, 3, 7, 10))
@pytest.mark.parametrize(
    "gamma",
    [WITNESS_3X3, np.abs(haar_unitary(6, np.random.default_rng(6))) ** 2],
    ids=["witness", "haar_6"],
)
def test_restarts_still_running_at_the_iteration_cap_count_in_the_residual(gamma, restarts, monkeypatch):
    # The first stall check that can stop a restart is at iteration 199, so a
    # cap of 150 ends every restart that does not find on the cap.
    monkeypatch.setattr(stochastic, "_MAX_ITERATIONS", 150)
    monkeypatch.setattr(sys.modules[__name__], "_MAX_ITERATIONS", 150)
    outcomes = oracle_restarts(gamma, DIVISION_TOL, 7, restarts)
    assert all(iterations == 150 for u, _, iterations in outcomes if u is None)
    report = dilation_report(gamma, max_restarts=restarts, seed=7)
    assert_same_report(report, oracle_report(outcomes))


#: Squared moduli of a 12x12 Haar unitary: no restart finds within 150
#: iterations, and it passes the chain-links check.
HAAR_12 = np.abs(haar_unitary(12, np.random.default_rng(12))) ** 2


def svd_stack_sizes(gamma, restarts):
    """The stack size of every SVD that one search makes, in order."""
    sizes = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        sizes.append(m.shape[0])
        return svd(m, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", recording_svd)
        dilation_report(gamma, max_restarts=restarts, seed=7)
    return sizes


@pytest.mark.parametrize("restarts, blocks", [(64, [64]), (130, [64, 64, 2])])
def test_an_input_no_unitary_matches_runs_full_blocks_from_the_first(restarts, blocks):
    # Every restart on (J - I)/2 stalls at iteration 200, the first stall
    # check that can stop it, so each block makes 200 SVDs of its full size.
    assert svd_stack_sizes(J_MINUS_I, restarts) == [b for b in blocks for _ in range(200)]


@pytest.mark.parametrize(
    "restarts, blocks",
    [(64, [1, 2, 4, 8, 16, 33]), (8, [1, 2, 5]), (100, [1, 2, 4, 8, 16, 32, 37])],
)
def test_a_remainder_smaller_than_the_block_being_formed_joins_it(restarts, blocks, monkeypatch):
    # Below the first stall check, with no restart finding, every block runs
    # to the cap at its full size.
    monkeypatch.setattr(stochastic, "_MAX_ITERATIONS", 150)
    assert svd_stack_sizes(HAAR_12, restarts) == [b for b in blocks for _ in range(150)]
