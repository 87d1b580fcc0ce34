"""The block-batched optimizer against a one-restart-at-a-time oracle.

``optimize`` draws its restarts' starts as stacked arrays and runs them in
lock-step blocks through one stack-aware seesaw kernel.  The oracle below is
the plain sequential loop: draw one random setup from the restart's
substream, run the seesaw on it with 2-d matrices, score it through the
CHSH operator, keep the first maximum.  Every per-slice operation of the
batched kernel is the same floating-point operation as the oracle's, so
scores and setups must agree exactly, not within a tolerance.
"""

import math
import tracemalloc

import numpy as np
import pytest

from chshkit import tsirelson
from chshkit.tsirelson import _MAX_ROUNDS, _RESTART_BLOCK, QuantumSetup, optimize

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)]


def oracle_haar(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def oracle_random_setup(dims, rng):
    da, db = dims
    z = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
    state = z / np.linalg.norm(z)
    return QuantumSetup(
        state, oracle_haar(da, rng), oracle_haar(da, rng), oracle_haar(db, rng), oracle_haar(db, rng)
    )


def oracle_local(u, outcome_map):
    signs = 1.0 - 2.0 * np.array(outcome_map)
    return u.conj().T @ (signs[:, None] * u)


def oracle_chsh(sa0, sa1, sb0, sb1):
    return np.kron(sa0, sb0 + sb1) + np.kron(sa1, sb0 - sb1)


def oracle_best_response(m, outcome_map):
    values, vectors = np.linalg.eigh(m)
    minus = sum(outcome_map)
    rows = [i for i, b in enumerate(outcome_map) if b] + [i for i, b in enumerate(outcome_map) if not b]
    u = np.empty_like(vectors)
    u[rows] = vectors.conj().T
    return u, float(values[minus:].sum() - values[:minus].sum())


def oracle_seesaw(setup, tol):
    da, db = setup.dim_a, setup.dim_b
    alice, bob = setup.alice_outcome, setup.bob_outcome
    a, b = (setup.a0, setup.a1), (setup.b0, setup.b1)
    sa0, sa1 = (oracle_local(u, alice) for u in a)
    best = -math.inf
    for rounds in range(1, _MAX_ROUNDS + 1):
        sb0, sb1 = (oracle_local(u, bob) for u in b)
        state = np.linalg.eigh(oracle_chsh(sa0, sa1, sb0, sb1))[1][:, -1]
        psi = state.reshape(da, db)
        a = tuple(oracle_best_response(psi @ c.T @ psi.conj().T, alice)[0] for c in (sb0 + sb1, sb0 - sb1))
        sa0, sa1 = (oracle_local(u, alice) for u in a)
        responses = [oracle_best_response((psi.conj().T @ d @ psi).T, bob) for d in (sa0 + sa1, sa0 - sa1)]
        b = tuple(u for u, _ in responses)
        score = sum(value for _, value in responses) / 4.0
        if score - best < tol:
            break
        best = score
    return QuantumSetup(state, a[0], a[1], b[0], b[1], alice, bob), rounds


def oracle_score(setup):
    sa0, sa1 = (oracle_local(u, setup.alice_outcome) for u in (setup.a0, setup.a1))
    sb0, sb1 = (oracle_local(u, setup.bob_outcome) for u in (setup.b0, setup.b1))
    psi = setup.state
    return (complex(psi.conj() @ (oracle_chsh(sa0, sa1, sb0, sb1) @ psi)) / 4.0).real


def philox(seed, k):
    """Substream ``k`` of ``seed``, built here rather than through ``linalg.Substreams``."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


def oracle_optimize(dims, restarts, seed, tol=1e-9):
    best, best_score, scores, rounds = None, -math.inf, [], []
    for restart in range(restarts):
        start = oracle_random_setup(dims, philox(seed, restart))
        setup, ran = oracle_seesaw(start, tol)
        score = oracle_score(setup)
        scores.append(score)
        rounds.append(ran)
        if score > best_score:
            best, best_score = setup, score
    return best, best_score, scores, rounds


def assert_same_setup(got, want):
    for name in ("state", "a0", "a1", "b0", "b1"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.alice_outcome == want.alice_outcome
    assert got.bob_outcome == want.bob_outcome


# At the default tol every restart here stops after two rounds; at 1e-15 some
# run a third, so restarts of one block freeze at different rounds.  The seeds
# are both ends of the seed range and one between.
@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
@pytest.mark.parametrize("tol", [1e-9, 1e-15])
@pytest.mark.parametrize("dims", DIMS)
def test_batched_optimize_matches_sequential_oracle_exactly(dims, tol, seed):
    restarts = _RESTART_BLOCK + 5  # crosses a block boundary
    result = optimize(dims, restarts=restarts, seed=seed, tol=tol)
    setup, score, scores, rounds = oracle_optimize(dims, restarts, seed, tol)
    assert result.restart_scores == scores
    assert result.restart_rounds == rounds
    assert result.score == score
    assert_same_setup(result.setup, setup)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
def test_restart_scores_do_not_depend_on_the_block_a_restart_runs_in(dims):
    few, many = 10, _RESTART_BLOCK + 10
    short, long = optimize(dims, restarts=few, seed=5), optimize(dims, restarts=many, seed=5)
    assert long.restart_scores[:few] == short.restart_scores
    assert long.restart_rounds[:few] == short.restart_rounds


def test_random_setup_matches_the_sequential_draws():
    for dims in ((2, 2), (3, 5), (1, 1), (4, 4)):
        for seed in range(3):
            got = tsirelson.random_setup(dims, np.random.default_rng(seed))
            assert_same_setup(got, oracle_random_setup(dims, np.random.default_rng(seed)))


def test_restart_rounds_report_the_round_each_restart_froze_at(monkeypatch):
    result = optimize((2, 3), restarts=12, seed=4)
    assert len(result.restart_rounds) == 12
    assert all(isinstance(r, int) and 2 <= r < _MAX_ROUNDS for r in result.restart_rounds)
    monkeypatch.setattr(tsirelson, "_MAX_ROUNDS", 1)  # the first round always gains
    assert optimize((2, 3), restarts=12, seed=4).restart_rounds == [1] * 12


def test_each_side_takes_one_best_response_call_per_round(monkeypatch):
    calls = []
    best_response = tsirelson._best_response

    def counted(m, outcome_map):
        calls.append(m.shape)
        return best_response(m, outcome_map)

    monkeypatch.setattr(tsirelson, "_best_response", counted)
    monkeypatch.setattr(tsirelson, "_MAX_ROUNDS", 1)
    optimize((2, 2), restarts=3)
    # Alice's two settings in one stack, then Bob's: (restarts, settings, d, d).
    assert calls == [(3, 2, 2, 2), (3, 2, 2, 2)]


def per_setup_error(state, a, b, index):
    """The error ``QuantumSetup`` raises, with the failing field tagged by ``index``."""
    with pytest.raises(ValueError) as excinfo:
        QuantumSetup(state, *a, *b)
    field, rest = str(excinfo.value).split(" ", 1)
    return f"{field}[{index}] {rest}"


def corrupt_start(monkeypatch, restart, how):
    """Make ``_draw_starts`` hand back one corrupted start, ``restart`` counted
    within its block; returns the per-setup error."""
    draw, seen = tsirelson._draw_starts, {}

    def corrupted(dims, rngs):
        state, a, b = draw(dims, rngs)
        if len(rngs) > restart:
            how(state[restart], a[restart], b[restart])
            seen["error"] = per_setup_error(state[restart], a[restart], b[restart], restart)
        return state, a, b

    monkeypatch.setattr(tsirelson, "_draw_starts", corrupted)
    return seen


def non_unitary(state, a, b):
    a[1] *= 1.5


def nan_unitary(state, a, b):
    b[0][0, 0] = np.nan


def inf_unitary(state, a, b):
    b[1][1, 1] = np.inf


def unnormalized(state, a, b):
    state *= 1.0 + 1e-9


def nan_state(state, a, b):
    state[0] = np.nan


# Sides of one dimension are checked as one stack, sides of two as one each;
# both paths must raise the error the setup would.
CHECK_DIMS = [(2, 2), (2, 3)]


@pytest.mark.parametrize("dims", CHECK_DIMS)
@pytest.mark.parametrize("how", [non_unitary, nan_unitary, inf_unitary, unnormalized, nan_state])
def test_block_checks_raise_the_per_setup_error_on_a_bad_start(monkeypatch, how, dims):
    seen = corrupt_start(monkeypatch, 3, how)
    with pytest.raises(ValueError) as excinfo:
        optimize(dims, restarts=6, seed=1)
    assert str(excinfo.value) == seen["error"]


@pytest.mark.parametrize("bad", [[1, 4], [4]])
def test_the_first_bad_start_of_a_later_block_is_named(monkeypatch, bad):
    draw = tsirelson._draw_starts

    def corrupted(dims, rngs):
        state, a, b = draw(dims, rngs)
        if len(rngs) == 6:  # the second block
            state[bad] *= 2.0
        return state, a, b

    monkeypatch.setattr(tsirelson, "_draw_starts", corrupted)
    with pytest.raises(ValueError, match=rf"^state\[{bad[0]}\] is not normalized"):
        optimize((2, 2), restarts=_RESTART_BLOCK + 6, seed=1)


def test_block_checks_raise_on_a_bad_seesaw_result(monkeypatch):
    best_response = tsirelson._best_response

    def drifting(m, outcome_map):
        u, value = best_response(m, outcome_map)
        return u * (1.0 + 1e-6), value

    monkeypatch.setattr(tsirelson, "_best_response", drifting)
    with pytest.raises(ValueError, match=r"^a0\[0\] is not unitary within"):
        optimize((2, 2), restarts=3, seed=1)


def scaled(u):
    u *= 1.5


def nan_entry(u):
    u[0, 0] = np.nan


# Two restarts of one block fail in different fields, or in one field in
# different ways; the error names the field a setup checks first (a0, a1, b0,
# b1, then the state), and within that field the lowest restart.
@pytest.mark.parametrize("dims", CHECK_DIMS)
@pytest.mark.parametrize("stage", ["_draw_starts", "_seesaw_stack"])
@pytest.mark.parametrize("marks, restart, want", [
    ([("a1", 0, scaled), ("a0", 3, scaled)], 3, "a0[3] is not unitary within"),
    ([("b1", 0, nan_entry), ("a0", 2, scaled)], 2, "a0[2] is not unitary within"),
    ([("a0", 1, scaled), ("a0", 0, nan_entry)], 0, "a0[0] contains non-finite entries"),
    ([("b0", 0, nan_entry), ("a1", 4, scaled)], 4, "a1[4] is not unitary within"),
    ([("state", 0, scaled), ("b1", 5, scaled)], 5, "b1[5] is not unitary within"),
])
def test_a_block_error_names_the_first_field_in_setup_order(monkeypatch, stage, marks, restart, want, dims):
    step, seen = getattr(tsirelson, stage), {}

    def corrupted(*args):
        out = step(*args)
        state, a, b = out[:3]
        for field, k, how in marks:
            how(state[k] if field == "state" else {"a": a, "b": b}[field[0]][k, int(field[1])])
        seen["error"] = per_setup_error(state[restart], a[restart], b[restart], restart)
        return out

    monkeypatch.setattr(tsirelson, stage, corrupted)
    with pytest.raises(ValueError) as excinfo:
        optimize(dims, restarts=6, seed=1)
    assert str(excinfo.value) == seen["error"]
    assert seen["error"].startswith(want)


def peak_bytes(dims, restarts):
    optimize(dims, restarts=1, seed=0)  # numpy and LAPACK set-up out of the measurement
    tracemalloc.start()
    try:
        optimize(dims, restarts=restarts, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_optimize_memory_is_bounded_by_one_block():
    one_block = peak_bytes((4, 4), _RESTART_BLOCK)
    ten_blocks = peak_bytes((4, 4), 10 * _RESTART_BLOCK)
    assert ten_blocks <= 1.5 * one_block
