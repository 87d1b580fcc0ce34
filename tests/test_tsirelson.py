import dataclasses
import math

import numpy as np
import pytest

from chshkit import tsirelson
from chshkit.game import box_of_strategy, expected_score
from chshkit.linalg import basis_state, rotation, spectral_norm
from chshkit.tsirelson import (
    CHSH_OPERATOR_CEILING,
    TSIRELSON_SCORE,
    QuantumSetup,
    canonical_setup,
    chsh_operator,
    optimize,
    random_setup,
    score_of_setup,
)
from test_operator_oracle import dichotomic, outcome_observable


def identity_setup(state=None):
    if state is None:
        state = basis_state(4, 0)
    eye = np.eye(2, dtype=complex)
    return QuantumSetup(state, eye, eye, eye, eye)


def test_setup_validation():
    with pytest.raises(ValueError):
        QuantumSetup(basis_state(4, 0), np.ones((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        QuantumSetup(np.array([1.0, 1.0, 0.0, 0.0]), np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        QuantumSetup(basis_state(4, 0), np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                     alice_outcome=(0, 2))
    with pytest.raises(ValueError, match=r"^alice_outcome must be 2 bits \(0 or 1\), got \(\)$"):
        QuantumSetup(basis_state(4, 0), np.eye(2), np.eye(2), np.eye(2), np.eye(2), alice_outcome=())
    with pytest.raises(ValueError, match=r"^bob_outcome must be 2 bits \(0 or 1\), got \(\)$"):
        QuantumSetup(basis_state(4, 0), np.eye(2), np.eye(2), np.eye(2), np.eye(2), bob_outcome=[])
    with pytest.raises(ValueError, match=r"^a0 and a1 must share a dimension, got \(2, 2\) and \(3, 3"):
        QuantumSetup(basis_state(4, 0), np.eye(2), np.eye(3), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match=r"^b0 and b1 must share a dimension, got \(2, 2\) and \(1, 1"):
        QuantumSetup(basis_state(4, 0), np.eye(2), np.eye(2), np.eye(2), np.eye(1))
    with pytest.raises(ValueError, match=r"^joint dimension 20 exceeds the supported cap 16$"):
        QuantumSetup(basis_state(20, 0), np.eye(4), np.eye(4), np.eye(5), np.eye(5))
    with pytest.raises(ValueError, match=r"^state dimension 2 does not match joint dimension 4$"):
        QuantumSetup(basis_state(2, 0), np.eye(2), np.eye(2), np.eye(2), np.eye(2))


def test_default_outcome_maps_alternate():
    setup = identity_setup()
    assert setup.alice_outcome == (0, 1)
    assert setup.bob_outcome == (0, 1)


def test_outcome_observable_identity_operation():
    setup = identity_setup()
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(2))
    assert np.allclose(outcome_observable("a", 0, 0, setup), expected)


def test_outcome_observables_complete_and_orthogonal():
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 3), (3, 3)):
        setup = random_setup(dims, rng)
        joint = dims[0] * dims[1]
        for side in ("a", "b"):
            for setting in (0, 1):
                p0 = outcome_observable(side, setting, 0, setup)
                p1 = outcome_observable(side, setting, 1, setup)
                assert np.max(np.abs(p0 + p1 - np.eye(joint))) <= 1e-10
                assert np.max(np.abs(p0 @ p1)) <= 1e-10
                for p in (p0, p1):
                    assert np.max(np.abs(p - p.conj().T)) <= 1e-10
                    assert np.max(np.abs(p @ p - p)) <= 1e-10


def test_outcome_observable_spectrum_and_trace():
    setup = QuantumSetup(
        basis_state(4, 0), rotation(math.pi / 8), np.eye(2), np.eye(2), np.eye(2)
    )
    obs = outcome_observable("a", 0, 0, setup)
    eigs = np.linalg.eigvalsh(obs)
    assert np.allclose(np.sort(eigs), [0, 0, 1, 1], atol=1e-12)
    assert np.trace(obs).real == pytest.approx(2.0, abs=1e-12)  # rank 1 times dim_b


def test_dichotomic_identity_is_z_like():
    setup = identity_setup()
    assert np.allclose(dichotomic("a", 0, setup), np.kron(np.diag([1.0, -1.0]), np.eye(2)))


def test_dichotomic_squares_to_identity():
    rng = np.random.default_rng(5)
    for dims in ((2, 2), (3, 2)):
        setup = random_setup(dims, rng)
        joint = dims[0] * dims[1]
        for side in ("a", "b"):
            for setting in (0, 1):
                s = dichotomic(side, setting, setup)
                assert np.max(np.abs(s @ s - np.eye(joint))) <= 1e-10


def test_dichotomic_rotation_conjugation_pattern():
    theta = 0.3
    setup = QuantumSetup(basis_state(4, 0), rotation(theta), np.eye(2), np.eye(2), np.eye(2))
    local = np.array(
        [[math.cos(2 * theta), -math.sin(2 * theta)], [-math.sin(2 * theta), -math.cos(2 * theta)]]
    )
    assert np.allclose(dichotomic("a", 0, setup), np.kron(local, np.eye(2)), atol=1e-12)


def test_sides_commute_exactly():
    rng = np.random.default_rng(7)
    setup = random_setup((2, 2), rng)
    for xa in (0, 1):
        for yb in (0, 1):
            a = dichotomic("a", xa, setup)
            b = dichotomic("b", yb, setup)
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12


X = np.array([[0, 1], [1, 0]], dtype=complex)


def manual_kron(a, b):
    """Independent Kronecker product: explicit index loops."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def test_kron_identities():
    assert np.array_equal(tsirelson._kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_projectors():
    got = tsirelson._kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_flips_both_bits():
    xx = tsirelson._kron(X, X)
    assert np.allclose(xx @ basis_state(4, 0), basis_state(4, 3))
    assert np.array_equal(xx, manual_kron(X, X))


def test_kron_matches_manual_kron_on_random_stacks():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 2, 3, 3)) + 1j * rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal((4, 2, 2, 2)) + 1j * rng.standard_normal((4, 2, 2, 2))
    got = tsirelson._kron(a, b)
    assert got.shape == (4, 2, 6, 6)
    for i in range(4):
        for j in range(2):
            assert np.allclose(got[i, j], manual_kron(a[i, j], b[i, j]), atol=1e-15)


def test_local_dichotomic_of_a_stack_is_the_stack_of_each():
    rng = np.random.default_rng(9)
    setup = random_setup((3, 2), rng)
    stacked = tsirelson._local_dichotomic(np.stack((setup.a0, setup.a1)), setup.alice_outcome)
    for k, u in enumerate((setup.a0, setup.a1)):
        assert np.allclose(stacked[k], tsirelson._local_dichotomic(u, setup.alice_outcome), atol=1e-15)


@pytest.mark.parametrize("d", range(1, 9))
def test_sum_difference_is_bitwise_the_stacked_sum_and_difference(d):
    rng = np.random.default_rng(d)
    s = rng.standard_normal((6, 2, d, d)) + 1j * rng.standard_normal((6, 2, d, d))
    # One side's pair, a block of pairs, fancy-indexed rows and strided views.
    for stack in (s[0], s, s[[4, 1, 3]], s[::2], s.swapaxes(-1, -2), s[0].real):
        want = np.stack((stack[..., 0, :, :] + stack[..., 1, :, :],
                         stack[..., 0, :, :] - stack[..., 1, :, :]), axis=-3)
        got = tsirelson._sum_difference(stack)
        assert got.dtype == want.dtype and got.shape == want.shape == stack.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()  # signed zeros too
        assert not np.shares_memory(got, stack)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_chsh_operator_matches_manual_kron_of_local_observables(dims):
    setup = random_setup(dims, np.random.default_rng(sum(dims)))
    local = tsirelson._local_dichotomic
    a0, a1 = (local(u, setup.alice_outcome) for u in (setup.a0, setup.a1))
    b0, b1 = (local(u, setup.bob_outcome) for u in (setup.b0, setup.b1))
    expected = manual_kron(a0, b0 + b1) + manual_kron(a1, b0 - b1)
    assert np.allclose(chsh_operator(setup), expected, atol=1e-13)


def test_chsh_operator_identity_setup_collapses():
    setup = identity_setup()
    z = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(chsh_operator(setup), 2 * np.kron(z, z))
    assert spectral_norm(chsh_operator(setup)) == pytest.approx(2.0, abs=1e-12)


def test_chsh_operator_norm_ceiling_over_random_setups():
    rng = np.random.default_rng(11)
    for _ in range(200):
        setup = random_setup((2, 2), rng)
        op = chsh_operator(setup)
        assert np.max(np.abs(op - op.conj().T)) <= 1e-10
        assert spectral_norm(op) <= CHSH_OPERATOR_CEILING + 1e-9


def test_canonical_setup_saturates():
    setup = canonical_setup()
    assert abs(score_of_setup(setup) - TSIRELSON_SCORE) <= 1e-9
    psi = setup.state
    expectation = float((psi.conj() @ (chsh_operator(setup) @ psi)).real)
    assert abs(expectation - 2 * math.sqrt(2)) <= 1e-9


def test_score_of_product_states_with_identity_operations():
    setup = identity_setup(basis_state(4, 0))
    assert score_of_setup(setup) == pytest.approx(0.5, abs=1e-12)
    setup = identity_setup(basis_state(4, 1))
    assert score_of_setup(setup) == pytest.approx(-0.5, abs=1e-12)
    rng = np.random.default_rng(13)
    for _ in range(20):
        za = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state = np.kron(za / np.linalg.norm(za), zb / np.linalg.norm(zb))
        assert abs(score_of_setup(identity_setup(state))) <= 0.5 + 1e-12


def test_scores_of_random_setups_respect_ceiling():
    rng = np.random.default_rng(17)
    for _ in range(200):
        assert abs(score_of_setup(random_setup((2, 2), rng))) <= TSIRELSON_SCORE + 1e-9


def test_operator_score_matches_box_score():
    rng = np.random.default_rng(19)
    for dims in ((2, 2), (2, 3), (3, 3)):
        for _ in range(20):
            setup = random_setup(dims, rng)
            via_operator = score_of_setup(setup)
            via_box = expected_score(box_of_strategy(setup))
            assert abs(via_operator - via_box) <= 1e-10


def test_score_with_state_override():
    setup = identity_setup()
    assert score_of_setup(dataclasses.replace(setup, state=basis_state(4, 1))) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError, match=r"^state dimension 2 does not match joint dimension 4$"):
        dataclasses.replace(setup, state=basis_state(2, 0))


def test_optimize_reaches_the_ceiling():
    result = optimize((2, 2), restarts=8, seed=123)
    assert TSIRELSON_SCORE - 1e-6 <= result.score <= TSIRELSON_SCORE + 1e-9
    assert len(result.restart_scores) == 8


def test_optimize_is_deterministic():
    a = optimize((2, 2), restarts=3, seed=9)
    b = optimize((2, 2), restarts=3, seed=9)
    assert a.score == b.score
    assert a.restart_scores == b.restart_scores
    assert np.array_equal(a.setup.state, b.setup.state)
    for name in ("a0", "a1", "b0", "b1"):
        assert np.array_equal(getattr(a.setup, name), getattr(b.setup, name))


def test_optimize_higher_dimensions_respect_ceiling():
    result = optimize((3, 2), restarts=1, seed=2, tol=1e-6)
    assert abs(result.score) <= TSIRELSON_SCORE + 1e-9
    again = optimize((3, 2), restarts=1, seed=2, tol=1e-6)
    assert result.score == again.score


def test_optimize_validates_arguments():
    with pytest.raises(ValueError):
        optimize((1, 2))
    with pytest.raises(ValueError):
        optimize((2, 2), restarts=0)


@pytest.mark.parametrize("dims", [(3, 3), (2, 4)])
def test_optimize_reaches_the_ceiling_in_higher_dimensions(dims):
    result = optimize(dims, restarts=2, seed=31)
    assert abs(result.score - TSIRELSON_SCORE) <= 1e-6
    assert abs(score_of_setup(result.setup) - result.score) <= 1e-12


def test_optimize_keeps_default_outcome_maps():
    for dims in ((2, 2), (3, 2), (2, 3)):
        setup = optimize(dims, restarts=1, seed=8).setup
        assert setup.alice_outcome == tuple(k % 2 for k in range(dims[0]))
        assert setup.bob_outcome == tuple(k % 2 for k in range(dims[1]))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9, "1e-3", None])
def test_optimize_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        optimize((2, 2), restarts=1, tol=tol)


def test_optimize_rejects_oversized_dims_before_any_restart(monkeypatch):
    def no_restart(*args):
        raise AssertionError("a restart ran before the dimension check")

    monkeypatch.setattr(tsirelson, "random_setup", no_restart)
    with pytest.raises(ValueError, match="joint dimension 18"):
        optimize((3, 6), restarts=1)


def test_optimize_rejects_oversized_dims_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a restart was drawn before the dimension check")

    monkeypatch.setattr(tsirelson, "_draw_starts", no_draw)
    monkeypatch.setattr(tsirelson, "Substreams", no_draw)
    with pytest.raises(ValueError, match="joint dimension 18"):
        optimize((3, 6), restarts=1)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_optimize_rejects_out_of_range_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        optimize((2, 2), restarts=1, seed=seed)


def test_optimize_rejects_a_non_integral_seed_and_keeps_an_integral_float():
    with pytest.raises(ValueError, match="seed must be an integer"):
        optimize((2, 2), restarts=1, seed=1.9)
    assert optimize((2, 2), restarts=2, seed=1.0).restart_scores == optimize(
        (2, 2), restarts=2, seed=1
    ).restart_scores


@pytest.mark.parametrize("dims", [(2.7, 2), (2, 2.5), (2, 2, 5), (2,), (2, "2")])
def test_optimize_and_random_setup_require_two_integral_dims(dims):
    with pytest.raises(ValueError, match="dims"):
        optimize(dims, restarts=1)
    with pytest.raises(ValueError, match="dims"):
        random_setup(dims, np.random.default_rng(0))


def test_integral_float_dims_are_kept():
    assert optimize((2.0, 3.0), restarts=1).restart_scores == optimize((2, 3), restarts=1).restart_scores
    setup = random_setup((3.0, 2), np.random.default_rng(0))
    assert (setup.dim_a, setup.dim_b) == (3, 2)


def test_optimize_reads_restarts_as_an_integer():
    with pytest.raises(ValueError, match=r"^restarts must be an integer, got 2\.5$"):
        optimize((2, 2), restarts=2.5)
    result = optimize((2, 2), restarts=2.0, seed=3)
    assert result.restart_scores == optimize((2, 2), restarts=2, seed=3).restart_scores
