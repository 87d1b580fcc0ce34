import math
from fractions import Fraction

import numpy as np
import pytest

from chshkit.linalg import (
    MAX_DIM,
    amplitude_representation,
    as_dims,
    as_integer,
    as_seed,
    as_tolerance,
    as_state_vector,
    as_state_vectors,
    assert_unitaries,
    assert_unitary,
    basis_state,
    dephase,
    dictionary_prob,
    haar_unitary,
    is_unitary,
    projector,
    rotation,
    spectral_norm,
    substream,
    tensor,
)
from chshkit.tsirelson import optimize

X = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def manual_kron(a, b):
    """Independent Kronecker product: explicit index loops."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def test_tensor_identities():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_projectors():
    got = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))


def test_tensor_flips_both_bits():
    xx = tensor(X, X)
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(xx @ ket00, ket11)
    assert np.allclose(xx, manual_kron(X, X))


def test_tensor_matches_manual_kron_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert np.allclose(tensor(a, b), manual_kron(a, b), atol=1e-15)


def test_is_unitary_accepts_identity_and_rotation():
    assert is_unitary(np.eye(2), 1e-12)
    assert is_unitary(rotation(math.pi / 8), 1e-12)


def test_is_unitary_rejects_shear():
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


def test_unitarity_checks_reject_overflowing_gram_matrix():
    # u^dag u overflows to inf - inf = NaN off the diagonal
    huge = np.array([[1e200, 1e200], [1e200, 1e200j]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not is_unitary(huge)
        with pytest.raises(ValueError):
            assert_unitary(huge)


def test_is_unitary_requires_square():
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)))


@pytest.mark.parametrize(
    "dim,index,expected",
    [
        (2, 0, [1.0, 0.0]),
        (2, 1, [0.0, 1.0]),
        (4, 2, [0.0, 0.0, 1.0, 0.0]),
    ],
)
def test_projector_examples(dim, index, expected):
    assert np.array_equal(projector(dim, index), np.diag(expected).astype(complex))


def test_projector_index_out_of_range():
    with pytest.raises(ValueError):
        projector(2, 2)


def test_dictionary_prob_identity():
    assert dictionary_prob(np.eye(2), 0, 0) == 1.0


def test_dictionary_prob_quarter_rotation_is_half():
    u = rotation(math.pi / 4)
    for qt in (0, 1):
        for q0 in (0, 1):
            assert dictionary_prob(u, qt, q0) == pytest.approx(0.5, abs=1e-15)


def test_dictionary_prob_eighth_rotation():
    assert dictionary_prob(rotation(math.pi / 8), 0, 0) == pytest.approx(
        math.cos(math.pi / 8) ** 2, abs=1e-15
    )


def test_dictionary_prob_equals_projector_trace():
    # Oracle: the full projector-sandwich trace, computed with explicit matmuls.
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        u = haar_unitary(dim, rng)
        for qt in range(dim):
            for q0 in range(dim):
                sandwich = projector(dim, qt) @ u @ projector(dim, q0) @ u.conj().T
                assert dictionary_prob(u, qt, q0) == pytest.approx(
                    float(np.trace(sandwich).real), abs=1e-12
                )


def test_dictionary_prob_rejects_non_unitary():
    with pytest.raises(ValueError):
        dictionary_prob(np.array([[1, 1], [0, 1]], dtype=complex), 0, 0)


def test_dictionary_prob_reads_indices_as_integers():
    u = rotation(math.pi / 8)
    assert dictionary_prob(u, 1.0, 0) == dictionary_prob(u, 1, 0)
    assert dictionary_prob(u, 0, True) == dictionary_prob(u, 0, 1)
    with pytest.raises(ValueError, match=r"^q_t must be an integer, got 1\.5$"):
        dictionary_prob(u, 1.5, 0)
    with pytest.raises(ValueError, match=r"^q_0 must be an integer, got 0\.5$"):
        dictionary_prob(u, 0, 0.5)
    with pytest.raises(ValueError, match=r"^configuration indices \(0, 2\) out of range for dimension 2$"):
        dictionary_prob(u, 0, 2)


def test_squared_moduli_of_unitary_are_doubly_stochastic():
    rng = np.random.default_rng(23)
    for dim in (2, 3, 4, 6):
        for _ in range(20):
            g = np.abs(haar_unitary(dim, rng)) ** 2
            assert np.max(np.abs(g.sum(axis=0) - 1.0)) <= 1e-10
            assert np.max(np.abs(g.sum(axis=1) - 1.0)) <= 1e-10


def test_dictionary_prob_columns_normalized():
    rng = np.random.default_rng(29)
    u = haar_unitary(5, rng)
    for q0 in range(5):
        total = sum(dictionary_prob(u, qt, q0) for qt in range(5))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_amplitude_representation_identity():
    got = amplitude_representation(np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(got, np.eye(2).astype(complex))


def test_amplitude_representation_uniformizer_with_sign_phase_is_unitary():
    gamma = np.full((2, 2), 0.5)
    phases = np.array([[0.0, 0.0], [0.0, math.pi]])
    theta = amplitude_representation(gamma, phases)
    assert np.allclose(theta, HADAMARD, atol=1e-15)
    assert np.allclose(theta.conj().T @ theta, np.eye(2), atol=1e-15)


def test_amplitude_representation_zero_phases_not_unitary():
    gamma = np.full((2, 2), 0.5)
    theta = amplitude_representation(gamma, np.zeros((2, 2)))
    assert not is_unitary(theta)
    assert np.allclose(np.abs(theta) ** 2, gamma, atol=1e-14)


def test_amplitude_representation_roundtrips_probabilities():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cols = rng.dirichlet(np.ones(3), size=3).T
        phases = rng.uniform(0, 2 * math.pi, (3, 3))
        theta = amplitude_representation(cols, phases)
        assert np.max(np.abs(np.abs(theta) ** 2 - cols)) <= 1e-14


def test_amplitude_representation_shape_mismatch():
    with pytest.raises(ValueError):
        amplitude_representation(np.eye(2), np.zeros((3, 3)))


NOT_FINITE = "^gamma and phases must be finite$"
NOT_PROBABILITIES = r"^gamma entries must be probabilities in \[0, 1\]$"


@pytest.mark.parametrize(
    "gamma, phases, message",
    [(np.eye(2), np.full((2, 2), np.inf), NOT_FINITE),
     (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros((2, 2)), NOT_FINITE),
     (np.array([[1.5, 0.0], [0.0, 1.0]]), np.zeros((2, 2)), NOT_PROBABILITIES),
     (np.array([[-0.1, 0.0], [0.0, 1.0]]), np.zeros((2, 2)), NOT_PROBABILITIES),
     (np.zeros((0, 0)), np.zeros((0, 0)),
      r"^gamma and phases must be non-empty matrices of equal shape, got \(0, 0\) and \(0, 0\)$")],
)
def test_amplitude_representation_rejects_non_finite_and_out_of_range_input(gamma, phases, message):
    with pytest.raises(ValueError, match=message):
        amplitude_representation(gamma, phases)


TOO_BIG = MAX_DIM + 1
TENSOR_CAP = rf"^tensor product would exceed the dimension cap {MAX_DIM}$"


@pytest.mark.parametrize(
    "build, message",
    [(lambda: assert_unitary(np.eye(TOO_BIG)),
      rf"^matrix is {TOO_BIG}x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: assert_unitaries(np.ones((2, 1, TOO_BIG)), "u"),
      rf"^u is 1x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: as_state_vectors(np.ones((3, TOO_BIG)), "psi"),
      rf"^psi has dimension {TOO_BIG}; above {MAX_DIM} is not supported$"),
     (lambda: tensor(np.eye(8), np.eye(9)), TENSOR_CAP),
     (lambda: tensor(np.ones((1, 8)), np.ones((1, 9))), TENSOR_CAP),
     (lambda: projector(TOO_BIG, 0), rf"^dim must be in \[1, {MAX_DIM}\], got {TOO_BIG}$"),
     (lambda: projector(0, 0), rf"^dim must be in \[1, {MAX_DIM}\], got 0$")],
    ids=["matrix", "matrix_stack", "state_stack", "tensor_rows", "tensor_columns",
         "projector", "projector_0"],
)
def test_dimension_caps(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("tol", ["1e-3", b"1e-3", None, 1e-3 + 0j, [1e-3], math.nan, -1, 0, 10**400])
def test_as_tolerance_takes_only_finite_positive_reals(tol):
    with pytest.raises(ValueError, match=r"^tol must be finite and positive, got "):
        as_tolerance(tol)


def test_as_tolerance_keeps_real_numbers():
    for tol in (1e-3, 2, np.float32(0.5), np.float64(1e-9), np.int64(3), Fraction(1, 4)):
        assert as_tolerance(tol) == float(tol) and type(as_tolerance(tol)) is float


def test_dephase_leaves_diagonal_input_alone():
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.array_equal(dephase(rho), rho)


def test_dephase_plus_state():
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    assert np.allclose(dephase(plus), np.diag([0.5, 0.5]))


def test_dephase_bell_density_matrix():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(dephase(rho), np.diag([0.5, 0.0, 0.0, 0.5]))


def test_dephase_idempotent_trace_preserving_and_psd():
    rng = np.random.default_rng(37)
    for dim in (2, 3, 4):
        for _ in range(10):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            out = dephase(rho)
            assert np.allclose(dephase(out), out, atol=1e-15)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-12


def test_dephase_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dephase(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        dephase(np.eye(2))  # trace 2


def test_state_vector_validation():
    as_state_vector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        as_state_vector(np.array([1.0, 1.0]))


def test_spectral_norm_of_pauli_like():
    assert spectral_norm(np.diag([1.0, -1.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spectral_norm(np.array([[0, 1], [0, 0]], dtype=complex))


def test_substream_is_philox_keyed_by_seed_and_counter():
    for seed, k in ((0, 0), (7, 3), ((1 << 64) - 1, 12)):
        direct = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        assert np.array_equal(substream(seed, k).random(5), direct.random(5))
    assert not np.array_equal(substream(7, 0).random(5), substream(7, 1).random(5))


def test_substream_rejects_out_of_range_seed():
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            substream(seed, 0)


def test_dephase_and_spectral_norm_share_one_hermitian_check():
    skew = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="rho is not Hermitian within 1e-10"):
        dephase(skew)
    with pytest.raises(ValueError, match="h is not Hermitian within 1e-10"):
        spectral_norm(skew)
    for check in (dephase, spectral_norm):
        with pytest.raises(ValueError, match="must be square"):
            check(np.ones((2, 3)))


def test_hermitian_check_reports_an_overflowing_deviation_without_a_warning():
    # a - a^dag overflows to inf; the RuntimeWarning filter makes a leak fail here
    huge = np.array([[0.0, 1e308], [-1e308, 0.0]])
    for check, name in ((dephase, "rho"), (spectral_norm, "h")):
        with pytest.raises(ValueError) as excinfo:
            check(huge)
        assert str(excinfo.value) == f"{name} is not Hermitian within 1e-10 (deviation inf)"


def test_is_unitary_and_assert_unitary_share_one_check():
    near = rotation(0.4) * (1 + 2e-11)  # Gram deviation 4e-11, inside the default tolerance
    far = rotation(0.4) * 1.001
    for m in (haar_unitary(3, np.random.default_rng(23)), near):
        assert is_unitary(m)
        assert_unitary(m)
    assert not is_unitary(far)
    with pytest.raises(ValueError, match="not unitary"):
        assert_unitary(far)
    with pytest.raises(ValueError, match="u must be square, got shape"):
        is_unitary(np.ones((2, 3)))


def test_stacked_checks_name_the_first_failing_item():
    u = np.stack([rotation(t) for t in np.linspace(0, 1, 6)]).reshape(2, 3, 2, 2)
    assert assert_unitaries(u, "u") is not None
    u[1, 0] *= 1.5
    u[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^u\[1, 2\] contains non-finite entries$"):
        assert_unitaries(u, "u")
    u[1, 2] = np.eye(2)
    with pytest.raises(ValueError, match=r"^u\[1, 0\] is not unitary within 1e-10 \(deviation 1\.250e\+00\)$"):
        assert_unitaries(u, "u")
    psi = np.tile([1.0, 0.0], (4, 1))
    np.testing.assert_array_equal(as_state_vectors(psi, "psi"), psi)
    psi[2:] *= 2.0
    with pytest.raises(ValueError, match=r"^psi\[2\] is not normalized: sum of squared moduli is 4\.0$"):
        as_state_vectors(psi, "psi")
    psi[3, 1] = np.inf
    with pytest.raises(ValueError, match=r"^psi\[3\] contains non-finite entries$"):
        as_state_vectors(psi, "psi")
    with pytest.raises(ValueError, match=r"^psi must be a 1-d vector or a stack of them, got shape \(3, 0\)$"):
        as_state_vectors(np.zeros((3, 0)), "psi")
    with pytest.raises(ValueError, match=r"^u must be a 2-d matrix or a stack of them, got shape \(3,\)$"):
        assert_unitaries(np.ones(3), "u")


def test_single_item_checks_keep_their_messages_and_reject_stacks():
    for bad, msg in [
        (rotation(0.3) * 1.5, r"^m is not unitary within 1e-10 \(deviation 1\.250e\+00\)$"),
        (np.full((2, 2), np.nan), r"^m contains non-finite entries$"),
        (np.ones((2, 3)), r"^m must be square, got shape \(2, 3\)$"),
        (np.zeros((0, 0)), r"^m must be a 2-d matrix, got shape \(0, 0\)$"),
        (np.stack([np.eye(2)] * 2), r"^m must be a 2-d matrix, got shape \(2, 2, 2\)$"),
    ]:
        with pytest.raises(ValueError, match=msg):
            assert_unitary(bad, "m")
    for bad, msg in [
        (np.array([2.0, 0.0]), r"^v is not normalized: sum of squared moduli is 4\.0$"),
        (np.array([np.nan, 0.0]), r"^v contains non-finite entries$"),
        (np.zeros(0), r"^v must be a 1-d vector, got shape \(0,\)$"),
        (np.eye(2), r"^v must be a 1-d vector, got shape \(2, 2\)$"),
    ]:
        with pytest.raises(ValueError, match=msg):
            as_state_vector(bad, "v")
    with pytest.raises(ValueError, match=r"^a must be a 2-d matrix, got shape \(3,\)$"):
        tensor(np.ones(3), np.eye(2))


@pytest.mark.parametrize("seed", [1.9, 0.5, "12", math.inf, -math.inf, math.nan, 2 + 0j, None])
def test_as_seed_rejects_what_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        as_seed(seed)


def test_as_seed_keeps_values_equal_to_an_integer():
    for seed in (12, 2.0, np.float64(3.0), np.uint64(5), (1 << 64) - 1):
        assert type(as_seed(seed)) is int and as_seed(seed) == seed
    with pytest.raises(ValueError, match="seed"):
        as_seed(float(1 << 64))


def test_as_integer_names_the_value():
    assert as_integer(4.0, "count") == 4
    with pytest.raises(ValueError, match=r"^count must be an integer, got 4\.5$"):
        as_integer(4.5, "count")


def test_projector_and_basis_state_read_integers():
    assert np.array_equal(projector(2, 1.0), projector(2, 1))
    assert np.array_equal(basis_state(3.0, 2), basis_state(3, 2))
    with pytest.raises(ValueError, match=r"^dim must be an integer, got 2\.5$"):
        projector(2.5, 1)
    with pytest.raises(ValueError, match=r"^index must be an integer, got 0\.5$"):
        basis_state(2, 0.5)
    with pytest.raises(ValueError, match=r"^index 2 out of range for dimension 2$"):
        projector(2, 2)
    assert np.array_equal(projector(3, 1), np.diag(basis_state(3, 1)))


@pytest.mark.parametrize("dims", [5, 2.0, None, np.array(4), (2,), (2, 2, 1)], ids=repr)
def test_as_dims_rejects_what_is_not_a_pair(dims):
    with pytest.raises(ValueError, match=r"^dims must be two local dimensions, got "):
        as_dims(dims)
    with pytest.raises(ValueError, match=r"^dims must be two local dimensions, got "):
        optimize(dims=dims, restarts=1)
    assert as_dims([2.0, np.int64(3)]) == (2, 3)
