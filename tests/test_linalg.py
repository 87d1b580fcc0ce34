import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from chshkit.linalg import (
    MAX_DIM,
    RESTART_BLOCK,
    Substreams,
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
    haar_unitary,
    rotation,
    spectral_norm,
)
from chshkit.causality import joint_from_unitary
from chshkit.stochastic import dilation_report, qcor, unistochastic_of
from chshkit.tsirelson import QuantumSetup, optimize

def test_unitarity_checks_reject_overflowing_gram_matrix():
    # u^dag u overflows to inf - inf = NaN off the diagonal
    huge = np.array([[1e200, 1e200], [1e200, 1e200j]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            assert_unitary(huge)


def test_assert_unitary_accepts_identity_and_rotation():
    for u in (np.eye(2), rotation(math.pi / 8)):
        checked = assert_unitary(u)
        assert checked.dtype == complex and np.array_equal(checked, u)


def test_assert_unitary_rejects_shear():
    # shear^dag shear - 1 = [[0, 1], [1, 1]]
    with pytest.raises(ValueError, match=r"^matrix is not unitary within 1e-10 \(deviation 1\.000e\+00\)$"):
        assert_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


def test_assert_unitary_requires_square():
    with pytest.raises(ValueError, match=r"^u must be square, got shape \(2, 3\)$"):
        assert_unitary(np.ones((2, 3)), "u")


@pytest.mark.parametrize(
    "dim,index,expected",
    [
        (2, 0, [1.0, 0.0]),
        (2, 1, [0.0, 1.0]),
        (4, 2, [0.0, 0.0, 1.0, 0.0]),
    ],
)
def test_basis_state_examples(dim, index, expected):
    v = basis_state(dim, index)
    assert v.dtype == complex and np.array_equal(v, expected)


@pytest.mark.parametrize("dim, index", [(2, 2), (2, -1), (0, 0)])
def test_basis_state_index_out_of_range(dim, index):
    with pytest.raises(ValueError, match=rf"^index {index} out of range for dimension {dim}$"):
        basis_state(dim, index)


def test_squared_moduli_of_unitary_are_doubly_stochastic():
    rng = np.random.default_rng(23)
    for dim in (2, 3, 4, 6):
        for _ in range(20):
            g = np.abs(haar_unitary(dim, rng)) ** 2
            assert np.max(np.abs(g.sum(axis=0) - 1.0)) <= 1e-10
            assert np.max(np.abs(g.sum(axis=1) - 1.0)) <= 1e-10


TOO_BIG = MAX_DIM + 1


@pytest.mark.parametrize(
    "build, message",
    [(lambda: assert_unitary(np.eye(TOO_BIG)),
      rf"^matrix is {TOO_BIG}x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: assert_unitaries(np.ones((2, 1, TOO_BIG)), "u"),
      rf"^u is 1x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: as_state_vectors(np.ones((3, TOO_BIG)), "psi"),
      rf"^psi has dimension {TOO_BIG}; above {MAX_DIM} is not supported$"),
     (lambda: spectral_norm(np.eye(TOO_BIG)),
      rf"^h is {TOO_BIG}x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: as_state_vector(np.ones(TOO_BIG)),
      rf"^state has dimension {TOO_BIG}; above {MAX_DIM} is not supported$"),
     (lambda: unistochastic_of(np.eye(TOO_BIG)),
      rf"^u is {TOO_BIG}x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: dephase(np.eye(TOO_BIG) / TOO_BIG),
      rf"^rho is {TOO_BIG}x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: qcor(np.eye(2), np.eye(TOO_BIG)),
      rf"^u_first is {TOO_BIG}x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: joint_from_unitary(np.eye(TOO_BIG), (5, 13)),
      rf"^u is {TOO_BIG}x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$"),
     (lambda: QuantumSetup(np.ones(1), np.eye(TOO_BIG), np.eye(1), np.eye(1), np.eye(1)),
      rf"^a0 is {TOO_BIG}x{TOO_BIG}; dimensions above {MAX_DIM} are not supported$")],
    ids=["matrix", "matrix_stack", "state_stack", "hermitian", "state", "unistochastic",
         "density", "qcor", "joint", "setup"],
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


def philox(seed, k):
    """Substream ``k`` of ``seed``, built here rather than through ``Substreams``."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


def draws(rng):
    """A mix of draws that leaves a half-used 64-bit word (``has_uint32``) behind."""
    return (rng.standard_normal(3).tolist(), rng.random(2).tolist(),
            rng.integers(0, 1000, 3).tolist(), rng.integers(0, 2**32, 3, dtype=np.uint32).tolist())


@pytest.mark.parametrize("seed", [0, 7, (1 << 64) - 1])
def test_substreams_draw_what_fresh_substreams_draw(seed):
    ks = range(RESTART_BLOCK - 3, RESTART_BLOCK + 3)  # across a block boundary
    rngs = Substreams(seed, ks)
    assert len(rngs) == len(ks)
    fresh = [draws(philox(seed, k)) for k in ks]
    assert fresh[0] != fresh[1]
    assert [draws(rng) for rng in rngs] == fresh
    assert [draws(rng) for rng in rngs] == fresh  # a second pass
    assert len(Substreams(seed, range(0))) == 0


def test_substreams_reject_out_of_range_seed():
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            Substreams(seed, range(3))


def test_concurrent_searches_return_what_sequential_ones_return():
    """Each search draws from generators of its own: two threads searching at
    once, switching as often as the interpreter can, get the sequential results."""
    gamma = np.abs(haar_unitary(4, philox(5, 0))) ** 2

    def searches(seeds):
        out = []
        for seed in seeds:
            result = optimize((3, 3), restarts=70, seed=seed)
            report = dilation_report(gamma, max_restarts=8, seed=seed)
            out.append((result.score, result.restart_scores, result.restart_rounds, result.setup.state.tolist(),
                        report.residual, report.unitary.tolist()))
        return out

    seeds = [range(1, 9), range(9, 17)]
    sequential = [searches(s) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # one overlap interleaves the draws most of the time, not always
            concurrent = [None] * len(seeds)

            def run(i):
                concurrent[i] = searches(seeds[i])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(thread.is_alive() for thread in threads)
            assert concurrent == sequential
    finally:
        sys.setswitchinterval(interval)


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


def test_assert_unitary_accepts_within_its_tolerance_and_rejects_beyond():
    near = rotation(0.4) * (1 + 2e-11)  # Gram deviation 4e-11, inside the default tolerance
    far = rotation(0.4) * 1.001
    for m in (haar_unitary(3, np.random.default_rng(23)), near):
        assert_unitary(m)
    with pytest.raises(ValueError, match="not unitary"):
        assert_unitary(far)


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
    with pytest.raises(ValueError, match=r"^h must be a 2-d matrix, got shape \(3,\)$"):
        spectral_norm(np.ones(3))


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


def test_basis_state_reads_integers():
    assert np.array_equal(basis_state(3.0, 2), basis_state(3, 2))
    with pytest.raises(ValueError, match=r"^dim must be an integer, got 2\.5$"):
        basis_state(2.5, 1)
    with pytest.raises(ValueError, match=r"^index must be an integer, got 0\.5$"):
        basis_state(2, 0.5)
    with pytest.raises(ValueError, match=r"^index 2 out of range for dimension 2$"):
        basis_state(2, 2)


@pytest.mark.parametrize("dims", [5, 2.0, None, np.array(4), (2,), (2, 2, 1)], ids=repr)
def test_as_dims_rejects_what_is_not_a_pair(dims):
    with pytest.raises(ValueError, match=r"^dims must be two local dimensions, got "):
        as_dims(dims)
    with pytest.raises(ValueError, match=r"^dims must be two local dimensions, got "):
        optimize(dims=dims, restarts=1)
    assert as_dims([2.0, np.int64(3)]) == (2, 3)
