import math

import numpy as np
import pytest

from chshkit.linalg import MAX_DIM, haar_unitary, rotation
from chshkit.stochastic import (
    DIVISION_TOL,
    dilation_report,
    divide,
    divide_report,
    evolve,
    find_unitary_dilation,
    is_doubly_stochastic,
    qcor,
    unistochastic_of,
)

UNIFORMIZER = np.full((2, 2), 0.5)

#: Doubly stochastic but not unistochastic: two columns always share exactly
#: one support row, so the corresponding Gram entry has modulus 1/2 for every
#: phase assignment.
WITNESS_3X3 = 0.5 * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])


def random_stochastic(dim, rng):
    return rng.dirichlet(np.ones(dim), size=dim).T


def test_evolve_identity():
    p = np.array([0.2, 0.8])
    assert np.allclose(evolve(np.eye(2), p), p)


def test_evolve_uniformizer():
    assert np.allclose(evolve(UNIFORMIZER, np.array([1.0, 0.0])), [0.5, 0.5])


def test_evolve_permutation():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(evolve(flip, np.array([0.3, 0.7])), [0.7, 0.3])


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve(np.eye(2), np.array([1.0, 0.0, 0.0]))


def test_evolve_preserves_normalization_and_positivity():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5):
        for _ in range(40):
            g = random_stochastic(dim, rng)
            p = rng.dirichlet(np.ones(dim))
            out = evolve(g, p)
            assert out.min() >= 0.0
            assert out.sum() == pytest.approx(1.0, abs=1e-10)


def test_divide_by_itself_gives_identity():
    g = unistochastic_of(rotation(math.pi / 8))
    assert np.allclose(divide(g, g), np.eye(2), atol=1e-10)


def test_divide_uniformizer_through_rotation_leg():
    # Oracle: exact inverse of the invertible first leg.
    g_first = unistochastic_of(rotation(math.pi / 8))
    quotient_oracle = UNIFORMIZER @ np.linalg.inv(g_first)
    assert np.allclose(quotient_oracle, UNIFORMIZER, atol=1e-12)
    got = divide(UNIFORMIZER, g_first)
    assert got is not None
    assert np.allclose(got, UNIFORMIZER, atol=1e-10)


def test_divide_identity_by_uniformizer_is_absent():
    # The uniformizer is singular and the identity is outside its image; the
    # least-squares residual is bounded away from zero.
    report = divide_report(np.eye(2), UNIFORMIZER)
    assert report.quotient is None
    assert report.residual > 0.4


def test_divide_through_singular_leg_when_feasible():
    # Both legs singular, but a stochastic quotient exists (itself again).
    got = divide(UNIFORMIZER, UNIFORMIZER)
    assert got is not None
    assert np.max(np.abs(got @ UNIFORMIZER - UNIFORMIZER)) <= DIVISION_TOL


def test_divide_rectangular_legs():
    rng = np.random.default_rng(41)
    quotient = random_stochastic(3, rng)[:, :2]  # 3 outcomes from 2 intermediates
    first = rng.dirichlet(np.ones(2), size=4).T  # 2 intermediates from 4 starts
    total = quotient @ first
    got = divide(total, first)
    assert got is not None
    assert got.shape == (3, 2)
    assert np.max(np.abs(got @ first - total)) <= DIVISION_TOL


def test_divide_dimension_mismatch():
    with pytest.raises(ValueError):
        divide(np.eye(2), np.eye(3))


def test_divide_roundtrip_on_random_products():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for _ in range(20):
            a = random_stochastic(dim, rng)
            b = random_stochastic(dim, rng)
            total = a @ b
            quotient = divide(total, b)
            assert quotient is not None
            assert np.max(np.abs(quotient @ b - total)) <= DIVISION_TOL
            assert quotient.min() >= 0.0
            assert np.max(np.abs(quotient.sum(axis=0) - 1.0)) <= DIVISION_TOL


def test_unistochastic_of_identity_and_hadamard():
    assert np.allclose(unistochastic_of(np.eye(2)), np.eye(2))
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(unistochastic_of(hadamard), UNIFORMIZER, atol=1e-15)


def test_unistochastic_of_rotation():
    c2 = math.cos(math.pi / 8) ** 2
    s2 = math.sin(math.pi / 8) ** 2
    assert np.allclose(
        unistochastic_of(rotation(math.pi / 8)), [[c2, s2], [s2, c2]], atol=1e-15
    )


def test_unistochastic_of_rejects_non_unitary():
    with pytest.raises(ValueError):
        unistochastic_of(UNIFORMIZER)


def test_unistochastic_of_is_doubly_stochastic():
    rng = np.random.default_rng(13)
    for dim in (2, 3, 5):
        for _ in range(20):
            assert is_doubly_stochastic(unistochastic_of(haar_unitary(dim, rng)), 1e-10)


def test_dilation_identity():
    u = find_unitary_dilation(np.eye(3))
    assert u is not None
    assert np.max(np.abs(np.abs(u) ** 2 - np.eye(3))) <= 1e-8


def test_dilation_uniformizer():
    u = find_unitary_dilation(UNIFORMIZER, seed=1)
    assert u is not None
    assert np.max(np.abs(np.abs(u) ** 2 - UNIFORMIZER)) <= 1e-8


def test_dilation_random_two_by_two_family():
    rng = np.random.default_rng(17)
    for k in range(25):
        a = rng.uniform(0.0, 1.0)
        g = np.array([[a, 1 - a], [1 - a, a]])
        u = find_unitary_dilation(g, seed=k)
        assert u is not None
        assert np.max(np.abs(np.abs(u) ** 2 - g)) <= 1e-8


def test_dilation_witness_not_found():
    report = dilation_report(WITNESS_3X3, seed=5)
    assert report.unitary is None
    assert report.residual > 1e-2


def test_witness_has_no_unitary_phases_by_grid_search():
    # Oracle for the witness: exhaustive grid over the four gauge-free phases
    # (first row and column made real by row/column phase freedom).  The
    # minimal unitarity violation stays far from zero.
    n = 20
    ph = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    a, b, c, d = np.meshgrid(ph, ph, ph, ph, indexing="ij")
    theta = np.zeros((n**4, 3, 3))
    theta[:, 1, 1] = a.ravel()
    theta[:, 1, 2] = b.ravel()
    theta[:, 2, 1] = c.ravel()
    theta[:, 2, 2] = d.ravel()
    candidates = np.sqrt(WITNESS_3X3) * np.exp(1j * theta)
    gram = np.einsum("kij,kil->kjl", candidates.conj(), candidates)
    residuals = np.abs(gram - np.eye(3)).max(axis=(1, 2))
    assert residuals.min() > 1e-2


def test_dilation_rejects_non_doubly_stochastic():
    # Column-stochastic but rows do not sum to one: rejected, not "absent".
    g = np.array([[1.0, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError):
        find_unitary_dilation(g)


def test_dilation_recovers_unistochastic_inputs():
    rng = np.random.default_rng(19)
    for k, dim in enumerate((3, 3, 4)):
        g = unistochastic_of(haar_unitary(dim, rng))
        u = find_unitary_dilation(g, seed=100 + k)
        assert u is not None
        assert np.max(np.abs(np.abs(u) ** 2 - g)) <= 1e-8


def test_dilation_deterministic_given_seed():
    u1 = find_unitary_dilation(UNIFORMIZER, seed=9)
    u2 = find_unitary_dilation(UNIFORMIZER, seed=9)
    assert np.array_equal(u1, u2)


def qcor_cross_terms(u_total, u_first):
    """Independent route: the off-diagonal interference sum over intermediate
    configuration pairs."""
    u_second = u_total @ u_first.conj().T
    dim = u_total.shape[0]
    out = np.zeros((dim, dim))
    for qt in range(dim):
        for q0 in range(dim):
            acc = 0.0 + 0.0j
            for qp in range(dim):
                for qpp in range(dim):
                    if qp == qpp:
                        continue
                    acc += (
                        np.conj(u_second[qt, qp])
                        * np.conj(u_first[qp, q0])
                        * u_second[qt, qpp]
                        * u_first[qpp, q0]
                    )
            out[qt, q0] = acc.real
    return out


def test_qcor_vanishes_for_trivial_first_leg():
    u = rotation(0.7)
    assert np.max(np.abs(qcor(u, np.eye(2)))) <= 1e-15


def test_qcor_vanishes_for_permutation_first_leg():
    rng = np.random.default_rng(23)
    perm = np.zeros((3, 3), dtype=complex)
    for i, j in enumerate((2, 0, 1)):
        perm[j, i] = 1.0
    u_total = haar_unitary(3, rng)
    assert np.max(np.abs(qcor(u_total, perm))) <= 1e-15
    assert np.max(np.abs(qcor_cross_terms(u_total, perm))) <= 1e-15


def test_qcor_rotation_pair_reproduces_quarter_pattern():
    got = qcor(rotation(math.pi / 4), rotation(math.pi / 8))
    expected = np.array([[-0.25, 0.25], [0.25, -0.25]])
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_qcor_matches_cross_term_sum():
    rng = np.random.default_rng(29)
    for dim in (2, 3, 4):
        for _ in range(10):
            ut = haar_unitary(dim, rng)
            uf = haar_unitary(dim, rng)
            assert np.max(np.abs(qcor(ut, uf) - qcor_cross_terms(ut, uf))) <= 1e-12


def test_qcor_columns_sum_to_zero():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4):
        for _ in range(20):
            m = qcor(haar_unitary(dim, rng), haar_unitary(dim, rng))
            assert np.max(np.abs(m.sum(axis=0))) <= 1e-10


def test_qcor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qcor(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        qcor(UNIFORMIZER, np.eye(2))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_division_and_dilation_reject_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        divide_report(np.eye(2), UNIFORMIZER, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        dilation_report(UNIFORMIZER, tol=tol)


def test_dilation_rejects_out_of_range_seed():
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            dilation_report(UNIFORMIZER, seed=seed)


def test_dilation_rejects_sides_above_max_dim_before_searching():
    uniform = np.full((MAX_DIM + 1, MAX_DIM + 1), 1.0 / (MAX_DIM + 1))
    with pytest.raises(ValueError, match=f"above {MAX_DIM} are not supported"):
        dilation_report(uniform)


def test_dilation_rejects_a_non_integral_seed():
    with pytest.raises(ValueError, match="seed must be an integer"):
        dilation_report(UNIFORMIZER, seed=0.5)
    a, b = dilation_report(UNIFORMIZER, seed=3.0), dilation_report(UNIFORMIZER, seed=3)
    assert np.array_equal(a.unitary, b.unitary) and a.residual == b.residual
