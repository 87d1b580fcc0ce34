import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshkit.linalg import MAX_DIM, as_probabilities, basis_state, haar_unitary, rotation
from chshkit.stochastic import (
    DIVISION_TOL,
    _chain_links_slack,
    as_stochastic_matrix,
    dilation_report,
    divide_report,
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


def test_divide_by_itself_gives_identity():
    g = unistochastic_of(rotation(math.pi / 8))
    assert np.allclose(divide_report(g, g).quotient, np.eye(2), atol=1e-10)


def test_divide_uniformizer_through_rotation_leg():
    # Oracle: exact inverse of the invertible first leg.
    g_first = unistochastic_of(rotation(math.pi / 8))
    quotient_oracle = UNIFORMIZER @ np.linalg.inv(g_first)
    assert np.allclose(quotient_oracle, UNIFORMIZER, atol=1e-12)
    got = divide_report(UNIFORMIZER, g_first).quotient
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
    got = divide_report(UNIFORMIZER, UNIFORMIZER).quotient
    assert got is not None
    assert np.max(np.abs(got @ UNIFORMIZER - UNIFORMIZER)) <= DIVISION_TOL


def test_divide_rectangular_legs():
    rng = np.random.default_rng(41)
    quotient = random_stochastic(3, rng)[:, :2]  # 3 outcomes from 2 intermediates
    first = rng.dirichlet(np.ones(2), size=4).T  # 2 intermediates from 4 starts
    total = quotient @ first
    got = divide_report(total, first).quotient
    assert got is not None
    assert got.shape == (3, 2)
    assert np.max(np.abs(got @ first - total)) <= DIVISION_TOL


def test_not_divisible_is_no_proof_for_a_rectangular_first_leg():
    first = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    quotient = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])  # stochastic
    total = quotient @ first
    assert np.array_equal(total, [[0.75, 0.25], [0.25, 0.75]])
    # The minimum-norm candidate is the only one tried, and it is not stochastic.
    candidate = np.linalg.lstsq(first.T, total.T, rcond=None)[0].T
    assert candidate.min() == pytest.approx(-1.0 / 6.0, abs=1e-12)
    report = divide_report(total, first)
    assert report.quotient is None
    assert report.residual <= 1e-15


def test_not_divisible_is_no_proof_for_a_singular_first_leg():
    first = np.array([[1.0, 1.0], [0.0, 0.0]])
    quotient = np.array([[0.3, 0.5], [0.7, 0.5]])  # stochastic
    total = quotient @ first
    assert np.array_equal(total, [[0.3, 0.3], [0.7, 0.7]])
    # The minimum-norm candidate reconstructs the total, but its second
    # column sums to 0, so it is rejected before renormalization.
    candidate = np.linalg.lstsq(first.T, total.T, rcond=None)[0].T
    np.testing.assert_allclose(candidate, [[0.3, 0.0], [0.7, 0.0]], atol=1e-15)
    report = divide_report(total, first)
    assert report.quotient is None
    assert report.residual <= 1e-15


@st.composite
def invertible_divisions(draw):
    """A square first leg with eigenvalues at least 0.2 from zero, and a total
    that is either a stochastic quotient times it or any stochastic matrix."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    mix = draw(st.floats(0.0, 0.4))
    first = (1.0 - mix) * np.eye(dim) + mix * random_stochastic(dim, rng)
    total = random_stochastic(dim, rng)
    return (total @ first if draw(st.booleans()) else total), first


@settings(max_examples=60, deadline=None)
@given(case=invertible_divisions())
def test_not_divisible_is_a_proof_for_an_invertible_first_leg(case):
    total, first = case
    exact = total @ np.linalg.inv(first)  # the only matrix that can be the quotient
    report = divide_report(total, first)
    if report.quotient is None:
        assert exact.min() < 0.0
    else:
        assert np.max(np.abs(report.quotient - exact)) <= 1e-12


def test_divide_dimension_mismatch():
    with pytest.raises(ValueError):
        divide_report(np.eye(2), np.eye(3))


def test_quotient_evolves_distributions_like_the_second_leg():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4):
        first, second = random_stochastic(dim, rng), random_stochastic(dim, rng)
        quotient = divide_report(second @ first, first).quotient
        for p in rng.dirichlet(np.ones(dim), size=5):
            assert np.max(np.abs(quotient @ (first @ p) - second @ (first @ p))) <= 1e-8


def test_divide_roundtrip_on_random_products():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for _ in range(20):
            a = random_stochastic(dim, rng)
            b = random_stochastic(dim, rng)
            total = a @ b
            quotient = divide_report(total, b).quotient
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


def test_unistochastic_of_quarter_rotation_is_uniform():
    assert np.allclose(unistochastic_of(rotation(math.pi / 4)), UNIFORMIZER, atol=1e-15)


def test_unistochastic_of_a_permutation_is_the_permutation():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    perm = np.eye(3)[[2, 0, 1]]
    for p in (flip, perm):
        assert np.array_equal(unistochastic_of(p), p)
    assert np.allclose(unistochastic_of(flip) @ np.array([0.3, 0.7]), [0.7, 0.3])


def test_unistochastic_entry_is_the_projector_sandwich_trace():
    # Oracle: p(q_t | q_0) = tr(P_qt U P_q0 U^dag), computed with explicit matmuls.
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        u = haar_unitary(dim, rng)
        g = unistochastic_of(u)
        for qt in range(dim):
            for q0 in range(dim):
                p_t = np.outer(basis_state(dim, qt), basis_state(dim, qt).conj())
                p_0 = np.outer(basis_state(dim, q0), basis_state(dim, q0).conj())
                sandwich = p_t @ u @ p_0 @ u.conj().T
                assert g[qt, q0] == pytest.approx(float(np.trace(sandwich).real), abs=1e-12)


def test_unistochastic_dynamics_keep_distributions_normalized_and_positive():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5):
        for _ in range(40):
            out = unistochastic_of(haar_unitary(dim, rng)) @ rng.dirichlet(np.ones(dim))
            assert out.min() >= 0.0
            assert out.sum() == pytest.approx(1.0, abs=1e-10)


def test_unistochastic_of_returns_a_real_table_of_one_matrix():
    g = unistochastic_of(rotation(math.pi / 8))
    assert g.dtype == float and g.shape == (2, 2)
    with pytest.raises(ValueError, match=r"^u must be a 2-d matrix, got shape \(2, 2, 2\)$"):
        unistochastic_of(np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError, match=r"^u must be square, got shape \(2, 3\)$"):
        unistochastic_of(np.ones((2, 3)))


def test_uniformizer_moduli_need_a_sign_phase_to_be_unitary():
    roots = np.sqrt(UNIFORMIZER)
    with pytest.raises(ValueError, match="^u is not unitary"):
        unistochastic_of(roots)
    hadamard = roots * np.exp(1j * np.array([[0.0, 0.0], [0.0, math.pi]]))
    assert np.allclose(hadamard, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)
    assert np.allclose(unistochastic_of(hadamard), UNIFORMIZER, atol=1e-15)


def test_unistochastic_of_rejects_non_unitary():
    with pytest.raises(ValueError):
        unistochastic_of(UNIFORMIZER)


def test_unistochastic_of_is_doubly_stochastic():
    rng = np.random.default_rng(13)
    for dim in (2, 3, 5):
        for _ in range(20):
            g = unistochastic_of(haar_unitary(dim, rng))
            as_stochastic_matrix(g)  # the shared rule on the columns ...
            as_probabilities(g, 2, 1, "g", "have rows summing to 1")  # ... and on the rows


@pytest.mark.parametrize(
    "gamma, message",
    [(np.array([[1.0, 0.0], [0.0, np.inf]]), "^gamma contains non-finite entries$"),
     (np.array([[np.nan, 0.0], [0.0, 1.0]]), "^gamma contains non-finite entries$"),
     (np.array([[1.5, 0.0], [-0.5, 1.0]]), r"^gamma: entries must be probabilities in \[0, 1\]$"),
     (np.array([[-0.1, 0.0], [1.1, 1.0]]), r"^gamma: entries must be probabilities in \[0, 1\]$"),
     (np.zeros((0, 0)), r"^gamma must have 2 non-empty axes, got shape \(0, 0\)$"),
     (np.array([0.5, 0.5]), r"^gamma must have 2 non-empty axes, got shape \(2,\)$")],
    ids=["inf", "nan", "above_one", "negative", "empty", "vector"],
)
def test_stochastic_matrix_rejects_non_finite_and_out_of_range_input(gamma, message):
    with pytest.raises(ValueError, match=message):
        as_stochastic_matrix(gamma)


def test_dilation_identity():
    u = dilation_report(np.eye(3)).unitary
    assert u is not None
    assert np.max(np.abs(np.abs(u) ** 2 - np.eye(3))) <= 1e-8


def test_dilation_uniformizer():
    u = dilation_report(UNIFORMIZER, seed=1).unitary
    assert u is not None
    assert np.max(np.abs(np.abs(u) ** 2 - UNIFORMIZER)) <= 1e-8


def test_dilation_random_two_by_two_family():
    rng = np.random.default_rng(17)
    for k in range(25):
        a = rng.uniform(0.0, 1.0)
        g = np.array([[a, 1 - a], [1 - a, a]])
        u = dilation_report(g, seed=k).unitary
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
        dilation_report(g)


def test_empty_matrix_is_not_doubly_stochastic():
    with pytest.raises(ValueError, match="^gamma must be doubly stochastic"):
        dilation_report(np.zeros((0, 0)))


def test_dilation_recovers_unistochastic_inputs():
    rng = np.random.default_rng(19)
    for k, dim in enumerate((3, 3, 4)):
        g = unistochastic_of(haar_unitary(dim, rng))
        u = dilation_report(g, seed=100 + k).unitary
        assert u is not None
        assert np.max(np.abs(np.abs(u) ** 2 - g)) <= 1e-8


def test_dilation_deterministic_given_seed():
    u1 = dilation_report(UNIFORMIZER, seed=9).unitary
    u2 = dilation_report(UNIFORMIZER, seed=9).unitary
    assert np.array_equal(u1, u2)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 16),
    key=st.integers(0, 2**32),
    shift=st.sampled_from([0.0, 1.0]),
)
def test_no_input_within_tol_of_a_unistochastic_one_is_hopeless(dim, key, shift):
    # Haar |U|^2, and the same moved entrywise by up to tol (kept >= 0):
    # the search could accept either, so neither may skip the doubling blocks.
    rng = np.random.default_rng(key)
    gamma = unistochastic_of(haar_unitary(dim, rng))
    moved = np.clip(gamma + shift * DIVISION_TOL * rng.choice([-1.0, 1.0], gamma.shape), 0.0, None)
    assert _chain_links_slack(moved, DIVISION_TOL) >= 0


def test_inputs_with_no_unitary_are_hopeless_and_tiny_ones_never():
    j_minus_i = (np.ones((3, 3)) - np.eye(3)) / 2
    embedded = np.eye(4)
    embedded[:3, :3] = j_minus_i
    for gamma in (j_minus_i, embedded, WITNESS_3X3):
        assert _chain_links_slack(gamma, DIVISION_TOL) < 0
    # d = 1 has no pair to check; every 2x2 doubly stochastic matrix is unistochastic.
    assert _chain_links_slack(np.ones((1, 1)), DIVISION_TOL) >= 0
    for a in np.linspace(0.0, 1.0, 11):
        assert _chain_links_slack(np.array([[a, 1 - a], [1 - a, a]]), DIVISION_TOL) >= 0


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8, "1e-3", None])
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


@pytest.mark.parametrize(
    "total, first, message",
    [  # the oversized matrix is not even stochastic: the cap comes before its probability rule
        (np.ones((2, MAX_DIM + 1)), np.eye(MAX_DIM + 1), f"^gamma_total is 2x{MAX_DIM + 1}; "),
        (np.eye(2), np.ones((MAX_DIM + 1, 2)), f"^gamma_first is {MAX_DIM + 1}x2; "),
    ],
    ids=["gamma_total", "gamma_first"],
)
def test_divide_rejects_sides_above_max_dim_before_the_probability_rule(total, first, message):
    with pytest.raises(ValueError, match=message + f"sides above {MAX_DIM} are not supported$"):
        divide_report(total, first)


def test_dilation_rejects_a_non_integral_seed():
    with pytest.raises(ValueError, match="seed must be an integer"):
        dilation_report(UNIFORMIZER, seed=0.5)
    a, b = dilation_report(UNIFORMIZER, seed=3.0), dilation_report(UNIFORMIZER, seed=3)
    assert np.array_equal(a.unitary, b.unitary) and a.residual == b.residual


@pytest.mark.parametrize(
    "gamma, kwargs, message",
    [(np.full((2, 3), 0.5), {}, r"^gamma must be square, got shape \(2, 3\)$"),
     (np.full(4, 0.25), {}, r"^gamma must be square, got shape \(4,\)$"),
     (UNIFORMIZER, {"max_restarts": 0}, "^max_restarts must be positive$"),
     (np.array([[np.nan, 0.5], [0.5, 0.5]]), {}, "^gamma must be doubly stochastic: "),
     (np.array([[1.5, -0.5], [-0.5, 1.5]]), {}, "^gamma must be doubly stochastic: ")],
)
def test_dilation_rejects_a_non_square_gamma_and_no_restarts(gamma, kwargs, message):
    with pytest.raises(ValueError, match=message):
        dilation_report(gamma, **kwargs)


@st.composite
def birkhoff_gammas(draw):
    """A mixture of permutation matrices, sometimes with an entry, a column
    or a row nudged by an amount on either side of the rule's slacks."""
    side = draw(st.integers(2, 6))
    perms = draw(st.lists(st.permutations(range(side)), min_size=1, max_size=4))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(perms), max_size=len(perms))))
    gamma = sum(w * np.eye(side)[list(p)] for w, p in zip(weights / weights.sum(), perms))
    kind = draw(st.sampled_from(["none", "entry", "column", "row"]))
    delta = draw(st.sampled_from([-5e-2, -1e-9, -5e-11, -5e-13, 5e-13, 5e-11, 2e-10, 5e-9, 5e-2]))
    i, j = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
    if kind == "entry":
        gamma[i, j] += delta
    elif kind == "column":
        gamma[:, j] *= 1 + delta
    elif kind == "row":
        gamma[i, :] *= 1 + delta
    return gamma


@settings(max_examples=60, deadline=None)
@given(birkhoff_gammas())
def test_dilation_input_rule_does_not_depend_on_tol(gamma):
    try:
        as_stochastic_matrix(gamma)
        as_probabilities(gamma, 2, 1, "gamma", "have rows summing to 1")
        rejected = False
    except ValueError:
        rejected = True
    for tol in (1e-12, 1e-8, 1e-3, 0.5):
        if rejected:
            with pytest.raises(ValueError, match="^gamma must be doubly stochastic: gamma"):
                dilation_report(gamma, tol=tol, max_restarts=1)
        else:
            dilation_report(gamma, tol=tol, max_restarts=1)


def test_dilation_reads_max_restarts_as_an_integer():
    a = dilation_report(WITNESS_3X3, max_restarts=2.0, seed=5)
    b = dilation_report(WITNESS_3X3, max_restarts=2, seed=5)
    assert a.unitary is None and b.unitary is None and a.residual == b.residual
    with pytest.raises(ValueError, match=r"^max_restarts must be an integer, got 2\.5$"):
        dilation_report(WITNESS_3X3, max_restarts=2.5)
