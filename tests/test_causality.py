from itertools import product

import numpy as np
import pytest

from chshkit import causality, game
from chshkit.causality import (
    as_joint_conditional,
    causally_independent,
    correlated_noise_joint,
    influences,
    joint_from_unitary,
    marginal_q,
    marginal_r,
    non_interacting,
    one_way_copy_joint,
    product_joint,
    swap_joint,
)
from chshkit.game import as_correlation_box
from chshkit.linalg import haar_unitary, tensor
from chshkit.stochastic import divide_report, qcor, unistochastic_of


def random_stochastic(dim, rng):
    return rng.dirichlet(np.ones(dim), size=dim).T


def random_joint(dq, dr, rng):
    """Generic joint conditional: independent outcome distribution per start."""
    table = np.zeros((dq, dr, dq, dr))
    for q0 in range(dq):
        for r0 in range(dr):
            table[:, :, q0, r0] = rng.dirichlet(np.ones(dq * dr)).reshape(dq, dr)
    return table


def test_marginal_of_identity_product():
    joint = product_joint(np.eye(2), np.eye(2))
    m = marginal_q(joint)
    for qt in range(2):
        for q0 in range(2):
            for r0 in range(2):
                assert m[qt, q0, r0] == (1.0 if qt == q0 else 0.0)


def test_marginal_of_swap_tracks_remote_start():
    m = marginal_q(swap_joint(2))
    for qt in range(2):
        for q0 in range(2):
            for r0 in range(2):
                assert m[qt, q0, r0] == (1.0 if qt == r0 else 0.0)


def test_marginal_r_mirrors_marginal_q():
    rng = np.random.default_rng(2)
    joint = random_joint(2, 3, rng)
    m = marginal_r(joint)
    for rt in range(3):
        for q0 in range(2):
            for r0 in range(3):
                assert m[rt, q0, r0] == pytest.approx(joint[:, rt, q0, r0].sum(), abs=1e-15)


def test_marginal_of_factorized_unitary_dynamics():
    rng = np.random.default_rng(3)
    ua = haar_unitary(2, rng)
    ub = haar_unitary(3, rng)
    joint = joint_from_unitary(tensor(ua, ub), (2, 3))
    ga = unistochastic_of(ua)
    m = marginal_q(joint)
    for qt in range(2):
        for q0 in range(2):
            for r0 in range(3):
                assert m[qt, q0, r0] == pytest.approx(ga[qt, q0], abs=1e-12)


def test_factorized_joint_influences_neither_way():
    rng = np.random.default_rng(5)
    joint = product_joint(random_stochastic(2, rng), random_stochastic(2, rng))
    assert not influences(joint, "r_on_q")
    assert not influences(joint, "q_on_r")
    assert causally_independent(joint)
    assert non_interacting(joint)


def test_swap_influences_both_ways():
    joint = swap_joint(2)
    assert influences(joint, "r_on_q")
    assert influences(joint, "q_on_r")
    assert not causally_independent(joint)
    assert not non_interacting(joint)


def test_one_way_copy_influences_exactly_one_direction():
    joint = one_way_copy_joint(2)
    assert influences(joint, "q_on_r")
    assert not influences(joint, "r_on_q")
    assert not causally_independent(joint)


def test_correlated_noise_is_independent_but_interacting():
    joint = correlated_noise_joint()
    # Shared randomness flips both bits together: no influence either way,
    # yet the joint does not factorize.  Non-interaction is strictly stronger.
    assert causally_independent(joint)
    assert not non_interacting(joint)


def test_influence_direction_validation():
    with pytest.raises(ValueError):
        influences(swap_joint(2), "sideways")


def test_joint_from_identity_unitary():
    joint = joint_from_unitary(np.eye(4), (2, 2))
    assert np.array_equal(joint, product_joint(np.eye(2), np.eye(2)))


def test_joint_from_swap_unitary():
    swap = np.zeros((4, 4), dtype=complex)
    for q in range(2):
        for r in range(2):
            swap[r * 2 + q, q * 2 + r] = 1.0
    assert np.array_equal(joint_from_unitary(swap, (2, 2)), swap_joint(2))


def test_joint_from_cnot_copies_parity_one_way():
    # Permutation taking (q0, r0) to (q0, r0 xor q0): a one-way copy of parity.
    cnot = np.zeros((4, 4), dtype=complex)
    for q in range(2):
        for r in range(2):
            cnot[q * 2 + (r ^ q), q * 2 + r] = 1.0
    joint = joint_from_unitary(cnot, (2, 2))
    expected = np.zeros((2, 2, 2, 2))
    for q0 in range(2):
        for r0 in range(2):
            expected[q0, r0 ^ q0, q0, r0] = 1.0
    assert np.array_equal(joint, expected)
    assert influences(joint, "q_on_r")
    assert not influences(joint, "r_on_q")


def test_joint_from_unitary_validates_inputs():
    with pytest.raises(ValueError):
        joint_from_unitary(np.eye(4), (2, 3))
    with pytest.raises(ValueError):
        joint_from_unitary(np.ones((4, 4)), (2, 2))
    with pytest.raises(ValueError, match=r"^dims must be positive, got \(0, 4\)$"):
        joint_from_unitary(np.eye(4), (0, 4))
    for gamma_q, gamma_r in ((np.full((3, 2), 1.0 / 3.0), np.eye(2)), (np.eye(2), np.full((2, 1), 0.5))):
        with pytest.raises(ValueError, match="^marginal dynamics must be square to form a joint"):
            product_joint(gamma_q, gamma_r)


def test_joint_from_unitary_is_always_normalized():
    rng = np.random.default_rng(7)
    for dims in ((2, 2), (2, 3), (3, 2)):
        u = haar_unitary(dims[0] * dims[1], rng)
        as_joint_conditional(joint_from_unitary(u, dims))


def test_factorized_unitary_joint_factorizes_entrywise():
    rng = np.random.default_rng(11)
    for dims in ((2, 2), (2, 3)):
        ua = haar_unitary(dims[0], rng)
        ub = haar_unitary(dims[1], rng)
        joint = joint_from_unitary(tensor(ua, ub), dims)
        expected = np.einsum("ac,bd->abcd", unistochastic_of(ua), unistochastic_of(ub))
        assert np.max(np.abs(joint - expected)) <= 1e-12
        assert non_interacting(joint)


def test_influence_verdicts_invariant_under_relabeling():
    rng = np.random.default_rng(13)
    for _ in range(20):
        joint = random_joint(3, 2, rng)
        verdicts = (influences(joint, "r_on_q"), influences(joint, "q_on_r"))
        perm_q = rng.permutation(3)
        perm_r = rng.permutation(2)
        relabeled = joint[np.ix_(perm_q, perm_r, perm_q, perm_r)]
        assert (influences(relabeled, "r_on_q"), influences(relabeled, "q_on_r")) == verdicts


def test_non_interacting_implies_causally_independent():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dq, dr = rng.integers(2, 4, size=2)
        joint = product_joint(random_stochastic(dq, rng), random_stochastic(dr, rng))
        # Perturb within normalization to exercise the tolerance path.
        joint = 0.999 * joint + 0.001 * random_joint(dq, dr, rng)
        if non_interacting(joint, tol=1e-2):
            assert causally_independent(joint, tol=1e-2)


def test_joint_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        as_joint_conditional(np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        as_joint_conditional(np.zeros((2, 2, 2, 3)))


def test_joint_from_unitary_reads_dims_as_two_integers():
    assert np.array_equal(joint_from_unitary(np.eye(4), (2.0, 2.0)), joint_from_unitary(np.eye(4), (2, 2)))
    with pytest.raises(ValueError, match=r"^dims\[0\] must be an integer, got 2\.5$"):
        joint_from_unitary(np.eye(4), (2.5, 2))
    with pytest.raises(ValueError, match=r"^dims must be two local dimensions, got \(2, 2, 7\)$"):
        joint_from_unitary(np.eye(4), (2, 2, 7))


@pytest.mark.parametrize("build", [swap_joint, one_way_copy_joint])
def test_deterministic_joints_read_dim_as_a_positive_integer(build):
    assert np.array_equal(build(3.0), build(3))
    with pytest.raises(ValueError, match=r"^dim must be positive, got 0$"):
        build(0)
    with pytest.raises(ValueError, match=r"^dim must be an integer, got 1\.5$"):
        build(1.5)


@pytest.mark.parametrize(
    "check",
    [
        lambda j: influences(j, "r_on_q"),
        lambda j: influences(j, "q_on_r"),
        causally_independent,
        non_interacting,
    ],
)
def test_each_causality_check_validates_its_table_once(monkeypatch, check):
    calls = []

    def counting(table, name="joint"):
        calls.append(name)
        return as_joint_conditional(table, name)

    monkeypatch.setattr(causality, "as_joint_conditional", counting)
    check(product_joint(np.eye(2), np.eye(3)))
    assert calls == ["joint"]


def test_signaling_witness_validates_its_box_once(monkeypatch):
    calls = []

    def counting(box, name="box"):
        calls.append(name)
        return as_correlation_box(box, name)

    monkeypatch.setattr(game, "as_correlation_box", counting)
    assert game.signaling_witness(game.ns_box(0.5)) is None
    assert calls == ["box"]


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
PAULI_Z = np.diag([1.0, -1.0])


@pytest.fixture
def pr_box_process():
    """A process whose box is the PR box although every one-step test passes.

    The state is ``(|++> + i|-->) / sqrt(2)``.  Input pair ``(x, y)`` applies
    ``U_xy = H (x) H``, except ``U_11 = H (x) HZ``: Bob's factor depends on
    Alice's input, through a phase that ``|U|^2`` does not show.
    """
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)
    state = (np.kron(plus, plus) + 1j * np.kron(minus, minus)) / np.sqrt(2.0)
    unitaries = {xy: tensor(HADAMARD, HADAMARD) for xy in product((0, 1), repeat=2)}
    unitaries[1, 1] = tensor(HADAMARD, HADAMARD @ PAULI_Z)
    box = np.zeros((2, 2, 2, 2))
    for (x, y), u in unitaries.items():
        box[:, :, x, y] = (np.abs(u @ state) ** 2).reshape(2, 2)
    return box, unitaries


def test_pr_box_process_gives_the_pr_box_without_signaling(pr_box_process):
    box, _ = pr_box_process
    assert np.max(np.abs(box - game.ns_box(1.0))) <= 1e-15
    assert game.signaling_witness(box) is None


def test_pr_box_process_passes_every_one_step_test(pr_box_process):
    _, unitaries = pr_box_process
    for u in unitaries.values():
        joint = joint_from_unitary(u, (2, 2))
        assert non_interacting(joint)
        assert causally_independent(joint)
        assert not influences(joint, "r_on_q")
        assert not influences(joint, "q_on_r")


def test_pr_box_process_carries_the_remote_input_in_a_phase(pr_box_process):
    _, unitaries = pr_box_process
    u_11, phase = unitaries[1, 1], tensor(np.eye(2), PAULI_Z)
    assert np.array_equal(np.abs(HADAMARD @ PAULI_Z) ** 2, np.abs(HADAMARD) ** 2)
    assert not qcor(u_11, phase).any()
    assert divide_report(np.abs(u_11) ** 2, np.abs(phase) ** 2).quotient is not None
