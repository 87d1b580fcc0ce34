"""The operator route against a joint-space projector oracle.

``chsh_operator`` is built from each side's local +-1 observable, the
library's ``tsirelson._local_dichotomic``; so are ``dichotomic`` and
``outcome_observable`` below, which pad it to the joint space.  The oracle
builds them the other way: one coarse-grained outcome projector per side,
setting and bit, conjugated by the local unitary and padded to the joint
space, with the observables formed as differences and products of those
joint projectors.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshkit import tsirelson
from chshkit.tsirelson import MAX_JOINT_DIM, chsh_operator, random_setup

ORACLE_TOL = 1e-13

DIMS = [
    (da, db)
    for da in range(1, MAX_JOINT_DIM + 1)
    for db in range(1, MAX_JOINT_DIM + 1)
    if da * db <= MAX_JOINT_DIM
]


def dichotomic(side, setting, setup):
    """One side's +-1 observable from the library's kernel, padded with the identity on the other side."""
    if side == "a":
        local = tsirelson._local_dichotomic((setup.a0, setup.a1)[setting], setup.alice_outcome)
        return np.kron(local, np.eye(setup.dim_b))
    local = tsirelson._local_dichotomic((setup.b0, setup.b1)[setting], setup.bob_outcome)
    return np.kron(np.eye(setup.dim_a), local)


def outcome_observable(side, setting, outcome, setup):
    """Projector for one side reporting ``outcome``: ``(1 + s) / 2`` for 0 and
    ``(1 - s) / 2`` for 1, where ``s`` is the side's ``dichotomic``."""
    s = dichotomic(side, setting, setup)
    return (np.eye(s.shape[0]) + (1 - 2 * outcome) * s) / 2.0


def oracle_outcome_observable(side, setting, outcome, setup):
    u = {"a": (setup.a0, setup.a1), "b": (setup.b0, setup.b1)}[side][setting]
    outcome_map = setup.alice_outcome if side == "a" else setup.bob_outcome
    mask = np.array([1.0 if b == outcome else 0.0 for b in outcome_map])
    local = u.conj().T @ (mask[:, None] * u)
    if side == "a":
        return np.kron(local, np.eye(setup.dim_b, dtype=complex))
    return np.kron(np.eye(setup.dim_a, dtype=complex), local)


def oracle_dichotomic(side, setting, setup):
    return oracle_outcome_observable(side, setting, 0, setup) - oracle_outcome_observable(
        side, setting, 1, setup
    )


def oracle_chsh_operator(setup):
    sa0, sa1 = (oracle_dichotomic("a", x, setup) for x in (0, 1))
    sb0, sb1 = (oracle_dichotomic("b", y, setup) for y in (0, 1))
    return sa0 @ (sb0 + sb1) + sa1 @ (sb0 - sb1)


def outcome_maps(d):
    """Random bit maps, with the two constant maps drawn as often as any other."""
    return st.one_of(
        st.just((0,) * d),
        st.just((1,) * d),
        st.lists(st.integers(0, 1), min_size=d, max_size=d).map(tuple),
    )


@st.composite
def setups(draw):
    da, db = draw(st.sampled_from(DIMS))
    setup = random_setup((da, db), np.random.default_rng(draw(st.integers(0, 2**32))))
    return dataclasses.replace(
        setup, alice_outcome=draw(outcome_maps(da)), bob_outcome=draw(outcome_maps(db))
    )


def assert_matches_oracle(setup):
    for side in ("a", "b"):
        for setting in (0, 1):
            got = dichotomic(side, setting, setup)
            assert np.max(np.abs(got - oracle_dichotomic(side, setting, setup))) <= ORACLE_TOL
            for outcome in (0, 1):
                got = outcome_observable(side, setting, outcome, setup)
                want = oracle_outcome_observable(side, setting, outcome, setup)
                assert np.max(np.abs(got - want)) <= ORACLE_TOL
    assert np.max(np.abs(chsh_operator(setup) - oracle_chsh_operator(setup))) <= ORACLE_TOL


@settings(max_examples=150, deadline=None)
@given(setup=setups())
def test_operator_route_matches_projector_oracle(setup):
    assert_matches_oracle(setup)


@pytest.mark.parametrize("dims", DIMS)
def test_operator_route_matches_oracle_on_every_dims_with_constant_maps(dims):
    rng = np.random.default_rng(dims[0] * 100 + dims[1])
    setup = random_setup(dims, rng)
    assert_matches_oracle(setup)
    for bit in (0, 1):
        constant = dataclasses.replace(
            setup, alice_outcome=(bit,) * dims[0], bob_outcome=(1 - bit,) * dims[1]
        )
        assert_matches_oracle(constant)


def test_optimize_validates_each_block_once_and_builds_one_setup(monkeypatch):
    unitaries, states, built = [], [], []
    assert_unitaries, as_state_vectors = tsirelson.assert_unitaries, tsirelson.as_state_vectors
    post_init = tsirelson.QuantumSetup.__post_init__

    def counting_assert_unitaries(*args):
        unitaries.append(args)
        return assert_unitaries(*args)

    def counting_as_state_vectors(*args):
        states.append(args)
        return as_state_vectors(*args)

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(tsirelson, "assert_unitaries", counting_assert_unitaries)
    monkeypatch.setattr(tsirelson, "as_state_vectors", counting_as_state_vectors)
    monkeypatch.setattr(tsirelson.QuantumSetup, "__post_init__", counting_post_init)
    result = tsirelson.optimize((2, 2), restarts=tsirelson._RESTART_BLOCK + 5)
    assert len(result.restart_scores) == tsirelson._RESTART_BLOCK + 5
    # Four fields, on the starts and on the results, of each of the two blocks.
    assert len(unitaries) == 4 * 2 * 2
    assert len(states) == 2 * 2
    assert len(built) == 1 and built[0] is result.setup
