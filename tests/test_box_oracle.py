"""The box route against the per-input-pair loop it replaced.

``game._quantum_box`` forms ``|A_x Psi B_y^T|^2`` for all four input pairs in
one stacked product and coarse-grains it with one-hot rows of the outcome
maps.  The oracle below is the loop it replaced: one joint operator
``A_x kron B_y`` per input pair through ``linalg.tensor``, applied to the
state, then one masked sum per outcome pair, an empty mask giving zero.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from chshkit import game
from chshkit.linalg import tensor
from chshkit.tsirelson import canonical_setup, random_setup
from test_operator_oracle import DIMS, setups

#: Each box entry is a probability, at most 1, summed from squared moduli of
#: amplitudes that each route rounds in its own order; a few ulps of 1 bound
#: the difference.
BOX_TOL = 8 * np.finfo(float).eps


def oracle_box(setup):
    da, db = setup.dim_a, setup.dim_b
    a_sel = [np.array([k for k, b in enumerate(setup.alice_outcome) if b == bit]) for bit in (0, 1)]
    b_sel = [np.array([k for k, b in enumerate(setup.bob_outcome) if b == bit]) for bit in (0, 1)]
    box = np.zeros((2, 2, 2, 2))
    for x, a in enumerate((setup.a0, setup.a1)):
        for y, b in enumerate((setup.b0, setup.b1)):
            weight = (np.abs(tensor(a, b) @ setup.state) ** 2).reshape(da, db)
            for q in (0, 1):
                for r in (0, 1):
                    if a_sel[q].size and b_sel[r].size:
                        box[q, r, x, y] = float(weight[np.ix_(a_sel[q], b_sel[r])].sum())
    return box


def assert_matches_oracle(setup):
    box = game.box_of_strategy(setup)
    assert np.max(np.abs(box - oracle_box(setup))) <= BOX_TOL


@settings(max_examples=150, deadline=None)
@given(setup=setups())
def test_box_route_matches_loop_oracle(setup):
    assert_matches_oracle(setup)


@pytest.mark.parametrize("dims", DIMS)
def test_box_route_matches_oracle_on_every_dims_with_constant_maps(dims):
    setup = random_setup(dims, np.random.default_rng(dims[0] * 100 + dims[1]))
    assert_matches_oracle(setup)
    for bit in (0, 1):
        constant = dataclasses.replace(
            setup, alice_outcome=(bit,) * dims[0], bob_outcome=(1 - bit,) * dims[1]
        )
        assert_matches_oracle(constant)
        # Alice never reports 1 - bit and Bob never reports bit.
        box = game.box_of_strategy(constant)
        assert not box[1 - bit].any() and not box[:, bit].any()


def test_box_route_reads_no_operator():
    assert not hasattr(game, "tensor")
    assert not hasattr(game, "chsh_operator") and not hasattr(game, "_local_dichotomic")


def test_outcome_cumulatives_follow_the_row_and_column_order():
    box = game.ns_box(0.3) * 0.5 + game.box_of_strategy(canonical_setup()) * 0.5
    cum = game._outcome_cumulatives(box)
    for x, y in np.ndindex(2, 2):
        pmf = [box[q, r, x, y] for q, r in np.ndindex(2, 2)]
        assert np.array_equal(cum[2 * x + y, :3], np.cumsum(pmf)[:3])
        assert cum[2 * x + y, 3] == 1.0
