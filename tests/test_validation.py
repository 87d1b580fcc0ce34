"""The shared probability-table rule, checked through every validator that uses it.

Entries must be finite probabilities in [0, 1] within 1e-12 and sums must be
1 within 1e-10; negatives inside the slack are clipped to exactly zero.  The
same holds for the other shared input rules: every tolerance a check accepts
must be finite and positive, and every bit must be exactly 0 or 1.
"""

import math
from itertools import product

import numpy as np
import pytest

from chshkit.causality import (
    as_joint_conditional,
    causally_independent,
    influences,
    non_interacting,
    swap_joint,
)
from chshkit.game import (
    Deterministic,
    SharedRandomness,
    as_correlation_box,
    as_input_distribution,
    box_of_strategy,
    is_no_signaling,
    signaling_witness,
)
from chshkit.linalg import basis_state
from chshkit.stochastic import as_stochastic_matrix
from chshkit.tsirelson import QuantumSetup

_PURE = (Deterministic((0, 0), (0, 0)), Deterministic((1, 1), (1, 1)))


def _mixture_weights(weights):
    mixture = SharedRandomness(tuple(zip(np.asarray(weights).tolist(), _PURE)))
    return np.array([w for w, _ in mixture.mixture])


# (validator, valid table, wrong-shape table, index of a 0 entry, index of a 1 entry)
VALIDATORS = {
    "correlation_box": (
        as_correlation_box,
        box_of_strategy(Deterministic((0, 0), (0, 0))),
        np.full((2, 2, 2), 0.5),
        (1, 1, 0, 0),
        (0, 0, 0, 0),
    ),
    "input_distribution": (
        as_input_distribution,
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.full(4, 0.25),
        (0, 1),
        (0, 0),
    ),
    "mixture_weights": (_mixture_weights, np.array([1.0, 0.0]), np.array([]), (1,), (0,)),
    "stochastic_matrix": (
        as_stochastic_matrix,
        np.array([[1.0, 0.5], [0.0, 0.5]]),
        np.array([1.0]),
        (1, 0),
        (0, 0),
    ),
    "joint_conditional": (
        as_joint_conditional,
        swap_joint(2),
        np.full((2, 2, 2, 3), 1 / 6),
        (0, 0, 0, 1),
        (1, 0, 0, 1),
    ),
}


def _with(table, index, value):
    out = np.array(table, dtype=float)
    out[index] = value
    return out


def _bad_tables(kind):
    _, valid, wrong_shape, zero, one = VALIDATORS[kind]
    return {
        "wrong shape": wrong_shape,
        "nan": _with(valid, one, np.nan),
        "negative": _with(valid, zero, -2e-11),
        "sum off": _with(valid, one, 1.0 - 1e-9),
        "entry above one": _with(valid, one, 1.0 + 5e-11),
    }


#: Tables that the per-module validator copies let through: only stochastic
#: matrices had an upper entry bound, and a NaN mixture weight made the weight
#: sum NaN, which no ``> tol`` comparison rejects.
NEWLY_REJECTED = {(kind, "entry above one") for kind in VALIDATORS if kind != "stochastic_matrix"}
NEWLY_REJECTED.add(("mixture_weights", "nan"))


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
def test_validator_rejects_bad_tables_and_clips_round_off(kind):
    validate, valid, _, zero, _ = VALIDATORS[kind]
    bad = {k: v for k, v in _bad_tables(kind).items() if (kind, k) not in NEWLY_REJECTED}
    for label, table in bad.items():
        with pytest.raises(ValueError):
            validate(table)
            pytest.fail(f"{kind} accepted a table with a {label}")
    cleaned = validate(_with(valid, zero, -1e-13))
    assert np.array_equal(cleaned, valid)
    assert not np.signbit(cleaned).any()


@pytest.mark.parametrize("kind, label", sorted(NEWLY_REJECTED))
def test_validator_rejects_what_the_old_copies_accepted(kind, label):
    with pytest.raises(ValueError):
        VALIDATORS[kind][0](_bad_tables(kind)[label])


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
def test_validator_keeps_entry_within_slack_above_one(kind):
    validate, valid, _, _, one = VALIDATORS[kind]
    table = _with(valid, one, 1.0 + 1e-13)
    assert np.array_equal(validate(table), table)


def _echo_box():
    """Alice echoes Bob's input: a signaling box."""
    box = np.zeros((2, 2, 2, 2))
    for x, y, r in product((0, 1), repeat=3):
        box[y, r, x, y] = 0.5
    return box


#: Checks that compare against a tolerance, each on an input that fails it.
TOLERANT_CHECKS = {
    "is_no_signaling": lambda tol: is_no_signaling(_echo_box(), tol=tol),
    "signaling_witness": lambda tol: signaling_witness(_echo_box(), tol=tol),
    "influences": lambda tol: influences(swap_joint(2), "r_on_q", tol=tol),
    "causally_independent": lambda tol: causally_independent(swap_joint(2), tol=tol),
    "non_interacting": lambda tol: non_interacting(swap_joint(2), tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9, "1e-3", None])
@pytest.mark.parametrize("check", sorted(TOLERANT_CHECKS))
def test_checks_reject_bad_tolerance(check, tol):
    with pytest.raises(ValueError, match="tol"):
        TOLERANT_CHECKS[check](tol)


def _setup(**outcomes):
    eye = np.eye(2)
    return QuantumSetup(basis_state(4, 0), eye, eye, eye, eye, **outcomes)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Deterministic((0.7, 1), (0, 0)),
        lambda: Deterministic((0, 0), (1, 0.5)),
        lambda: Deterministic((0, 1), ("1", 0)),
        lambda: _setup(alice_outcome=(0.9, 1.2)),
        lambda: _setup(bob_outcome=(0, 1.5)),
    ],
    ids=["q_of_x", "r_of_y", "string_bit", "alice_outcome", "bob_outcome"],
)
def test_non_integral_bits_are_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_integral_bits_are_stored_as_ints():
    det = Deterministic((1.0, np.int64(0)), (True, 0))
    assert det.q_of_x == (1, 0) and det.r_of_y == (1, 0)
    assert all(type(b) is int for b in det.q_of_x + det.r_of_y)
    assert _setup(alice_outcome=(1.0, 0.0)).alice_outcome == (1, 0)


@pytest.mark.parametrize("container", [tuple, list, np.array], ids=["tuple", "list", "array"])
def test_outcome_map_accepts_any_sequence(container):
    setup = _setup(alice_outcome=container([1, 0]), bob_outcome=container([0, 0]))
    assert setup.alice_outcome == (1, 0) and setup.bob_outcome == (0, 0)
    assert all(type(b) is int for b in setup.alice_outcome + setup.bob_outcome)
    with pytest.raises(ValueError, match=r"^alice_outcome must be 2 bits \(0 or 1\), got \(\)$"):
        _setup(alice_outcome=container([]))  # empty is a map of no bits; only None is "not given"
    assert _setup(alice_outcome=None).alice_outcome == (0, 1)


#: Each strategy field holding bits, as a constructor of that field alone.
BIT_FIELDS = {
    "q_of_x": lambda bits: Deterministic(bits, (0, 0)).q_of_x,
    "r_of_y": lambda bits: Deterministic((0, 0), bits).r_of_y,
    "alice_outcome": lambda bits: _setup(alice_outcome=bits).alice_outcome,
    "bob_outcome": lambda bits: _setup(bob_outcome=bits).bob_outcome,
}


@pytest.mark.parametrize("field", sorted(BIT_FIELDS))
def test_deterministic_and_outcome_maps_share_one_bit_policy(field):
    make = BIT_FIELDS[field]
    assert make((1.0, 0)) == (1, 0)
    assert make(np.array([0, 1])) == (0, 1)
    for bad in (0.9, 2):
        with pytest.raises(ValueError) as err:
            make((1, bad))
        assert str(err.value) == f"{field} must be 2 bits (0 or 1), got (1, {bad!r})"
