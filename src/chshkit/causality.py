"""Bipartite stochastic dynamics and probabilistic causal-influence tests.

A joint conditional is a 4-index table ``p[q_t, r_t, q_0, r_0]``: the
probability of ending in the composite configuration ``(q_t, r_t)`` given the
start ``(q_0, r_0)``.  Influence, independence and non-interaction are read
off the marginals; the tests are purely probabilistic, with spacelike
separation left as protocol metadata of the caller.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .linalg import as_probabilities, as_tolerance, assert_unitary
from .stochastic import as_stochastic_matrix

#: Default influence tolerance; table entries are products of at most four
#: double-precision factors.
INFLUENCE_TOL = 1e-9

Direction = Literal["r_on_q", "q_on_r"]


def as_joint_conditional(table, name: str = "joint") -> np.ndarray:
    """Validate a joint conditional table and return a cleaned float copy."""
    shape = np.shape(table)
    if len(shape) != 4 or shape[:2] != shape[2:]:
        raise ValueError(
            f"{name} must have shape (dq, dr, dq, dr) indexed [q_t, r_t, q_0, r_0], got {shape}"
        )
    return as_probabilities(table, 4, (0, 1), name, "be normalized per initial configuration")


def marginal_q(joint) -> np.ndarray:
    """Mixed dynamics of the first subsystem: ``p[q_t, q_0, r_0]``."""
    return as_joint_conditional(joint).sum(axis=1)


def marginal_r(joint) -> np.ndarray:
    """Mixed dynamics of the second subsystem: ``p[r_t, q_0, r_0]``."""
    return as_joint_conditional(joint).sum(axis=0)


def influences(joint, direction: Direction, tol: float = INFLUENCE_TOL) -> bool:
    """Whether one subsystem's start genuinely steers the other's marginal.

    ``"r_on_q"`` asks whether ``p(q_t | q_0, r_0)`` varies with ``r_0``;
    ``"q_on_r"`` asks whether ``p(r_t | q_0, r_0)`` varies with ``q_0``.
    Constancy in the remote index is the operational test: the one-argument
    conditional exists exactly when the marginal does not depend on it.
    """
    tol = as_tolerance(tol)
    if direction == "r_on_q":
        m = marginal_q(joint)
        remote_axis = 2
    elif direction == "q_on_r":
        m = marginal_r(joint)
        remote_axis = 1
    else:
        raise ValueError(f"direction must be 'r_on_q' or 'q_on_r', got {direction!r}")
    spread = m.max(axis=remote_axis) - m.min(axis=remote_axis)
    return bool(spread.max() > tol)


def causally_independent(joint, tol: float = INFLUENCE_TOL) -> bool:
    """True iff neither subsystem influences the other."""
    return not influences(joint, "r_on_q", tol) and not influences(joint, "q_on_r", tol)


def non_interacting(joint, tol: float = INFLUENCE_TOL) -> bool:
    """True iff the joint dynamics factorize into the two marginal dynamics.

    Strictly stronger than causal independence: the marginals must first be
    constant in the remote start index, and the joint table must then equal
    their product entrywise.  A shared random disturbance can leave both
    marginals remote-independent while the joint still fails to factorize.
    """
    tol = as_tolerance(tol)
    j = as_joint_conditional(joint)
    if not causally_independent(j, tol):
        return False
    pq = marginal_q(j).mean(axis=2)  # constant in r_0 within tol; average it out
    pr = marginal_r(j).mean(axis=1)
    product = np.einsum("ac,bd->abcd", pq, pr)
    return bool(np.max(np.abs(j - product)) <= tol)


def joint_from_unitary(u, dims: tuple[int, int]) -> np.ndarray:
    """Joint conditional of a composite unitary evolution.

    ``table[q_t, r_t, q_0, r_0]`` is the squared modulus of the matrix entry
    between composite configuration-basis vectors, with the row-major index
    convention ``(q, r) -> q * dims[1] + r``.
    """
    dq, dr = int(dims[0]), int(dims[1])
    if dq < 1 or dr < 1:
        raise ValueError(f"dims must be positive, got {dims!r}")
    a = assert_unitary(u, name="u")
    if a.shape[0] != dq * dr:
        raise ValueError(
            f"dimension mismatch: u is {a.shape[0]}x{a.shape[1]} but dims {dims!r} "
            f"imply {dq * dr}"
        )
    return (np.abs(a) ** 2).reshape(dq, dr, dq, dr)


def product_joint(gamma_q, gamma_r) -> np.ndarray:
    """Non-interacting joint built from two marginal stochastic matrices."""
    gq = as_stochastic_matrix(gamma_q, "gamma_q")
    gr = as_stochastic_matrix(gamma_r, "gamma_r")
    if gq.shape[0] != gq.shape[1] or gr.shape[0] != gr.shape[1]:
        raise ValueError("marginal dynamics must be square to form a joint conditional")
    return np.einsum("ac,bd->abcd", gq, gr)


def swap_joint(dim: int) -> np.ndarray:
    """Joint dynamics that exchange the two subsystems' configurations."""
    table = np.zeros((dim, dim, dim, dim))
    for q0 in range(dim):
        for r0 in range(dim):
            table[r0, q0, q0, r0] = 1.0
    return table


def one_way_copy_joint(dim: int) -> np.ndarray:
    """Joint dynamics that keep the first subsystem and copy it onto the second."""
    table = np.zeros((dim, dim, dim, dim))
    for q0 in range(dim):
        for r0 in range(dim):
            table[q0, q0, q0, r0] = 1.0
    return table


def correlated_noise_joint() -> np.ndarray:
    """Two bits flipped together by a shared coin: equal mixture of
    both-flip and neither-flips.

    Each marginal is uniform regardless of either start, so the subsystems
    are causally independent, yet the joint does not factorize.
    """
    table = np.zeros((2, 2, 2, 2))
    for q0 in range(2):
        for r0 in range(2):
            table[q0, r0, q0, r0] += 0.5
            table[1 - q0, 1 - r0, q0, r0] += 0.5
    return table
