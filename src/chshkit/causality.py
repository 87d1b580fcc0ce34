"""Bipartite stochastic dynamics and probabilistic causal-influence tests.

A joint conditional is a 4-index table ``p[q_t, r_t, q_0, r_0]``: the
probability of ending in the composite configuration ``(q_t, r_t)`` given the
start ``(q_0, r_0)``.  Influence, independence and non-interaction are read
off the marginals; the tests are purely probabilistic, with spacelike
separation left as protocol metadata of the caller.

What ``influences``, ``causally_independent`` and ``non_interacting`` decide
is one step's configuration-to-configuration influence.  A unitary step
enters only through ``|U|^2``, so a dependence on the remote setting that is
carried by phases is invisible to them: ``|HZ|^2 = |H|^2``.  Applying
``H (x) H`` for three input pairs and ``H (x) HZ`` for the fourth gives the
PR box from ``(|++> + i|-->) / sqrt(2)``, and every one of those steps passes
``non_interacting``.  What holds a ``QuantumSetup`` to the Tsirelson bound
is its structure: Alice's unitary is indexed by her input only and Bob's by
his.  ``audit`` reports that structure as ``factorization=pass``; it is not
computed.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .linalg import as_dims, as_integer, as_probabilities, as_tolerance
from .stochastic import as_stochastic_matrix, unistochastic_of

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


def _remote_spread(table: np.ndarray, side: int) -> np.ndarray:
    """``max - min`` of one side's marginal over the remote start, as ``[outcome, own start]``.

    ``table`` is a validated ``p[q_t, r_t, q_0, r_0]``; side 0 is ``q``, side 1 is ``r``.
    """
    m = table.sum(axis=1 - side)
    return m.max(axis=2 - side) - m.min(axis=2 - side)


def _independent(j: np.ndarray, tol: float) -> bool:
    return not _remote_spread(j, 0).max() > tol and not _remote_spread(j, 1).max() > tol


def influences(joint, direction: Direction, tol: float = INFLUENCE_TOL) -> bool:
    """Whether one subsystem's start genuinely steers the other's marginal.

    ``"r_on_q"`` asks whether ``p(q_t | q_0, r_0)`` varies with ``r_0``;
    ``"q_on_r"`` asks whether ``p(r_t | q_0, r_0)`` varies with ``q_0``.
    Constancy in the remote index is the operational test: the one-argument
    conditional exists exactly when the marginal does not depend on it.
    """
    tol = as_tolerance(tol)
    if direction not in ("r_on_q", "q_on_r"):
        raise ValueError(f"direction must be 'r_on_q' or 'q_on_r', got {direction!r}")
    return bool(_remote_spread(as_joint_conditional(joint), int(direction == "q_on_r")).max() > tol)


def causally_independent(joint, tol: float = INFLUENCE_TOL) -> bool:
    """True iff neither subsystem influences the other."""
    tol = as_tolerance(tol)
    return _independent(as_joint_conditional(joint), tol)


def non_interacting(joint, tol: float = INFLUENCE_TOL) -> bool:
    """True iff the joint dynamics factorize into the two marginal dynamics.

    Strictly stronger than causal independence: the marginals must first be
    constant in the remote start index, and the joint table must then equal
    their product entrywise.  A shared random disturbance can leave both
    marginals remote-independent while the joint still fails to factorize.
    """
    tol = as_tolerance(tol)
    j = as_joint_conditional(joint)
    if not _independent(j, tol):
        return False
    pq = j.sum(axis=1).mean(axis=2)  # constant in r_0 within tol; average it out
    pr = j.sum(axis=0).mean(axis=1)
    return bool(np.max(np.abs(j - np.einsum("ac,bd->abcd", pq, pr))) <= tol)


def joint_from_unitary(u, dims: tuple[int, int]) -> np.ndarray:
    """Joint conditional of a composite unitary evolution.

    ``table[q_t, r_t, q_0, r_0]`` is the squared modulus of the matrix entry
    between composite configuration-basis vectors, with the row-major index
    convention ``(q, r) -> q * dims[1] + r``.  ``dims`` is two positive
    integers (``2.0`` is one; ``2.5`` is not) whose product is the side of ``u``.
    """
    dq, dr = as_dims(dims)
    if dq < 1 or dr < 1:
        raise ValueError(f"dims must be positive, got {dims!r}")
    gamma = unistochastic_of(u)
    if gamma.shape[0] != dq * dr:
        raise ValueError(
            f"dimension mismatch: u is {gamma.shape[0]}x{gamma.shape[1]} but dims {dims!r} "
            f"imply {dq * dr}"
        )
    return gamma.reshape(dq, dr, dq, dr)


def product_joint(gamma_q, gamma_r) -> np.ndarray:
    """Non-interacting joint built from two marginal stochastic matrices."""
    gq = as_stochastic_matrix(gamma_q, "gamma_q")
    gr = as_stochastic_matrix(gamma_r, "gamma_r")
    if gq.shape[0] != gq.shape[1] or gr.shape[0] != gr.shape[1]:
        raise ValueError("marginal dynamics must be square to form a joint conditional")
    return np.einsum("ac,bd->abcd", gq, gr)


def _blank_joint(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All-zero ``(dim,) * 4`` table and the index grids of its starts ``q_0``, ``r_0``."""
    dim = as_integer(dim, "dim")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return (np.zeros((dim,) * 4), *np.indices((dim, dim)))


def swap_joint(dim: int) -> np.ndarray:
    """Joint dynamics that exchange the two subsystems' configurations."""
    table, q0, r0 = _blank_joint(dim)
    table[r0, q0, q0, r0] = 1.0
    return table


def one_way_copy_joint(dim: int) -> np.ndarray:
    """Joint dynamics that keep the first subsystem and copy it onto the second."""
    table, q0, r0 = _blank_joint(dim)
    table[q0, q0, q0, r0] = 1.0
    return table


def correlated_noise_joint() -> np.ndarray:
    """Two bits flipped together by a shared coin: equal mixture of
    both-flip and neither-flips.

    Each marginal is uniform regardless of either start, so the subsystems
    are causally independent, yet the joint does not factorize.
    """
    table, q0, r0 = _blank_joint(2)
    table[q0, r0, q0, r0] = table[1 - q0, 1 - r0, q0, r0] = 0.5
    return table
