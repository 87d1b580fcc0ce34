"""Column-stochastic dynamics: division tests, unistochastic matrices, a
unitary-dilation search, and interference-correction matrices.

Convention used project-wide: ``gamma[i, j]`` is the conditional probability
of landing in configuration ``i`` given start configuration ``j``, so columns
sum to one and distributions evolve by plain matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_DIM,
    RESTART_BLOCK,
    Substreams,
    as_integer,
    as_probabilities,
    as_tolerance,
    assert_unitary,
)

#: Division events are only ever defined up to a working precision; callers
#: may widen or tighten this.
DIVISION_TOL = 1e-8

#: Iteration cap of one dilation restart; a stalled restart stops far sooner.
_MAX_ITERATIONS = 10_000


def as_stochastic_matrix(gamma, name: str = "gamma") -> np.ndarray:
    """Validate a column-stochastic matrix and return a cleaned float copy."""
    return as_probabilities(gamma, 2, 0, name, "have columns summing to 1")


def _capped(gamma, name: str) -> np.ndarray:
    """``gamma`` as a float array, rejected when a matrix side exceeds ``MAX_DIM``."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim == 2 and max(g.shape) > MAX_DIM:
        raise ValueError(f"{name} is {g.shape[0]}x{g.shape[1]}; sides above {MAX_DIM} are not supported")
    return g


@dataclass
class DivisionReport:
    """Outcome of a division attempt: the quotient (if any) plus its residual."""

    quotient: np.ndarray | None
    residual: float


def divide_report(gamma_total, gamma_first, tol: float = DIVISION_TOL) -> DivisionReport:
    """Try to factor ``gamma_total = quotient @ gamma_first`` through a stochastic quotient.

    The candidate is the least-squares solution of the linear system (so a
    singular ``gamma_first`` is handled); negligible negatives are projected
    to zero and columns renormalized.  The candidate is accepted only when it
    is stochastic within ``tol`` and reconstructs ``gamma_total`` with
    max-entry error at most ``tol``.  When several quotients exist, whichever
    the least-squares solve lands on is returned (the output is not
    canonical).  A matrix with a side above ``MAX_DIM`` is rejected before
    its probability rule, as ``dilation_report`` rejects its ``gamma``.

    No quotient (the CLI's ``not_divisible``) is a proof, up to ``tol``,
    only for a square, invertible ``gamma_first``: the quotient is then
    unique and the solve finds it.  Otherwise only the minimum-norm
    candidate is tried, so no quotient is a search failure, like dilate's
    ``not_found``.  For ``gamma_first`` =
    ``[[1/2, 0], [1/2, 1/2], [0, 1/2]]`` the stochastic
    ``[[1, 1/2, 0], [0, 1/2, 1]]`` divides ``[[3/4, 1/4], [1/4, 3/4]]``,
    but the candidate has entries of -1/6.  The report's ``residual``, which
    ``chshkit process`` prints, is the candidate's, accepted or not.
    """
    tol = as_tolerance(tol)
    gt = as_stochastic_matrix(_capped(gamma_total, "gamma_total"), "gamma_total")
    gf = as_stochastic_matrix(_capped(gamma_first, "gamma_first"), "gamma_first")
    if gt.shape[1] != gf.shape[1]:
        raise ValueError(
            "dimension mismatch: gamma_total and gamma_first must condition on the same "
            f"initial configurations, got {gt.shape[1]} and {gf.shape[1]}"
        )
    x, *_ = np.linalg.lstsq(gf.T, gt.T, rcond=None)
    raw = x.T
    raw_residual = float(np.max(np.abs(raw @ gf - gt)))
    if raw.min() < -tol:
        return DivisionReport(None, raw_residual)
    candidate = np.clip(raw, 0.0, None)
    sums = candidate.sum(axis=0)
    if np.max(np.abs(sums - 1.0)) > tol:
        return DivisionReport(None, raw_residual)
    candidate = candidate / sums
    residual = float(np.max(np.abs(candidate @ gf - gt)))
    if residual > tol:
        return DivisionReport(None, residual)
    return DivisionReport(candidate, residual)


def unistochastic_of(u) -> np.ndarray:
    """Entrywise squared moduli of a unitary matrix; always doubly stochastic."""
    a = assert_unitary(u, "u")
    return np.abs(a) ** 2


@dataclass
class DilationReport:
    """Outcome of a dilation search: the unitary (if found) plus the best residual."""

    unitary: np.ndarray | None
    residual: float


def dilation_report(
    gamma, tol: float = DIVISION_TOL, *, max_restarts: int = 64, seed: int = 0
) -> DilationReport:
    """Search for a unitary whose entrywise squared moduli reproduce ``gamma``.

    Alternating projection between the set of matrices with prescribed entry
    moduli ``sqrt(gamma)`` and the set of unitary matrices (via the polar
    factor of an SVD), restarted from fresh random phases.  Restart ``k``
    draws its phases from a counter-based substream keyed by ``(seed, k)``;
    a block draws them through one ``Substreams`` pass, one generator of its
    own re-keyed per restart.
    ``gamma`` must pass the package's one probability rule on its columns
    and on its rows, whatever ``tol``, which is only the search's
    acceptance threshold: a unitary ``u`` is found once every entry of
    ``abs(u)**2`` is within ``tol`` of ``gamma``.

    One loop holds the blocks, the find rule and the stall rule.  Restarts
    run in lock-step blocks of 1, 2, 4, ... up to ``RESTART_BLOCK`` (64),
    each block as one stack through one SVD per iteration.  Every 100
    iterations a restart stops if its best residual is above 0.9 of its
    value 100 iterations earlier: it cannot reach ``tol`` in the budget.
    Once a restart finds, every restart above it leaves the block, and the
    lowest finder is returned only once no lower restart runs, so the report
    is bit-identical to running the restarts one at a time and depends only
    on ``(seed, restart)``.  The per-restart best and checkpoint residuals
    are Python floats in lists.  A block holds a few stacked arrays of
    ``64 * d * d`` complex entries, 4 MB each at ``MAX_DIM``.

    The report is the result: ``unitary`` is None when no restart finds, and
    ``residual`` is the finder's, else the lowest of any restart.  No unitary
    is a search failure, never a proof that no dilation exists.
    """
    tol = as_tolerance(tol)
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gamma must be square, got shape {g.shape}")
    _capped(g, "gamma")  # restarts this large take seconds each: fail before the first
    try:  # the package's one probability rule, on the columns and then the rows
        clean = as_stochastic_matrix(g)
        as_probabilities(g, 2, 1, "gamma", "have rows summing to 1")
    except ValueError as err:
        raise ValueError(f"gamma must be doubly stochastic: {err}") from None
    max_restarts = as_integer(max_restarts, "max_restarts")
    if max_restarts < 1:
        raise ValueError("max_restarts must be positive")
    g = clean[None]  # a leading stack axis, so that a block of one broadcasts nothing
    roots = np.sqrt(g)
    stalled_best: list[float] = []  # every restart that ran out without finding
    lo = 0
    while lo < max_restarts:
        hi = min(2 * lo + 1, lo + RESTART_BLOCK, max_restarts)
        draws = np.stack([rng.random(g.shape[1:]) for rng in Substreams(seed, range(lo, hi))])
        m = roots * np.exp(2j * np.pi * draws)
        best = checkpoint = [np.inf] * (hi - lo)
        found = None
        for iteration in range(_MAX_ITERATIONS):
            w, _, vh = np.linalg.svd(m)
            u = w @ vh
            residual = np.abs(np.abs(u) ** 2 - g).max(axis=(1, 2)).tolist()
            best = [min(b, r) for b, r in zip(best, residual)]
            if min(best) <= tol:  # no running restart had reached tol before
                first = next(k for k, r in enumerate(residual) if r <= tol)
                found = DilationReport(u[first].copy(), residual[first])
                if first == 0:  # no lower restart still runs
                    return found
                u, best, checkpoint = u[:first], best[:first], checkpoint[:first]
            if iteration % 100 == 99:
                stalled = [b > 0.9 * c for b, c in zip(best, checkpoint)]  # cannot reach tol in the budget
                stalled_best += [b for b, s in zip(best, stalled) if s]
                best = [b for b, s in zip(best, stalled) if not s]
                if not best:
                    break
                u = u[[not s for s in stalled]]
                checkpoint = best
            m = roots * np.exp(1j * np.arctan2(u.imag, u.real))
        if found is not None:
            return found
        stalled_best += best  # still running at the iteration cap
        lo = hi
    return DilationReport(None, min(stalled_best))


def qcor(u_total, u_first) -> np.ndarray:
    """Interference-correction matrix for a fictitious division at an intermediate time.

    Given unitary evolutions over the whole interval and over its first leg,
    returns the gap between the exact transition probabilities and the
    two-step composition through the intermediate time.  Every column sums to
    zero: both sides of the comparison are normalized probabilities.
    """
    ut = assert_unitary(u_total, "u_total")
    uf = assert_unitary(u_first, "u_first")
    if ut.shape != uf.shape:
        raise ValueError(f"dimension mismatch: {ut.shape} vs {uf.shape}")
    gamma_total = np.abs(ut) ** 2
    gamma_first = np.abs(uf) ** 2
    gamma_second = np.abs(ut @ uf.conj().T) ** 2
    return gamma_total - gamma_second @ gamma_first
