"""The CHSH coordination game: correlation boxes, score formulas,
no-signaling checks, strategy evaluation, and seeded Monte Carlo rounds.

A round is won when the players' output bits satisfy ``q xor r == x and y``
for the uniformly drawn input bits ``(x, y)``; a win scores +1 and a loss -1.
Correlation boxes are 4-index tables ``P[q, r, x, y]`` normalized per input
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple, Union

import numpy as np

from .causality import INFLUENCE_TOL, _remote_spread
from .linalg import as_bits, as_integer, as_probabilities, as_seed, as_tolerance, substream
from .tsirelson import QuantumSetup

#: Default no-signaling tolerance: the influence tolerance, as both read the
#: same remote-spread kernel.
NO_SIGNALING_TOL = INFLUENCE_TOL

#: Rounds per Monte Carlo chunk.  Chunk ``c`` draws from a substream keyed by
#: ``(seed, c)``, so its rounds depend only on the seed, never on ``n``.
CHUNK_ROUNDS = 1 << 16


def wins(x, y, q, r):
    """The game rule, on bits or on integer arrays of bits: ``q xor r == x and y``."""
    return (q ^ r) == (x & y)


def _build_sign() -> np.ndarray:
    q, r, x, y = np.indices((2, 2, 2, 2))
    return np.where(wins(x, y, q, r), 1.0, -1.0)


#: sign[q, r, x, y]: +1 on winning outcomes, -1 on losing ones.
_SIGN = _build_sign()

#: (-1)**(x*y) over the four input pairs.
_INPUT_SIGN = np.array([[1.0, 1.0], [1.0, -1.0]])

UNIFORM_INPUTS = np.full((2, 2), 0.25)


def as_correlation_box(box, name: str = "box") -> np.ndarray:
    """Validate a correlation box ``P[q, r, x, y]`` and return a cleaned copy."""
    if np.shape(box) != (2, 2, 2, 2):
        raise ValueError(f"{name} must have shape (2, 2, 2, 2), got {np.shape(box)}")
    return as_probabilities(box, 4, (0, 1), name, "be normalized per input pair")


def as_input_distribution(inputs, name: str = "inputs") -> np.ndarray:
    """Validate a joint input distribution ``P[x, y]``."""
    if np.shape(inputs) != (2, 2):
        raise ValueError(f"{name} must have shape (2, 2), got {np.shape(inputs)}")
    return as_probabilities(inputs, 2, None, name, "sum to 1")


def ns_box(e: float) -> np.ndarray:
    """The one-parameter no-signaling box family.

    ``P(q, r | x, y) = (1 + sign * e) / 4`` with the win/loss sign; the
    parameter equals the expected score under uniform inputs.  ``e = 0`` is
    two fair coins, ``e = 1`` the box that wins every round.
    """
    return (1.0 + _SIGN * NSBox(e).e) / 4.0


def _score(b: np.ndarray, w: np.ndarray = UNIFORM_INPUTS) -> float:
    """:func:`expected_score` of a validated box under validated inputs."""
    return float(np.einsum("qrxy,xy->", _SIGN * b, w))


def expected_score(box, inputs=None) -> float:
    """Expected score of a box (validated once): the win/loss-signed sum weighted by the inputs."""
    b = as_correlation_box(box)
    return _score(b, UNIFORM_INPUTS if inputs is None else as_input_distribution(inputs))


def score_from_loss_terms(box) -> float:
    """Uniform-input score computed from the losing probabilities alone.

    Uses normalization to eliminate one outcome: only ``P(0,1|x,y)`` and
    ``P(1,0|x,y)`` enter.  Must agree with :func:`expected_score` under
    uniform inputs.
    """
    b = as_correlation_box(box)
    loss = b[0, 1] + b[1, 0]
    return float(0.5 * (1.0 - np.sum(_INPUT_SIGN * loss)))


def score_from_correlators(box) -> float:
    """Uniform-input score as a quarter of the signed correlator sum."""
    b = as_correlation_box(box)
    corr = b[0, 0] - b[0, 1] - b[1, 0] + b[1, 1]
    return float(0.25 * np.sum(_INPUT_SIGN * corr))


def win_probability(score: float) -> float:
    """Win probability equivalent to an expected score: ``(score + 1) / 2``."""
    s = float(score)
    if not -1.0 - 1e-12 <= s <= 1.0 + 1e-12:
        raise ValueError(f"score must lie in [-1, 1], got {s!r}")
    return min(max((s + 1.0) / 2.0, 0.0), 1.0)


@dataclass(frozen=True)
class SignalingWitness:
    """Worst marginal dependence on the remote input found in a box."""

    side: str  # "alice" or "bob"
    outcome: int
    own_setting: int
    remote_setting_a: int
    remote_setting_b: int
    delta: float


def signaling_witness(box, tol: float = NO_SIGNALING_TOL) -> SignalingWitness | None:
    """The worst no-signaling violation in a box (validated once), or None if it passes.

    Alice's marginal must not move with Bob's setting and vice versa: the
    box's causal independence read as a process (settings in, outcomes out).
    The witness is the largest spread; ties go to the lower outcome, then own setting, then Alice.
    """
    tol = as_tolerance(tol)
    return _witness(as_correlation_box(box), tol)


def _witness(b: np.ndarray, tol: float = NO_SIGNALING_TOL) -> SignalingWitness | None:
    """:func:`signaling_witness` of a validated box at a validated tolerance."""
    spread = [_remote_spread(b, side).tolist() for side in (0, 1)]  # [side][outcome][own setting]
    out, own, side = max(product((0, 1), repeat=3), key=lambda k: spread[k[2]][k[0]][k[1]])
    delta = spread[side][out][own]
    return SignalingWitness(("alice", "bob")[side], out, own, 0, 1, delta) if delta > tol else None


def is_no_signaling(box, tol: float = NO_SIGNALING_TOL) -> bool:
    """True iff each side's marginals depend only on that side's own setting."""
    return signaling_witness(box, tol) is None


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Deterministic:
    """Fixed response pair: ``q_of_x[x]`` is Alice's bit, ``r_of_y[y]`` Bob's."""

    q_of_x: tuple[int, int]
    r_of_y: tuple[int, int]

    def __post_init__(self) -> None:
        for name in ("q_of_x", "r_of_y"):
            object.__setattr__(self, name, as_bits(getattr(self, name), 2, name))


@dataclass(frozen=True)
class SharedRandomness:
    """Convex mixture of deterministic strategies steered by shared randomness."""

    mixture: tuple[tuple[float, Deterministic], ...]

    def __post_init__(self) -> None:
        strategies = [strat for _, strat in self.mixture]
        if not all(isinstance(strat, Deterministic) for strat in strategies):
            raise ValueError("mixture components must be Deterministic strategies")
        weights = [w for w, _ in self.mixture]
        weights = as_probabilities(weights, 1, None, "mixture weights", "sum to 1").tolist()
        object.__setattr__(self, "mixture", tuple(zip(weights, strategies)))


@dataclass(frozen=True)
class NSBox:
    """No-signaling box strategy with score parameter ``e``."""

    e: float

    def __post_init__(self) -> None:
        e = float(self.e)
        if not -1.0 <= e <= 1.0:
            raise ValueError(f"e must lie in [-1, 1], got {e!r}")
        object.__setattr__(self, "e", e)


@dataclass(frozen=True)
class ExplicitBox:
    """A raw correlation-box table used directly as a strategy.

    Handy for auditing hand-written tables; the table must be a valid box but
    is not required to be no-signaling.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", as_correlation_box(self.table, "table"))


Strategy = Union[Deterministic, SharedRandomness, NSBox, ExplicitBox, QuantumSetup]


def _deterministic_box(strategy: Deterministic) -> np.ndarray:
    box = np.zeros((2, 2, 2, 2))
    for x, y in product((0, 1), repeat=2):
        box[strategy.q_of_x[x], strategy.r_of_y[y], x, y] = 1.0
    return box


def _quantum_box(setup: QuantumSetup) -> np.ndarray:
    """``|A_x Psi B_y^T|^2`` (``Psi`` the state as a matrix) coarse-grained by the outcome maps."""
    psi = setup.state.reshape(setup.dim_a, setup.dim_b)
    a, b = np.stack((setup.a0, setup.a1)), np.stack((setup.b0, setup.b1))
    weight = np.abs(a[:, None] @ psi @ b.swapaxes(-1, -2)) ** 2  # [x, y, i, j]
    onehot_a, onehot_b = np.eye(2)[list(setup.alice_outcome)], np.eye(2)[list(setup.bob_outcome)]
    return np.einsum("xyij,iq,jr->qrxy", weight, onehot_a, onehot_b)


def box_of_strategy(strategy: Strategy) -> np.ndarray:
    """Exact correlation box of any strategy arm.

    Deterministic strategies give delta tables, mixtures their weighted
    average, the no-signaling family its closed form, and quantum setups the
    coarse-grained squared amplitudes of the locally evolved shared state.
    The box returned is validated: ``_score``, ``_witness`` and ``_chunks`` take it as it is.
    """
    if isinstance(strategy, Deterministic):
        return _deterministic_box(strategy)
    if isinstance(strategy, SharedRandomness):
        return as_correlation_box(sum(w * _deterministic_box(det) for w, det in strategy.mixture))
    if isinstance(strategy, NSBox):
        return ns_box(strategy.e)
    if isinstance(strategy, ExplicitBox):
        return strategy.table.copy()
    if isinstance(strategy, QuantumSetup):
        return as_correlation_box(_quantum_box(strategy))
    raise TypeError(f"not a strategy: {strategy!r}")


def enumerate_deterministic() -> tuple[float, list[Deterministic]]:
    """Exhaust all 16 deterministic strategies under uniform inputs.

    Returns the best score and every maximizer, in lexicographic order of
    ``(q_of_x, r_of_y)``.
    """
    best = -math.inf
    argmax: list[Deterministic] = []
    for q_of_x, r_of_y in product(product((0, 1), repeat=2), repeat=2):
        total = sum(1 if wins(x, y, q_of_x[x], r_of_y[y]) else -1 for x in (0, 1) for y in (0, 1))
        score = total / 4.0
        if score > best:
            best = score
            argmax = [Deterministic(q_of_x, r_of_y)]
        elif score == best:
            argmax.append(Deterministic(q_of_x, r_of_y))
    return best, argmax


# --------------------------------------------------------------------------
# Monte Carlo rounds
# --------------------------------------------------------------------------


@dataclass
class SimulationResult:
    """Column arrays for a seeded batch of rounds, plus summary statistics."""

    n: int
    seed: int
    x: np.ndarray
    y: np.ndarray
    q: np.ndarray
    r: np.ndarray
    win: np.ndarray

    @property
    def empirical_win_rate(self) -> float:
        return float(self.win.mean())

    @property
    def empirical_score(self) -> float:
        return 2.0 * self.empirical_win_rate - 1.0


def _outcome_cumulatives(box: np.ndarray) -> np.ndarray:
    """Per-input-pair cumulative outcome table; rows indexed by 2x+y, columns by 2q+r."""
    cum = np.cumsum(box.transpose(2, 3, 0, 1).reshape(4, 4), axis=1)
    cum[:, -1] = 1.0  # guard against round-off at the top of the CDF
    return cum


class SimulationChunk(NamedTuple):
    """The column arrays of one chunk of rounds, the first being round ``start``."""

    start: int
    x: np.ndarray
    y: np.ndarray
    q: np.ndarray
    r: np.ndarray


def _simulate_chunk(cum: np.ndarray, seed: int, chunk_index: int, count: int):
    """The ``x``, ``y``, ``q``, ``r`` columns (``int8``) of one chunk of rounds.

    Two uniform draws per round: the first picks the input pair ``2x + y``,
    the second the outcome pair ``2q + r`` as the number of CDF entries of
    that input pair's row lying strictly below it.  Only the first three
    columns of ``cum`` are compared, one 1-D threshold gather each: the last
    is 1.0, which no draw in [0, 1) reaches.
    """
    u = substream(seed, chunk_index).random((2, count))
    setting = (u[0] * 4.0).astype(np.int8)  # u <= 1 - 2**-53 and * 4.0 is exact: at most 3
    index = setting.astype(np.intp)
    outcome = np.zeros(count, dtype=np.int8)
    for column in range(3):
        outcome += np.take(cum[:, column], index) < u[1]
    return setting >> 1, setting & 1, outcome >> 1, outcome & 1


def simulate_chunks(strategy: Strategy, n: int, seed: int) -> Iterator[SimulationChunk]:
    """Play ``n`` seeded rounds of a strategy, one chunk at a time.

    Each round draws the input pair uniformly and the outcome pair by
    inverse-CDF sampling from the strategy's box conditioned on the inputs.
    Rounds are produced in chunks of ``CHUNK_ROUNDS`` whose substreams depend
    only on ``(seed, chunk_index)``, so a longer run extends a shorter one's
    whole chunks unchanged.  The box is built and validated by this call,
    and ``n`` (an integer: ``10.0`` is one, ``10.5`` is not) and ``seed``
    are checked, before the first chunk is drawn, so a caller can fail
    before it opens its output.

    Where this process may run on more than one CPU, a run of more than one
    chunk draws the next chunk on one worker thread while the caller uses
    the current one; the chunks are the same either way.  Close the
    iterator (or exhaust it) to stop that thread.
    """
    return _chunks(box_of_strategy(strategy), n, seed)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(box: np.ndarray, n: int, seed: int) -> Iterator[SimulationChunk]:
    """:func:`simulate_chunks` of a validated box; ``n`` and ``seed`` are checked now.

    Returns a generator: nothing is drawn and no thread starts before the
    first chunk is asked for.  With one usable CPU, or one chunk, each
    chunk is drawn when asked for; otherwise one chunk is drawn ahead.
    """
    n = as_integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    cum = _outcome_cumulatives(box)
    seed = as_seed(seed)
    starts = range(0, n, CHUNK_ROUNDS)

    def draw(i: int) -> SimulationChunk:
        start = starts[i]
        return SimulationChunk(start, *_simulate_chunk(cum, seed, i, min(CHUNK_ROUNDS, n - start)))

    if len(starts) == 1 or _usable_cpus() == 1:
        return (draw(i) for i in range(len(starts)))
    return _drawn_ahead(draw, len(starts))


def _drawn_ahead(draw, count: int) -> Iterator[SimulationChunk]:
    """``draw(0)``, ..., ``draw(count - 1)``, each drawn on one worker thread
    while the caller uses the one before it.

    The worker runs ``draw`` only, and at most one chunk is drawn ahead, so
    memory stays that of a few chunks whatever ``count`` is.  An exception
    raised by a draw reaches the caller when that chunk is due; closing the
    generator waits for the draw in flight and joins the worker.
    """
    from concurrent.futures import ThreadPoolExecutor  # about 5 ms to import: only when used

    with ThreadPoolExecutor(1) as worker:
        ahead = worker.submit(draw, 0)
        for i in range(1, count):
            current, ahead = ahead.result(), worker.submit(draw, i)
            yield current
        yield ahead.result()


def simulate_rounds(strategy: Strategy, n: int, seed: int) -> SimulationResult:
    """Play ``n`` seeded rounds of a strategy: :func:`simulate_chunks`, joined."""
    _, *columns = zip(*simulate_chunks(strategy, n, seed))
    x, y, q, r = (np.concatenate(column) for column in columns)
    return SimulationResult(n=len(x), seed=as_seed(seed), x=x, y=y, q=q, r=r, win=wins(x, y, q, r))
