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

from .linalg import as_bits, as_integer, as_probabilities, as_seed, as_tolerance, substream, tensor
from .tsirelson import QuantumSetup

NO_SIGNALING_TOL = 1e-9

#: Rounds per Monte Carlo chunk.  Chunk ``c`` draws from a substream keyed by
#: ``(seed, c)``, so its rounds depend only on the seed, never on ``n``.
CHUNK_ROUNDS = 1 << 16


def wins(x, y, q, r):
    """The game rule, on bits or on integer arrays of bits: ``q xor r == x and y``."""
    return (q ^ r) == (x & y)


def _build_sign() -> np.ndarray:
    s = np.empty((2, 2, 2, 2))
    for q, r, x, y in product((0, 1), repeat=4):
        s[q, r, x, y] = 1.0 if wins(x, y, q, r) else -1.0
    return s


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


def expected_score(box, inputs=None) -> float:
    """Expected score of a box: the win/loss-signed sum weighted by the inputs."""
    b = as_correlation_box(box)
    w = UNIFORM_INPUTS if inputs is None else as_input_distribution(inputs)
    return float(np.einsum("qrxy,xy->", _SIGN * b, w))


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
    """The worst no-signaling violation in a box, or None if it passes.

    Alice's marginal must not move with Bob's setting and vice versa; the
    witness records the outcome, own setting, and the two remote settings
    whose marginals differ the most.
    """
    tol = as_tolerance(tol)
    b = as_correlation_box(box)
    worst: SignalingWitness | None = None
    marg_a = b.sum(axis=1)  # [q, x, y]
    marg_b = b.sum(axis=0)  # [r, x, y]
    for out, own in product((0, 1), repeat=2):
        delta_a = abs(marg_a[out, own, 0] - marg_a[out, own, 1])
        if delta_a > tol and (worst is None or delta_a > worst.delta):
            worst = SignalingWitness("alice", out, own, 0, 1, float(delta_a))
        delta_b = abs(marg_b[out, 0, own] - marg_b[out, 1, own])
        if delta_b > tol and (worst is None or delta_b > worst.delta):
            worst = SignalingWitness("bob", out, own, 0, 1, float(delta_b))
    return worst


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
    da, db = setup.dim_a, setup.dim_b
    a_sel = [np.array([k for k, b in enumerate(setup.alice_outcome) if b == bit]) for bit in (0, 1)]
    b_sel = [np.array([k for k, b in enumerate(setup.bob_outcome) if b == bit]) for bit in (0, 1)]
    box = np.zeros((2, 2, 2, 2))
    for x, a in enumerate((setup.a0, setup.a1)):
        for y, b in enumerate((setup.b0, setup.b1)):
            amplitudes = tensor(a, b) @ setup.state
            weight = (np.abs(amplitudes) ** 2).reshape(da, db)
            for q in (0, 1):
                for r in (0, 1):
                    if a_sel[q].size and b_sel[r].size:
                        box[q, r, x, y] = float(weight[np.ix_(a_sel[q], b_sel[r])].sum())
    return box


def box_of_strategy(strategy: Strategy) -> np.ndarray:
    """Exact correlation box of any strategy arm.

    Deterministic strategies give delta tables, mixtures their weighted
    average, the no-signaling family its closed form, and quantum setups the
    coarse-grained squared amplitudes of the locally evolved shared state.
    """
    if isinstance(strategy, Deterministic):
        return _deterministic_box(strategy)
    if isinstance(strategy, SharedRandomness):
        box = np.zeros((2, 2, 2, 2))
        for weight, det in strategy.mixture:
            box += weight * _deterministic_box(det)
        return as_correlation_box(box)
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


@dataclass(frozen=True)
class RoundRecord:
    """One played round; the win flag is pinned to the game rule."""

    round_index: int
    x: int
    y: int
    q: int
    r: int
    win: bool

    def __post_init__(self) -> None:
        if self.win != wins(self.x, self.y, self.q, self.r):
            raise ValueError("win flag inconsistent with q xor r == x*y")


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

    def record(self, i: int) -> RoundRecord:
        return RoundRecord(
            i, int(self.x[i]), int(self.y[i]), int(self.q[i]), int(self.r[i]), bool(self.win[i])
        )

    def records(self) -> Iterator[RoundRecord]:
        for i in range(self.n):
            yield self.record(i)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[RoundRecord]:
        return self.records()


def _outcome_cumulatives(box: np.ndarray) -> np.ndarray:
    """Per-input-pair cumulative outcome table; rows indexed by 2x+y, columns by 2q+r."""
    pmf = np.empty((4, 4))
    for x, y in product((0, 1), repeat=2):
        for q, r in product((0, 1), repeat=2):
            pmf[2 * x + y, 2 * q + r] = box[q, r, x, y]
    cum = np.cumsum(pmf, axis=1)
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
    setting = np.minimum((u[0] * 4.0).astype(np.int8), 3)
    outcome = np.zeros(count, dtype=np.int8)
    for column in range(3):
        outcome += np.take(cum[:, column], setting) < u[1]
    return setting >> 1, setting & 1, outcome >> 1, outcome & 1


def simulate_chunks(strategy: Strategy, n: int, seed: int) -> Iterator[SimulationChunk]:
    """Play ``n`` seeded rounds of a strategy, one chunk at a time.

    Each round draws the input pair uniformly and the outcome pair by
    inverse-CDF sampling from the strategy's box conditioned on the inputs.
    Rounds are produced in chunks of ``CHUNK_ROUNDS`` whose substreams depend
    only on ``(seed, chunk_index)``, so a longer run extends a shorter one's
    whole chunks unchanged.  ``n`` (an integer: ``10.0`` is one, ``10.5``
    is not) and ``seed`` are checked and the box is built by this call,
    before the first chunk is drawn, so a caller can fail before it opens
    its output.
    """
    n = as_integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    cum = _outcome_cumulatives(box_of_strategy(strategy))
    seed = as_seed(seed)
    return (
        SimulationChunk(start, *_simulate_chunk(cum, seed, i, min(CHUNK_ROUNDS, n - start)))
        for i, start in enumerate(range(0, n, CHUNK_ROUNDS))
    )


def simulate_rounds(strategy: Strategy, n: int, seed: int) -> SimulationResult:
    """Play ``n`` seeded rounds of a strategy: :func:`simulate_chunks`, joined."""
    _, *columns = zip(*simulate_chunks(strategy, n, seed))
    x, y, q, r = (np.concatenate(column) for column in columns)
    return SimulationResult(n=len(x), seed=as_seed(seed), x=x, y=y, q=q, r=r, win=wins(x, y, q, r))
