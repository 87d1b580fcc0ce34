"""The CHSH coordination game: correlation boxes, score formulas,
no-signaling checks, strategy evaluation, seeded Monte Carlo rounds, and
the reports the ``score``, ``audit`` and ``simulate`` commands print.

A round is won when the players' output bits satisfy ``q xor r == x and y``
for the uniformly drawn input bits ``(x, y)``; a win scores +1 and a loss -1.
Correlation boxes are 4-index tables ``P[q, r, x, y]`` normalized per input
pair.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple, Union

import numpy as np

from .linalg import INFLUENCE_TOL, Substreams, as_bits, as_integer, as_probabilities, as_tolerance, remote_spread
from .tsirelson import QuantumSetup, bound_margin

#: Default no-signaling tolerance: the influence tolerance of the shared kernel.
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
    spread = [remote_spread(b, side).tolist() for side in (0, 1)]  # [side][outcome][own setting]
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
    The box returned is validated, so each report below builds it once and
    hands it to ``_score``, ``_witness`` and ``_chunks`` as it is.
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


def _score_keys(strategy: Strategy, box: np.ndarray, inputs: np.ndarray = UNIFORM_INPUTS) -> dict:
    """The score keys of a strategy's validated box under validated inputs."""
    score = _score(box, inputs)
    report = {
        "exact_score": score,
        "exact_win_probability": win_probability(score),
        "ns_check": "pass" if _witness(box) is None else "fail",
    }
    if isinstance(strategy, QuantumSetup):
        report["bound_margin"] = bound_margin(_score(box))
    return report


def score_report(strategy: Strategy, inputs=None) -> dict:
    """The pairs ``score`` prints, in order; ``inputs`` default to uniform."""
    inputs = UNIFORM_INPUTS if inputs is None else as_input_distribution(inputs)
    return _score_keys(strategy, box_of_strategy(strategy), inputs)


def audit_report(strategy: Strategy) -> dict:
    """The pairs ``audit`` prints, in order."""
    box = box_of_strategy(strategy)
    witness = _witness(box)
    report = {"ns_check": "pass" if witness is None else "fail"}
    if witness is not None:
        report |= {
            "ns_witness_side": witness.side,
            "ns_witness_outcome": witness.outcome,
            "ns_witness_own_setting": witness.own_setting,
            "ns_witness_remote_settings": f"{witness.remote_setting_a},{witness.remote_setting_b}",
            "ns_witness_delta": witness.delta,
        }
    if isinstance(strategy, QuantumSetup):
        # Local operations enter only as a tensor product, and each factor is
        # checked unitary on load: the joint operation factorizes by construction.
        report["factorization"] = "pass"
        report["bound_margin"] = bound_margin(_score(box))
    return report


# --------------------------------------------------------------------------
# Monte Carlo rounds
# --------------------------------------------------------------------------


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


def _simulate_chunk(cum: np.ndarray, rng: np.random.Generator, count: int):
    """The ``x``, ``y``, ``q``, ``r`` columns (``int8``) of one chunk of rounds.

    Two uniform draws from ``rng`` per round: the first picks the input pair
    ``2x + y``, the second the outcome pair ``2q + r`` as the number of CDF
    entries of that input pair's row lying strictly below it.  Only the first
    three columns of ``cum`` are compared, one 1-D threshold gather each: the
    last is 1.0, which no draw in [0, 1) reaches.
    """
    u = rng.random((2, count))
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
    Rounds are produced in chunks of ``CHUNK_ROUNDS``; chunk ``c`` draws from
    substream ``c`` of ``seed``, and one :class:`~chshkit.linalg.Substreams`
    pass re-keys one generator for every chunk of the run, so a longer run
    extends a shorter one's whole chunks unchanged.  The box is built and
    validated by this call, and ``n`` (an integer: ``10.0`` is one, ``10.5``
    is not) and ``seed`` are checked, before the first chunk is drawn, so a
    caller can fail before it opens its output.

    Each chunk is drawn in the caller's thread when it is asked for, so no
    thread is ever started and a caller may stop early without closing it.
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

    Returns a plain generator: nothing is drawn before the first chunk is
    asked for, and each chunk is drawn, from the run's one re-keyed
    generator, by whichever thread asks for it.
    """
    n = as_integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    cum = _outcome_cumulatives(box)
    rngs = Substreams(seed, range(-(-n // CHUNK_ROUNDS)))
    return (SimulationChunk(start, *_simulate_chunk(cum, rng, min(CHUNK_ROUNDS, n - start)))
            for start, rng in zip(range(0, n, CHUNK_ROUNDS), rngs))


def _drawn_ahead(chunks: Iterator[SimulationChunk]) -> Iterator[SimulationChunk]:
    """The items of ``chunks``, each drawn on one worker thread while the
    caller uses the one before it.

    Only the worker advances ``chunks``, and at most one chunk is drawn
    ahead, so memory stays that of a few chunks however many there are.  An
    exception raised by a draw reaches the caller when that chunk is due;
    closing the generator waits for the draw in flight and joins the worker.
    """
    from concurrent.futures import ThreadPoolExecutor  # about 5 ms to import: only when used

    with ThreadPoolExecutor(1) as worker:
        ahead = worker.submit(next, chunks, None)
        while (current := ahead.result()) is not None:
            ahead = worker.submit(next, chunks, None)
            yield current


_RECORD_HEADER = "round_index,x,y,q,r,win\n"

#: ASCII tail ``,x,y,q,r,win\n`` of a record row, indexed by ``8x + 4y + 2q + r``.
_ROW_TAILS = np.array(
    [list(f",{x},{y},{q},{r},{int(wins(x, y, q, r))}\n".encode())
     for x, y, q, r in product((0, 1), repeat=4)],
    dtype=np.uint8,
)

#: ``_ROW_TAILS`` padded to 16-byte rows: numpy gathers 16-byte items on a
#: fixed-size path, about three times faster than 11-byte ones.
_PADDED_TAILS = np.zeros((len(_ROW_TAILS), 16), dtype=np.uint8)
_PADDED_TAILS[:, : _ROW_TAILS.shape[1]] = _ROW_TAILS

#: ASCII of 0000-9999, row ``i`` holding the four digits of ``i``.
_LOW_DIGITS = np.stack(np.indices((10,) * 4, dtype=np.uint8), axis=-1).reshape(10_000, 4) + ord("0")


def _row_bytes(last: int) -> int:
    """Bytes of the widest record row up to round index ``last``."""
    return len(str(last)) + _ROW_TAILS.shape[1]


def _record_rows(chunk: SimulationChunk, buf: np.ndarray) -> np.ndarray:
    """Write the record rows of ``chunk``, numbered from ``chunk.start``, into
    the ``uint8`` buffer ``buf`` and return its filled prefix.

    ``buf`` must hold ``len(chunk.x)`` rows of the widest index among them
    (:func:`_row_bytes`).  The rows are built in blocks of ``buf`` whose
    round indices have the same number of digits and differ only in their
    last four: a block's leading digits are one slice of ``str(lo)`` written
    to every row as one void item, its last (up to four) digits are the
    matching rows of ``_LOW_DIGITS`` copied as one void item per row, and
    each row tail is copied as one ``V11`` item from ``_PADDED_TAILS``
    gathered by the outcome code.  The leading digits come from a Python
    int, so any index size is written exactly.
    """
    start = chunk.start
    code = (8 * chunk.x + 4 * chunk.y + 2 * chunk.q + chunk.r).astype(np.intp)
    tail = _ROW_TAILS.shape[1]
    tails = np.take(_PADDED_TAILS, code, axis=0)[:, :tail].view(f"V{tail}")
    lo, end, filled = start, start + len(code), 0
    while lo < end:
        width = len(str(lo))
        hi = min(end, 10**width, lo - lo % 10_000 + 10_000)
        size = (hi - lo) * (width + tail)
        block = buf[filled : filled + size].reshape(hi - lo, width + tail)
        k = min(width, 4)
        lead, low = width - k, lo % 10_000
        if lead:
            block[:, :lead].view(f"V{lead}")[...] = np.void(str(lo)[:lead].encode())
        block[:, lead:width].view(f"V{k}")[...] = _LOW_DIGITS[low : low + hi - lo, 4 - k :].view(f"V{k}")
        block[:, width:].view(f"V{tail}")[...] = tails[lo - start : hi - start]
        lo, filled = hi, filled + size
    return buf[:filled]


def simulation_report(strategy: Strategy, n: int, seed: int, path) -> dict:
    """Play ``n`` seeded rounds, write their record file (a header line,
    then one row per round) to ``path`` and return the pairs ``simulate``
    prints, in order.  The box, ``n`` and ``seed`` are checked before
    ``path`` is opened, so a bad run leaves it alone.

    Where this process may run on more than one CPU, a run of more than one
    chunk draws the next chunk on one worker thread while the current one
    is written (:func:`_drawn_ahead`); the file is the same bytes either way.
    """
    box = box_of_strategy(strategy)
    n = as_integer(n, "n")
    chunks = _chunks(box, n, seed)
    if n > CHUNK_ROUNDS and _usable_cpus() > 1:
        chunks = _drawn_ahead(chunks)
    buf = np.empty(min(CHUNK_ROUNDS, n) * _row_bytes(n - 1), dtype=np.uint8)
    won = 0
    # Closed explicitly, so an I/O error stops the chunk-drawing thread at once.
    with closing(chunks), open(path, "wb") as fh:
        fh.write(_RECORD_HEADER.encode())
        for chunk in chunks:
            fh.write(_record_rows(chunk, buf))
            won += int(np.count_nonzero(wins(chunk.x, chunk.y, chunk.q, chunk.r)))
    win_rate = won / n
    return _score_keys(strategy, box) | {
        "empirical_score": 2.0 * win_rate - 1.0,
        "empirical_win_rate": win_rate,
        "n_rounds": n,
        "seed": seed,
    }
