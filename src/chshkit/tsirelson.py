"""Quantum-side machinery for the game: the CHSH operator, the score
ceiling, and a seesaw optimizer that saturates it.

Scores here are operator expectations: one quarter of the expectation of the
CHSH operator in the shared state.  The same number is reachable through the
correlation-box route in :mod:`chshkit.game`; the two paths are kept
independent deliberately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    RESTART_BLOCK as _RESTART_BLOCK,
    Substreams,
    as_bits,
    as_dims,
    as_integer,
    as_state_vector,
    as_state_vectors,
    as_tolerance,
    assert_unitaries,
    assert_unitary,
    haar_of_gaussian,
    rotation,
)

#: Largest joint dimension handled by the dense operator pipeline.
MAX_JOINT_DIM = 16

#: Score ceiling for factorized local operations on a shared state.
TSIRELSON_SCORE = 1.0 / math.sqrt(2.0)

#: Spectral-norm ceiling of the CHSH operator.
CHSH_OPERATOR_CEILING = 2.0 * math.sqrt(2.0)


def bound_margin(score: float) -> float:
    """Margin of a uniform-input score (the one the ceiling bounds) below the ceiling."""
    return TSIRELSON_SCORE - abs(score)


def _default_outcome_map(dim: int) -> tuple[int, ...]:
    return tuple(k % 2 for k in range(dim))


@dataclass(frozen=True)
class QuantumSetup:
    """Shared state, per-setting local unitaries, and outcome coarse-grainings.

    The state lives on the composite space (row-major pairing of the two
    local configuration sets).  ``a0``/``a1`` act on the first side for
    settings 0/1, ``b0``/``b1`` on the second.  Outcome maps send each local
    configuration to the single bit that side reports; each side exposes one
    bit and nothing finer; a map left as None is the parity map ``k % 2``.
    """

    state: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    alice_outcome: tuple[int, ...] | None = None
    bob_outcome: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        a0 = assert_unitary(self.a0, name="a0")
        a1 = assert_unitary(self.a1, name="a1")
        b0 = assert_unitary(self.b0, name="b0")
        b1 = assert_unitary(self.b1, name="b1")
        if a1.shape != a0.shape:
            raise ValueError(f"a0 and a1 must share a dimension, got {a0.shape} and {a1.shape}")
        if b1.shape != b0.shape:
            raise ValueError(f"b0 and b1 must share a dimension, got {b0.shape} and {b1.shape}")
        da, db = a0.shape[0], b0.shape[0]
        if da * db > MAX_JOINT_DIM:
            raise ValueError(f"joint dimension {da * db} exceeds the supported cap {MAX_JOINT_DIM}")
        state = as_state_vector(self.state, "state")
        if state.shape[0] != da * db:
            raise ValueError(
                f"state dimension {state.shape[0]} does not match joint dimension {da * db}"
            )
        alice = as_bits(_default_outcome_map(da) if self.alice_outcome is None else self.alice_outcome,
                        da, "alice_outcome")
        bob = as_bits(_default_outcome_map(db) if self.bob_outcome is None else self.bob_outcome,
                      db, "bob_outcome")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "alice_outcome", alice)
        object.__setattr__(self, "bob_outcome", bob)

    @property
    def dim_a(self) -> int:
        return self.a0.shape[0]

    @property
    def dim_b(self) -> int:
        return self.b0.shape[0]


def _T(m: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (``.mT`` needs numpy 2)."""
    return m.swapaxes(-1, -2)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of each pair of square matrices in two stacks."""
    n, m = a.shape[-1], b.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*a.shape[:-2], n * m, n * m)


def _local_dichotomic(u: np.ndarray, outcome_map: tuple[int, ...]) -> np.ndarray:
    """One side's +-1 observable on its own space: ``u^dag S u`` for the outcome signs ``S``.

    ``u`` may be a stack of unitaries; the observables stack the same way.
    """
    signs = 1.0 - 2.0 * np.array(outcome_map)
    return _T(u.conj()) @ (signs[:, None] * u)


def _sum_difference(s: np.ndarray) -> np.ndarray:
    """``(s0 + s1, s0 - s1)`` of a side's two settings, on the settings axis of ``(..., 2, d, d)``."""
    s0, s1 = s[..., 0, :, :], s[..., 1, :, :]
    out = np.empty_like(s, order="C")
    np.add(s0, s1, out=out[..., 0, :, :])
    np.subtract(s0, s1, out=out[..., 1, :, :])
    return out


def _chsh(sa: np.ndarray, sums_b: np.ndarray) -> np.ndarray:
    """The CHSH operator of Alice's settings-stacked observables ``(..., 2, d, d)``
    and Bob's ``_sum_difference`` of his."""
    terms = _kron(sa, sums_b)
    return terms[..., 0, :, :] + terms[..., 1, :, :]


def chsh_operator(setup: QuantumSetup) -> np.ndarray:
    """The CHSH operator ``A0 (x) (B0 + B1) + A1 (x) (B0 - B1)`` of the four local observables."""
    sa = _local_dichotomic(np.stack((setup.a0, setup.a1)), setup.alice_outcome)
    sb = _local_dichotomic(np.stack((setup.b0, setup.b1)), setup.bob_outcome)
    return _chsh(sa, _sum_difference(sb))


def _quarter_expectation(c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """One quarter of ``<psi|c|psi>``, for one state and operator or for stacks of both."""
    v = psi[..., None]
    return (_T(v.conj()) @ (c @ v))[..., 0, 0].real / 4.0


def score_of_setup(setup: QuantumSetup) -> float:
    """Expected game score of a setup: one quarter of the CHSH-operator expectation in its state."""
    return float(_quarter_expectation(chsh_operator(setup), setup.state))


def _row_norms(z: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex matrix, summed in the same order."""
    re, im = z.real[:, None, :], z.imag[:, None, :]
    return np.sqrt((re @ _T(re) + im @ _T(im))[:, 0, 0])


def _draw_starts(dims: tuple[int, int], rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One random start per generator, stacked: normalized states ``(n, da*db)``,
    Alice's unitaries ``(n, 2, da, da)`` and Bob's ``(n, 2, db, db)``.

    Each generator draws the real and then the imaginary parts of the state,
    then those of the Haar unitaries ``a0``, ``a1``, ``b0`` and ``b1``.  When
    the sides share a dimension, one stacked QR makes all four unitaries and
    the two sides are views of its ``(n, 4, d, d)`` result.
    """
    da, db = dims
    n = da * db
    x = np.empty((len(rngs), 2 * n + 4 * (da * da + db * db)))
    for row, rng in zip(x, rngs):
        rng.standard_normal(out=row)
    z = x[:, :n] + 1j * x[:, n : 2 * n]
    state = z / _row_norms(z)[:, None]
    if da == db:
        g = x[:, 2 * n :].reshape(-1, 4, 2, da, da)
        u = haar_of_gaussian(g[:, :, 0] + 1j * g[:, :, 1])
        return state, u[:, :2], u[:, 2:]
    ga = x[:, 2 * n : 2 * n + 4 * da * da].reshape(-1, 2, 2, da, da)
    gb = x[:, 2 * n + 4 * da * da :].reshape(-1, 2, 2, db, db)
    return (
        state,
        haar_of_gaussian(ga[:, :, 0] + 1j * ga[:, :, 1]),
        haar_of_gaussian(gb[:, :, 0] + 1j * gb[:, :, 1]),
    )


def random_setup(dims: tuple[int, int], rng: np.random.Generator) -> QuantumSetup:
    """Haar-random local unitaries with a random normalized shared state."""
    state, a, b = _draw_starts(as_dims(dims), [rng])
    return QuantumSetup(state[0], *a[0], *b[0])


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------


def _best_response(m: np.ndarray, outcome_map: tuple[int, ...]):
    """Local unitary whose observable maximizes ``Tr(A m)``, and that maximum.

    The observable keeps the side's outcome map, so its -1 multiplicity is the
    number of configurations reporting 1; those take the eigenvectors of ``m``
    with the lowest eigenvalues, the rest the highest.  ``m`` may be a stack
    of matrices; the unitaries and maxima stack the same way.
    """
    values, vectors = np.linalg.eigh(m)
    minus = sum(outcome_map)
    rows = [i for i, b in enumerate(outcome_map) if b] + [i for i, b in enumerate(outcome_map) if not b]
    u = np.empty_like(vectors)
    u[..., rows, :] = _T(vectors.conj())
    return u, values[..., minus:].sum(-1) - values[..., :minus].sum(-1)


#: Round cap for one seesaw restart; rounds normally stop far earlier, once a
#: round gains less than ``tol``.
_MAX_ROUNDS = 1000


def _seesaw_stack(a, b, alice, bob, tol: float):
    """Alternate closed-form best responses of the state, Alice and Bob, for a
    stack of restarts in lock step.

    ``a`` and ``b`` stack each restart's two local unitaries per side,
    ``(n, 2, da, da)`` and ``(n, 2, db, db)``.  Every step maximizes the
    CHSH expectation over one part with the others held fixed, so a
    restart's score never decreases from round to round.  A round makes
    three stacked eigendecompositions (the state's, Alice's and Bob's) and
    takes each side's ``_sum_difference`` once: Bob's feed both the CHSH
    operator and Alice's partial trace, Alice's Bob's partial trace.  Each
    round runs only the restarts still active, as views of the whole stack
    until the first one freezes; a restart freezes with the state and
    unitaries of the round that gained less than ``tol``.  Returns the
    states, the unitaries, and the number of rounds each restart ran
    (``_MAX_ROUNDS`` for one that hit the cap).
    """
    a, b = a.copy(), b.copy()
    n, da, db = a.shape[0], a.shape[-1], b.shape[-1]
    state = np.zeros((n, da * db), dtype=complex)
    rounds = np.full(n, _MAX_ROUNDS)
    active = slice(None)  # every restart, indexed without a copy, until one freezes
    best = np.full(n, -math.inf)
    sa = _local_dichotomic(a, alice)
    for round_ in range(1, _MAX_ROUNDS + 1):
        sums_b = _sum_difference(_local_dichotomic(b[active], bob))
        state[active] = np.linalg.eigh(_chsh(sa, sums_b))[1][..., -1]
        psi = state[active].reshape(-1, 1, da, db)  # broadcast over the settings axis
        psi_h = _T(psi.conj())
        a_new = _best_response(psi @ _T(sums_b) @ psi_h, alice)[0]
        sa = _local_dichotomic(a_new, alice)
        b_new, maxima = _best_response(_T(psi_h @ _sum_difference(sa) @ psi), bob)
        a[active], b[active] = a_new, b_new
        score = (maxima[:, 0] + maxima[:, 1]) / 4.0
        going = ~(score - best < tol)
        if not going.all():
            index = np.arange(n)[active]
            rounds[index[~going]] = round_
            if not going.any():
                break
            active, sa, score = index[going], sa[going], score[going]
        best = score
    return state, a, b, rounds


def _assert_restarts(state, a, b) -> None:
    """The state and unitary checks of ``QuantumSetup``, on a block of restarts.

    One ``assert_unitaries`` call checks the ``(n, 4, d, d)`` stack of both
    sides when they share a dimension, else one each side's ``(n, 2, d, d)``
    stack; one ``as_state_vectors`` call checks the states.  Only when a
    unitary fails are the four fields checked one by one, in the setup's
    order ``a0``, ``a1``, ``b0``, ``b1``, so an error names the first failing
    field, as the setup would, and the restart's index within its block.
    """
    try:
        if a.shape[-1] == b.shape[-1]:
            assert_unitaries(np.concatenate((a, b), axis=1), "ab")
        else:
            assert_unitaries(a, "a")
            assert_unitaries(b, "b")
    except ValueError:
        # The field checks make the same per-matrix tests, so one of them raises.
        for name, u in (("a0", a[:, 0]), ("a1", a[:, 1]), ("b0", b[:, 0]), ("b1", b[:, 1])):
            assert_unitaries(u, name)
    as_state_vectors(state, "state")


@dataclass
class OptimizeResult:
    """Best setup found, its score, and per restart in order the best score
    and the number of seesaw rounds (``_MAX_ROUNDS`` for a restart that hit
    the round cap).

    There is no time per restart: restarts run in lock-step blocks, so a
    restart's own time is not measured.
    """

    setup: QuantumSetup
    score: float
    restart_scores: list[float]
    restart_rounds: list[int]


def optimize(
    dims: tuple[int, int] = (2, 2),
    restarts: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> OptimizeResult:
    """Maximize the game score over shared states and local unitaries by seesaw.

    Restart ``k`` starts from a random setup drawn from the substream keyed by
    ``(seed, k)``; a block draws its starts through one ``Substreams`` pass,
    one generator of its own re-keyed per restart.  Each round then takes
    three closed-form steps: the state becomes the top eigenvector of the
    CHSH operator; each of Alice's observables becomes the best response to
    her partial trace of the state against Bob's combination ``B0 +- B1``;
    Bob's follow the same way against ``A0 +- A1``.  Each side's two responses come from one stacked
    eigendecomposition, so a round makes three.  Rounds stop once one gains
    less than ``tol``.  Restarts run in blocks of ``_RESTART_BLOCK`` (64) as
    stacked arrays through one seesaw kernel, so each block's arrays are bounded;
    ``restart_scores`` and ``restart_rounds`` gain one entry per restart.
    Each restart's result still depends only on ``(seed, k)``.
    Ties across restarts break toward the lowest restart index, so the
    result does not depend on how restarts are scheduled.  The returned
    score is the chosen restart's score as its block computed it.  Every
    start and every result gets the checks a ``QuantumSetup`` makes, as one
    stacked unitarity check of both sides when they share a dimension (else
    one per side) and one state check per block at each of the two checks;
    a failure raises their ``ValueError``, naming the field and the
    restart's index within its block.
    """
    da, db = as_dims(dims)
    if da < 2 or db < 2:
        raise ValueError(f"both local dimensions must be at least 2, got {dims!r}")
    if da * db > MAX_JOINT_DIM:
        raise ValueError(f"joint dimension {da * db} exceeds the supported cap {MAX_JOINT_DIM}")
    restarts = as_integer(restarts, "restarts")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    tol = as_tolerance(tol)
    alice, bob = _default_outcome_map(da), _default_outcome_map(db)
    best: list[np.ndarray] = []
    best_score = -math.inf
    restart_scores: list[float] = []
    restart_rounds: list[int] = []
    for lo in range(0, restarts, _RESTART_BLOCK):
        rngs = Substreams(seed, range(lo, min(lo + _RESTART_BLOCK, restarts)))
        state, a, b = _draw_starts((da, db), rngs)
        _assert_restarts(state, a, b)
        state, a, b, rounds = _seesaw_stack(a, b, alice, bob, tol)
        _assert_restarts(state, a, b)
        sa, sb = _local_dichotomic(a, alice), _local_dichotomic(b, bob)
        scores = _quarter_expectation(_chsh(sa, _sum_difference(sb)), state).tolist()
        for k, score in enumerate(scores):
            if score > best_score:
                best, best_score = [m.copy() for m in (state[k], *a[k], *b[k])], score
        restart_scores += scores
        restart_rounds += rounds.tolist()
    return OptimizeResult(QuantumSetup(*best, alice, bob), best_score, restart_scores, restart_rounds)


def canonical_setup() -> QuantumSetup:
    """The textbook setup that saturates the score ceiling.

    The Bell state ``(|00> + |11>) / sqrt(2)`` with Alice measuring along
    angles 0 and -pi/4 and Bob along -pi/8 and pi/8.
    """
    state = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return QuantumSetup(
        state, rotation(0.0), rotation(-math.pi / 4), rotation(-math.pi / 8), rotation(math.pi / 8)
    )
