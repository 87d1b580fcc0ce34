"""Quantum-side machinery for the game: preparation unitaries, outcome
observables, dichotomic observables, the CHSH operator, the score ceiling,
and a seesaw optimizer that saturates it.

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
    as_state_vector,
    as_tolerance,
    assert_unitary,
    basis_state,
    haar_unitary,
    rotation,
    substream,
)

#: Largest joint dimension handled by the dense operator pipeline.
MAX_JOINT_DIM = 16

#: Score ceiling for factorized local operations on a shared state.
TSIRELSON_SCORE = 1.0 / math.sqrt(2.0)

#: Spectral-norm ceiling of the CHSH operator.
CHSH_OPERATOR_CEILING = 2.0 * math.sqrt(2.0)

def _as_outcome_map(values, dim: int, name: str) -> tuple[int, ...]:
    values = tuple(values) or _default_outcome_map(dim)
    if len(values) != dim:
        raise ValueError(f"{name} must map all {dim} configurations, got {len(values)} entries")
    if any(b not in (0, 1) for b in values):  # 0.9 is not a bit, 1.0 is
        raise ValueError(f"{name} entries must be bits (0 or 1), got {values!r}")
    return tuple(int(b) for b in values)


def _default_outcome_map(dim: int) -> tuple[int, ...]:
    return tuple(k % 2 for k in range(dim))


@dataclass(frozen=True)
class QuantumSetup:
    """Shared state, per-setting local unitaries, and outcome coarse-grainings.

    The state lives on the composite space (row-major pairing of the two
    local configuration sets).  ``a0``/``a1`` act on the first side for
    settings 0/1, ``b0``/``b1`` on the second.  Outcome maps send each local
    configuration to the single bit that side reports; each side exposes one
    bit and nothing finer.
    """

    state: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    alice_outcome: tuple[int, ...] = ()
    bob_outcome: tuple[int, ...] = ()

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
        alice = _as_outcome_map(self.alice_outcome, da, "alice_outcome")
        bob = _as_outcome_map(self.bob_outcome, db, "bob_outcome")
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


@dataclass(frozen=True)
class PreparationUnitary:
    """Unitary preparation applied to a fixed initial composite configuration."""

    c_psi: np.ndarray
    dims: tuple[int, int]
    initial: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        c = assert_unitary(self.c_psi, name="c_psi")
        da, db = int(self.dims[0]), int(self.dims[1])
        if da < 1 or db < 1 or da * db != c.shape[0]:
            raise ValueError(
                f"dims {self.dims!r} do not match preparation dimension {c.shape[0]}"
            )
        q0, r0 = int(self.initial[0]), int(self.initial[1])
        if not (0 <= q0 < da and 0 <= r0 < db):
            raise ValueError(f"initial configuration {self.initial!r} out of range for dims {self.dims!r}")
        object.__setattr__(self, "c_psi", c)
        object.__setattr__(self, "dims", (da, db))
        object.__setattr__(self, "initial", (q0, r0))


def prepare_state(prep: PreparationUnitary) -> np.ndarray:
    """Shared state produced by the preparation: one column of its unitary."""
    da, db = prep.dims
    q0, r0 = prep.initial
    return prep.c_psi @ basis_state(da * db, q0 * db + r0)


def _local_dichotomic(u: np.ndarray, outcome_map: tuple[int, ...]) -> np.ndarray:
    """One side's +-1 observable on its own space: ``u^dag S u`` for the outcome signs ``S``."""
    signs = 1.0 - 2.0 * np.array(outcome_map)
    return u.conj().T @ (signs[:, None] * u)


def dichotomic(side: str, setting: int, setup: QuantumSetup) -> np.ndarray:
    """One side's local +-1 observable, padded with the identity on the other side."""
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    if setting not in (0, 1):
        raise ValueError(f"setting must be 0 or 1, got {setting!r}")
    if side == "a":
        local = _local_dichotomic(setup.a0 if setting == 0 else setup.a1, setup.alice_outcome)
        return np.kron(local, np.eye(setup.dim_b))
    local = _local_dichotomic(setup.b0 if setting == 0 else setup.b1, setup.bob_outcome)
    return np.kron(np.eye(setup.dim_a), local)


def outcome_observable(side: str, setting: int, outcome: int, setup: QuantumSetup) -> np.ndarray:
    """Hermitian projector for one side reporting one outcome bit, on the joint space.

    It is ``(1 + s) / 2`` for outcome 0 and ``(1 - s) / 2`` for outcome 1,
    where ``s`` is the side's dichotomic observable.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    s = dichotomic(side, setting, setup)
    return (np.eye(s.shape[0]) + (1 - 2 * outcome) * s) / 2.0


def _chsh_of_local(sa0, sa1, sb0, sb1) -> np.ndarray:
    return np.kron(sa0, sb0 + sb1) + np.kron(sa1, sb0 - sb1)


def chsh_operator(setup: QuantumSetup) -> np.ndarray:
    """The CHSH operator ``A0 (x) (B0 + B1) + A1 (x) (B0 - B1)`` of the four local observables."""
    sa0, sa1 = (_local_dichotomic(u, setup.alice_outcome) for u in (setup.a0, setup.a1))
    sb0, sb1 = (_local_dichotomic(u, setup.bob_outcome) for u in (setup.b0, setup.b1))
    return _chsh_of_local(sa0, sa1, sb0, sb1)


def score_of_setup(setup: QuantumSetup, state=None) -> float:
    """Expected game score of a setup: one quarter of the CHSH-operator expectation."""
    psi = setup.state if state is None else as_state_vector(state)
    if psi.shape[0] != setup.dim_a * setup.dim_b:
        raise ValueError("state dimension does not match the setup's joint dimension")
    value = complex(psi.conj() @ (chsh_operator(setup) @ psi)) / 4.0
    return value.real


def random_setup(dims: tuple[int, int], rng: np.random.Generator) -> QuantumSetup:
    """Haar-random local unitaries with a random normalized shared state."""
    da, db = int(dims[0]), int(dims[1])
    z = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
    state = z / np.linalg.norm(z)
    return QuantumSetup(
        state=state,
        a0=haar_unitary(da, rng),
        a1=haar_unitary(da, rng),
        b0=haar_unitary(db, rng),
        b1=haar_unitary(db, rng),
    )


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------


def _best_response(m: np.ndarray, outcome_map: tuple[int, ...], diagonal: bool):
    """Local unitary whose observable maximizes ``Tr(A m)``, and that maximum.

    The observable keeps the side's outcome map, so its -1 multiplicity is the
    number of configurations reporting 1; those take the eigenvectors of ``m``
    with the lowest eigenvalues, the rest the highest.  With ``diagonal`` only
    the diagonal of ``m`` is used and the observable comes out diagonal.
    """
    if diagonal:
        m = np.diag(np.diag(m))
    values, vectors = np.linalg.eigh(m)
    minus = sum(outcome_map)
    rows = [i for i, b in enumerate(outcome_map) if b] + [i for i, b in enumerate(outcome_map) if not b]
    u = np.empty_like(vectors)
    u[rows] = vectors.conj().T
    return u, float(values[minus:].sum() - values[:minus].sum())


#: Round cap for one seesaw restart; rounds normally stop far earlier, once a
#: round gains less than ``tol``.
_MAX_ROUNDS = 1000


def _seesaw(setup: QuantumSetup, tol: float, restrict_classical: bool) -> QuantumSetup:
    """Alternate closed-form best responses of the state, Alice and Bob.

    Every step maximizes the CHSH expectation over one part with the others
    held fixed, so the score never decreases from round to round.
    """
    da, db = setup.dim_a, setup.dim_b
    alice, bob = setup.alice_outcome, setup.bob_outcome
    a, b = (setup.a0, setup.a1), (setup.b0, setup.b1)
    sa0, sa1 = (_local_dichotomic(u, alice) for u in a)
    state = basis_state(da * db, 0)  # stays pinned under restrict_classical
    best = -math.inf
    for _ in range(_MAX_ROUNDS):
        sb0, sb1 = (_local_dichotomic(u, bob) for u in b)
        if not restrict_classical:
            state = np.linalg.eigh(_chsh_of_local(sa0, sa1, sb0, sb1))[1][:, -1]
        psi = state.reshape(da, db)
        a = tuple(
            _best_response(psi @ c.T @ psi.conj().T, alice, restrict_classical)[0]
            for c in (sb0 + sb1, sb0 - sb1)
        )
        sa0, sa1 = (_local_dichotomic(u, alice) for u in a)
        responses = [
            _best_response((psi.conj().T @ d @ psi).T, bob, restrict_classical)
            for d in (sa0 + sa1, sa0 - sa1)
        ]
        b = tuple(u for u, _ in responses)
        score = sum(value for _, value in responses) / 4.0
        if score - best < tol:
            break
        best = score
    return QuantumSetup(state, a[0], a[1], b[0], b[1], alice, bob)


@dataclass
class OptimizeResult:
    """Best setup found, its score, and the per-restart best scores in order."""

    setup: QuantumSetup
    score: float
    restart_scores: list[float]


def optimize(
    dims: tuple[int, int] = (2, 2),
    restarts: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    restrict_classical: bool = False,
) -> OptimizeResult:
    """Maximize the game score over shared states and local unitaries by seesaw.

    Restart ``k`` starts from a random setup drawn from the substream keyed by
    ``(seed, k)``.  Each round then takes three closed-form steps: the state
    becomes the top eigenvector of the CHSH operator; each of Alice's
    observables becomes the best response to her partial trace of the state
    against Bob's combination ``B0 +- B1``; Bob's follow the same way against
    ``A0 +- A1``.  Rounds stop once one gains less than ``tol``.  Ties across
    restarts break toward the lowest restart index, so the result does not
    depend on how restarts are scheduled.  The returned score is re-evaluated
    through the operator-expectation path on the built setup.

    With ``restrict_classical`` the state is pinned to the product
    configuration ``|0,0>`` and the observables to diagonal matrices, which
    confines the search to strategies a classical shared-randomness pair
    could play.
    """
    da, db = int(dims[0]), int(dims[1])
    if da < 2 or db < 2:
        raise ValueError(f"both local dimensions must be at least 2, got {dims!r}")
    if da * db > MAX_JOINT_DIM:
        raise ValueError(f"joint dimension {da * db} exceeds the supported cap {MAX_JOINT_DIM}")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    tol = as_tolerance(tol)
    best: QuantumSetup | None = None
    best_score = -math.inf
    restart_scores: list[float] = []
    for restart in range(restarts):
        setup = _seesaw(random_setup((da, db), substream(seed, restart)), tol, restrict_classical)
        score = score_of_setup(setup)
        restart_scores.append(score)
        if score > best_score:
            best, best_score = setup, score
    assert best is not None
    return OptimizeResult(best, best_score, restart_scores)


def canonical_setup() -> QuantumSetup:
    """The textbook setup that saturates the score ceiling.

    The Bell state ``(|00> + |11>) / sqrt(2)`` with Alice measuring along
    angles 0 and -pi/4 and Bob along -pi/8 and pi/8.
    """
    state = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return QuantumSetup(
        state, rotation(0.0), rotation(-math.pi / 4), rotation(-math.pi / 8), rotation(math.pi / 8)
    )
