"""Dense complex linear algebra for small configuration spaces.

All operations are pure functions on plain numpy arrays: complex matrices,
normalized state vectors and probability tables.  Matrices are dense and
deliberately tiny (dimension capped at ``MAX_DIM``); everything runs in
double precision.  The one influence kernel, :func:`remote_spread`, and its
``INFLUENCE_TOL`` live here, below both ``causality`` and ``game``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

#: Practical cap on matrix dimensions; every object in this package is tiny.
MAX_DIM = 64

#: Default tolerance for unitarity checks.  Composed rotations accumulate
#: round-off well below this.
UNITARY_TOL = 1e-10

HERMITIAN_TOL = 1e-10
STATE_NORM_TOL = 1e-12

#: How far round-off may push a probability outside [0, 1].
ENTRY_SLACK = 1e-12

#: Tolerance on the sums that normalize a probability table.
SUM_TOL = 1e-10

#: Default influence tolerance; table entries are products of at most four
#: double-precision factors.
INFLUENCE_TOL = 1e-9

_UINT64_MAX = (1 << 64) - 1

#: Most restarts a search runs together as one stack, so its memory is
#: O(block) whatever the restart count.
RESTART_BLOCK = 64


class Substreams:
    """Substreams ``k`` of ``seed`` for each ``k`` of ``ks`` in order: a sized
    sequence of Philox generators, the one for ``k`` keyed by ``[seed, k]``.

    Every seeded routine (a simulate run, an optimize or a dilation search)
    draws its randomness from these, one substream per chunk or restart, so
    a result depends only on the seed and never on how the work is scheduled.
    One pass makes one ``Philox`` and one ``Generator`` and re-keys them for
    each ``k`` (counter zeroed, key ``[seed, k]``, buffer emptied): each draws
    what a fresh ``Philox(key=[seed, k])`` would.  A fresh ``Philox`` draws
    128 bits of OS entropy that its key then replaces; a re-key draws none.
    Each generator a pass yields is valid only until the next is taken.
    Nothing is shared between passes or instances, so calls in two threads
    never share generator state.
    """

    def __init__(self, seed: int, ks: range):
        self._seed, self._ks = as_seed(seed), ks

    def __len__(self) -> int:
        return len(self._ks)

    def __iter__(self):
        bits = np.random.Philox(key=[0, 0])  # a key skips deriving a state from the OS entropy
        rng = np.random.Generator(bits)
        for k in self._ks:
            bits.state = {"bit_generator": "Philox",
                          "state": {"counter": [0, 0, 0, 0], "key": [self._seed, k]},
                          "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            yield rng


def as_integer(value, name: str) -> int:
    """``value`` as an int if it equals one: ``2.0`` does; ``2.5``, ``"2"`` and ``inf`` do not."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_dims(values) -> tuple[int, int]:
    """Validate a pair of local dimensions: exactly two integers, not truncated."""
    try:
        a, b = values
    except (TypeError, ValueError):
        raise ValueError(f"dims must be two local dimensions, got {values!r}") from None
    return as_integer(a, "dims[0]"), as_integer(b, "dims[1]")


def as_seed(seed) -> int:
    """Validate a seed: an integer in [0, 2**64), rejected rather than truncated or wrapped."""
    seed = as_integer(seed, "seed")
    if not 0 <= seed <= _UINT64_MAX:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def as_bits(values, n: int, name: str) -> tuple[int, ...]:
    """Validate ``n`` bits and return them as ints: ``1.0`` is a bit, ``0.9`` is not."""
    bits = tuple(values)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"{name} must be {n} bits (0 or 1), got {bits!r}")
    return tuple(int(b) for b in bits)


def as_tolerance(tol) -> float:
    """Validate a search or acceptance tolerance: a finite, positive real number.

    A NaN tolerance would make every ``> tol`` test false, so a search would
    never stop and an acceptance test would accept anything.  A value that is
    not a real number (``"1e-3"``, ``None``, a complex number, a list) is
    rejected, not converted.
    """
    try:
        value = float(tol) if isinstance(tol, numbers.Real) else math.nan
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    return value


def as_probabilities(p, ndim: int, axes, name: str, what: str) -> np.ndarray:
    """Validate a probability table and return a cleaned float copy.

    The table needs ``ndim`` non-empty axes and finite entries in [0, 1]
    within ``ENTRY_SLACK``; its sums over ``axes`` (``None``: all entries)
    must be 1 within ``SUM_TOL``.  Round-off negatives are clipped to zero.
    ``what`` completes the message "``name`` must ..." for a bad sum.
    """
    a = np.asarray(p, dtype=float)
    if a.ndim != ndim or 0 in a.shape:
        raise ValueError(f"{name} must have {ndim} non-empty axes, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    if a.min() < -ENTRY_SLACK or a.max() > 1 + ENTRY_SLACK:
        raise ValueError(f"{name}: entries must be probabilities in [0, 1]")
    dev = float(np.max(np.abs(a.sum(axis=axes) - 1.0)))
    if dev > SUM_TOL:
        raise ValueError(f"{name} must {what} within {SUM_TOL:g} (deviation {dev:.3e})")
    return np.clip(a, 0.0, None)


def remote_spread(table: np.ndarray, side: int) -> np.ndarray:
    """``max - min`` of one side's marginal over the remote start, as ``[outcome, own start]``.

    ``table`` is a validated ``p[q_t, r_t, q_0, r_0]``; side 0 is ``q``, side 1 is ``r``.
    A box ``P[q, r, x, y]`` is such a table, with the inputs as starts.
    """
    m = table.sum(axis=1 - side)
    return m.max(axis=2 - side) - m.min(axis=2 - side)


def _first(bad: np.ndarray, name: str) -> tuple[tuple[int, ...], str]:
    """Index of the first flagged item of a stack, and ``name`` tagged with it.

    An unstacked item (``bad`` 0-d) keeps its plain ``name``.
    """
    i = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
    return i, f"{name}[{', '.join(map(str, i))}]" if i else name


def _checked_matrices(a: np.ndarray, name: str) -> np.ndarray:
    """Size, finiteness and square checks for a complex matrix or a stack of them."""
    if max(a.shape[-2:]) > MAX_DIM:
        raise ValueError(
            f"{name} is {a.shape[-2]}x{a.shape[-1]}; dimensions above {MAX_DIM} are not supported"
        )
    if not np.isfinite(a).all():
        where = _first(~np.isfinite(a).all(axis=(-2, -1)), name)[1]
        raise ValueError(f"{where} contains non-finite entries")
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def as_state_vector(v, name: str = "state") -> np.ndarray:
    """Coerce ``v`` to a normalized complex state vector."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {a.shape}")
    return as_state_vectors(a, name)


def as_state_vectors(v, name: str = "state") -> np.ndarray:
    """Coerce ``v`` to normalized complex state vectors stacked on leading axes.

    The checks of :func:`as_state_vector`, made on each vector; an error
    names the first failing vector by its index in the stack.
    """
    a = np.asarray(v, dtype=complex)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ValueError(f"{name} must be a 1-d vector or a stack of them, got shape {a.shape}")
    if a.shape[-1] > MAX_DIM:
        raise ValueError(f"{name} has dimension {a.shape[-1]}; above {MAX_DIM} is not supported")
    if not np.isfinite(a).all():
        where = _first(~np.isfinite(a).all(axis=-1), name)[1]
        raise ValueError(f"{where} contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, not a warning
        norm_sq = np.sum(np.abs(a) ** 2, axis=-1)
    bad = ~(np.abs(norm_sq - 1.0) <= STATE_NORM_TOL)
    if bad.any():
        i, where = _first(bad, name)
        raise ValueError(f"{where} is not normalized: sum of squared moduli is {float(norm_sq[i])!r}")
    return a


def rotation(theta: float) -> np.ndarray:
    """Real 2x2 rotation by ``theta`` (orthogonal, hence unitary)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _as_square(m, name: str) -> np.ndarray:
    """Coerce ``m`` to a dense complex square matrix, checking shape and finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    return _checked_matrices(a, name)


def _as_hermitian(h, name: str) -> np.ndarray:
    a = _as_square(h, name)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, not a warning
        dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_TOL:g} (deviation {dev:.3e})")
    return a


def assert_unitary(u, name: str = "matrix") -> np.ndarray:
    """Validate unitarity and return the coerced matrix; raise otherwise."""
    return _unitaries(_as_square(u, name), name)


def assert_unitaries(u, name: str = "matrix") -> np.ndarray:
    """Validate a stack of unitaries on leading axes and return it coerced.

    The checks of :func:`assert_unitary`, made on each matrix; an error
    names the first failing matrix by its index in the stack.
    """
    a = np.asarray(u, dtype=complex)
    if a.ndim < 2 or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError(f"{name} must be a 2-d matrix or a stack of them, got shape {a.shape}")
    return _unitaries(_checked_matrices(a, name), name)


def _unitaries(a: np.ndarray, name: str) -> np.ndarray:
    """``a``, a checked square matrix or stack of them, if each is unitary; raise otherwise."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives NaN or inf, not a warning
        gram = a.conj().swapaxes(-1, -2) @ a
    dev = np.abs(gram - np.eye(a.shape[-1])).max(axis=(-2, -1))  # largest entry of |a^dag a - 1|
    bad = ~(dev <= UNITARY_TOL)  # an overflowing Gram matrix gives a NaN deviation
    if bad.any():
        i, where = _first(bad, name)
        raise ValueError(f"{where} is not unitary within {UNITARY_TOL:g} (deviation {dev[i]:.3e})")
    return a


def basis_state(dim: int, index: int) -> np.ndarray:
    """Configuration-basis vector of the given dimension."""
    dim, index = as_integer(dim, "dim"), as_integer(index, "index")
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def dephase(rho) -> np.ndarray:
    """Zero all off-diagonal entries of a density matrix in the configuration basis.

    This is the division channel: it wipes coherences while preserving the
    trace, and maps positive-semidefinite inputs to positive-semidefinite
    outputs.
    """
    a = _as_hermitian(rho, "rho")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > HERMITIAN_TOL:
        raise ValueError(f"rho must have unit trace, got trace {tr!r}")
    return np.diag(np.diag(a))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix."""
    return haar_of_gaussian(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def haar_of_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices, stacked on leading axes.

    Each is the ``Q`` of a QR factorization with the phases of ``R``'s
    diagonal moved into it, which makes the distribution exactly Haar.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def spectral_norm(h) -> float:
    """Spectral norm of a Hermitian matrix via dense eigendecomposition."""
    return float(np.max(np.abs(np.linalg.eigvalsh(_as_hermitian(h, "h")))))
