"""Dense state-vector core: kets, Pauli strings, and projective measurement.

Conventions used throughout the package:

* Big-endian qubit order. In a ket label the leftmost symbol is qubit 0 and
  maps to the most significant bit of the amplitude index, so ``|01>`` has its
  amplitude at index 1 and ``|10>`` at index 2.
* Amplitudes are complex128 arrays of length ``2**num_qubits``.
* A Pauli string acts by one rule: its ``(xmask, zmask)`` bits take
  amplitude ``k ^ xmask`` to index k with sign ``(-1)**popcount(k & zmask)``.
  Corrections, candidate searches and ``PauliString.matrix`` all use it.
* ``StateVector(amplitudes)`` is the one constructor: the qubit count is
  read off the length, which must be a power of two. The state is validated
  to unit norm (tolerance ``NORM_ATOL``) and never silently renormalized; it
  is the value at the package's edges (secrets, channels, basis vectors,
  transcripts).
* The projection, measurement, correction and fidelity functions take and
  return only ``(rows, 2**n)`` stacks of amplitude rows, doing the same
  floating-point work on every row; a single state is the one-row stack
  ``state.amplitudes[None]``, and only ``basis_projection_probabilities``
  also takes a StateVector. A basis's ``project`` is a matmul, or for a
  ``LiftedBasis`` (a basis on rows (x) one fixed state) a gather on the rows
  that checks their norms. Each projection's span is checked once, right
  after it. Of a stack's norms only the collapsed rows are checked; the
  caller checks the rest with ``check_normalized``.
* A sampled measurement takes one uniform draw in [0, 1) per row, as an
  array; it draws nothing itself.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

# largest |norm - 1| a state (or a secret's coefficient weight) may carry
NORM_ATOL = 1e-12
# largest probability mass a measured state may have outside the basis span
SPAN_ATOL = 1e-9

# the scalars numpy or complex() would read as numbers that are none
_NOT_NUMBERS = (str, bytes, bytearray, bool, np.bool_)

# each factor is Z**z X**x: (x, z) per label; iY = ZX stays exactly real
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "iY": (1, 1)}


class NormalizationError(ValueError):
    """State or coefficient vector is not unit norm; carries the deficit."""

    def __init__(self, message: str, deficit: float):
        super().__init__(f"{message} (norm deficit {deficit:.3e})")
        self.deficit = deficit


class OutOfSpanError(ValueError):
    """Measured state has support outside the measurement basis span."""

    def __init__(self, missing_mass: float):
        super().__init__(
            f"state has probability mass {missing_mass:.3e} outside the basis span"
        )
        self.missing_mass = missing_mass


def _integer(n, name: str) -> int:
    """``n`` as an int; a bool or a non-integer is refused."""
    if type(n) is not int:  # a bool is refused, a numpy integer stored as int
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {n!r}")
        n = int(n)
    return n


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable pure state; its ``2**num_qubits`` amplitudes fix the qubit
    count."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        # a list's bools become numbers in amps: its own items are checked
        items = amps.tolist() if amps.dtype == object else self.amplitudes
        if (
            amps.ndim != 1
            or amps.dtype.kind in "bSU"
            or not isinstance(items, np.ndarray)
            and any(isinstance(a, _NOT_NUMBERS) for a in items)
        ):  # flattened, a matrix would read as a state; text or bools, as numbers
            raise ValueError(
                f"amplitudes must be one row of numbers, got {self.amplitudes!r}"
            )
        amps = amps.astype(complex)  # a copy, never the caller's array
        length = amps.shape[0]
        if length == 0 or length & (length - 1):
            raise ValueError(f"amplitude count {length} is not a power of two")
        check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1

    def amplitude_pairs(self) -> list[list[float]]:
        """Amplitudes as ``[re, im]`` pairs for JSON serialization."""
        return self.amplitudes.view(np.float64).reshape(-1, 2).tolist()


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit factors drawn from {I, X, Z, iY}."""

    labels: tuple[str, ...]

    def __post_init__(self):
        bad = [lab for lab in self.labels if lab not in _PAULI_BITS]
        if bad:
            raise ValueError(f"unknown Pauli labels {bad}; allowed: I, X, Z, iY")
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "*".join(self.labels)

    @functools.cached_property
    def masks(self) -> tuple[int, int]:
        """``(xmask, zmask)``: the flipped bits and the phase bits, qubit 0
        the most significant bit."""
        xmask = zmask = 0
        for lab in self.labels:
            x, z = _PAULI_BITS[lab]
            xmask, zmask = 2 * xmask + x, 2 * zmask + z
        return xmask, zmask

    def matrix(self) -> np.ndarray:
        """Dense form of the rule: ``M[k, k ^ x] = (-1)**popcount(k & z)``."""
        dim = 2 ** len(self.labels)
        source, sign = _xor_sign_tables(dim, *self.masks)
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(dim), source] = sign
        return m


def tensor_product(*states: StateVector) -> StateVector:
    """Kronecker product; qubit order is left factor first."""
    if not states:
        raise ValueError("tensor_product needs at least one state")
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return StateVector(amps)


@functools.cache
def _xor_sign_tables(
    dim: int, xmask: int, zmask: int
) -> tuple[np.ndarray, np.ndarray]:
    """Source index ``k ^ xmask`` and sign ``(-1)**popcount(k & zmask)`` per k."""
    source = np.array([k ^ xmask for k in range(dim)])
    sign = np.array([(-1.0) ** bin(k & zmask).count("1") for k in range(dim)])
    source.flags.writeable = False
    sign.flags.writeable = False
    return source, sign


def _pauli_tables(
    paulis: tuple[PauliString, ...] | list[PauliString], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_xor_sign_tables`` of each string on ``dim`` amplitudes, stacked:
    (strings, dim) source indices and signs, read-only so a cache may share
    them. Each distinct string's rows are made once, then gathered."""
    distinct = {p.labels: p for p in paulis}
    widths = {len(p) for p in distinct.values()} - {dim.bit_length() - 1}
    if widths:
        raise ValueError(f"{widths.pop()} Pauli factors on rows of {dim} amplitudes")
    row = {labels: k for k, labels in enumerate(distinct)}
    rows = [row[p.labels] for p in paulis]
    tables = [_xor_sign_tables(dim, *p.masks) for p in distinct.values()]
    source = np.array([t[0] for t in tables])[rows]
    sign = np.array([t[1] for t in tables])[rows]
    source.flags.writeable = sign.flags.writeable = False
    return source, sign


def apply_pauli_string(rows: np.ndarray, paulis: list[PauliString]) -> np.ndarray:
    """Apply ``paulis[t]``, one factor per qubit, to row t of a stack of
    amplitude rows; the corrected rows' norms are not checked."""
    _check_one_per_row(rows, paulis, "Pauli strings")
    source, sign = _pauli_tables(paulis, rows.shape[1])
    # + 0.0 turns the -0.0 a sign flip leaves on a zero component into 0.0
    return sign * rows[np.arange(len(rows))[:, None], source] + 0.0


def fidelity(a: np.ndarray, b: np.ndarray) -> list[float]:
    """|<a|b>|^2 per pair of rows of two stacks, insensitive to global phase.

    One ``np.vecdot`` for the stack, each row's sum ``np.vdot``'s bits, then
    Python's ``abs`` per row (``np.abs`` rounds differently).
    """
    _check_one_per_row(a, b, "rows to compare")  # vecdot would broadcast one row
    return [abs(c) ** 2 for c in np.vecdot(a, b).tolist()]


@dataclass(frozen=True)
class OrthonormalBasis:
    """Measurement basis on a subset of qubits.

    The vectors may span only a subspace of the measured qubits' space; a
    measurement then demands that the state carry no probability mass outside
    that span. ``validate=False`` skips the orthonormality check so that
    deliberately defective encodings can be represented and inspected.
    """

    target_qubits: tuple[int, ...]
    vectors: tuple[StateVector, ...]
    validate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "target_qubits", tuple(self.target_qubits))
        object.__setattr__(self, "vectors", tuple(self.vectors))
        if len(set(self.target_qubits)) != len(self.target_qubits):
            raise ValueError(f"duplicate target qubits {self.target_qubits}")
        k = len(self.target_qubits)
        for v in self.vectors:
            if v.num_qubits != k:
                raise ValueError(
                    f"basis vector on {v.num_qubits} qubits, expected {k}"
                )
        if len(self.vectors) > 2**k:
            raise ValueError("more vectors than the measured subspace dimension")
        if self.validate:
            defects = self.gram_defects()
            if defects:
                i, j, g = defects[0]
                raise ValueError(
                    f"basis is not orthonormal: <v{i}|v{j}> = {g:.6g} "
                    f"({len(defects)} defective pairs)"
                )

    def matrix(self) -> np.ndarray:
        """Vectors stacked as rows, shape (num_vectors, 2**k)."""
        return np.array([v.amplitudes for v in self.vectors])

    def project(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's (outcomes, 2**rest) branches and (outcomes,)
        probabilities, from one stacked matmul; the span is not checked."""
        branches = self.matrix().conj() @ _split_measured(rows, self.target_qubits)
        return branches, _probabilities(branches)

    def gram_defects(self, atol: float = NORM_ATOL) -> list[tuple[int, int, complex]]:
        """Entries (i, j, <vi|vj>) where the Gram matrix deviates from identity."""
        b = self.matrix()
        gram = b.conj() @ b.T
        delta = gram - np.eye(len(self.vectors))
        out = []
        for i, j in zip(*np.nonzero(np.abs(delta) > atol)):
            if i <= j:
                out.append((int(i), int(j), complex(gram[i, j])))
        return out


@dataclass(frozen=True, eq=False)
class LiftedBasis:
    """A basis measured on ``row (x) fixed``, projected as a gather on the
    rows: each branch amplitude sums at most two row amplitudes, ``sources``,
    times constants, ``weights`` (both (terms, outcomes, 2**rest); weight 0
    where an amplitude has fewer terms). Two terms add alike in any order."""

    sources: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, basis: OrthonormalBasis, fixed: StateVector, width: int) -> LiftedBasis:
        units = np.eye(2**width, dtype=complex)[:, :, None]
        branches, _ = basis.project((units * fixed.amplitudes).reshape(2**width, -1))
        nonzero = branches != 0
        terms = int(np.max(np.add.reduce(nonzero, axis=0)))
        if terms > 2:
            raise ValueError(f"{terms} terms in a branch amplitude, more than 2")
        # the kets with a term first, in ket order
        sources = np.argsort(~nonzero, axis=0, kind="stable")[:terms]
        weights = np.take_along_axis(branches, sources, axis=0)
        sources.flags.writeable = weights.flags.writeable = False
        return cls(sources, weights)

    def project(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``OrthonormalBasis.project`` of each row (x) the fixed state, the
        rows' norms checked first; the span is not checked."""
        check_normalized(rows)
        # np.take keeps the matmul's C order, so the probabilities sum alike
        branches = np.take(rows, self.sources[0], axis=1)
        branches *= self.weights[0]
        if len(self.sources) == 2:
            branches += np.take(rows, self.sources[1], axis=1) * self.weights[1]
        branches += 0.0  # the +0.0 BLAS writes where no term is nonzero
        return branches, _probabilities(branches)


@dataclass(frozen=True)
class MeasurementResult:
    """Measurement of a stack of states, one entry per measured row: the
    outcome and probability arrays, and ``residual``, the stack of
    normalised post-measurement rows."""

    outcome: np.ndarray
    probability: np.ndarray
    residual: np.ndarray
    # (rows, outcomes, 2**rest): every outcome's unnormalised branch per row
    branches: np.ndarray = field(repr=False, compare=False)


def _check_one_per_row(rows: np.ndarray, items: list, what: str) -> None:
    # numpy would broadcast a single item over every row
    if len(items) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(items)} {what}")


def check_normalized(amps: np.ndarray) -> None:
    """Raise NormalizationError unless the amplitudes of a state, or every row
    of a stack of them, have unit norm (to ``NORM_ATOL``)."""
    # re, im interleaved along the last axis; vecdot sums their squares with no
    # temporary array
    parts = np.ascontiguousarray(amps).view(np.float64)
    norms = np.sqrt(np.vecdot(parts, parts))
    # the worst row decides; a NaN or inf amplitude propagates and fails
    deficit = float(np.maximum.reduce(np.abs(norms - 1.0), axis=None))
    if not deficit <= NORM_ATOL:
        raise NormalizationError("state is not normalized", deficit)


def _split_measured(amps: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Amplitudes ``(..., 2**n)`` as ``(..., 2**k, 2**rest)``: one matrix per
    state, the measured qubits on its rows."""
    lead = amps.shape[:-1]
    n = amps.shape[-1].bit_length() - 1
    rest = [q for q in range(n) if q not in targets]
    k = len(lead)
    t = amps.reshape(*lead, *[2] * n)
    t = t.transpose(*range(k), *[k + q for q in (*targets, *rest)])
    return t.reshape(*lead, 2 ** len(targets), -1)


def _probabilities(branches: np.ndarray) -> np.ndarray:
    """Each branch's squared norm: ``|b|**2`` squared in place, summed."""
    weights = np.abs(branches)
    weights *= weights
    return np.add.reduce(weights, axis=-1)


def basis_projection_probabilities(
    state: StateVector | np.ndarray, basis: OrthonormalBasis | LiftedBasis
) -> np.ndarray:
    """Per-vector projection probabilities; no completeness requirement. A
    stack of amplitude rows gives one row of them per state; a StateVector,
    the one other input taken here, gives one (vectors,) array."""
    if isinstance(state, StateVector):
        return basis.project(state.amplitudes[None])[1][0]
    return basis.project(state)[1]


def _check_span(probs: np.ndarray) -> None:
    """Raise OutOfSpanError if any row's probabilities fall short of 1 by
    more than ``SPAN_ATOL``."""
    sums = np.add.reduce(probs, axis=-1)
    # the worst row decides; a NaN sum propagates and fails the check
    missing = 1.0 - float(np.minimum.reduce(sums, axis=None))
    if not missing <= SPAN_ATOL:
        raise OutOfSpanError(missing)


# numpy's choice() tolerance on the sum of its probabilities
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def sample_outcomes(p: np.ndarray, uniforms) -> np.ndarray:
    """Outcome per row of ``p`` (last axis) for one uniform draw in [0, 1) each.

    The draw maps to an outcome exactly as numpy's ``choice(len(row),
    p=row)`` maps its own ``random()`` draw, and bad rows raise ValueError as
    there: NaN, a negative entry, or a sum off 1 by more than sqrt(eps).
    """
    # ufunc methods rather than np.sum/np.any, whose Python-level wrappers
    # cost more than the arithmetic on a few rows
    total = np.add.reduce(p, axis=-1)
    if np.logical_or.reduce(np.isnan(total), axis=None):
        raise ValueError("probabilities contain NaN")
    if np.logical_or.reduce(p < 0, axis=None):
        raise ValueError("probabilities are not non-negative")
    if np.logical_or.reduce(np.abs(total - 1.0) > _CHOICE_ATOL, axis=None):
        raise ValueError("probabilities do not sum to 1")
    cdf = np.add.accumulate(p, axis=-1)
    cdf /= cdf[..., -1:]
    # searchsorted(cdf, u, side="right") on each non-decreasing row
    below = cdf <= np.asarray(uniforms)[..., None]
    return np.add.reduce(below, axis=-1, dtype=np.intp)


def collapse(
    branches: np.ndarray, probs: np.ndarray, outcome: int | np.ndarray
) -> MeasurementResult:
    """The normalised ``outcome`` branch of each row of a ``project`` result:
    one outcome per row, or one for all. The caller has checked the span."""
    # range-checked before the int64 cast, which a huge int would overflow
    outcomes = np.asarray(outcome)
    bad = (outcomes < 0) | (outcomes >= probs.shape[1])
    if np.logical_or.reduce(bad, axis=None):
        raise ValueError(f"outcome {outcomes[bad][0]} out of range")
    outcomes = np.zeros(len(probs), dtype=int) + outcomes
    picked = np.arange(len(outcomes))
    p = probs[picked, outcomes]
    if np.logical_or.reduce(p <= 0.0):
        raise ValueError(f"outcome {outcomes[p <= 0.0][0]} has zero probability")
    residual = branches[picked, outcomes] / np.sqrt(p)[:, None]
    check_normalized(residual)
    return MeasurementResult(outcomes, p, residual, branches)


def measure_in_basis(
    rows: np.ndarray, basis: OrthonormalBasis | LiftedBasis, uniforms: np.ndarray
) -> MeasurementResult:
    """Sample one projective outcome per row and collapse the measured qubits.

    Row t maps ``uniforms[t]``, one draw in [0, 1), to an outcome by
    ``sample_outcomes``. Raises OutOfSpanError when more than ``SPAN_ATOL``
    of a row's probability mass lies outside the span of the basis vectors.
    """
    _check_one_per_row(rows, uniforms, "uniforms")
    branches, probs = basis.project(rows)
    _check_span(probs)  # before sampling: an all-zero projection has no draw
    p = probs / np.add.reduce(probs, axis=-1, keepdims=True)
    return collapse(branches, probs, sample_outcomes(p, uniforms))


def force_basis_outcome(
    rows: np.ndarray, basis: OrthonormalBasis | LiftedBasis, outcome: int
) -> MeasurementResult:
    """Deterministic collapse of every row onto one basis vector (no sampling)."""
    branches, probs = basis.project(rows)
    _check_span(probs)
    return collapse(branches, probs, outcome)


@functools.cache
def hadamard_basis(qubit: int) -> OrthonormalBasis:
    """(|0>+|1>)/sqrt(2), (|0>-|1>)/sqrt(2); outcome 0 is the plus state."""
    s = 1.0 / np.sqrt(2.0)
    plus = StateVector([s, s])
    minus = StateVector([s, -s])
    return OrthonormalBasis((qubit,), (plus, minus))


def measure_hadamard(
    rows: np.ndarray, qubit: int, uniforms: np.ndarray
) -> MeasurementResult:
    return measure_in_basis(rows, hadamard_basis(qubit), uniforms)


def force_hadamard_outcome(rows: np.ndarray, qubit: int, bit: int) -> MeasurementResult:
    return force_basis_outcome(rows, hadamard_basis(qubit), bit)
