"""Dense state-vector core: kets, gates, Pauli strings, and projective measurement.

Conventions used throughout the package:

* Big-endian qubit order. In a ket label the leftmost symbol is qubit 0 and
  maps to the most significant bit of the amplitude index, so ``|01>`` has its
  amplitude at index 1 and ``|10>`` at index 2.
* Amplitudes are complex128 arrays of length ``2**num_qubits``.
* A StateVector is validated to unit norm on construction (tolerance
  ``NORM_ATOL``) and never silently renormalized; it is the value at the
  package's edges (secrets, channels, basis vectors, transcripts).
* The projection, measurement, correction and fidelity functions take and
  return only ``(rows, 2**n)`` stacks of amplitude rows, doing the same
  floating-point work on every row; a single state is the one-row stack
  ``state.amplitudes[None]``, and only ``basis_projection_probabilities``
  also takes a StateVector. Each projection's span is checked once, right
  after ``project``. Of a stack's norms only the collapsed rows are checked;
  the caller checks the rest with ``check_normalized``.
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

IDENTITY = np.array([[1, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# i * sigma_y kept in its exact real form so corrections stay real-valued
PAULI_IY = np.array([[0, 1], [-1, 0]], dtype=complex)

PAULI_GATES = {"I": IDENTITY, "X": PAULI_X, "Z": PAULI_Z, "iY": PAULI_IY}


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


def _qubit_count(n) -> int:
    """``n`` as an int; anything but a non-negative integer is refused."""
    if type(n) is not int:  # a bool is refused, a numpy integer stored as int
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"num_qubits must be an integer, got {n!r}")
        n = int(n)
    if n < 0:
        raise ValueError(f"num_qubits must be at least 0, got {n}")
    return n


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable pure state on ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", _qubit_count(self.num_qubits))
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2**self.num_qubits:
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got {amps.shape[0]}"
            )
        check_normalized(amps)
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        length = amps.shape[0]
        if length == 0 or length & (length - 1):
            raise ValueError(f"amplitude count {length} is not a power of two")
        return cls(length.bit_length() - 1, amps)

    @classmethod
    def ket(cls, bits: str) -> "StateVector":
        """Computational basis state from a bit string, e.g. ``ket("01")``."""
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2) if bits else 0] = 1.0
        return cls(len(bits), amps)

    @classmethod
    def from_terms(cls, num_qubits: int, terms: dict[str, complex]) -> "StateVector":
        """State from ``{bit string: amplitude}``; must come out normalized."""
        num_qubits = _qubit_count(num_qubits)
        amps = np.zeros(2**num_qubits, dtype=complex)
        for bits, coeff in terms.items():
            if len(bits) != num_qubits:
                raise ValueError(f"ket {bits!r} does not have {num_qubits} bits")
            amps[int(bits, 2)] += coeff
        return cls(num_qubits, amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude_pairs(self) -> list[list[float]]:
        """Amplitudes as ``[re, im]`` pairs for JSON serialization."""
        return self.amplitudes.view(np.float64).reshape(-1, 2).tolist()


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit factors drawn from {I, X, Z, iY}."""

    labels: tuple[str, ...]

    def __post_init__(self):
        bad = [lab for lab in self.labels if lab not in PAULI_GATES]
        if bad:
            raise ValueError(f"unknown Pauli labels {bad}; allowed: I, X, Z, iY")
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "*".join(self.labels)

    def matrix(self) -> np.ndarray:
        m = np.array([[1.0 + 0j]])
        for lab in self.labels:
            m = np.kron(m, PAULI_GATES[lab])
        return m


def tensor_product(*states: StateVector) -> StateVector:
    """Kronecker product; qubit order is left factor first."""
    if not states:
        raise ValueError("tensor_product needs at least one state")
    amps = states[0].amplitudes
    n = states[0].num_qubits
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        n += s.num_qubits
    return StateVector(n, amps)


def permute_qubits(state: StateVector, perm: tuple[int, ...]) -> StateVector:
    """Reorder qubits so output qubit i is input qubit ``perm[i]``."""
    n = state.num_qubits
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = state.amplitudes.reshape([2] * n)
    return StateVector(n, np.transpose(t, perm).reshape(-1))


# factors that flip their qubit (X, iY) and that negate its 1-slice (Z, iY)
_FLIPS = frozenset({"X", "iY"})
_PHASES = frozenset({"Z", "iY"})


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


def pauli_masks(
    num_qubits: int, qubits: tuple[int, ...], pauli: PauliString
) -> tuple[int, int]:
    """Index masks of ``pauli`` applied factor by factor to ``qubits``.

    Every factor is ``Z**z X**x`` with a real sign (iY = Z X), so the whole
    string is one permutation and sign flip of the amplitudes:
    ``out[k] = (-1)**popcount(k & zmask) * in[k ^ xmask]``.
    """
    if len(qubits) != len(pauli):
        raise ValueError(
            f"{len(pauli)} Pauli factors but {len(qubits)} target qubits"
        )
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate target qubits in {qubits}")
    xmask = zmask = 0
    for q, lab in zip(qubits, pauli.labels):
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits}-qubit state")
        bit = 1 << (num_qubits - 1 - q)
        if lab in _FLIPS:
            xmask |= bit
        if lab in _PHASES:
            zmask |= bit
    return xmask, zmask


def apply_pauli_string(
    rows: np.ndarray, qubits: tuple[int, ...], paulis: list[PauliString]
) -> np.ndarray:
    """Apply ``paulis[t]`` to row t of a stack of amplitude rows, factor by
    factor onto ``qubits``; the corrected rows' norms are not checked."""
    _check_one_per_row(rows, paulis, "Pauli strings")
    n = rows.shape[1].bit_length() - 1
    masks = {p: pauli_masks(n, qubits, p) for p in set(paulis)}
    tables = [_xor_sign_tables(rows.shape[1], *masks[p]) for p in paulis]
    source = np.array([t[0] for t in tables])
    sign = np.array([t[1] for t in tables])
    # + 0.0 turns the -0.0 a sign flip leaves on a zero component into 0.0
    return sign * rows[np.arange(len(rows))[:, None], source] + 0.0


def fidelity(a: np.ndarray, b: np.ndarray) -> list[float]:
    """|<a|b>|^2 per pair of rows of two stacks, insensitive to global phase.

    Each from its own ``np.vdot`` (a batched sum would round differently).
    """
    return [abs(complex(np.vdot(x, y))) ** 2 for x, y in zip(a, b, strict=True)]


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

    @functools.cached_property
    def bras(self) -> np.ndarray:
        """``matrix().conj()``, built once; read-only."""
        bras = self.matrix().conj()
        bras.flags.writeable = False
        return bras

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
    # re, im interleaved along the last axis
    parts = np.ascontiguousarray(amps).view(np.float64)
    norms = np.sqrt(np.add.reduce(parts * parts, axis=-1))
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


def project(
    rows: np.ndarray, basis: OrthonormalBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome's branch and probability for each row of a stack, from
    one stacked matmul: (rows, outcomes, 2**rest) branches and (rows,
    outcomes) probabilities. The span is not checked."""
    branches = basis.bras @ _split_measured(rows, basis.target_qubits)
    return branches, np.add.reduce(np.abs(branches) ** 2, axis=-1)


def basis_projection_probabilities(
    state: StateVector | np.ndarray, basis: OrthonormalBasis
) -> np.ndarray:
    """Per-vector projection probabilities; no completeness requirement. A
    stack of amplitude rows gives one row of them per state; a StateVector,
    the one other input taken here, gives one (vectors,) array."""
    if isinstance(state, StateVector):
        return project(state.amplitudes[None], basis)[1][0]
    return project(state, basis)[1]


def _check_span(probs: np.ndarray) -> None:
    """Raise OutOfSpanError if any row's probabilities fall short of 1 by
    more than ``SPAN_ATOL``."""
    sums = np.add.reduce(probs, axis=-1)
    # the worst row decides; a NaN sum propagates and fails the check
    missing = 1.0 - float(np.minimum.reduce(sums, axis=None))
    if not missing <= SPAN_ATOL:
        raise OutOfSpanError(missing)


# Generator.choice's tolerance on the sum of its probabilities
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def sample_outcomes(p: np.ndarray, uniforms) -> np.ndarray:
    """Outcome per row of ``p`` (last axis) for one uniform draw in [0, 1) each.

    The draw maps to an outcome exactly as ``Generator.choice(len(row),
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
    rows: np.ndarray, basis: OrthonormalBasis, rngs: list[np.random.Generator]
) -> MeasurementResult:
    """Sample one projective outcome per row and collapse the measured qubits.

    Row t takes one ``random()`` draw from ``rngs[t]``, mapped to an outcome
    by ``sample_outcomes``. Raises OutOfSpanError when more than
    ``SPAN_ATOL`` of a row's probability mass lies outside the span of the
    basis vectors; no generator is drawn from then.
    """
    _check_one_per_row(rows, rngs, "generators")
    branches, probs = project(rows, basis)
    _check_span(probs)  # before sampling: an all-zero projection has no draw
    uniforms = np.array([rng.random() for rng in rngs])
    p = probs / np.add.reduce(probs, axis=-1, keepdims=True)
    return collapse(branches, probs, sample_outcomes(p, uniforms))


def force_basis_outcome(
    rows: np.ndarray, basis: OrthonormalBasis, outcome: int
) -> MeasurementResult:
    """Deterministic collapse of every row onto one basis vector (no sampling)."""
    branches, probs = project(rows, basis)
    _check_span(probs)
    return collapse(branches, probs, outcome)


@functools.cache
def hadamard_basis(qubit: int) -> OrthonormalBasis:
    """(|0>+|1>)/sqrt(2), (|0>-|1>)/sqrt(2); outcome 0 is the plus state."""
    s = 1.0 / np.sqrt(2.0)
    plus = StateVector.from_amplitudes([s, s])
    minus = StateVector.from_amplitudes([s, -s])
    return OrthonormalBasis((qubit,), (plus, minus))


def measure_hadamard(
    rows: np.ndarray, qubit: int, rngs: list[np.random.Generator]
) -> MeasurementResult:
    return measure_in_basis(rows, hadamard_basis(qubit), rngs)


def force_hadamard_outcome(rows: np.ndarray, qubit: int, bit: int) -> MeasurementResult:
    return force_basis_outcome(rows, hadamard_basis(qubit), bit)
