"""Dense state-vector core: kets, gates, Pauli strings, and projective measurement.

Conventions used throughout the package:

* Big-endian qubit order. In a ket label the leftmost symbol is qubit 0 and
  maps to the most significant bit of the amplitude index, so ``|01>`` has its
  amplitude at index 1 and ``|10>`` at index 2.
* Amplitudes are complex128 arrays of length ``2**num_qubits``.
* States are validated to unit norm on construction (tolerance ``NORM_ATOL``)
  and are never silently renormalized.
* The measurement, correction and fidelity functions also take a
  ``(rows, 2**n)`` stack of amplitude rows in place of a StateVector and then
  do the same floating-point work on every row at once, with the same span
  and probability checks. Of a stack's norms only the collapsed rows are
  checked; the caller checks the rest with ``check_normalized``.
"""

from __future__ import annotations

import functools
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
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

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


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable pure state on ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
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
        n = int(amps.shape[0]).bit_length() - 1
        return cls(n, amps)

    @classmethod
    def ket(cls, bits: str) -> "StateVector":
        """Computational basis state from a bit string, e.g. ``ket("01")``."""
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2) if bits else 0] = 1.0
        return cls(len(bits), amps)

    @classmethod
    def from_terms(cls, num_qubits: int, terms: dict[str, complex]) -> "StateVector":
        """State from ``{bit string: amplitude}``; must come out normalized."""
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


def apply_gate(state: StateVector, qubit: int, gate: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to one qubit of the state."""
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    t = state.amplitudes.reshape([2] * n)
    t = np.moveaxis(t, qubit, 0)
    t = np.tensordot(np.asarray(gate, dtype=complex), t, axes=([1], [0]))
    t = np.moveaxis(t, 0, qubit)
    return StateVector(n, t.reshape(-1))


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
    state: StateVector | np.ndarray,
    qubits: tuple[int, ...],
    pauli: PauliString | list[PauliString],
) -> StateVector | np.ndarray:
    """Apply each factor of ``pauli`` to the corresponding entry of ``qubits``.

    On a stack of amplitude rows ``pauli`` holds one string per row, and the
    result is the stack of corrected rows (their norms are not checked).
    """
    stacked = not isinstance(state, StateVector)
    rows = state if stacked else state.amplitudes[None]
    paulis = pauli if stacked else [pauli]
    n = rows.shape[1].bit_length() - 1
    masks = {p: pauli_masks(n, qubits, p) for p in set(paulis)}
    tables = [_xor_sign_tables(rows.shape[1], *masks[p]) for p in paulis]
    source = np.array([t[0] for t in tables])
    sign = np.array([t[1] for t in tables])
    # + 0.0 turns the -0.0 a sign flip leaves on a zero component into 0.0
    out = sign * rows[np.arange(len(rows))[:, None], source] + 0.0
    return out if stacked else StateVector(n, out[0])


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the left argument conjugated."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(
    a: StateVector | np.ndarray, b: StateVector | np.ndarray
) -> float | list[float]:
    """|<a|b>|^2, insensitive to global phase.

    On two stacks of amplitude rows, one fidelity per pair of rows, each
    from its own ``np.vdot`` (a batched sum would round differently).
    """
    if isinstance(a, StateVector):
        return abs(inner_product(a, b)) ** 2
    return [abs(complex(np.vdot(x, y))) ** 2 for x, y in zip(a, b)]


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
    """Outcome, its probability and the normalised post-measurement state.

    For a stack of measured states every field has a leading rows axis:
    outcome and probability arrays, and ``residual`` a stack of amplitude rows.
    """

    outcome: int | np.ndarray
    probability: float | np.ndarray
    residual: StateVector | np.ndarray
    # unnormalised post-measurement state of every outcome, one row each
    branches: np.ndarray = field(repr=False, compare=False)


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
    state: StateVector | np.ndarray, basis: OrthonormalBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome's branch and probability, from one projection.

    ``state`` is a StateVector, giving (outcomes, 2**rest) branches and
    (outcomes,) probabilities, or a (rows, 2**n) stack of amplitude rows,
    giving those arrays with a leading rows axis from one stacked matmul.
    """
    amps = state.amplitudes if isinstance(state, StateVector) else state
    branches = basis.bras @ _split_measured(amps, basis.target_qubits)
    return branches, np.add.reduce(np.abs(branches) ** 2, axis=-1)


def basis_projection_probabilities(
    state: StateVector, basis: OrthonormalBasis
) -> np.ndarray:
    """Per-vector projection probabilities; no completeness requirement."""
    return project(state, basis)[1]


def _check_span(probs: np.ndarray) -> None:
    sums = np.add.reduce(probs, axis=-1)  # one per row of a stack
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
    """The normalised ``outcome`` branch of a ``project`` result; the state
    must lie in the basis span.

    For a stacked result ``outcome`` is one outcome per row, or one for all.
    """
    if probs.ndim == 1:
        # the same checks and divide as below, without the gathers of a
        # stack, which doubled the time of the oracle's per-state calls
        if not 0 <= outcome < len(probs):
            raise ValueError(f"outcome {outcome} out of range")
        _check_span(probs)
        p = float(probs[outcome])
        if p <= 0.0:
            raise ValueError(f"outcome {outcome} has zero probability")
        n_rest = branches.shape[1].bit_length() - 1
        residual = StateVector(n_rest, branches[outcome] / np.sqrt(p))
        return MeasurementResult(outcome, p, residual, branches)
    outcomes = np.zeros(len(probs), dtype=int) + outcome
    bad = (outcomes < 0) | (outcomes >= probs.shape[1])
    if np.logical_or.reduce(bad):
        raise ValueError(f"outcome {outcomes[bad][0]} out of range")
    _check_span(probs)
    picked = np.arange(len(outcomes))
    p = probs[picked, outcomes]
    if np.logical_or.reduce(p <= 0.0):
        raise ValueError(f"outcome {outcomes[p <= 0.0][0]} has zero probability")
    residual = branches[picked, outcomes] / np.sqrt(p)[:, None]
    check_normalized(residual)
    return MeasurementResult(outcomes, p, residual, branches)


def measure_in_basis(
    state: StateVector | np.ndarray,
    basis: OrthonormalBasis,
    rng: np.random.Generator | list[np.random.Generator],
) -> MeasurementResult:
    """Sample one projective outcome and collapse the measured qubits.

    A stack of amplitude rows takes one generator per row. Each generator
    gives one ``random()`` draw, mapped to an outcome by ``sample_outcomes``.
    Raises OutOfSpanError when more than ``SPAN_ATOL`` of the state's
    probability mass lies outside the span of the basis vectors; no
    generator is drawn from then.
    """
    branches, probs = project(state, basis)
    stacked = probs.ndim == 2
    rows = probs if stacked else probs[None]
    _check_span(rows)  # before sampling: an all-zero projection has no draw
    uniforms = np.array([r.random() for r in (rng if stacked else [rng])])
    p = rows / np.add.reduce(rows, axis=-1, keepdims=True)
    outcomes = sample_outcomes(p, uniforms)
    return collapse(branches, probs, outcomes if stacked else int(outcomes[0]))


def force_basis_outcome(
    state: StateVector | np.ndarray, basis: OrthonormalBasis, outcome: int
) -> MeasurementResult:
    """Deterministic collapse onto one basis vector (no sampling); a stack of
    amplitude rows is collapsed onto it row by row."""
    return collapse(*project(state, basis), outcome)


@functools.cache
def hadamard_basis(qubit: int) -> OrthonormalBasis:
    """(|0>+|1>)/sqrt(2), (|0>-|1>)/sqrt(2); outcome 0 is the plus state."""
    s = 1.0 / np.sqrt(2.0)
    plus = StateVector.from_amplitudes([s, s])
    minus = StateVector.from_amplitudes([s, -s])
    return OrthonormalBasis((qubit,), (plus, minus))


def measure_hadamard(
    state: StateVector | np.ndarray,
    qubit: int,
    rng: np.random.Generator | list[np.random.Generator],
) -> MeasurementResult:
    return measure_in_basis(state, hadamard_basis(qubit), rng)


def force_hadamard_outcome(
    state: StateVector | np.ndarray, qubit: int, bit: int
) -> MeasurementResult:
    return force_basis_outcome(state, hadamard_basis(qubit), bit)
