"""Dense state-vector core: kets, gates, Pauli strings, and projective measurement.

Conventions used throughout the package:

* Big-endian qubit order. In a ket label the leftmost symbol is qubit 0 and
  maps to the most significant bit of the amplitude index, so ``|01>`` has its
  amplitude at index 1 and ``|10>`` at index 2.
* Amplitudes are complex128 arrays of length ``2**num_qubits``.
* States are validated to unit norm on construction (tolerance ``NORM_ATOL``)
  and are never silently renormalized.
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
        deficit = abs(float(np.linalg.norm(amps)) - 1.0)
        if not deficit <= NORM_ATOL:  # also rejects NaN and inf amplitudes
            raise NormalizationError("state is not normalized", deficit)
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
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]


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


def apply_pauli_string(
    state: StateVector, qubits: tuple[int, ...], pauli: PauliString
) -> StateVector:
    """Apply each factor of ``pauli`` to the corresponding entry of ``qubits``.

    Every factor is ``Z**z X**x`` with a real sign (iY = Z X), so the whole
    string is one permutation and sign flip of the amplitudes:
    ``out[k] = (-1)**popcount(k & zmask) * in[k ^ xmask]``.
    """
    n = state.num_qubits
    if len(qubits) != len(pauli):
        raise ValueError(
            f"{len(pauli)} Pauli factors but {len(qubits)} target qubits"
        )
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate target qubits in {qubits}")
    xmask = zmask = 0
    for q, lab in zip(qubits, pauli.labels):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}-qubit state")
        bit = 1 << (n - 1 - q)
        if lab in _FLIPS:
            xmask |= bit
        if lab in _PHASES:
            zmask |= bit
    source, sign = _xor_sign_tables(state.dim, xmask, zmask)
    # + 0.0 turns the -0.0 a sign flip leaves on a zero component into 0.0
    return StateVector(n, sign * state.amplitudes[source] + 0.0)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the left argument conjugated."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    return abs(inner_product(a, b)) ** 2


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
    outcome: int
    probability: float
    residual: StateVector
    # unnormalised post-measurement state of every outcome, one row each
    branches: np.ndarray = field(repr=False, compare=False)


def _split_measured(state: StateVector, targets: tuple[int, ...]) -> np.ndarray:
    """Amplitudes as a (2**k, 2**rest) matrix, measured qubits on the rows."""
    n = state.num_qubits
    rest = [q for q in range(n) if q not in targets]
    t = state.amplitudes.reshape([2] * n)
    t = np.transpose(t, list(targets) + rest)
    return t.reshape(2 ** len(targets), -1)


def project(
    state: StateVector, basis: OrthonormalBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome's branch and probability, from one projection."""
    m = _split_measured(state, basis.target_qubits)
    branches = basis.matrix().conj() @ m
    return branches, np.sum(np.abs(branches) ** 2, axis=1)


def basis_projection_probabilities(
    state: StateVector, basis: OrthonormalBasis
) -> np.ndarray:
    """Per-vector projection probabilities; no completeness requirement."""
    return project(state, basis)[1]


def _check_span(probs: np.ndarray) -> None:
    missing = 1.0 - float(np.sum(probs))
    if not missing <= SPAN_ATOL:
        raise OutOfSpanError(missing)


def collapse(
    branches: np.ndarray, probs: np.ndarray, outcome: int
) -> MeasurementResult:
    """One outcome of a ``project`` result; the state must lie in the basis span."""
    if not 0 <= outcome < len(probs):
        raise ValueError(f"outcome {outcome} out of range")
    _check_span(probs)
    p = float(probs[outcome])
    if p <= 0.0:
        raise ValueError(f"outcome {outcome} has zero probability")
    n_rest = branches.shape[1].bit_length() - 1
    residual = StateVector(n_rest, branches[outcome] / np.sqrt(p))
    return MeasurementResult(outcome, p, residual, branches)


def measure_in_basis(
    state: StateVector, basis: OrthonormalBasis, rng: np.random.Generator
) -> MeasurementResult:
    """Sample one projective outcome and collapse the measured qubits.

    Raises OutOfSpanError when more than ``SPAN_ATOL`` of the state's
    probability mass lies outside the span of the basis vectors.
    """
    branches, probs = project(state, basis)
    _check_span(probs)  # before sampling: an all-zero projection has no draw
    outcome = int(rng.choice(len(probs), p=probs / np.sum(probs)))
    return collapse(branches, probs, outcome)


def force_basis_outcome(
    state: StateVector, basis: OrthonormalBasis, outcome: int
) -> MeasurementResult:
    """Deterministic collapse onto one basis vector (no sampling)."""
    return collapse(*project(state, basis), outcome)


@functools.cache
def hadamard_basis(qubit: int) -> OrthonormalBasis:
    """(|0>+|1>)/sqrt(2), (|0>-|1>)/sqrt(2); outcome 0 is the plus state."""
    s = 1.0 / np.sqrt(2.0)
    plus = StateVector.from_amplitudes([s, s])
    minus = StateVector.from_amplitudes([s, -s])
    return OrthonormalBasis((qubit,), (plus, minus))


def measure_hadamard(
    state: StateVector, qubit: int, rng: np.random.Generator
) -> MeasurementResult:
    return measure_in_basis(state, hadamard_basis(qubit), rng)


def force_hadamard_outcome(
    state: StateVector, qubit: int, bit: int
) -> MeasurementResult:
    return force_basis_outcome(state, hadamard_basis(qubit), bit)
