"""Dense state-vector core: kets, Pauli strings, and projective measurement.

Conventions used throughout the package:

* Big-endian qubit order. In a ket label the leftmost symbol is qubit 0 and
  maps to the most significant bit of the amplitude index, so ``|01>`` has its
  amplitude at index 1 and ``|10>`` at index 2.
* Amplitudes are complex128 arrays of length ``2**num_qubits``.
* A Pauli string acts by one rule: its ``(xmask, zmask)`` bits take
  amplitude ``k ^ xmask`` to index k with sign ``(-1)**popcount(k & zmask)``.
  Corrections, candidate searches and ``PauliString.matrix`` all use it;
  the first two gather its rows from one table of every Pauli string of a
  width (``_every_pauli``).
* ``StateVector(amplitudes)`` is the one constructor: the qubit count is
  read off the length, which must be a power of two. The state is validated
  to unit norm (tolerance ``NORM_ATOL``) and never silently renormalized; it
  is the value at the package's edges (secrets, channels, basis vectors,
  transcripts).
* The projection, measurement, correction and fidelity functions take and
  return only stacks of amplitude rows, doing the same floating-point work
  on every row; a single state is the one-row stack
  ``state.amplitudes[None]``, and only ``basis_projection_probabilities``
  also takes a StateVector. A basis's ``project`` is a matmul on the
  leading qubits; for a ``LiftedBasis`` (a basis on rows (x) one fixed
  state), a gather on the rows that checks their norms; for the Hadamard
  basis on the last qubit, the halves of each row.
* A stack's columns are the kets of a ``Kets``: full ``(rows, 2**n)`` rows,
  or only the kets a ``LiftedBasis``'s fixed state reaches (the live
  kets), every other ket holding +0.0. Its projections and the Hadamard
  after it work on the live kets alone, and ``Kets.sum`` adds a row's
  squares in the order ``np.add.reduce`` adds the full row's (from
  ``_numpy_bits``, the one home of numpy's unpromised bits, checked as a
  ``Kets`` is built), so every probability keeps the full rows' bits;
  ``Kets.scatter`` makes the full rows. A measurement (``measure_in_basis``,
  ``force_basis_outcome``) checks its projection's span once, right after
  it; ``project`` itself and ``basis_projection_probabilities`` do not. A
  raw secret's class is gated by ``protocol._resolve_secret``, before
  anything is drawn. Of a stack's norms only the collapsed rows are
  checked; the caller checks the rest with ``check_normalized``.
* A sampled measurement takes one uniform draw in [0, 1) per row, as an
  array; it draws nothing itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._numpy_bits import summation_tree, tree_sum

# largest |norm - 1| a state (or a secret's coefficient weight) may carry
NORM_ATOL = 1e-12
# largest probability mass a measured state may have outside the basis span
SPAN_ATOL = 1e-9

# the scalars numpy or complex() would read as numbers that are none
_NOT_NUMBERS = (str, bytes, bytearray, bool, np.bool_)

# each factor is Z**z X**x: (x, z) per label; iY = ZX stays exactly real
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "iY": (1, 1)}
_PAULI_DIGITS = {lab: k for k, lab in enumerate(_PAULI_BITS)}


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
        # text would be read one character or byte at a time
        try:
            if isinstance(self.labels, (str, bytes, bytearray)):
                raise TypeError
            labels = tuple(self.labels)
        except TypeError:
            raise ValueError(
                f"labels must be a sequence of Pauli labels, got {self.labels!r}"
            ) from None
        bad = [
            lab for lab in labels if not isinstance(lab, str) or lab not in _PAULI_BITS
        ]
        if bad:
            raise ValueError(f"unknown Pauli labels {bad}; allowed: I, X, Z, iY")
        object.__setattr__(self, "labels", labels)

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

    @functools.cached_property
    def _key(self) -> int:
        """``4**len(self)`` plus the string's index in ``_every_pauli``: its
        factors' positions in (I, X, Z, iY) as base-4 digits, qubit 0 the
        most significant. Strings of different widths never share a key."""
        key = 1
        for lab in self.labels:
            key = 4 * key + _PAULI_DIGITS[lab]
        return key

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


@functools.cache
def _every_pauli(qubits: int) -> tuple[tuple[PauliString, ...], np.ndarray, np.ndarray]:
    """Every Pauli string on ``qubits`` qubits, in the order of
    ``PauliString._key``, and its ``_xor_sign_tables`` rows stacked:
    (strings, sources, signs)."""
    paulis = tuple(
        PauliString(labels) for labels in itertools.product(_PAULI_BITS, repeat=qubits)
    )
    tables = [_xor_sign_tables(2**qubits, *p.masks) for p in paulis]
    source = np.array([t[0] for t in tables])
    sign = np.array([t[1] for t in tables])
    source.flags.writeable = sign.flags.writeable = False
    return paulis, source, sign


def _pauli_tables(
    paulis: tuple[PauliString, ...] | list[PauliString], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_xor_sign_tables`` of each string on ``dim`` amplitudes, stacked:
    (strings, dim) source indices and signs, read-only, gathered from
    ``_every_pauli``'s table by each string's key."""
    qubits = dim.bit_length() - 1
    rows = np.array([p._key for p in paulis], dtype=np.intp) - 4**qubits
    # a string of another width has a key outside [4**qubits, 2 * 4**qubits)
    bad = (rows < 0) | (rows >= 4**qubits)
    if np.logical_or.reduce(bad, axis=None):
        width = len(paulis[int(np.argmax(bad))])
        raise ValueError(f"{width} Pauli factors on rows of {dim} amplitudes")
    _, source, sign = _every_pauli(qubits)
    source, sign = source[rows], sign[rows]
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
    """Measurement basis on the leading k qubits, k its vectors' width.

    The vectors may span only a subspace of the measured qubits' space; a
    measurement then demands that the state carry no probability mass outside
    that span. ``validate=False`` skips the orthonormality check so that
    deliberately defective encodings can be represented and inspected.
    """

    vectors: tuple[StateVector, ...]
    validate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        widths = sorted({v.num_qubits for v in self.vectors})
        if len(widths) != 1:
            raise ValueError(f"basis vectors must share one width, got {widths}")
        if len(self.vectors) > 2 ** widths[0]:
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
        m = self.matrix()
        branches = m.conj() @ rows.reshape(*rows.shape[:-1], m.shape[1], -1)
        return branches, np.add.reduce(_squares(branches), axis=-1)

    def gram_defects(self, atol: float = NORM_ATOL) -> list[tuple[int, int, complex]]:
        """Entries (i, j, <vi|vj>) where the Gram matrix deviates from identity
        by more than ``atol``, a finite number >= 0 (else ValueError)."""
        if (
            isinstance(atol, _NOT_NUMBERS)
            or not isinstance(atol, numbers.Real)
            or not 0.0 <= atol < math.inf  # NaN fails too
        ):
            raise ValueError(f"atol must be a finite number >= 0, got {atol!r}")
        b = self.matrix()
        gram = b.conj() @ b.T
        delta = gram - np.eye(len(self.vectors))
        out = []
        for i, j in zip(*np.nonzero(np.abs(delta) > atol)):
            if i <= j:
                out.append((int(i), int(j), complex(gram[i, j])))
        return out


# Kets and _Hadamard are plain classes: making a dataclass costs about
# 0.6 ms at import
class Kets:
    """The kets a stack of amplitude rows carries: column j of a row is ket
    ``live[j]`` of a state of ``width`` amplitudes, and every other ket of
    it holds +0.0. ``Kets.every(width)`` lists every ket: a full row.

    ``sum`` adds a row's terms in the order ``np.add.reduce`` adds the full
    row's: ``order``, a ``summation_tree``, checked as the ``Kets`` is built.
    """

    def __init__(self, width: int, live: tuple[int, ...]):
        live = tuple(live)
        ordered = list(live) == sorted(set(live))
        if not live or not ordered or not 0 <= live[0] <= live[-1] < width:
            raise ValueError(f"kets {live} are not distinct kets of {width}")
        self.width, self.live = width, live
        self.order = summation_tree(width, live)

    def __repr__(self) -> str:
        return f"Kets({self.width}, {self.live})"

    @classmethod
    @functools.cache
    def every(cls, width: int) -> Kets:
        """Every ket of rows of ``width`` amplitudes, built once per width."""
        return cls(width, tuple(range(width)))

    def sum(self, terms: np.ndarray) -> np.ndarray:
        """``np.add.reduce`` over the last axis of the full rows of
        ``terms``, each >= +0.0, from the live columns only."""
        return tree_sum(self.order, terms)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """The full rows: ``values`` in the live kets, +0.0 in the rest."""
        rows = np.zeros((*values.shape[:-1], self.width), values.dtype)
        rows[..., self.live] = values
        return rows

    @functools.cached_property
    def halves(self) -> tuple[Kets, np.ndarray]:
        """The kets of a row's halves (last qubit 0, 1), and the columns of
        h0 (row 0) and h1 (row 1) on them in a row's values padded with one
        +0.0 column, an absent ket's; ValueError on rows with no qubit."""
        if self.width < 2 or self.width % 2:
            raise ValueError(f"rows of {self.width} amplitudes have no last qubit")
        pairs = sorted({k >> 1 for k in self.live})
        column = np.full(self.width, len(self.live))  # each ket's column, or the pad's
        column[list(self.live)] = np.arange(len(self.live))
        columns = np.ascontiguousarray(column.reshape(-1, 2)[pairs].T)
        columns.flags.writeable = False
        return Kets(self.width // 2, tuple(pairs)), columns

    def probabilities(self, branches: np.ndarray) -> np.ndarray:
        """Each branch's squared norm: ``sum`` of its ``_squares``."""
        return self.sum(_squares(branches))


@dataclass(frozen=True, eq=False)
class LiftedBasis:
    """A basis measured on ``row (x) fixed``, projected as a gather on the
    rows onto ``kets``, the kets of the unmeasured qubits that ``fixed``
    reaches: each of their branch amplitudes sums at most two row
    amplitudes, ``sources``, times constants, ``weights`` (both (terms,
    outcomes, live kets); weight 0 where an amplitude has fewer terms). Two
    terms add alike in any order. Every other ket of a branch is +0.0, as
    in the dense projection."""

    sources: np.ndarray
    weights: np.ndarray
    kets: Kets

    @classmethod
    def of(cls, basis: OrthonormalBasis, fixed: StateVector, width: int) -> LiftedBasis:
        units = np.eye(2**width, dtype=complex)[:, :, None]
        branches, _ = basis.project((units * fixed.amplitudes).reshape(2**width, -1))
        nonzero = branches != 0
        live = np.flatnonzero(np.logical_or.reduce(nonzero, axis=(0, 1)))
        kets = Kets(branches.shape[-1], tuple(live.tolist()))
        kets.halves  # built, and its sum order checked, with the basis
        nonzero, branches = nonzero[..., live], branches[..., live]
        terms = int(np.max(np.add.reduce(nonzero, axis=0)))
        if terms > 2:
            raise ValueError(f"{terms} terms in a branch amplitude, more than 2")
        # the kets with a term first, in ket order
        sources = np.argsort(~nonzero, axis=0, kind="stable")[:terms]
        weights = np.take_along_axis(branches, sources, axis=0)
        sources.flags.writeable = weights.flags.writeable = False
        return cls(sources, weights, kets)

    def project(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``OrthonormalBasis.project`` of each row (x) the fixed state on
        ``kets``, the rows' norms checked first: (rows, outcomes, live kets)
        branches and their probabilities. The span is not checked."""
        check_normalized(rows)
        # np.take keeps the matmul's C order
        branches = np.take(rows, self.sources[0], axis=1)
        branches *= self.weights[0]
        if len(self.sources) == 2:
            branches += np.take(rows, self.sources[1], axis=1) * self.weights[1]
        branches += 0.0  # the +0.0 BLAS writes where no term is nonzero
        return branches, self.kets.probabilities(branches)


def _hadamard_halves(values: np.ndarray, kets: Kets) -> np.ndarray:
    """``h0 + h1`` and ``h0 - h1`` of each row's halves h0, h1 (last qubit
    0, 1) along axis -2, on ``kets.halves``' kets: its |+> and |-> parts
    times sqrt(2), in one gather's memory order (h0, h1 outermost), which
    the sums after it read fast. An absent half is the +0.0 padded on, so
    ``x ± 0.0`` and ``0.0 ± x`` keep the full rows' bits, signed zeros too."""
    padded = np.concatenate([values, np.zeros_like(values[..., :1])], axis=-1)
    halves = padded[..., kets.halves[1]]
    out = np.empty_like(halves)
    np.add(halves[..., 0, :], halves[..., 1, :], out=out[..., 0, :])
    np.subtract(halves[..., 0, :], halves[..., 1, :], out=out[..., 1, :])
    return out


class _Hadamard:
    """The Hadamard basis on the last qubit of rows on ``kets``, |+> then
    |->: ``_hadamard_halves`` times 1/sqrt(2), on the halves' kets. That
    has the dense matmul's bits, signed zeros too, where a pair has a zero
    half, as in every row Charlie measures: a channel ket fixes his bit
    from the bits of Bob, who shares his GHZ triplet. So on Alice's kets
    (``LiftedBasis.kets``) each pair has one live half."""

    def __init__(self, kets: Kets):
        self.kets = kets

    def project(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        branches = _hadamard_halves(rows, self.kets)
        branches *= 1.0 / np.sqrt(2.0)
        return branches, self.kets.halves[0].probabilities(branches)


_Basis = OrthonormalBasis | LiftedBasis | _Hadamard


@dataclass(frozen=True)
class MeasurementResult:
    """Measurement of a stack of states, one entry per measured row: the
    outcome and probability arrays, and ``residual``, the stack of
    normalised post-measurement rows."""

    outcome: np.ndarray
    probability: np.ndarray
    residual: np.ndarray
    # (rows, outcomes, kets): every outcome's unnormalised branch per row
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


def _squares(branches: np.ndarray) -> np.ndarray:
    """``|b|**2`` of each amplitude: its modulus, squared in place."""
    weights = np.abs(branches)
    weights *= weights
    return weights


def basis_projection_probabilities(
    state: StateVector | np.ndarray, basis: OrthonormalBasis | LiftedBasis
) -> np.ndarray:
    """Per-vector projection probabilities; no completeness requirement. A
    stack of amplitude rows gives one row of them per state; a StateVector,
    the one other input taken here, gives one (vectors,) array."""
    if isinstance(state, StateVector):
        return basis.project(state.amplitudes[None])[1][0]
    return basis.project(state)[1]


def _check_span(probs: np.ndarray) -> np.ndarray:
    """Each row's sum of its probabilities; raise OutOfSpanError if any of
    them falls short of 1 by more than ``SPAN_ATOL``."""
    sums = np.add.reduce(probs, axis=-1)
    # the worst row decides; a NaN sum propagates and fails the check
    missing = 1.0 - float(np.minimum.reduce(sums, axis=None))
    if not missing <= SPAN_ATOL:
        raise OutOfSpanError(missing)
    return sums


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
    rows: np.ndarray, basis: _Basis, uniforms: np.ndarray
) -> MeasurementResult:
    """Sample one projective outcome per row and collapse the measured qubits.

    Row t maps ``uniforms[t]``, one draw in [0, 1), to an outcome by
    ``sample_outcomes``. Raises OutOfSpanError when more than ``SPAN_ATOL``
    of a row's probability mass lies outside the span of the basis vectors.
    """
    _check_one_per_row(rows, uniforms, "uniforms")
    branches, probs = basis.project(rows)
    # before sampling: an all-zero projection has no draw
    p = probs / _check_span(probs)[..., None]
    return collapse(branches, probs, sample_outcomes(p, uniforms))


def force_basis_outcome(
    rows: np.ndarray, basis: _Basis, outcome: int
) -> MeasurementResult:
    """Deterministic collapse of every row onto one basis vector (no sampling)."""
    branches, probs = basis.project(rows)
    _check_span(probs)
    return collapse(branches, probs, outcome)


def measure_hadamard(
    rows: np.ndarray, uniforms: np.ndarray, kets: Kets | None = None
) -> MeasurementResult:
    """``measure_in_basis`` in the Hadamard basis on the last qubit of rows
    on ``kets`` (every ket of a row if None); the residual rows are on
    ``kets.halves``' kets."""
    return measure_in_basis(rows, _hadamard(rows, kets), uniforms)


def force_hadamard_outcome(
    rows: np.ndarray, bit: int, kets: Kets | None = None
) -> MeasurementResult:
    """``force_basis_outcome`` of ``measure_hadamard``'s basis."""
    return force_basis_outcome(rows, _hadamard(rows, kets), bit)


def _hadamard(rows: np.ndarray, kets: Kets | None) -> _Hadamard:
    return _Hadamard(Kets.every(rows.shape[-1]) if kets is None else kets)
