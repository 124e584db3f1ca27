"""Three-party information-splitting protocols over a pair of GHZ triplets.

Three protocol variants are provided. In each one Alice holds a secret state
from a restricted class, a six-qubit channel built from two GHZ triplets is
distributed among Alice, Bob, and Charlie, Alice measures her five qubits in a
16- or 4-vector product basis, Charlie measures his single qubit in the
Hadamard basis, and Bob recovers the secret by applying a Pauli correction
selected by the two classical messages.

Variant ids (also the CLI spellings):

* ``three-a``: 3-qubit secrets spanned by kets 000, 011, 100, 111; channel
  qubits 0,1 to Alice, 2,3,4 to Bob, 5 to Charlie.
* ``three-b``: 3-qubit secrets spanned by kets 000, 001, 110, 111; same
  channel layout, but the two GHZ triplets are distributed differently.
* ``four``: 4-qubit secrets a(|0000>+|0011>) + b(|1100>+|1111>); channel
  qubit 0 to Alice, 1,2,3,4 to Bob, 5 to Charlie.

Alice's basis vectors are Pauli frames on one anchor vector per variant
(``build_alice_basis``). The literal encoding keeps the source's two basis
defects: reversed phase qubits and a repeated last ``four`` vector.

The correction tables shipped here are verbatim transcriptions of the
published reference tables, including rows known to be defective; the oracle
module derives correct tables independently and reports every disagreement.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._numpy_bits import trial_draws
from .statevec import (
    NORM_ATOL,
    Kets,
    LiftedBasis,
    NormalizationError,
    OrthonormalBasis,
    PauliString,
    StateVector,
    _NOT_NUMBERS,
    _check_span,
    _hadamard_halves,
    _integer,
    _xor_sign_tables,
    apply_pauli_string,
    check_normalized,
    fidelity,
    force_basis_outcome,
    force_hadamard_outcome,
    measure_hadamard,
    measure_in_basis,
    tensor_product,
)

# version of every JSON document the package writes
SCHEMA_VERSION = 1
# least 1 - fidelity that counts as a failed recovery of the secret
FIDELITY_ATOL = 1e-9

CANONICAL = "canonical"
LITERAL = "literal"
ENCODINGS = (CANONICAL, LITERAL)


class Variant(str, Enum):
    THREE_A = "three-a"
    THREE_B = "three-b"
    FOUR = "four"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(
                f"unknown variant {text!r}; expected one of "
                f"{', '.join(v.value for v in cls)}"
            ) from None


@dataclass(frozen=True)
class VariantSpec:
    """Structural constants of one protocol variant."""

    variant: Variant
    coefficient_count: int
    secret_kets: tuple[str, ...]
    channel_permutation: tuple[int, ...]
    # Alice's basis (see build_alice_basis): anchor kets on her secret qubits
    # and channel share, and the qubits her outcome bits flip and phase-flip
    alice_anchor: tuple[str, ...]
    alice_flips: tuple[int, ...]
    alice_phases: tuple[int, ...]

    @property
    def secret_qubits(self) -> int:
        return len(self.secret_kets[0])

    @property
    def bob_qubits(self) -> int:
        """Bob's register holds the recovered secret."""
        return self.secret_qubits

    @property
    def coefficient_norm(self) -> float:
        """Required sum of |c|^2: each coefficient weighs
        ``len(secret_kets) / coefficient_count`` kets of a unit-norm secret."""
        return self.coefficient_count / len(self.secret_kets)

    @property
    def num_outcomes(self) -> int:
        return 2 ** (len(self.alice_flips) + len(self.alice_phases))


# Channel permutations: qubit i of the dealt channel is qubit perm[i] of the
# raw GHZ (x) GHZ product, whose order is (first triplet 0,1,2, second 3,4,5).
VARIANT_SPECS = {
    Variant.THREE_A: VariantSpec(
        variant=Variant.THREE_A,
        coefficient_count=4,
        secret_kets=("000", "011", "100", "111"),
        channel_permutation=(0, 3, 1, 4, 5, 2),
        alice_anchor=("00000", "01101", "10010", "11111"),
        alice_flips=(3, 4),
        alice_phases=(3, 4),
    ),
    Variant.THREE_B: VariantSpec(
        variant=Variant.THREE_B,
        coefficient_count=4,
        secret_kets=("000", "001", "110", "111"),
        channel_permutation=(0, 3, 1, 2, 4, 5),
        alice_anchor=("00000", "00101", "11010", "11111"),
        alice_flips=(3, 4),
        alice_phases=(3, 4),
    ),
    Variant.FOUR: VariantSpec(
        variant=Variant.FOUR,
        coefficient_count=2,
        secret_kets=("0000", "0011", "1100", "1111"),
        channel_permutation=(0, 1, 2, 3, 4, 5),
        alice_anchor=("00000", "00110", "11001", "11111"),
        alice_flips=(4,),
        alice_phases=(0,),
    ),
}


@dataclass(frozen=True)
class SecretSpec:
    """Coefficients of a secret within a variant's restricted class; the
    variant may be given by its name."""

    variant: Variant
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant.parse(self.variant))
        # text would be read one character or byte at a time, or parsed by
        # complex(); a bool would read as 0 or 1
        try:
            coefficients = tuple(self.coefficients)
            if any(
                isinstance(c, _NOT_NUMBERS) for c in (self.coefficients, *coefficients)
            ):
                raise TypeError
            coefficients = tuple(map(complex, coefficients))
        except TypeError:
            raise ValueError(
                f"coefficients must be a sequence of numbers, "
                f"got {self.coefficients!r}"
            ) from None
        object.__setattr__(self, "coefficients", coefficients)

    @functools.cached_property
    def state(self) -> StateVector:
        """``build_secret(self)``, built once per spec object: specs that
        differ only in a signed zero compare equal but do not share it."""
        return build_secret(self)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
        }


def build_channel(variant: Variant | str) -> StateVector:
    """Six-qubit channel: two GHZ triplets dealt out per the variant layout,
    built once per variant, given by its ``Variant`` or its name.

    GHZ (x) GHZ has four kets, each with amplitude ``s * s`` for ``s =
    1/sqrt(2)``: the product ``np.kron`` forms. Each goes to the index that
    ``channel_permutation`` deals its qubits to.
    """
    return _channel(Variant.parse(variant))


@functools.cache
def _channel(variant: Variant) -> StateVector:
    perm = VARIANT_SPECS[variant].channel_permutation
    s = complex(1.0 / np.sqrt(2.0))
    amps = np.zeros(2 ** len(perm), dtype=complex)
    for raw in ("000000", "000111", "111000", "111111"):
        amps[int("".join(raw[q] for q in perm), 2)] = s * s
    return StateVector(amps)


# the cache's hits and misses, read through the public name
build_channel.cache_info = _channel.cache_info


def build_secret(spec: SecretSpec) -> StateVector:
    """Secret state from class coefficients; rejects bad normalization."""
    vs = VARIANT_SPECS[spec.variant]
    if len(spec.coefficients) != vs.coefficient_count:
        raise ValueError(
            f"{spec.variant.value} takes {vs.coefficient_count} coefficients, "
            f"got {len(spec.coefficients)}"
        )
    try:
        total = sum(abs(c) ** 2 for c in spec.coefficients)
    except OverflowError:  # a weight beyond the float range
        total = math.inf
    deficit = abs(total - vs.coefficient_norm)
    if not deficit <= NORM_ATOL:
        raise NormalizationError(
            f"coefficient weights must sum to {vs.coefficient_norm}", deficit
        )
    rows = _secret_rows(spec.variant, [spec.coefficients])
    return StateVector(rows[0])


@functools.cache
def _secret_layout(variant: Variant) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude index of each class ket and the coefficient weighing it:
    coefficient j weighs an equal run of the kets (kets 0..3 one each in the
    three-qubit variants, kets 0,1 and 2,3 in ``four``)."""
    vs = VARIANT_SPECS[variant]
    slots = np.array([int(k, 2) for k in vs.secret_kets])
    picks = np.arange(len(slots)) * vs.coefficient_count // len(slots)
    slots.flags.writeable = False
    picks.flags.writeable = False
    return slots, picks


def _secret_rows(
    variant: Variant, coefficients: np.ndarray | list[tuple[complex, ...]]
) -> np.ndarray:
    """Amplitude rows of in-class secrets, one per row of class coefficients
    (no checks)."""
    slots, picks = _secret_layout(variant)
    coeffs = np.asarray(coefficients, dtype=complex)
    rows = np.zeros((len(coeffs), 2 ** VARIANT_SPECS[variant].secret_qubits), complex)
    # adding to zeros turns a -0.0 part into 0.0: the bits that 0.1.0 writes
    rows[:, slots] += coeffs[:, picks]
    return rows


def _draw_coefficients(variant: Variant, normals: np.ndarray) -> np.ndarray:
    """Normalized complex Gaussian class coefficients from ``normals``, one
    row of ``2 * coefficient_count`` per secret: (rows, coefficient_count).

    A row is one ``normal(size=2 * count)`` call, real parts first: the
    stream of two ``size=count`` calls. Each row is then scaled to the class
    norm by its ``np.linalg.norm``, taken with that function's
    floating-point operations: ``vecdot`` makes the dot products on real and
    imaginary parts 16 bytes apart, as ``norm`` does on a complex row's
    ``.real`` and ``.imag``. BLAS sums contiguous slices in another order,
    and the last bit would drift.
    """
    vs = VARIANT_SPECS[variant]
    count = vs.coefficient_count
    # (trials, count, 2): each real part beside its imaginary part, the
    # floats of a + 1j * b, since normal() never returns -0.0
    parts = normals.reshape(-1, 2, count).transpose(0, 2, 1).copy()
    re, im = parts[..., 0], parts[..., 1]
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    # a real factor on the floats: the bits of the complex product
    parts *= (math.sqrt(vs.coefficient_norm) / norms)[:, None, None]
    return parts.view(complex)[..., 0]


def random_secret(variant: Variant, rng: np.random.Generator) -> SecretSpec:
    """Normalized complex Gaussian coefficients inside the class, from one
    ``normal(size=2 * coefficient_count)`` call on ``rng``."""
    normals = rng.normal(size=(1, 2 * VARIANT_SPECS[variant].coefficient_count))
    return SecretSpec(variant, _draw_coefficients(variant, normals)[0].tolist())


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...); order of creation is irrelevant."""
    return np.random.default_rng([_integer(n, "seed or key") for n in (seed, *key)])


def alice_cbits(outcome: int) -> str:
    """The four classical bits Alice broadcasts for her outcome."""
    return format(outcome, "04b")


# ---------------------------------------------------------------------------
# Alice's measurement bases
# ---------------------------------------------------------------------------


def build_alice_basis(
    variant: Variant | str, encoding: str = CANONICAL
) -> OrthonormalBasis:
    """Alice's five-qubit measurement basis, one Pauli frame per outcome,
    built once per (variant, encoding) however the call spells them (the
    variant by its ``Variant`` or its name).

    Vector i is ``X**x Z**z`` on the equal superposition of the variant's
    ``alice_anchor`` kets, where the high bits of i set x on the
    ``alice_flips`` qubits and its low bits set z on the ``alice_phases``.
    That is ``(-1)**popcount(x & z)`` times the anchor under statevec's
    Pauli rule for the masks (x, z), which applies ``Z**z X**x``.
    ``encoding="literal"`` reproduces the source verbatim, unchecked for
    orthonormality, with its two defects: its sign expansion reverses the
    phase qubits (a label swap in the 16-outcome bases), and its ``four``
    basis repeats vector 2 as vector 3.
    """
    # checked before the cache, which cannot hash every wrong value
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")
    return _alice_basis(Variant.parse(variant), encoding)


@functools.cache
def _alice_basis(variant: Variant, encoding: str) -> OrthonormalBasis:
    vs = VARIANT_SPECS[variant]
    width = len(vs.alice_anchor[0])
    phases = vs.alice_phases[::-1] if encoding == LITERAL else vs.alice_phases
    # bit j of i, most significant first, drives qubit frame[j]
    frame = (*vs.alice_flips, *phases)
    anchor = np.zeros(2**width)
    anchor[[int(ket, 2) for ket in vs.alice_anchor]] = 0.5
    vectors = []
    for i in range(vs.num_outcomes):
        bits = format(i, f"0{len(frame)}b")
        on = [1 << (width - 1 - q) if b == "1" else 0 for q, b in zip(frame, bits)]
        x, z = sum(on[: len(vs.alice_flips)]), sum(on[len(vs.alice_flips) :])
        source, sign = _xor_sign_tables(2**width, x, z)
        order = (-1.0) ** bin(x & z).count("1")  # X**x Z**z = order * Z**z X**x
        # + 0.0 turns the -0.0 a sign flip leaves on a zero component into 0.0
        vectors.append(StateVector(order * sign * anchor[source] + 0.0))
    if encoding == LITERAL and variant is Variant.FOUR:
        vectors[3] = vectors[2]
    return OrthonormalBasis(tuple(vectors), validate=(encoding == CANONICAL))


# the cache's hits and misses, read through the public name
build_alice_basis.cache_info = _alice_basis.cache_info


@functools.cache
def _alice_measurement(variant: Variant, basis: OrthonormalBasis) -> LiftedBasis:
    """Alice's measurement in ``basis`` of secret rows (x) the channel, built
    on first use per (variant, basis). GHZ (x) GHZ has four kets, and each
    fixes Bob's and Charlie's bits, so a branch has amplitude on 4 of the
    kets of their qubits at most: its ``kets``, 0, 6, 9 and 15 of 16 in
    three-a, 0, 3, 12 and 15 in three-b, 0, 7, 24 and 31 of 32 in ``four``.
    Each of those is one secret amplitude times a constant (two in
    ``four``), with the dense projection's bits; every other ket is +0.0."""
    qubits = VARIANT_SPECS[variant].secret_qubits
    return LiftedBasis.of(basis, build_channel(variant), qubits)


# ---------------------------------------------------------------------------
# Published correction tables (verbatim, defects included)
# ---------------------------------------------------------------------------

_PUBLISHED_ROWS = {
    Variant.THREE_A: {
        (0, 0): ("I", "I", "I"), (0, 1): ("Z", "I", "I"),
        (1, 0): ("I", "Z", "I"), (1, 1): ("Z", "Z", "I"),
        (2, 0): ("Z", "I", "I"), (2, 1): ("I", "I", "I"),
        (3, 0): ("Z", "Z", "I"), (3, 1): ("I", "Z", "I"),
        (4, 0): ("I", "X", "X"), (4, 1): ("Z", "X", "X"),
        (5, 0): ("I", "iY", "X"), (5, 1): ("Z", "iY", "X"),
        (6, 0): ("Z", "X", "X"), (6, 1): ("I", "X", "X"),
        (7, 0): ("Z", "iY", "X"), (7, 1): ("I", "iY", "X"),
        (8, 0): ("X", "I", "I"), (8, 1): ("iY", "I", "I"),
        (9, 0): ("X", "Z", "I"), (9, 1): ("iY", "Z", "I"),
        (10, 0): ("iY", "I", "I"), (10, 1): ("X", "I", "I"),
        (11, 0): ("iY", "Z", "I"), (11, 1): ("X", "Z", "I"),
        (12, 0): ("X", "X", "X"), (12, 1): ("iY", "X", "X"),
        (13, 0): ("X", "iY", "X"), (13, 1): ("iY", "iY", "X"),
        (14, 0): ("iY", "X", "X"), (14, 1): ("X", "X", "X"),
        (15, 0): ("iY", "iY", "X"), (15, 1): ("X", "iY", "X"),
    },
    Variant.THREE_B: {
        (0, 0): ("I", "I", "I"), (0, 1): ("I", "Z", "I"),
        (1, 0): ("I", "I", "Z"), (1, 1): ("I", "Z", "Z"),
        (2, 0): ("I", "Z", "I"), (2, 1): ("I", "I", "I"),
        (3, 0): ("I", "Z", "Z"), (3, 1): ("I", "I", "Z"),
        (4, 0): ("I", "I", "X"), (4, 1): ("I", "Z", "X"),
        (5, 0): ("I", "I", "iY"), (5, 1): ("I", "Z", "iY"),
        (6, 0): ("I", "Z", "X"), (6, 1): ("I", "I", "X"),
        (7, 0): ("I", "Z", "iY"), (7, 1): ("I", "I", "iY"),
        (8, 0): ("X", "X", "I"), (8, 1): ("X", "iY", "I"),
        (9, 0): ("X", "X", "Z"), (9, 1): ("X", "iY", "Z"),
        (10, 0): ("X", "iY", "I"), (10, 1): ("X", "X", "I"),
        (11, 0): ("X", "iY", "Z"), (11, 1): ("X", "X", "Z"),
        (12, 0): ("X", "X", "X"), (12, 1): ("X", "iY", "X"),
        (13, 0): ("X", "X", "iY"), (13, 1): ("X", "iY", "iY"),
        (14, 0): ("X", "iY", "X"), (14, 1): ("X", "X", "X"),
        (15, 0): ("X", "iY", "iY"), (15, 1): ("X", "X", "iY"),
    },
    Variant.FOUR: {
        (0, 0): ("I", "I", "I", "I"), (0, 1): ("I", "I", "Z", "I"),
        (1, 0): ("I", "Z", "I", "I"), (1, 1): ("I", "Z", "Z", "I"),
        (2, 0): ("X", "X", "I", "I"), (2, 1): ("X", "X", "Z", "I"),
        (3, 0): ("X", "iY", "I", "I"), (3, 1): ("X", "iY", "Z", "I"),
    },
}


@dataclass(frozen=True)
class CorrectionTable:
    """Mapping (alice_outcome, charlie_bit) -> Bob's Pauli correction."""

    variant: Variant
    source: str
    rows: dict[tuple[int, int], PauliString]

    def __getitem__(self, key: tuple[int, int]) -> PauliString:
        outcome, bit = key
        try:
            return self.rows[(_integer(outcome, "outcome"), _integer(bit, "bit"))]
        except KeyError:
            raise KeyError(
                f"no row for outcome {outcome}, bit {bit} in "
                f"{self.variant.value} table"
            ) from None

    def __len__(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> list[tuple[int, int, PauliString]]:
        return [(i, b, self.rows[(i, b)]) for i, b in sorted(self.rows)]

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "source": self.source,
            "rows": [
                {
                    "alice_outcome": i,
                    "alice_cbits": alice_cbits(i),
                    "charlie_bit": b,
                    "correction": list(p.labels),
                }
                for i, b, p in self.sorted_rows()
            ],
        }


def published_correction_table(variant: Variant | str) -> CorrectionTable:
    """The reference corrections exactly as tabulated in the source, built
    once per variant, given by its ``Variant`` or its name."""
    return _published_table(Variant.parse(variant))


@functools.cache
def _published_table(variant: Variant) -> CorrectionTable:
    rows = {
        key: PauliString(labels)
        for key, labels in _PUBLISHED_ROWS[variant].items()
    }
    return CorrectionTable(variant, "published", rows)


# ---------------------------------------------------------------------------
# Protocol execution
# ---------------------------------------------------------------------------


class OutcomeWeight(NamedTuple):
    alice_outcome: int
    charlie_bit: int
    probability: float

    def to_dict(self) -> dict:
        return {
            "alice_outcome": self.alice_outcome,
            "charlie_bit": self.charlie_bit,
            "probability": self.probability,
        }


@dataclass(frozen=True)
class Transcript:
    """Full record of one protocol run."""

    variant: Variant
    secret: SecretSpec | StateVector
    alice_outcome: int
    alice_cbits: str
    charlie_bit: int
    correction: PauliString
    bob_state_before: StateVector
    bob_state_after: StateVector
    fidelity: float
    probabilities: tuple[OutcomeWeight, ...]

    @property
    def messages(self) -> dict[str, str]:
        """Classical messages: four bits from Alice, one from Charlie."""
        return {
            "alice_to_bob": self.alice_cbits,
            "charlie_to_bob": str(self.charlie_bit),
        }

    def to_dict(self) -> dict:
        if isinstance(self.secret, SecretSpec):
            secret = {"kind": "coefficients", **self.secret.to_dict()}
        else:
            secret = {
                "kind": "state",
                "variant": self.variant.value,
                "amplitudes": self.secret.amplitude_pairs(),
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "variant": self.variant.value,
            "secret": secret,
            "alice_outcome": self.alice_outcome,
            "alice_cbits": self.alice_cbits,
            "charlie_bit": self.charlie_bit,
            "messages": self.messages,
            "correction": list(self.correction.labels),
            "bob_state_before": self.bob_state_before.amplitude_pairs(),
            "bob_state_after": self.bob_state_after.amplitude_pairs(),
            "fidelity": self.fidelity,
            "probabilities": [w.to_dict() for w in self.probabilities],
        }


def _resolve_secret(
    secret: SecretSpec | StateVector, variant: Variant | str | None
) -> tuple[Variant, StateVector]:
    if variant is not None:
        variant = Variant.parse(variant)
    if isinstance(secret, SecretSpec):
        if variant is not None and variant is not secret.variant:
            raise ValueError("variant argument contradicts the secret's variant")
        return secret.variant, secret.state
    if variant is None:
        raise ValueError("a raw state secret needs an explicit variant")
    vs = VARIANT_SPECS[variant]
    if secret.num_qubits != vs.secret_qubits:
        raise ValueError(
            f"{variant.value} secrets have {vs.secret_qubits} qubits, "
            f"got {secret.num_qubits}"
        )
    # a raw state may lie outside the class: checked before anything is drawn
    basis = _alice_measurement(variant, build_alice_basis(variant))
    _check_span(basis.project(secret.amplitudes[None])[1])
    return variant, secret


def _resolve_forced(
    forced: tuple[int, int] | None, variant: Variant
) -> tuple[int, int] | None:
    """``forced`` as a ``_check_row`` pair, or None; a non-pair is refused."""
    if forced is None:
        return None
    try:
        outcome, bit = forced  # a sequence of another length keeps its message
    except TypeError:
        raise ValueError(f"forced must be a pair of integers, got {forced!r}") from None
    return _check_row(variant, outcome, bit)


def _check_row(variant: Variant, outcome: int, bit: int) -> tuple[int, int]:
    """``(outcome, bit)`` as the ints of a row of ``variant``'s tables."""
    outcome, bit = _integer(outcome, "outcome"), _integer(bit, "bit")
    limit = VARIANT_SPECS[variant].num_outcomes
    if not 0 <= outcome < limit:
        raise ValueError(
            f"outcome {outcome} out of range [0, {limit}) for {variant.value}"
        )
    if not 0 <= bit < 2:
        raise ValueError(f"bit {bit} out of range [0, 2)")
    return outcome, bit


def _joint_weights(branches: np.ndarray, kets: Kets) -> np.ndarray:
    """Joint weights ``[..., outcome, bit]`` from Alice's (stacked) branches
    on ``kets``."""
    signed = _hadamard_halves(branches, kets)
    signed /= np.sqrt(2.0)
    return kets.halves[0].probabilities(signed)


def _outcome_weights(weights: np.ndarray) -> tuple[OutcomeWeight, ...]:
    rows = enumerate(weights.tolist())  # weights[outcome, bit]
    return tuple(OutcomeWeight(i, b, p) for i, row in rows for b, p in enumerate(row))


def outcome_distribution(
    secret: SecretSpec | StateVector, *, variant: Variant | str | None = None
) -> tuple[OutcomeWeight, ...]:
    """Exact joint probabilities of (alice_outcome, charlie_bit); a raw state
    outside the class raises OutOfSpanError."""
    variant, secret_state = _resolve_secret(secret, variant)
    combined = tensor_product(secret_state, build_channel(variant))
    branches, _ = build_alice_basis(variant).project(combined.amplitudes[None])
    kets = Kets.every(branches.shape[-1])
    return _outcome_weights(_joint_weights(branches, kets)[0])


# trials whose random draws are made as one stack, and that the kernel runs
# as one: Alice's branches take about 1 MiB per block at most
TRIAL_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class TrialChunk:
    """The trial kernel's arrays for consecutive trials run as one stack, a
    ``run_trials`` block or ``run_protocol``'s one trial; entry or row t is
    the chunk's trial t. ``coefficients`` are the trials' class
    coefficients, drawn or fixed; None in ``run_protocol``'s chunk.
    ``rows`` holds each trial's row of ``table``, the table the kernel used,
    as ``2 * alice_outcome + charlie_bit`` (``sorted_rows``' order).
    ``alice_branches`` holds Alice's branches on the kets ``alice_kets``,
    ``bob_before`` and ``bob_after`` Bob's full rows."""

    variant: Variant
    coefficients: np.ndarray | None
    rows: np.ndarray
    table: CorrectionTable
    bob_before: np.ndarray
    bob_after: np.ndarray
    fidelities: list[float]
    alice_branches: np.ndarray
    alice_kets: Kets


def _run_chunk(
    variant: Variant,
    coefficients: np.ndarray | None,
    secret_rows: np.ndarray,
    uniforms: np.ndarray | None,
    forced: tuple[int, int] | None,
    table: CorrectionTable,
) -> TrialChunk:
    """The trial kernel: one protocol round per secret row, all stacked:
    Alice's lifted basis, Charlie's Hadamard on the last qubit, both on the
    kets the channel reaches (``LiftedBasis.kets``), then Bob's correction
    on his full rows. Unless ``forced`` pins both outcomes, trial t samples
    Alice's outcome with ``uniforms[0][t]`` and Charlie's with
    ``uniforms[1][t]``, a (2, rows) array. Every step is the same
    floating-point operation per row as on a single state.
    """
    basis = _alice_measurement(variant, build_alice_basis(variant))
    kets = basis.kets
    if forced is None:
        alice = measure_in_basis(secret_rows, basis, uniforms[0])
        charlie = measure_hadamard(alice.residual, uniforms[1], kets)
    else:
        alice = force_basis_outcome(secret_rows, basis, forced[0])
        charlie = force_hadamard_outcome(alice.residual, forced[1], kets)
    bob_before = kets.halves[0].scatter(charlie.residual)

    rows = 2 * alice.outcome + charlie.outcome
    keys, inverse = _distinct_rows(rows, table)
    bob_after = apply_pauli_string(bob_before, [keys[k][2] for k in inverse.tolist()])
    check_normalized(bob_after)
    return TrialChunk(
        variant=variant,
        coefficients=coefficients,
        rows=rows,
        table=table,
        bob_before=bob_before,
        bob_after=bob_after,
        fidelities=fidelity(bob_after, secret_rows),
        alice_branches=alice.branches,
        alice_kets=kets,
    )


def _distinct_rows(rows: np.ndarray, table: CorrectionTable) -> tuple[list, np.ndarray]:
    """The distinct rows among ``rows`` (``TrialChunk.rows``) in row order,
    each as (outcome, bit, its correction in ``table``), and each trial's
    index into them: one table lookup per distinct row for the kernel, one
    text for csv, text and JSON. A row that ``table`` lacks raises the
    table's KeyError."""
    distinct, inverse = np.unique(rows, return_inverse=True)
    pairs = [divmod(row, 2) for row in distinct.tolist()]
    return [(i, b, table[i, b]) for i, b in pairs], inverse


def run_trials(
    variant: Variant | str,
    seed: int,
    trials: int,
    *,
    secret: SecretSpec | None = None,
    forced: tuple[int, int] | None = None,
) -> Iterator[TrialChunk]:
    """Trials ``0 .. trials - 1`` with the published table, one
    ``TrialChunk`` per ``TRIAL_BLOCK`` trials: each block's draws, secret
    rows and kernel run are one stack. ``secret`` and ``forced`` are checked
    as ``run_protocol`` does.

    Trial t draws from ``substream(seed, t)`` alone: its random secret
    (``normal(size=2 * count)``) unless ``secret`` fixes one, then one
    ``random()`` for Alice's outcome and one for Charlie's unless ``forced``
    pins them. Those draws are made a block at a time, and checked against
    ``substream``'s own calls, by ``_numpy_bits.trial_draws``, the one home
    of the numpy behaviour they reproduce. A forced run with a fixed secret
    draws nothing. The secrets are one stacked ``_draw_coefficients``, row
    t bit for bit ``random_secret``'s, or the fixed coefficients repeated;
    ``_secret_rows`` makes the amplitude rows, ``build_secret``'s bits, so
    no trial needs a ``SecretSpec``. A trial's result does not depend on
    the blocks or the other trials.
    """
    variant = Variant.parse(variant)
    if secret is not None:
        if not isinstance(secret, SecretSpec):  # a raw state has no coefficients
            raise ValueError(f"a fixed secret must be a SecretSpec, got {secret!r}")
        _resolve_secret(secret, variant)
    forced = _resolve_forced(forced, variant)
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # checked here too: a forced run with a fixed secret builds no generator
    seed = _integer(seed, "seed or key")
    if seed < 0:
        raise ValueError("expected non-negative integer")  # as SeedSequence says
    table = published_correction_table(variant)
    normals = 0 if secret is not None else 2 * VARIANT_SPECS[variant].coefficient_count
    uniforms = 0 if forced is not None else 2
    for block in range(0, trials, TRIAL_BLOCK):
        stop = min(block + TRIAL_BLOCK, trials)
        gaussian, uniform = trial_draws(substream, seed, block, stop, normals, uniforms)
        if secret is None:
            coefficients = _draw_coefficients(variant, gaussian)
        else:
            coefficients = np.array([secret.coefficients] * (stop - block))
        # Alice's projection checks the rows' norms
        rows = _secret_rows(variant, coefficients)
        yield _run_chunk(variant, coefficients, rows, uniform, forced, table)


def run_protocol(
    secret: SecretSpec | StateVector,
    *,
    variant: Variant | str | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    forced: tuple[int, int] | None = None,
    table: CorrectionTable | None = None,
) -> Transcript:
    """Execute one full splitting round and return its transcript.

    Unless ``forced=(alice_outcome, charlie_bit)``, a row of the variant,
    pins them, ``rng.random((2, 1))`` (or ``seed``'s generator's) gives
    Alice's uniform, then Charlie's, once the secret's class is checked: a
    secret outside it raises OutOfSpanError, with nothing drawn. ``table``,
    of the same variant, overrides the published table. This is the trial
    kernel run on a single trial, and the only place that builds a
    ``Transcript``.
    """
    if rng is not None and seed is not None:
        raise ValueError("pass rng or seed, not both")
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy Generator, got {rng!r}")
    variant, secret_state = _resolve_secret(secret, variant)
    forced = _resolve_forced(forced, variant)
    if table is None:
        table = published_correction_table(variant)
    elif table.variant != variant:  # a Variant equals its name
        other = Variant.parse(table.variant).value
        raise ValueError(f"table is for {other}, not {variant.value}")
    if seed is not None:
        rng = substream(seed)
    rows, uniforms = secret_state.amplitudes[None], None
    if forced is None:
        if rng is None:
            raise ValueError("need rng, seed, or forced outcomes")
        uniforms = rng.random((2, 1))
    chunk = _run_chunk(variant, None, rows, uniforms, forced, table)
    outcome, bit = divmod(int(chunk.rows[0]), 2)
    return Transcript(
        variant=variant,
        secret=secret,
        alice_outcome=outcome,
        alice_cbits=alice_cbits(outcome),
        charlie_bit=bit,
        correction=chunk.table[outcome, bit],
        bob_state_before=StateVector(chunk.bob_before[0]),
        bob_state_after=StateVector(chunk.bob_after[0]),
        fidelity=chunk.fidelities[0],
        probabilities=_outcome_weights(
            _joint_weights(chunk.alice_branches, chunk.alice_kets)[0]
        ),
    )
