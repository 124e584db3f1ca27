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

import numpy as np

from .statevec import (
    NORM_ATOL,
    NormalizationError,
    OrthonormalBasis,
    PauliString,
    StateVector,
    apply_pauli_string,
    check_normalized,
    fidelity,
    force_basis_outcome,
    force_hadamard_outcome,
    measure_hadamard,
    measure_in_basis,
    permute_qubits,
    project,
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
    secret_qubits: int
    coefficient_count: int
    coefficient_norm: float  # required sum of |c|^2
    secret_kets: tuple[str, ...]
    channel_permutation: tuple[int, ...]
    bob_qubits: int
    # Alice's basis (see build_alice_basis): anchor kets on her secret qubits
    # and channel share, and the qubits her outcome bits flip and phase-flip
    alice_anchor: tuple[str, ...]
    alice_flips: tuple[int, ...]
    alice_phases: tuple[int, ...]

    @property
    def num_outcomes(self) -> int:
        return 2 ** (len(self.alice_flips) + len(self.alice_phases))


# Channel permutations: qubit i of the dealt channel is qubit perm[i] of the
# raw GHZ (x) GHZ product, whose order is (first triplet 0,1,2, second 3,4,5).
VARIANT_SPECS = {
    Variant.THREE_A: VariantSpec(
        variant=Variant.THREE_A,
        secret_qubits=3,
        coefficient_count=4,
        coefficient_norm=1.0,
        secret_kets=("000", "011", "100", "111"),
        channel_permutation=(0, 3, 1, 4, 5, 2),
        bob_qubits=3,
        alice_anchor=("00000", "01101", "10010", "11111"),
        alice_flips=(3, 4),
        alice_phases=(3, 4),
    ),
    Variant.THREE_B: VariantSpec(
        variant=Variant.THREE_B,
        secret_qubits=3,
        coefficient_count=4,
        coefficient_norm=1.0,
        secret_kets=("000", "001", "110", "111"),
        channel_permutation=(0, 3, 1, 2, 4, 5),
        bob_qubits=3,
        alice_anchor=("00000", "00101", "11010", "11111"),
        alice_flips=(3, 4),
        alice_phases=(3, 4),
    ),
    Variant.FOUR: VariantSpec(
        variant=Variant.FOUR,
        secret_qubits=4,
        coefficient_count=2,
        coefficient_norm=0.5,
        secret_kets=("0000", "0011", "1100", "1111"),
        channel_permutation=(0, 1, 2, 3, 4, 5),
        bob_qubits=4,
        alice_anchor=("00000", "00110", "11001", "11111"),
        alice_flips=(4,),
        alice_phases=(0,),
    ),
}


@dataclass(frozen=True)
class SecretSpec:
    """Coefficients of a secret within a variant's restricted class."""

    variant: Variant
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(complex(c) for c in self.coefficients)
        )

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


def ghz_triplet() -> StateVector:
    """(|000> + |111>) / sqrt(2)."""
    s = 1.0 / np.sqrt(2.0)
    return StateVector.from_terms(3, {"000": s, "111": s})


@functools.cache
def build_channel(variant: Variant) -> StateVector:
    """Six-qubit channel: two GHZ triplets dealt out per the variant layout."""
    pair = tensor_product(ghz_triplet(), ghz_triplet())
    return permute_qubits(pair, VARIANT_SPECS[variant].channel_permutation)


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
    return StateVector(vs.secret_qubits, _secret_rows(spec.variant, [spec])[0])


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


def _secret_rows(variant: Variant, specs: list[SecretSpec]) -> np.ndarray:
    """Amplitude rows of in-class secrets, one per spec (no checks)."""
    slots, picks = _secret_layout(variant)
    coeffs = np.array([spec.coefficients for spec in specs], dtype=complex)
    rows = np.zeros((len(specs), 2 ** VARIANT_SPECS[variant].secret_qubits), complex)
    rows[:, slots] += coeffs[:, picks]  # 0 + c, as StateVector.from_terms adds
    return rows


def _combined_rows(variant: Variant, secret_rows: np.ndarray) -> np.ndarray:
    """Each secret row tensored with the channel, norm-checked: np.kron's
    values, as one outer product."""
    channel = build_channel(variant).amplitudes
    combined = (secret_rows[:, :, None] * channel).reshape(len(secret_rows), -1)
    check_normalized(combined)
    return combined


def random_secret(variant: Variant, rng: np.random.Generator) -> SecretSpec:
    """Normalized complex Gaussian coefficients inside the class."""
    vs = VARIANT_SPECS[variant]
    z = rng.normal(size=vs.coefficient_count) + 1j * rng.normal(
        size=vs.coefficient_count
    )
    z *= np.sqrt(vs.coefficient_norm) / np.linalg.norm(z)
    return SecretSpec(variant, tuple(z))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...); order of creation is irrelevant."""
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def alice_cbits(outcome: int) -> str:
    """The four classical bits Alice broadcasts for her outcome."""
    return format(outcome, "04b")


# ---------------------------------------------------------------------------
# Alice's measurement bases
# ---------------------------------------------------------------------------


@functools.cache
def build_alice_basis(variant: Variant, encoding: str = CANONICAL) -> OrthonormalBasis:
    """Alice's five-qubit measurement basis, one Pauli frame per outcome.

    Vector i is ``X**x Z**z`` on the equal superposition of the variant's
    ``alice_anchor`` kets: ``0.5 * (-1)**popcount(k & z)`` at index ``k ^ x``
    for each anchor ket k, where the high bits of i set x on the
    ``alice_flips`` qubits and its low bits set z on the ``alice_phases``.
    ``encoding="literal"`` reproduces the source verbatim, unchecked for
    orthonormality, with its two defects: its sign expansion reverses the
    phase qubits (a label swap in the 16-outcome bases), and its ``four``
    basis repeats vector 2 as vector 3.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")
    vs = VARIANT_SPECS[variant]
    width = len(vs.alice_anchor[0])
    phases = vs.alice_phases[::-1] if encoding == LITERAL else vs.alice_phases
    # bit j of i, most significant first, drives qubit frame[j]
    frame = (*vs.alice_flips, *phases)
    vectors = []
    for i in range(vs.num_outcomes):
        bits = format(i, f"0{len(frame)}b")
        on = [1 << (width - 1 - q) if b == "1" else 0 for q, b in zip(frame, bits)]
        x, z = sum(on[: len(vs.alice_flips)]), sum(on[len(vs.alice_flips) :])
        amps = np.zeros(2**width, dtype=complex)
        for k in (int(ket, 2) for ket in vs.alice_anchor):
            amps[k ^ x] = 0.5 * (-1) ** bin(k & z).count("1")
        vectors.append(StateVector(width, amps))
    if encoding == LITERAL and variant is Variant.FOUR:
        vectors[3] = vectors[2]
    return OrthonormalBasis(
        tuple(range(width)), tuple(vectors), validate=(encoding == CANONICAL)
    )


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
            return self.rows[(int(outcome), int(bit))]
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


@functools.cache
def published_correction_table(variant: Variant) -> CorrectionTable:
    """The reference corrections exactly as tabulated in the source."""
    rows = {
        key: PauliString(labels)
        for key, labels in _PUBLISHED_ROWS[variant].items()
    }
    return CorrectionTable(variant, "published", rows)


# ---------------------------------------------------------------------------
# Protocol execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeWeight:
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
    secret: SecretSpec | StateVector, variant: Variant | None
) -> tuple[Variant, StateVector, SecretSpec | StateVector]:
    if isinstance(secret, SecretSpec):
        if variant is not None and variant is not secret.variant:
            raise ValueError("variant argument contradicts the secret's variant")
        return secret.variant, secret.state, secret
    if variant is None:
        raise ValueError("a raw state secret needs an explicit variant")
    vs = VARIANT_SPECS[variant]
    if secret.num_qubits != vs.secret_qubits:
        raise ValueError(
            f"{variant.value} secrets have {vs.secret_qubits} qubits, "
            f"got {secret.num_qubits}"
        )
    return variant, secret, secret


def _joint_weights(branches: np.ndarray) -> np.ndarray:
    """Joint weights ``[..., outcome, bit]`` from Alice's (stacked) branches,
    Charlie's qubit last in each branch."""
    half = branches.reshape(*branches.shape[:-1], -1, 2)
    plus = (half[..., 0] + half[..., 1]) / np.sqrt(2.0)
    minus = (half[..., 0] - half[..., 1]) / np.sqrt(2.0)
    return np.stack(
        [
            np.add.reduce(np.abs(plus) ** 2, axis=-1),
            np.add.reduce(np.abs(minus) ** 2, axis=-1),
        ],
        axis=-1,
    )


def _outcome_weights(weights: np.ndarray) -> tuple[OutcomeWeight, ...]:
    return tuple(
        OutcomeWeight(i, bit, p)
        for i, pair in enumerate(weights.tolist())
        for bit, p in enumerate(pair)
    )


def outcome_distribution(
    secret: SecretSpec | StateVector, *, variant: Variant | None = None
) -> tuple[OutcomeWeight, ...]:
    """Exact joint probabilities of (alice_outcome, charlie_bit)."""
    variant, secret_state, _ = _resolve_secret(secret, variant)
    combined = tensor_product(secret_state, build_channel(variant))
    branches, _ = project(combined.amplitudes[None], build_alice_basis(variant))
    return _outcome_weights(_joint_weights(branches)[0])


# trials the kernel stacks per call: a chunk's arrays stay within 1-2 MiB
TRIAL_CHUNK = 128


@dataclass(frozen=True, eq=False)
class TrialChunk:
    """Consecutive trials run as one stack; entry or row t is the chunk's trial t."""

    variant: Variant
    secrets: tuple[SecretSpec | StateVector, ...]
    alice_outcomes: list[int]
    charlie_bits: list[int]
    corrections: list[PauliString]
    bob_before: np.ndarray
    bob_after: np.ndarray
    fidelities: list[float]
    alice_branches: np.ndarray

    def transcripts(self) -> list[Transcript]:
        bob = VARIANT_SPECS[self.variant].bob_qubits
        weights = _joint_weights(self.alice_branches)
        return [
            Transcript(
                variant=self.variant,
                secret=secret,
                alice_outcome=outcome,
                alice_cbits=alice_cbits(outcome),
                charlie_bit=bit,
                correction=correction,
                bob_state_before=StateVector(bob, before),
                bob_state_after=StateVector(bob, after),
                fidelity=fid,
                probabilities=_outcome_weights(w),
            )
            for secret, outcome, bit, correction, before, after, fid, w in zip(
                self.secrets, self.alice_outcomes, self.charlie_bits,
                self.corrections, self.bob_before, self.bob_after,
                self.fidelities, weights,
            )
        ]


def _run_chunk(
    variant: Variant,
    secrets: tuple[SecretSpec | StateVector, ...],
    secret_rows: np.ndarray,
    rngs: list[np.random.Generator],
    forced: tuple[int, int] | None,
    basis: OrthonormalBasis,
    table: CorrectionTable,
) -> TrialChunk:
    """The trial kernel: one protocol round per secret row, all stacked.

    Trial t samples from ``rngs[t]`` (one ``random()`` for Alice, then one
    for Charlie) unless ``forced`` pins both outcomes. Every step is the
    same floating-point operation per row as on a single state.
    """
    combined = _combined_rows(variant, secret_rows)
    bob = VARIANT_SPECS[variant].bob_qubits  # Charlie's qubit follows Bob's
    if forced is None:
        alice = measure_in_basis(combined, basis, rngs)
        charlie = measure_hadamard(alice.residual, bob, rngs)
    else:
        alice = force_basis_outcome(combined, basis, forced[0])
        charlie = force_hadamard_outcome(alice.residual, bob, forced[1])

    keys = list(zip(alice.outcome.tolist(), charlie.outcome.tolist()))
    corrections = [table[key] for key in keys]
    bob_after = apply_pauli_string(charlie.residual, tuple(range(bob)), corrections)
    check_normalized(bob_after)
    return TrialChunk(
        variant=variant,
        secrets=tuple(secrets),
        alice_outcomes=[i for i, _ in keys],
        charlie_bits=[b for _, b in keys],
        corrections=corrections,
        bob_before=charlie.residual,
        bob_after=bob_after,
        fidelities=fidelity(bob_after, secret_rows),
        alice_branches=alice.branches,
    )


def trial_draws(
    variant: Variant, seed: int, trials: int, secret: SecretSpec | None = None
) -> Iterator[tuple[list[np.random.Generator], list[SecretSpec]]]:
    """Generators and secrets of trials ``0 .. trials - 1``, ``TRIAL_CHUNK``
    at a time.

    Trial t draws from ``substream(seed, t)`` alone: first its random secret
    (unless ``secret`` fixes one for every trial), then its outcomes. A
    trial's result therefore does not depend on the chunking or on the other
    trials.
    """
    for start in range(0, trials, TRIAL_CHUNK):
        stop = min(start + TRIAL_CHUNK, trials)
        rngs = [substream(seed, t) for t in range(start, stop)]
        if secret is None:
            yield rngs, [random_secret(variant, rng) for rng in rngs]
        else:
            yield rngs, [secret] * len(rngs)


def run_trials(
    variant: Variant,
    seed: int,
    trials: int,
    *,
    secret: SecretSpec | None = None,
    forced: tuple[int, int] | None = None,
) -> Iterator[TrialChunk]:
    """Trials ``0 .. trials - 1`` with the published table, drawn as
    ``trial_draws`` says and run a chunk at a time."""
    fixed = None if secret is None else secret.state
    basis = build_alice_basis(variant)
    table = published_correction_table(variant)
    for rngs, secrets in trial_draws(variant, seed, trials, secret):
        if secret is None:
            rows = _secret_rows(variant, secrets)
            check_normalized(rows)  # what StateVector checks of build_secret's
        else:
            rows = np.repeat(fixed.amplitudes[None], len(rngs), axis=0)
        yield _run_chunk(variant, secrets, rows, rngs, forced, basis, table)


def run_protocol(
    secret: SecretSpec | StateVector,
    *,
    variant: Variant | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    forced: tuple[int, int] | None = None,
    basis: OrthonormalBasis | None = None,
    table: CorrectionTable | None = None,
) -> Transcript:
    """Execute one full splitting round and return its transcript.

    Outcomes are sampled from ``rng`` (or a generator seeded with ``seed``)
    unless ``forced=(alice_outcome, charlie_bit)`` pins them. The published
    correction table is used unless ``table`` overrides it. Raises
    OutOfSpanError when the secret lies outside the variant's restricted
    class. This is the trial kernel run on a single trial.
    """
    variant, secret_state, secret_record = _resolve_secret(secret, variant)
    if forced is not None:
        forced = (int(forced[0]), int(forced[1]))
    elif rng is None:
        if seed is None:
            raise ValueError("need rng, seed, or forced outcomes")
        rng = np.random.default_rng(seed)
    chunk = _run_chunk(
        variant,
        (secret_record,),
        secret_state.amplitudes[None],
        [rng],
        forced,
        basis if basis is not None else build_alice_basis(variant),
        table if table is not None else published_correction_table(variant),
    )
    return chunk.transcripts()[0]
