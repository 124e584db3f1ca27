"""Exact oracle: derive correction tables independently and audit the
published ones.

Each (alice_outcome, charlie_bit) row of a variant is a fixed linear map
``K[i, b]`` from the secret to Bob's qubits (the protocol's Kraus operators),
and every factor of it is 0, ±1/2 or ±1/sqrt(2), so ``Kint = 4*sqrt(2)*K`` is
an integer matrix. On the restricted class, spanned by the integer isometry
``V`` (unit kets in the three-qubit variants, pair sums in ``four``), a Pauli
correction P recovers every secret iff ``P @ Kint @ V == ±mu * V`` exactly,
with ``mu = 4 / sqrt(outcomes)``; iY is real, so no other phase can occur.
Once per variant, the oracle indexes the image each Pauli correction on
Bob's qubits (64 or 256) maps to ``±mu * V``: one lookup gives a row's
solutions, a coset of the class stabilizer, with signs. Rows are graded:

* MATCH: the published correction satisfies it with the + sign, so it
  reproduces every secret exactly, amplitude for amplitude.
* PHASE_ONLY_MATCH: it satisfies it with the - sign, so the recovered state
  is the secret times a global phase of -1.
* MISMATCH: the published correction is not a solution at all.

Verdicts are integer identities: no tolerance and no random draw decides
them. The seeded test secrets, each unit secret and ``TEST_RANDOM_SECRETS``
random ones (14 per three-qubit variant, 12 for ``four``), feed only each
row's reported ``published_min_fidelity`` and ``phase``. The report also
carries basis anomalies (Gram-matrix defects of the active encoding) and
structural inconsistencies between the canonical and literal encodings, so
defective source rows are surfaced as data rather than hidden.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .protocol import (
    CANONICAL,
    FIDELITY_ATOL,
    LITERAL,
    SCHEMA_VERSION,
    CorrectionTable,
    Variant,
    VARIANT_SPECS,
    _alice_measurement,
    _check_row,
    _draw_coefficients,
    _secret_layout,
    _secret_rows,
    build_alice_basis,
    published_correction_table,
    substream,
)
from .statevec import (
    NORM_ATOL,
    OrthonormalBasis,
    PauliString,
    StateVector,
    _check_span,
    _every_pauli,
    _hadamard_halves,
    _integer,
    _xor_sign_tables,
    basis_projection_probabilities,
    collapse,
    force_hadamard_outcome,
)

# least out-of-span mass for a secret to count as outside the restricted class
OUT_OF_CLASS_MASS = 1e-6
# largest distance of an entry of 4*sqrt(2)*K from its integer
INTEGER_ATOL = 1e-9

MATCH = "MATCH"
PHASE_ONLY_MATCH = "PHASE_ONLY_MATCH"
MISMATCH = "MISMATCH"

# seeded test secrets behind a report's published_min_fidelity and phase
TEST_SEED = 271828
TEST_RANDOM_SECRETS = 10  # random test secrets on top of the unit ones
SPAN_SEED = 314159


def _test_secrets(variant: Variant) -> np.ndarray:
    """Class coefficient rows of the test secrets: each unit secret, then
    ``TEST_RANDOM_SECRETS`` random ones."""
    vs = VARIANT_SPECS[variant]
    rng = substream(TEST_SEED, list(Variant).index(variant))
    return np.vstack([
        np.sqrt(vs.coefficient_norm) * np.eye(vs.coefficient_count),
        _draw_coefficients(
            variant, rng.normal(size=(TEST_RANDOM_SECRETS, 2 * vs.coefficient_count))
        ),
    ])


@functools.cache
def _class_images(
    variant: Variant, basis: OrthonormalBasis
) -> tuple[np.ndarray, np.ndarray]:
    """``Kint[i, b] @ V`` for every row, (outcomes, 2, 2**bob, coefficients)
    int64, and the target ``mu * V``, built once per (variant, basis).

    Alice's measurement (``_alice_measurement``) of the secret's unit kets
    gives every row's map at once; ``_hadamard_halves`` splits each branch
    by Charlie's Hadamard outcome, on the live kets, then Bob's full rows.
    Raises ValueError if ``basis`` does not make ``4*sqrt(2)*K`` integral.
    """
    vs = VARIANT_SPECS[variant]
    dim = 2**vs.secret_qubits
    lifted = _alice_measurement(variant, basis)
    branches, _ = lifted.project(np.eye(dim, dtype=complex))
    # (a ± b) / sqrt(2) times 4*sqrt(2): (kets, outcomes, bit, 2**bob)
    halves = _hadamard_halves(branches, lifted.kets)
    scaled = 4 * lifted.kets.halves[0].scatter(halves)
    kint = np.rint(scaled.real)
    off = float(np.max(np.abs(scaled - kint)))
    if not off <= INTEGER_ATOL:
        raise ValueError(
            f"basis does not give {variant.value} integer Kraus operators: "
            f"4*sqrt(2)*K is {off:.3e} off an integer"
        )
    slots, picks = _secret_layout(variant)
    isometry = np.zeros((dim, vs.coefficient_count), dtype=np.int64)
    isometry[slots, picks] = 1
    images = kint.astype(np.int64).transpose(1, 2, 3, 0) @ isometry
    target = 4 // math.isqrt(vs.num_outcomes) * isometry  # mu = 4/sqrt(outcomes)
    images.flags.writeable = target.flags.writeable = False
    return images, target


@functools.cache
def _preimage_index(shape: tuple[int, int], target: bytes) -> dict[bytes, tuple]:
    """Each image ``pre`` with ``P @ pre == s * target`` for a Pauli P and a
    sign s = ±1, as int64 bytes, to its (``_every_pauli`` index, s) pairs in
    candidate order. P's source is an involution, so that holds iff
    ``pre[m] == s * sign[source[m]] * target[source[m]]``: one gather."""
    targets = np.frombuffer(target, dtype=np.int64).reshape(shape)
    _, source, sign = _every_pauli(shape[0].bit_length() - 1)
    flips = np.take_along_axis(sign, source, 1).astype(np.int64)
    preimages = flips[..., None] * targets[source]
    index: dict[bytes, list[tuple[int, int]]] = {}
    for i, pre in enumerate(preimages):
        for s in (1, -1):
            index.setdefault((s * pre).tobytes(), []).append((i, s))
    return {key: tuple(hits) for key, hits in index.items()}


def _image_sign(pauli: PauliString, pre: np.ndarray, targets: np.ndarray) -> int:
    """+1 if ``pauli @ pre == targets`` exactly, -1 if it is ``-targets``,
    else 0."""
    if 2 ** len(pauli) != len(pre):
        raise ValueError(f"{len(pauli)} Pauli factors on rows of {len(pre)} amplitudes")
    source, sign = _xor_sign_tables(len(pre), *pauli.masks)
    corrected = sign[:, None] * pre[source]
    return int((corrected == targets).all()) - int((corrected == -targets).all())


def _solutions_for_row(
    pre: np.ndarray, targets: np.ndarray, candidates: tuple[PauliString, ...]
) -> dict[PauliString, int]:
    """The candidates P (``_every_pauli``'s strings) with ``P @ pre ==
    ±targets`` exactly, in candidate order, each mapped to its sign, by one
    ``_preimage_index`` lookup: int64 arrays of one shape are equal exactly
    when their bytes are. ``pre`` is ``Kint[i, b] @ V``, targets ``mu * V``."""
    rows, shape = 2 ** len(candidates[0]), np.shape(targets)
    for name, image in (("image", pre), ("target", targets)):
        dtype = getattr(image, "dtype", type(image).__name__)
        if dtype != np.int64 or np.shape(image) != shape or shape[:-1] != (rows,):
            raise ValueError(
                f"{name} must be an int64 array of the target's shape, with "
                f"{rows} rows; got {dtype} {np.shape(image)}, target {shape}"
            )
    hits = _preimage_index(shape, targets.tobytes()).get(pre.tobytes(), ())
    return {candidates[i]: s for i, s in hits}


def _all_rows(variant: Variant) -> list[tuple[int, int]]:
    return [(i, b) for i in range(VARIANT_SPECS[variant].num_outcomes) for b in (0, 1)]


def derive_corrections(
    variant: Variant | str, outcome: int, bit: int
) -> tuple[PauliString, ...]:
    """All Pauli corrections that recover every secret of the class on this row."""
    variant = Variant.parse(variant)
    outcome, bit = _check_row(variant, outcome, bit)
    images, target = _class_images(variant, build_alice_basis(variant, CANONICAL))
    candidates, _, _ = _every_pauli(VARIANT_SPECS[variant].bob_qubits)
    return tuple(_solutions_for_row(images[outcome, bit], target, candidates))


@dataclass(frozen=True)
class RowFinding:
    alice_outcome: int
    charlie_bit: int
    status: str
    published: PauliString
    solutions: tuple[PauliString, ...]
    published_min_fidelity: float
    phase: complex | None  # recovered-state phase when the row is not exact

    def to_dict(self) -> dict:
        return {
            "alice_outcome": self.alice_outcome,
            "charlie_bit": self.charlie_bit,
            "status": self.status,
            "published": list(self.published.labels),
            "solutions": [list(p.labels) for p in self.solutions],
            "published_min_fidelity": self.published_min_fidelity,
            "phase": None
            if self.phase is None
            else [self.phase.real, self.phase.imag],
        }


@dataclass(frozen=True)
class DerivedTable:
    """All valid corrections per row, plus a deterministic preferred pick."""

    variant: Variant
    solutions: dict[tuple[int, int], tuple[PauliString, ...]]
    exact: dict[tuple[int, int], tuple[PauliString, ...]]

    def preferred_table(self) -> CorrectionTable:
        rows = {
            key: min(self.exact[key] or sols, key=lambda p: p.labels)
            for key, sols in self.solutions.items()
        }
        return CorrectionTable(self.variant, "derived", rows)


def derive_table(variant: Variant | str) -> DerivedTable:
    """Exhaustively derive the correction table for every row of a variant."""
    variant = Variant.parse(variant)
    return _derived_table(variant, build_alice_basis(variant, CANONICAL))


def _derived_table(variant: Variant, basis: OrthonormalBasis) -> DerivedTable:
    images, target = _class_images(variant, basis)
    candidates, _, _ = _every_pauli(VARIANT_SPECS[variant].bob_qubits)
    solutions: dict[tuple[int, int], tuple[PauliString, ...]] = {}
    exact: dict[tuple[int, int], tuple[PauliString, ...]] = {}
    for key in _all_rows(variant):
        signed = _solutions_for_row(images[key], target, candidates)
        solutions[key] = tuple(signed)
        exact[key] = tuple(p for p, s in signed.items() if s > 0)
    return DerivedTable(variant, solutions, exact)


def _basis_anomalies(basis: OrthonormalBasis) -> list[dict]:
    out = []
    for i, j, gram in basis.gram_defects():
        if i == j:
            kind, indices = "unnormalized_vector", [i]
        elif abs(abs(gram) - 1.0) <= FIDELITY_ATOL:
            kind, indices = "duplicated_basis_vector", [i, j]
        else:
            kind, indices = "nonorthogonal_pair", [i, j]
        out.append(
            {"kind": kind, "indices": indices, "gram_entry": [gram.real, gram.imag]}
        )
    return out


def _encoding_inconsistencies(variant: Variant) -> list[dict]:
    """Structural disagreements between the canonical and literal encodings."""
    cmat = build_alice_basis(variant, CANONICAL).matrix()
    literal = build_alice_basis(variant, LITERAL)
    lmat = literal.matrix()
    differing = np.flatnonzero(np.max(np.abs(lmat - cmat), axis=1) > NORM_ATOL).tolist()
    if not differing:
        return []
    if literal.gram_defects():  # four's literal basis repeats a vector
        return [
            {
                "kind": "duplicated_basis_vector_in_literal_encoding",
                "indices": differing,
                "description": "the literal encoding repeats an earlier basis "
                "vector; the canonical encoding restores the sign pattern "
                "required for orthonormality",
            }
        ]
    # literal vectors are a relabeling of canonical ones; recover the pairing
    overlaps = np.abs(lmat.conj() @ cmat.T)
    relabeling = sorted(
        [i, int(np.argmax(overlaps[i]))]
        for i in differing
        if np.max(overlaps[i]) > 1.0 - FIDELITY_ATOL
    )
    return [
        {
            "kind": "phase_exponent_swap_in_literal_encoding",
            "indices": differing,
            "relabeling": relabeling,
            "description": "the literal sign expansion swaps the two phase "
            "exponents, permuting which outcome labels which basis vector",
        }
    ]


@dataclass(frozen=True)
class DiscrepancyReport:
    variant: Variant
    encoding: str
    rows: tuple[RowFinding, ...]
    basis_anomalies: tuple[dict, ...]
    formula_inconsistencies: tuple[dict, ...]

    @property
    def status_counts(self) -> dict[str, int]:
        counts = {MATCH: 0, PHASE_ONLY_MATCH: 0, MISMATCH: 0}
        for row in self.rows:
            counts[row.status] += 1
        return counts

    @property
    def passed(self) -> bool:
        """No MISMATCH rows and no Gram defects in the active basis."""
        return self.status_counts[MISMATCH] == 0 and not self.basis_anomalies

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "table_verification",
            "variant": self.variant.value,
            "encoding": self.encoding,
            "passed": self.passed,
            "status_counts": self.status_counts,
            "rows": [row.to_dict() for row in self.rows],
            "basis_anomalies": list(self.basis_anomalies),
            "formula_inconsistencies": list(self.formula_inconsistencies),
        }


def _sampled_rows(
    variant: Variant, basis: OrthonormalBasis, keys: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's pre-correction states for every (row key, test secret) pair,
    (keys, secrets, 2**bob), and the test secrets' amplitude rows.

    One ``_alice_measurement`` of the stacked test secrets, its span checked
    once; then one stacked ``collapse`` of the pairs' branches, picked by
    index, and one stacked Hadamard collapse of Charlie's qubit, the last,
    both on the measurement's live kets; then Bob's full rows.
    """
    secrets = _secret_rows(variant, _test_secrets(variant))
    lifted = _alice_measurement(variant, basis)
    branches, probs = lifted.project(secrets)
    _check_span(probs)
    count = len(secrets)
    picked = np.tile(np.arange(count), len(keys))
    outcomes, bits = (np.repeat(column, count) for column in np.array(keys).T)
    alice = collapse(
        branches[picked, outcomes][:, None], probs[picked, outcomes][:, None], 0
    )
    pre = force_hadamard_outcome(alice.residual, bits, lifted.kets).residual
    pre = lifted.kets.halves[0].scatter(pre)
    return pre.reshape(len(keys), count, -1), secrets


def verify_table(
    variant: Variant | str, *, encoding: str = CANONICAL
) -> DiscrepancyReport:
    """Grade every published row against the exhaustively derived solutions,
    in Alice's basis of the given encoding."""
    variant = Variant.parse(variant)
    basis = build_alice_basis(variant, encoding)
    table = published_correction_table(variant)
    derived = _derived_table(variant, basis)
    keys = _all_rows(variant)
    pre, secrets = _sampled_rows(variant, basis, keys)
    findings = []
    for (outcome, bit), row_pre in zip(keys, pre):
        published = table[(outcome, bit)]
        sols = derived.solutions[(outcome, bit)]
        overlaps = np.sum(secrets.conj() * (row_pre @ published.matrix().T), axis=1)
        if published not in sols:
            status, phase = MISMATCH, None
        elif published in derived.exact[(outcome, bit)]:
            status, phase = MATCH, None
        else:
            status, phase = PHASE_ONLY_MATCH, complex(overlaps[0])
        findings.append(
            RowFinding(
                alice_outcome=outcome,
                charlie_bit=bit,
                status=status,
                published=published,
                solutions=sols,
                published_min_fidelity=float(np.min(np.abs(overlaps) ** 2)),
                phase=phase,
            )
        )
    return DiscrepancyReport(
        variant=variant,
        encoding=encoding,
        rows=tuple(findings),
        basis_anomalies=tuple(_basis_anomalies(basis)),
        formula_inconsistencies=tuple(_encoding_inconsistencies(variant)),
    )


@dataclass(frozen=True)
class SpanReport:
    """Out-of-span mass statistics for in-class and arbitrary secrets."""

    variant: Variant
    valid_deficits: tuple[float, ...]
    invalid_out_of_span: tuple[float, ...]

    @property
    def max_valid_deficit(self) -> float:
        return max(self.valid_deficits)

    @property
    def min_invalid_out_of_span(self) -> float:
        return min(self.invalid_out_of_span)


def _class_mass(variant: Variant, amplitudes: np.ndarray) -> float:
    """Probability mass of a raw secret's amplitude row inside the variant's
    restricted class: the class vector of coefficient j is the equal-weight
    sum of the kets it weighs."""
    slots, picks = _secret_layout(variant)
    overlaps = np.zeros(VARIANT_SPECS[variant].coefficient_count, dtype=complex)
    np.add.at(overlaps, picks, amplitudes[slots])
    return float(np.sum(np.abs(overlaps) ** 2 / np.bincount(picks)))


def random_arbitrary_secret(
    variant: Variant, rng: np.random.Generator
) -> StateVector:
    """Haar-like random secret on the full space, guaranteed outside the class."""
    n = VARIANT_SPECS[variant].secret_qubits
    while True:
        z = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        z /= np.linalg.norm(z)
        if _class_mass(variant, z) < 1.0 - OUT_OF_CLASS_MASS:
            return StateVector(z)


def verify_span(
    variant: Variant | str,
    *,
    valid_trials: int = 10,
    invalid_trials: int = 10,
) -> SpanReport:
    """Check that Alice's basis captures the class exactly and nothing more."""
    variant = Variant.parse(variant)
    valid_trials = _integer(valid_trials, "valid_trials")
    invalid_trials = _integer(invalid_trials, "invalid_trials")
    if valid_trials < 1 or invalid_trials < 1:
        raise ValueError(
            "verify_span needs at least one secret of each kind, got "
            f"{valid_trials} valid and {invalid_trials} invalid"
        )
    rng = substream(SPAN_SEED, list(Variant).index(variant))
    # the stream of one random_secret call per secret
    normals = rng.normal(
        size=(valid_trials, 2 * VARIANT_SPECS[variant].coefficient_count)
    )
    valid = _secret_rows(variant, _draw_coefficients(variant, normals))
    invalid = [
        random_arbitrary_secret(variant, rng).amplitudes
        for _ in range(invalid_trials)
    ]
    alice = _alice_measurement(variant, build_alice_basis(variant))
    probs = basis_projection_probabilities(np.vstack([valid, *invalid]), alice)
    out_of_span = tuple(1.0 - float(np.sum(row)) for row in probs)
    return SpanReport(
        variant, out_of_span[:valid_trials], out_of_span[valid_trials:]
    )
