"""Brute-force oracle: derive correction tables independently and audit the
published ones.

For every (alice_outcome, charlie_bit) row the oracle enumerates all Pauli
corrections on Bob's qubits (64 candidates for the three-qubit variants, 256
for the four-qubit one) and keeps those that restore every test secret with
fidelity at least 1 - 1e-9. Published rows are then graded:

* MATCH: the published correction is among the solutions and reproduces the
  secret exactly, amplitude for amplitude.
* PHASE_ONLY_MATCH: it is among the solutions but the recovered state differs
  from the secret by a global phase.
* MISMATCH: the published correction is not a solution at all.

The report also carries basis anomalies (Gram-matrix defects of the active
encoding) and structural inconsistencies between the canonical and literal
encodings, so defective source rows are surfaced as data rather than hidden.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .protocol import (
    CANONICAL,
    FIDELITY_ATOL,
    SCHEMA_VERSION,
    CorrectionTable,
    SecretSpec,
    Variant,
    VARIANT_SPECS,
    _combined_rows,
    _secret_layout,
    _secret_rows,
    build_alice_basis,
    published_correction_table,
    random_secret,
    substream,
)
from .statevec import (
    OrthonormalBasis,
    PauliString,
    StateVector,
    _check_span,
    basis_projection_probabilities,
    check_normalized,
    collapse,
    force_hadamard_outcome,
    project,
)

# largest amplitude difference for a recovered state to count as exact
EXACT_ATOL = 1e-12
# least out-of-span mass for a secret to count as outside the restricted class
OUT_OF_CLASS_MASS = 1e-6

MATCH = "MATCH"
PHASE_ONLY_MATCH = "PHASE_ONLY_MATCH"
MISMATCH = "MISMATCH"

DERIVE_SEED = 271828
DERIVE_RANDOM_SECRETS = 10  # random test secrets on top of the unit ones
SPAN_SEED = 314159


def _unit_secrets(variant: Variant) -> list[SecretSpec]:
    vs = VARIANT_SPECS[variant]
    scale = np.sqrt(vs.coefficient_norm)
    out = []
    for j in range(vs.coefficient_count):
        coeffs = [0j] * vs.coefficient_count
        coeffs[j] = scale
        out.append(SecretSpec(variant, tuple(coeffs)))
    return out


def _test_secrets(variant: Variant) -> list[SecretSpec]:
    rng = substream(DERIVE_SEED, list(Variant).index(variant))
    return _unit_secrets(variant) + [
        random_secret(variant, rng) for _ in range(DERIVE_RANDOM_SECRETS)
    ]


@functools.cache
def _candidate_paulis(num_qubits: int) -> tuple[tuple[PauliString, np.ndarray], ...]:
    out = []
    for labels in itertools.product(("I", "X", "Z", "iY"), repeat=num_qubits):
        p = PauliString(labels)
        matrix = p.matrix()
        matrix.flags.writeable = False  # shared by every caller
        out.append((p, matrix))
    return tuple(out)


def _solutions_for_row(
    pre: np.ndarray,
    targets: np.ndarray,
    candidates: tuple[tuple[PauliString, np.ndarray], ...],
) -> list[PauliString]:
    sols = []
    for pauli, matrix in candidates:
        corrected = pre @ matrix.T
        overlaps = np.abs(np.sum(targets.conj() * corrected, axis=1))
        if np.all(np.abs(overlaps - 1.0) <= FIDELITY_ATOL):
            sols.append(pauli)
    return sols


def _derived_rows(
    variant: Variant, basis: OrthonormalBasis, keys: list[tuple[int, int]]
):
    """Yield ``(outcome, bit, pre, targets, solutions)`` for each row key.

    ``targets`` is the stack of test secrets, one amplitude row each, and
    ``pre`` the stack of Bob's pre-correction states for the row. One
    ``project`` call projects every secret onto Alice's basis, and its span
    is checked once; each row is then one stacked ``collapse`` and one
    stacked Hadamard collapse of Charlie's qubit, which follows Bob's.
    """
    targets = _secret_rows(variant, _test_secrets(variant))
    check_normalized(targets)
    branches, probs = project(_combined_rows(variant, targets), basis)
    _check_span(probs)
    bob = VARIANT_SPECS[variant].bob_qubits
    candidates = _candidate_paulis(bob)
    for outcome, bit in keys:
        alice = collapse(branches, probs, outcome)
        pre = force_hadamard_outcome(alice.residual, bob, bit).residual
        yield outcome, bit, pre, targets, _solutions_for_row(pre, targets, candidates)


def _corrected(
    pre: np.ndarray, targets: np.ndarray, pauli: PauliString
) -> tuple[np.ndarray, bool]:
    """``pauli`` applied to every pre-correction state, and whether that
    reproduces every test secret exactly, amplitude for amplitude."""
    corrected = pre @ pauli.matrix().T
    return corrected, bool(np.max(np.abs(corrected - targets)) <= EXACT_ATOL)


def _all_rows(variant: Variant) -> list[tuple[int, int]]:
    return [(i, b) for i in range(VARIANT_SPECS[variant].num_outcomes) for b in (0, 1)]


def derive_corrections(
    variant: Variant, outcome: int, bit: int
) -> tuple[PauliString, ...]:
    """All Pauli corrections that recover every test secret for this row."""
    rows = _derived_rows(variant, build_alice_basis(variant), [(outcome, bit)])
    return tuple(next(rows)[-1])


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
        rows = {}
        for key, sols in self.solutions.items():
            exact = self.exact.get(key, ())
            pick = sorted(exact or sols, key=lambda p: p.labels)[0]
            rows[key] = pick
        return CorrectionTable(self.variant, "derived", rows)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "derived_table",
            "variant": self.variant.value,
            "rows": [
                {
                    "alice_outcome": i,
                    "charlie_bit": b,
                    "solutions": [list(p.labels) for p in self.solutions[(i, b)]],
                    "exact_solutions": [
                        list(p.labels) for p in self.exact.get((i, b), ())
                    ],
                }
                for i, b in sorted(self.solutions)
            ],
        }


def derive_table(variant: Variant) -> DerivedTable:
    """Exhaustively derive the correction table for every row of a variant."""
    solutions: dict[tuple[int, int], tuple[PauliString, ...]] = {}
    exact: dict[tuple[int, int], tuple[PauliString, ...]] = {}
    rows = _derived_rows(variant, build_alice_basis(variant), _all_rows(variant))
    for outcome, bit, pre, targets, sols in rows:
        solutions[(outcome, bit)] = tuple(sols)
        exact[(outcome, bit)] = tuple(
            p for p in sols if _corrected(pre, targets, p)[1]
        )
    return DerivedTable(variant, solutions, exact)


def _basis_anomalies(basis: OrthonormalBasis) -> list[dict]:
    out = []
    for i, j, gram in basis.gram_defects(EXACT_ATOL):
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
    canonical = build_alice_basis(variant, "canonical")
    literal = build_alice_basis(variant, "literal")
    cmat = canonical.matrix()
    lmat = literal.matrix()
    differing = [
        i
        for i in range(lmat.shape[0])
        if np.max(np.abs(lmat[i] - cmat[i])) > EXACT_ATOL
    ]
    if not differing:
        return []
    if variant is Variant.FOUR:
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


def verify_table(
    variant: Variant,
    *,
    encoding: str = CANONICAL,
    basis: OrthonormalBasis | None = None,
) -> DiscrepancyReport:
    """Grade every published row against the exhaustively derived solutions."""
    basis = basis if basis is not None else build_alice_basis(variant, encoding)
    table = published_correction_table(variant)
    findings = []
    rows = _derived_rows(variant, basis, _all_rows(variant))
    for outcome, bit, pre, targets, sols in rows:
        published = table[(outcome, bit)]
        corrected, exact = _corrected(pre, targets, published)
        overlaps = np.sum(targets.conj() * corrected, axis=1)
        min_fid = float(np.min(np.abs(overlaps) ** 2))
        if not any(published.labels == s.labels for s in sols):
            status, phase = MISMATCH, None
        elif exact:
            status, phase = MATCH, None
        else:
            status, phase = PHASE_ONLY_MATCH, complex(overlaps[0])
        findings.append(
            RowFinding(
                alice_outcome=outcome,
                charlie_bit=bit,
                status=status,
                published=published,
                solutions=tuple(sols),
                published_min_fidelity=min_fid,
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

    @property
    def passed(self) -> bool:
        return (
            self.max_valid_deficit <= FIDELITY_ATOL
            and self.min_invalid_out_of_span > OUT_OF_CLASS_MASS
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "span_check",
            "variant": self.variant.value,
            "passed": self.passed,
            "valid_deficits": list(self.valid_deficits),
            "invalid_out_of_span": list(self.invalid_out_of_span),
            "max_valid_deficit": self.max_valid_deficit,
            "min_invalid_out_of_span": self.min_invalid_out_of_span,
        }


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
            return StateVector(n, z)


def verify_span(
    variant: Variant,
    *,
    valid_trials: int = 10,
    invalid_trials: int = 10,
    seed: int = SPAN_SEED,
) -> SpanReport:
    """Check that Alice's basis captures the class exactly and nothing more."""
    if valid_trials < 1 or invalid_trials < 1:
        raise ValueError(
            "verify_span needs at least one secret of each kind, got "
            f"{valid_trials} valid and {invalid_trials} invalid"
        )
    rng = substream(seed, list(Variant).index(variant))
    valid = _secret_rows(
        variant, [random_secret(variant, rng) for _ in range(valid_trials)]
    )
    invalid = [
        random_arbitrary_secret(variant, rng).amplitudes
        for _ in range(invalid_trials)
    ]
    combined = _combined_rows(variant, np.vstack([valid, *invalid]))
    probs = basis_projection_probabilities(combined, build_alice_basis(variant))
    out_of_span = tuple(1.0 - float(np.sum(row)) for row in probs)
    return SpanReport(
        variant, out_of_span[:valid_trials], out_of_span[valid_trials:]
    )
