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

import itertools
from dataclasses import dataclass

import numpy as np

from .protocol import (
    CANONICAL,
    CorrectionTable,
    SecretSpec,
    Variant,
    VARIANT_SPECS,
    build_alice_basis,
    build_channel,
    build_secret,
    published_correction_table,
    random_secret,
    substream,
)
from .statevec import (
    OrthonormalBasis,
    PauliString,
    StateVector,
    basis_projection_probabilities,
    force_basis_outcome,
    force_hadamard_outcome,
    tensor_product,
)

SCHEMA_VERSION = 1
FIDELITY_ATOL = 1e-9
EXACT_ATOL = 1e-12

MATCH = "MATCH"
PHASE_ONLY_MATCH = "PHASE_ONLY_MATCH"
MISMATCH = "MISMATCH"

DERIVE_SEED = 271828
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


def _test_secrets(
    variant: Variant, random_secrets: int, seed: int
) -> list[SecretSpec]:
    rng = substream(seed, list(Variant).index(variant))
    return _unit_secrets(variant) + [
        random_secret(variant, rng) for _ in range(random_secrets)
    ]


def _candidate_paulis(num_qubits: int) -> list[tuple[PauliString, np.ndarray]]:
    out = []
    for labels in itertools.product(("I", "X", "Z", "iY"), repeat=num_qubits):
        p = PauliString(labels)
        out.append((p, p.matrix()))
    return out


def _row_residuals(
    variant: Variant,
    basis: OrthonormalBasis,
    secrets: list[SecretSpec],
    outcome: int,
    bit: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's pre-correction states and the targets, stacked one secret per row."""
    channel = build_channel(variant)
    pre, targets = [], []
    for spec in secrets:
        secret_state = build_secret(spec)
        combined = tensor_product(secret_state, channel)
        alice = force_basis_outcome(combined, basis, outcome)
        charlie = force_hadamard_outcome(
            alice.residual, alice.residual.num_qubits - 1, bit
        )
        pre.append(charlie.residual.amplitudes)
        targets.append(secret_state.amplitudes)
    return np.array(pre), np.array(targets)


def _solutions_for_row(
    pre: np.ndarray,
    targets: np.ndarray,
    candidates: list[tuple[PauliString, np.ndarray]],
) -> list[PauliString]:
    sols = []
    for pauli, matrix in candidates:
        corrected = pre @ matrix.T
        overlaps = np.abs(np.sum(targets.conj() * corrected, axis=1))
        if np.all(np.abs(overlaps - 1.0) <= FIDELITY_ATOL):
            sols.append(pauli)
    return sols


def derive_corrections(
    variant: Variant,
    outcome: int,
    bit: int,
    *,
    basis: OrthonormalBasis | None = None,
    random_secrets: int = 10,
    seed: int = DERIVE_SEED,
) -> tuple[PauliString, ...]:
    """All Pauli corrections that recover every test secret for this row."""
    vs = VARIANT_SPECS[variant]
    basis = basis if basis is not None else build_alice_basis(variant)
    secrets = _test_secrets(variant, random_secrets, seed)
    pre, targets = _row_residuals(variant, basis, secrets, outcome, bit)
    return tuple(_solutions_for_row(pre, targets, _candidate_paulis(vs.bob_qubits)))


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


def derive_table(
    variant: Variant,
    *,
    basis: OrthonormalBasis | None = None,
    random_secrets: int = 10,
    seed: int = DERIVE_SEED,
) -> DerivedTable:
    """Exhaustively derive the correction table for every row of a variant."""
    vs = VARIANT_SPECS[variant]
    basis = basis if basis is not None else build_alice_basis(variant)
    secrets = _test_secrets(variant, random_secrets, seed)
    candidates = _candidate_paulis(vs.bob_qubits)
    solutions: dict[tuple[int, int], tuple[PauliString, ...]] = {}
    exact: dict[tuple[int, int], tuple[PauliString, ...]] = {}
    for outcome in range(vs.num_outcomes):
        for bit in (0, 1):
            pre, targets = _row_residuals(variant, basis, secrets, outcome, bit)
            sols = _solutions_for_row(pre, targets, candidates)
            solutions[(outcome, bit)] = tuple(sols)
            exact[(outcome, bit)] = tuple(
                p
                for p in sols
                if np.max(np.abs(pre @ p.matrix().T - targets)) <= EXACT_ATOL
            )
    return DerivedTable(variant, solutions, exact)


def _basis_anomalies(basis: OrthonormalBasis) -> list[dict]:
    out = []
    for i, j, gram in basis.gram_defects(EXACT_ATOL):
        if i == j:
            out.append(
                {
                    "kind": "unnormalized_vector",
                    "indices": [i],
                    "gram_entry": [gram.real, gram.imag],
                }
            )
        elif abs(abs(gram) - 1.0) <= FIDELITY_ATOL:
            out.append(
                {
                    "kind": "duplicated_basis_vector",
                    "indices": [i, j],
                    "gram_entry": [gram.real, gram.imag],
                }
            )
        else:
            out.append(
                {
                    "kind": "nonorthogonal_pair",
                    "indices": [i, j],
                    "gram_entry": [gram.real, gram.imag],
                }
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
    table: CorrectionTable | None = None,
    random_secrets: int = 10,
    seed: int = DERIVE_SEED,
) -> DiscrepancyReport:
    """Grade every published row against the exhaustively derived solutions."""
    vs = VARIANT_SPECS[variant]
    basis = basis if basis is not None else build_alice_basis(variant, encoding)
    table = table if table is not None else published_correction_table(variant)
    secrets = _test_secrets(variant, random_secrets, seed)
    candidates = _candidate_paulis(vs.bob_qubits)
    findings = []
    for outcome, bit, published in table.sorted_rows():
        pre, targets = _row_residuals(variant, basis, secrets, outcome, bit)
        sols = _solutions_for_row(pre, targets, candidates)
        corrected = pre @ published.matrix().T
        overlaps = np.sum(targets.conj() * corrected, axis=1)
        min_fid = float(np.min(np.abs(overlaps) ** 2))
        if not any(published.labels == s.labels for s in sols):
            status, phase = MISMATCH, None
        elif np.max(np.abs(corrected - targets)) <= EXACT_ATOL:
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
            and self.min_invalid_out_of_span > 1e-6
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


def _class_mass(variant: Variant, state: StateVector) -> float:
    """Probability mass of a raw secret inside the variant's restricted class."""
    vs = VARIANT_SPECS[variant]
    if variant is Variant.FOUR:
        u = StateVector.from_terms(4, {"0000": np.sqrt(0.5), "0011": np.sqrt(0.5)})
        v = StateVector.from_terms(4, {"1100": np.sqrt(0.5), "1111": np.sqrt(0.5)})
        return sum(
            abs(np.vdot(b.amplitudes, state.amplitudes)) ** 2 for b in (u, v)
        )
    return sum(abs(state.amplitudes[int(k, 2)]) ** 2 for k in vs.secret_kets)


def random_arbitrary_secret(
    variant: Variant, rng: np.random.Generator
) -> StateVector:
    """Haar-like random secret on the full space, guaranteed outside the class."""
    n = VARIANT_SPECS[variant].secret_qubits
    while True:
        z = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        z /= np.linalg.norm(z)
        state = StateVector(n, z)
        if _class_mass(variant, state) < 1.0 - 1e-6:
            return state


def verify_span(
    variant: Variant,
    *,
    valid_trials: int = 10,
    invalid_trials: int = 10,
    seed: int = SPAN_SEED,
) -> SpanReport:
    """Check that Alice's basis captures the class exactly and nothing more."""
    basis = build_alice_basis(variant)
    channel = build_channel(variant)
    rng = substream(seed, list(Variant).index(variant))
    valid = []
    for _ in range(valid_trials):
        state = build_secret(random_secret(variant, rng))
        probs = basis_projection_probabilities(
            tensor_product(state, channel), basis
        )
        valid.append(1.0 - float(np.sum(probs)))
    invalid = []
    for _ in range(invalid_trials):
        state = random_arbitrary_secret(variant, rng)
        probs = basis_projection_probabilities(
            tensor_product(state, channel), basis
        )
        invalid.append(1.0 - float(np.sum(probs)))
    return SpanReport(variant, tuple(valid), tuple(invalid))
