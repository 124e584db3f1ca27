"""Splitting a qubit-string secret across two GHZ triplets.

State-vector simulation of three information-splitting variants in which
Alice measures a five-qubit entangled basis, Charlie measures in the
Hadamard basis, and Bob recovers the secret with a Pauli correction chosen
from a classical table. The oracle module derives those tables by brute
force and grades the published ones row by row.
"""

from .oracle import (
    DerivedTable,
    DiscrepancyReport,
    RowFinding,
    SpanReport,
    derive_corrections,
    derive_table,
    random_arbitrary_secret,
    verify_span,
    verify_table,
)
from .protocol import (
    CANONICAL,
    LITERAL,
    CorrectionTable,
    OutcomeWeight,
    SecretSpec,
    Transcript,
    Variant,
    VariantSpec,
    VARIANT_SPECS,
    build_alice_basis,
    build_channel,
    build_secret,
    outcome_distribution,
    published_correction_table,
    random_secret,
    run_protocol,
    substream,
)
from .statevec import (
    NormalizationError,
    OrthonormalBasis,
    OutOfSpanError,
    PauliString,
    StateVector,
    apply_gate,
    apply_pauli_string,
    fidelity,
    force_basis_outcome,
    force_hadamard_outcome,
    hadamard_basis,
    inner_product,
    measure_hadamard,
    measure_in_basis,
    permute_qubits,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL",
    "CorrectionTable",
    "DerivedTable",
    "DiscrepancyReport",
    "LITERAL",
    "NormalizationError",
    "OrthonormalBasis",
    "OutOfSpanError",
    "OutcomeWeight",
    "PauliString",
    "RowFinding",
    "SecretSpec",
    "SpanReport",
    "StateVector",
    "Transcript",
    "VARIANT_SPECS",
    "Variant",
    "VariantSpec",
    "apply_gate",
    "apply_pauli_string",
    "build_alice_basis",
    "build_channel",
    "build_secret",
    "derive_corrections",
    "derive_table",
    "fidelity",
    "force_basis_outcome",
    "force_hadamard_outcome",
    "hadamard_basis",
    "inner_product",
    "measure_hadamard",
    "measure_in_basis",
    "outcome_distribution",
    "permute_qubits",
    "published_correction_table",
    "random_arbitrary_secret",
    "random_secret",
    "run_protocol",
    "substream",
    "tensor_product",
    "verify_span",
    "verify_table",
]
