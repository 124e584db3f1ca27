"""Splitting a qubit-string secret across two GHZ triplets.

State-vector simulation of three information-splitting variants in which
Alice measures a five-qubit entangled basis, Charlie measures in the
Hadamard basis, and Bob recovers the secret with a Pauli correction chosen
from a classical table. The oracle module derives those tables by brute
force and grades the published ones row by row.
"""

from .oracle import (
    derive_corrections,
    derive_table,
    random_arbitrary_secret,
    verify_span,
    verify_table,
)
from .protocol import (
    SecretSpec,
    Variant,
    build_alice_basis,
    build_channel,
    build_secret,
    outcome_distribution,
    run_protocol,
    substream,
)
from .statevec import OutOfSpanError, PauliString

__version__ = "0.1.0"

__all__ = [
    "OutOfSpanError",
    "PauliString",
    "SecretSpec",
    "Variant",
    "build_alice_basis",
    "build_channel",
    "build_secret",
    "derive_corrections",
    "derive_table",
    "outcome_distribution",
    "random_arbitrary_secret",
    "run_protocol",
    "substream",
    "verify_span",
    "verify_table",
]
