"""
Auditing the published correction tables exactly
================================================

Nothing in this package trusts the published lookup tables. For every
(alice_outcome, charlie_bit) branch the oracle enumerates all 64 three-qubit
Pauli strings (256 for the four-qubit variant) and keeps the ones that
recover every secret of the class. Each verdict is an exact integer
identity: the branch's map, scaled to integers, takes the class to plus or
minus itself under the correction. The published row is graded against that
solution set. The seeded test secrets feed only the reported fidelity of a
published row and its phase.

Two of the three variants check out completely. The third does not: all 16
minus-branch rows of its table apply the wrong sign correction, because the
published rows reuse the sign pattern of the first variant even though
Charlie's qubit sits in the other GHZ triplet here.
"""

from ghzsplit import Variant, derive_corrections, derive_table, verify_table

for variant in Variant:
    report = verify_table(variant)
    counts = report.status_counts
    print(
        f"{variant.value:8s} MATCH={counts['MATCH']:2d} "
        f"PHASE_ONLY_MATCH={counts['PHASE_ONLY_MATCH']:2d} "
        f"MISMATCH={counts['MISMATCH']:2d} passed={report.passed}"
    )

# Every solution the oracle finds comes in pairs: Bob's two qubits that came
# from the same GHZ triplet stay perfectly correlated, so Z on both of them
# acts as the identity on the support.
print("\nsolutions for the identity branch of three-a:")
for pauli in derive_corrections(Variant.THREE_A, 0, 0):
    print("  ", pauli)

# Drill into the defective variant. The broken rows are exactly the minus
# branches; the plus branches are fine.
report = verify_table(Variant.THREE_B)
print("\nthree-b rows that fail:")
for row in report.rows:
    if row.status != "MISMATCH":
        continue
    sols = ", ".join(str(p) for p in row.solutions)
    print(
        f"  outcome {row.alice_outcome:2d} bit {row.charlie_bit}: "
        f"published {row.published} recovers with fidelity "
        f"{row.published_min_fidelity:.3f}; working corrections: {sols}"
    )

# The pattern of the repair: the correct minus-branch correction is the plus
# branch one composed with a sign flip on Bob's third qubit, because that
# qubit is the one correlated with Charlie's in this dealing.
derived = derive_table(Variant.THREE_B).preferred_table()
print("\nderived replacement rows (minus branch):")
for outcome in range(16):
    print(
        f"  outcome {outcome:2d}: plus {derived[(outcome, 0)]}"
        f"  minus {derived[(outcome, 1)]}"
    )
