"""End-to-end acceptance gate.

Every test here records its verdict through the ``acceptance`` fixture, and
the terminal summary prints one PASS/FAIL line per criterion. Criteria are
asserted exactly as stated; where the shipped reference tables cannot satisfy
one, the criterion shows up red rather than being weakened to pass.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ghzsplit.oracle import (
    MISMATCH,
    _class_images,
    _image_sign,
    random_arbitrary_secret,
    verify_table,
)
from ghzsplit.protocol import (
    CANONICAL,
    LITERAL,
    Variant,
    VARIANT_SPECS,
    build_alice_basis,
    build_channel,
    outcome_distribution,
    published_correction_table,
    random_secret,
    run_protocol,
    substream,
)
from ghzsplit.statevec import (
    OutOfSpanError,
    basis_projection_probabilities,
    tensor_product,
)

ALL_VARIANTS = list(Variant)
IDS = [v.value for v in ALL_VARIANTS]
THREE_VARIANTS = [Variant.THREE_A, Variant.THREE_B]

SECRETS_PER_ROW = 100
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def c1_runs() -> dict[Variant, tuple[float, float]]:
    """Worst fidelity and elapsed seconds of the C1 loop, per variant."""
    out = {}
    for variant in ALL_VARIANTS:
        vs = VARIANT_SPECS[variant]
        table = published_correction_table(variant)
        rng = substream(1001, ALL_VARIANTS.index(variant))
        secrets = [random_secret(variant, rng) for _ in range(SECRETS_PER_ROW)]
        start = time.perf_counter()
        worst = 1.0
        for spec in secrets:
            for outcome in range(vs.num_outcomes):
                for bit in (0, 1):
                    t = run_protocol(spec, forced=(outcome, bit), table=table)
                    worst = min(worst, t.fidelity)
        out[variant] = (worst, time.perf_counter() - start)
    return out


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
def test_c1_published_tables_recover_every_row(variant, c1_runs, acceptance):
    vs = VARIANT_SPECS[variant]
    worst, _ = c1_runs[variant]
    acceptance.check(
        "C1",
        f"{variant.value}: worst fidelity {worst:.3e} over "
        f"{2 * vs.num_outcomes} rows x {SECRETS_PER_ROW} secrets",
        worst >= 1.0 - 1e-9,
    )


def test_c1_runtime_budget(c1_runs, acceptance):
    total = sum(elapsed for _, elapsed in c1_runs.values())
    acceptance.check("C1", f"total runtime {total:.2f}s within 10s", total < 10.0)


# rows whose published correction fails the exact identity: the three-b
# minus branches, which the sampled loop above also catches
PUBLISHED_DEFECTS = {
    Variant.THREE_A: set(),
    Variant.THREE_B: {(i, 1) for i in range(16)},
    Variant.FOUR: set(),
}


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
def test_c1_published_tables_satisfy_the_exact_identity(variant, acceptance):
    # beside the sampled loop: the published P of a row recovers every secret
    # of the class iff P @ Kint @ V == ±mu * V, with no tolerance. The
    # verdict is recorded against C1; the test pins which rows fail it.
    images, target = _class_images(variant, build_alice_basis(variant, CANONICAL))
    table = published_correction_table(variant)
    failing = {
        key for key in table.rows if _image_sign(table[key], images[key], target) == 0
    }
    acceptance.note(
        "C1",
        f"{variant.value}: {len(failing)} of {len(table)} rows fail "
        "P @ Kint @ V == ±mu * V",
        not failing,
    )
    assert failing == PUBLISHED_DEFECTS[variant]


@pytest.mark.parametrize("variant", THREE_VARIANTS, ids=["three-a", "three-b"])
def test_c2_three_qubit_tables_have_no_mismatch(variant, acceptance):
    report = verify_table(variant)
    counts = report.status_counts
    acceptance.check(
        "C2",
        f"{variant.value}: {counts[MISMATCH]} MISMATCH rows "
        f"(want 0; {counts})",
        counts[MISMATCH] == 0,
    )


def test_c2_four_qubit_table_under_canonical_basis(acceptance):
    report = verify_table(Variant.FOUR)
    counts = report.status_counts
    ok = (
        len(report.rows) == 8
        and counts[MISMATCH] == 0
        and not report.basis_anomalies
    )
    acceptance.check(
        "C2", f"four: all 8 rows reproduced under canonical basis ({counts})", ok
    )


def test_c2_literal_four_qubit_basis_is_flagged(acceptance):
    report = verify_table(Variant.FOUR, encoding=LITERAL)
    kinds = [a["kind"] for a in report.basis_anomalies]
    acceptance.check(
        "C2",
        f"four literal encoding anomaly kinds {kinds}",
        "duplicated_basis_vector" in kinds,
    )


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
def test_c3_canonical_gram_matrices_are_identity(variant, acceptance):
    basis = build_alice_basis(variant)
    defects = basis.gram_defects(1e-12)
    n = len(basis.vectors)
    acceptance.check(
        "C3",
        f"{variant.value}: {n}x{n} Gram identity within 1e-12 "
        f"({len(defects)} defects)",
        not defects,
    )


@pytest.mark.parametrize("variant", THREE_VARIANTS, ids=["three-a", "three-b"])
def test_c3_sign_formula_conflict_detected_at_outcome_one(variant, acceptance):
    report = verify_table(variant)
    hits = [
        note
        for note in report.formula_inconsistencies
        if 1 in note.get("indices", [])
    ]
    acceptance.check(
        "C3",
        f"{variant.value}: encoding disagreement at outcome 1 reported "
        f"({[n['kind'] for n in report.formula_inconsistencies]})",
        bool(hits),
    )


def test_c4_channels_are_permuted_ghz_pairs(acceptance):
    # independent reconstruction: raw kron plus axis transpose, no package
    # helpers involved
    ghz = np.zeros(8)
    ghz[[0, 7]] = 1.0 / np.sqrt(2.0)
    pair = np.kron(ghz, ghz)
    for variant in ALL_VARIANTS:
        perm = VARIANT_SPECS[variant].channel_permutation
        expected = pair.reshape([2] * 6).transpose(perm).reshape(-1)
        got = build_channel(variant).amplitudes
        err = float(np.max(np.abs(got - expected)))
        acceptance.check(
            "C4",
            f"{variant.value}: max deviation {err:.1e} from permuted GHZ pair",
            err <= 1e-15,
        )
    literal = np.zeros(64)
    literal[[0b000000, 0b010110, 0b101001, 0b111111]] = 0.5
    err = float(np.max(np.abs(build_channel(Variant.THREE_A).amplitudes - literal)))
    acceptance.check(
        "C4", f"three-a literal four-ket form, max deviation {err:.1e}", err <= 1e-15
    )


def test_c5_out_of_class_secrets_are_rejected(acceptance):
    rng = substream(5005)
    detected = rejected = 0
    trials = 10
    for k in range(trials):
        variant = THREE_VARIANTS[k % 2]
        state = random_arbitrary_secret(variant, rng)
        combined = tensor_product(state, build_channel(variant))
        mass = 1.0 - float(
            np.sum(
                basis_projection_probabilities(
                    combined, build_alice_basis(variant)
                )
            )
        )
        if mass > 1e-6:
            detected += 1
        try:
            run_protocol(state, variant=variant, seed=0)
        except OutOfSpanError:
            rejected += 1
    acceptance.check(
        "C5",
        f"{detected}/{trials} detected out-of-span mass, "
        f"{rejected}/{trials} runs rejected",
        detected == trials and rejected == trials,
    )


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
def test_c6_joint_outcomes_exactly_uniform(variant, acceptance):
    expected = 1.0 / (2 * VARIANT_SPECS[variant].num_outcomes)
    rng = substream(6006, ALL_VARIANTS.index(variant))
    worst = 0.0
    for _ in range(100):
        dist = outcome_distribution(random_secret(variant, rng))
        worst = max(
            worst, max(abs(w.probability - expected) for w in dist)
        )
    acceptance.check(
        "C6",
        f"{variant.value}: max deviation {worst:.2e} from 1/{round(1 / expected)}",
        worst <= 1e-12,
    )


def test_c7_cli_output_is_byte_identical(acceptance):
    cmd = [
        sys.executable,
        "-m",
        "ghzsplit",
        "run",
        "--variant",
        "three-a",
        "--trials",
        "50",
        "--seed",
        "42",
        "--format",
        "json",
    ]
    # the package in this checkout's src, not whichever ghzsplit is installed
    env = {k: v for k, v in os.environ.items() if k != "GHZSPLIT_SEED"}
    env["PYTHONPATH"] = str(SRC)
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and len(first.stdout) > 0
        and first.stdout == second.stdout
    )
    acceptance.check(
        "C7",
        f"two invocations, {len(first.stdout)} bytes each, "
        f"exit codes ({first.returncode}, {second.returncode})",
        ok,
    )
