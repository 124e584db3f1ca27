"""The trial kernel and the oracle sum only the kets the channel reaches
(``statevec.Kets``): every sum, and every joint weight, has the bits
``np.add.reduce`` gives over the full rows, whose other kets hold +0.0."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghzsplit
from ghzsplit import _numpy_bits, oracle, statevec
from ghzsplit.protocol import (
    ENCODINGS,
    TRIAL_BLOCK,
    VARIANT_SPECS,
    SecretSpec,
    Variant,
    _alice_measurement,
    _joint_weights,
    _secret_rows,
    build_alice_basis,
    build_channel,
    run_trials,
)
from ghzsplit.statevec import Kets, LiftedBasis

CASES = [(v, e) for v in Variant for e in ENCODINGS]
CASE_IDS = [f"{v.value}-{e}" for v, e in CASES]
TRIALS = TRIAL_BLOCK + 1  # two blocks
SRC = str(Path(ghzsplit.__file__).resolve().parents[1])

# in-class secrets whose coefficients have signed zero parts, then zeros
SIGNED_ZEROS = {
    Variant.THREE_A: [
        (
            complex(0.5, -0.0), complex(-0.0, 0.5),
            complex(-0.5, 0.0), complex(0.5, -0.0),
        ),
        (complex(-0.0, -0.0), 1.0, complex(0.0, -0.0), -0.0),
    ],
    Variant.THREE_B: [
        (complex(-0.0, -0.5), complex(0.5, -0.0), complex(-0.5, -0.0), 0.5j),
        (complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -1.0), 0.0),
    ],
    Variant.FOUR: [
        (complex(0.5, -0.0), complex(-0.0, -0.5)),
        (complex(-0.0, -0.0), complex(-0.5**0.5, 0.0)),
    ],
}


def int64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def full_squares(branches: np.ndarray) -> np.ndarray:
    weights = np.abs(branches)
    weights *= weights
    return weights


def full_halves(rows: np.ndarray) -> np.ndarray:
    """The halves of full rows (last qubit at 0 and 1) added and subtracted."""
    half = rows.reshape(*rows.shape[:-1], -1, 2)
    return np.stack([half[..., 0] + half[..., 1], half[..., 0] - half[..., 1]], -2)


def full_joint_weights(rows: np.ndarray) -> np.ndarray:
    """The joint weights of full branch rows: ``full_halves`` over sqrt(2),
    squared and summed by ``np.add.reduce``."""
    signed = full_halves(rows)
    signed /= np.sqrt(2.0)
    return np.add.reduce(full_squares(signed), axis=-1)


@pytest.fixture
def sums(monkeypatch):
    """Every ``Kets.sum`` call: its kets, terms and result."""
    seen = []
    original = Kets.sum

    def recording(self, terms):
        result = original(self, terms)
        seen.append((self, terms.copy(), result))
        return result

    monkeypatch.setattr(Kets, "sum", recording)
    return seen


def stacks(variant):
    """Secret rows: the kernel's drawn secrets, the fixed ones with signed
    zero parts, the oracle's test secrets and the unit kets."""
    drawn = np.vstack([
        _secret_rows(variant, chunk.coefficients)
        for chunk in run_trials(variant, 2027, TRIALS)
    ])
    dim = 2 ** VARIANT_SPECS[variant].secret_qubits
    return [
        drawn,
        _secret_rows(variant, SIGNED_ZEROS[variant]),
        _secret_rows(variant, oracle._test_secrets(variant)),
        np.eye(dim, dtype=complex),
    ]


@pytest.mark.parametrize("variant,encoding", CASES, ids=CASE_IDS)
def test_every_sum_is_numpys_full_width_reduce(variant, encoding, sums):
    basis = build_alice_basis(variant, encoding)
    if encoding == ENCODINGS[0]:
        # the kernel: sampled and forced, drawn and fixed secrets
        num_outcomes = VARIANT_SPECS[variant].num_outcomes
        forced = (num_outcomes - 1, 1)
        runs = [{}, {"forced": forced}]
        runs += [{"secret": SecretSpec(variant, c)} for c in SIGNED_ZEROS[variant]]
        fixed = SecretSpec(variant, SIGNED_ZEROS[variant][0])
        runs.append({"secret": fixed, "forced": forced})
        for how in runs:
            for _ in run_trials(variant, 2026, TRIALS, **how):
                pass
    for cached in (oracle._sampled_rows, oracle._class_images):
        cached.cache_clear()
        try:
            cached(variant, basis)
        finally:
            cached.cache_clear()
    lifted = _alice_measurement(variant, basis)
    for rows in stacks(variant):
        lifted.project(rows)
    assert len(sums) > 4
    for kets, terms, got in sums:
        assert len(kets.live) == 4  # the channel's four kets
        want = np.add.reduce(kets.scatter(terms), axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(int64(got), int64(want))


@pytest.mark.parametrize("variant,encoding", CASES, ids=CASE_IDS)
def test_joint_weights_are_the_full_width_weights(variant, encoding):
    lifted = _alice_measurement(variant, build_alice_basis(variant, encoding))
    branch_stacks = [lifted.project(rows)[0] for rows in stacks(variant)]
    if encoding == ENCODINGS[0]:
        branch_stacks += [c.alice_branches for c in run_trials(variant, 9, TRIALS)]
    for branches in branch_stacks:
        got = _joint_weights(branches, lifted.kets)
        want = full_joint_weights(lifted.kets.scatter(branches))
        assert np.array_equal(int64(got), int64(want))
        # one half of each pair of kets is absent: |h0 + h1| = |h0 - h1|
        assert np.array_equal(int64(got[..., 0]), int64(got[..., 1]))


@pytest.mark.parametrize("width", [2, 4, 8, 16, 32])
def test_hadamard_halves_on_live_kets_are_the_full_rows(width):
    # signed zero parts in the live kets, and absent halves: every sum and
    # difference, the sign of each zero too, has the full rows' bits
    rng = np.random.default_rng(width)
    for _ in range(20):
        count = int(rng.integers(1, width + 1))
        live = rng.choice(width, count, replace=False).tolist()
        kets = Kets(width, tuple(sorted(live)))
        parts = rng.normal(size=(5, 3, count, 2))
        parts[rng.random(parts.shape) < 0.4] = 0.0
        parts *= rng.choice([1.0, -1.0], size=parts.shape)
        values = parts.view(complex)[..., 0]
        got = kets.halves[0].scatter(statevec._hadamard_halves(values, kets))
        want = full_halves(kets.scatter(values))
        assert np.array_equal(int64(got), int64(want))


def sequential_order(columns):
    """A sum of the columns one after another: not numpy's order."""
    tree = columns[0]
    for column in columns[1:]:
        tree = tree, column
    return tree


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_an_order_other_than_numpys_fails_the_build(variant, monkeypatch):
    basis = build_alice_basis(variant)
    kets = _alice_measurement(variant, basis).kets
    monkeypatch.setattr(_numpy_bits, "_reduce_order", sequential_order)
    with pytest.raises(RuntimeError, match="differs from numpy's add.reduce"):
        Kets(kets.width, kets.live)
    qubits = VARIANT_SPECS[variant].secret_qubits
    with pytest.raises(RuntimeError, match="differs from numpy's add.reduce"):
        LiftedBasis.of(basis, build_channel(variant), qubits)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 32, 129, 300])
def test_every_ket_live_is_numpys_reduce(width):
    kets = Kets.every(width)
    terms = np.random.default_rng(width).random((5, 3, width)) ** 2
    assert np.array_equal(int64(kets.sum(terms)), int64(np.add.reduce(terms, axis=-1)))


def test_kets_must_be_distinct_and_in_range():
    for live in [(3, 1), (1, 1), (0, 4), (-1, 2), ()]:
        with pytest.raises(ValueError, match="not distinct kets of 4"):
            Kets(4, live)


SET_UP = """
import gc
import ghzsplit.cli
from ghzsplit import protocol
from ghzsplit.statevec import Kets

def built():
    return sum(isinstance(o, Kets) for o in gc.get_objects())

print(built())
for variant in protocol.Variant:
    protocol.build_channel(variant)
    protocol.published_correction_table(variant)
    protocol.build_alice_basis(variant)
    for encoding in (protocol.CANONICAL, protocol.LITERAL):
        protocol.build_alice_basis(variant, encoding)
print(built())
protocol.outcome_distribution(protocol.SecretSpec("four", (0.5, 0.5)))
print(built() > 0)
"""


def test_no_kets_at_import_or_in_the_cache_fills():
    # the sum-order check runs where a Kets is built: on first use only
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SET_UP],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "True"]
