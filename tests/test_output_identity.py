"""Stdout and exit status must match the frozen ghzsplit 0.1.0 copy.

``bench/reference/ghzsplit_ref`` is a verbatim copy of the package as first
released. Any change to the package must leave every document it prints
byte-identical to that copy (C7 across versions), so refactors and speedups
are checked here against the old code on the whole command grid.
"""

import contextlib
import io

import pytest

from ghzsplit.cli import _ENCODED, main
from ghzsplit.protocol import TRIAL_BLOCK

VARIANTS = ("three-a", "three-b", "four")
SECRETS = {"three-a": "0.5,0.5j,-0.5,0.5", "three-b": "0.6,0,0,0.8j", "four": "0.5,-0.5j"}

RUN_GRID = [
    ["run", "--variant", v, "--trials", "6", "--seed", "11", "--format", fmt, *how]
    for v in VARIANTS
    for fmt in ("json", "csv", "text")
    for how in ([], ["--forced", "3,1"])
] + [
    # hundreds of sampled trials: probabilities, corrections and fidelities
    ["run", "--variant", v, "--trials", "300", "--seed", "2026", "--format", "json"]
    for v in VARIANTS
] + [
    # streamed output of a part block
    ["run", "--variant", v, "--trials", str(2 * _ENCODED + 1), "--seed", "8"]
    + ["--format", fmt]
    for v in VARIANTS
    for fmt in ("csv", "text")
] + [
    # one fixed secret for every trial
    ["run", "--variant", v, "--trials", "5", "--secret", SECRETS[v], "--format", fmt]
    + how
    for v in VARIANTS
    for fmt in ("json", "csv", "text")
    for how in ([], ["--forced", "1,1"])
]
# seeds of two and of four 32-bit words (past SeedSequence's 4-word pool,
# with the trial's word), in a part block, across two of JSON's encoded
# slices
RUN_GRID += [
    ["run", "--variant", v, "--trials", str(2 * _ENCODED + 1), "--seed", str(seed)]
    + ["--format", fmt]
    for v in VARIANTS
    for seed in (2**32, 2**96 + 1)
    for fmt in ("csv", "json")
]
# JSON across two encoded slices, forced and with one fixed secret
RUN_GRID += [
    ["run", "--variant", v, "--trials", str(2 * _ENCODED + 1), "--seed", "8"]
    + ["--format", "json", *how]
    for v in VARIANTS
    for how in (["--forced", "3,1"], ["--secret", SECRETS[v]])
]
# csv and text with one fixed secret, a part block
RUN_GRID += [
    ["run", "--variant", v, "--trials", str(2 * _ENCODED + 1), "--seed", "8"]
    + ["--secret", SECRETS[v], "--format", fmt, *how]
    for v in VARIANTS
    for fmt in ("csv", "text")
    for how in ([], ["--forced", "1,1"])
]
# past the first block of stacked draws and kernel runs, where each variant
# has trials whose normals leave numpy's fast path; and a forced run with
# random secrets
RUN_GRID += [
    ["run", "--variant", v, "--trials", str(TRIAL_BLOCK + 1), "--seed", "5"]
    + ["--format", "csv"]
    for v in VARIANTS
] + [
    ["run", "--variant", "three-b", "--trials", str(TRIAL_BLOCK + 1), "--seed", "5"]
    + ["--format", "json", "--forced", "2,0"]
]
VERIFY_GRID = [
    ["verify", "--all", "--format", fmt, *encoding]
    for fmt in ("json", "text")
    for encoding in ([], ["--paper-literal"])
]
EXPORT_GRID = [
    ["export", "--variant", v, "--what", "table", "--source", "derived"]
    + ["--format", fmt]
    for v in VARIANTS
    for fmt in ("json", "csv")
]
# the bytes of StateVector.amplitude_pairs() and num_qubits, and the
# published tables
EXPORT_GRID += [
    ["export", "--variant", v, "--what", "basis", "--format", fmt, *encoding]
    for v in VARIANTS
    for fmt in ("json", "csv")
    for encoding in ([], ["--paper-literal"])
] + [
    ["export", "--variant", v, "--what", "table", "--source", "published"]
    + ["--format", fmt]
    for v in VARIANTS
    for fmt in ("json", "csv")
]
GRID = RUN_GRID + VERIFY_GRID + EXPORT_GRID


@pytest.fixture(scope="module")
def reference_main(reference):
    return reference("cli").main


def _call(entry, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entry(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("argv", GRID, ids="_".join)
def test_stdout_and_exit_status_match_reference(argv, reference_main, monkeypatch):
    monkeypatch.delenv("GHZSPLIT_SEED", raising=False)
    code, out = _call(main, argv)
    assert out
    assert (code, out) == _call(reference_main, argv)
