"""Output checks for every benchmark operation.

The expected results are the audit findings the README states, written out
here by hand; nothing is computed with the code under test:

* canonical encoding, MATCH / PHASE_ONLY_MATCH / MISMATCH:
  three-a 24/8/0, three-b 16/0/16, four 8/0/0;
* literal encoding: three-a 12/4/16, three-b 12/4/16, four 6/0/2, and the
  literal four-outcome basis repeats a vector (one basis anomaly);
* the 16 MISMATCH rows of three-b are its minus-branch rows (Charlie's bit
  1), and the 8 PHASE_ONLY_MATCH rows of three-a are minus-branch rows too;
* every branch has 2 valid corrections (8 for ``four``);
* each working three-b minus correction is the plus-branch one with an
  extra Z on Bob's third qubit;
* the joint outcome probabilities are uniform.

``run`` uses the canonical basis and the published table, so every trial
must reach fidelity 1 - 1e-9 except on the 16 defective three-b minus rows.
Trials on those rows are correct, reported output and never count as
failures.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import math

SCHEMA_VERSION = 1
TOLERANCE = 1e-9  # the CLI's default --tolerance, which the workloads keep
PAULI_LABELS = frozenset({"I", "X", "Z", "iY"})

OUTCOMES = {"three-a": 16, "three-b": 16, "four": 4}
BOB_QUBITS = {"three-a": 3, "three-b": 3, "four": 4}
COEFFICIENTS = {"three-a": (4, 1.0), "three-b": (4, 1.0), "four": (2, 0.5)}
SOLUTIONS_PER_ROW = {"three-a": 2, "three-b": 2, "four": 8}

EXPECTED_COUNTS = {
    "canonical": {"three-a": (24, 8, 0), "three-b": (16, 0, 16), "four": (8, 0, 0)},
    "literal": {"three-a": (12, 4, 16), "three-b": (12, 4, 16), "four": (6, 0, 2)},
}
EXPECTED_ANOMALIES = {
    "canonical": {"three-a": 0, "three-b": 0, "four": 0},
    "literal": {"three-a": 0, "three-b": 0, "four": 1},
}
STATUSES = ("MATCH", "PHASE_ONLY_MATCH", "MISMATCH")

RUN_CSV_HEADER = [
    "trial", "variant", "alice_outcome", "alice_cbits", "charlie_bit",
    "correction", "fidelity",
]

# An extra Z on a qubit maps these factors onto each other, up to sign.
_TIMES_Z = {"I": "Z", "Z": "I", "X": "iY", "iY": "X"}


class CheckError(Exception):
    """An operation's output contradicts the expected results."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _options(argv) -> dict[str, str]:
    """``--key value`` pairs of an argument vector; bare flags map to ''."""
    out, args = {}, list(argv[1:])
    while args:
        key = args.pop(0)
        out[key] = args.pop(0) if args and not args[0].startswith("--") else ""
    return out


def defective_row(variant: str, charlie_bit: int) -> bool:
    """The published three-b minus rows, which the README reports as wrong."""
    return variant == "three-b" and charlie_bit == 1


def check(argv, exit_code, stdout: str) -> None:
    """Raise CheckError unless ``stdout`` and ``exit_code`` are right."""
    command = argv[0]
    if command == "run":
        _check_run(_options(argv), exit_code, stdout)
    elif command == "verify":
        _check_verify(_options(argv), exit_code, stdout)
    elif command == "export":
        _check_export(_options(argv), exit_code, stdout)
    else:
        raise CheckError(f"no check for command {command!r}")


def _check_trial(variant, k, outcome, cbits, bit, correction, fid) -> bool:
    """Check one trial's fields; return whether it met the threshold."""
    _require(0 <= outcome < OUTCOMES[variant], f"trial {k}: outcome {outcome}")
    _require(cbits == format(outcome, "04b"), f"trial {k}: cbits {cbits!r}")
    _require(bit in (0, 1), f"trial {k}: charlie bit {bit}")
    _require(
        len(correction) == BOB_QUBITS[variant]
        and set(correction) <= PAULI_LABELS,
        f"trial {k}: correction {correction}",
    )
    _require(0.0 <= fid <= 1.0 + TOLERANCE, f"trial {k}: fidelity {fid}")
    met = fid >= 1.0 - TOLERANCE
    _require(
        met or defective_row(variant, bit),
        f"trial {k}: fidelity {fid!r} on {variant} row ({outcome}, {bit}), "
        "which recovers the secret",
    )
    return met


def _check_run(opts, exit_code, stdout) -> None:
    variant, trials = opts["--variant"], int(opts["--trials"])
    if opts["--format"] == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        _require(rows and rows[0] == RUN_CSV_HEADER, "run csv: bad header")
        _require(len(rows) - 1 == trials, f"run csv: {len(rows) - 1} rows, want {trials}")
        all_met = True
        for k, row in enumerate(rows[1:]):
            _require(len(row) == 7 and row[0] == str(k) and row[1] == variant,
                     f"run csv: bad row {k}: {row}")
            all_met &= _check_trial(
                variant, k, int(row[2]), row[3], int(row[4]),
                row[5].split("*"), float(row[6]),
            )
    else:
        all_met = _check_run_json(variant, trials, int(opts["--seed"]), stdout)
    _require(exit_code == (0 if all_met else 1),
             f"run: exit status {exit_code} but all_met={all_met}")


def _check_run_json(variant, trials, seed, stdout) -> bool:
    doc = json.loads(stdout)
    _require(
        doc["schema_version"] == SCHEMA_VERSION and doc["command"] == "run"
        and doc["variant"] == variant and doc["seed"] == seed
        and doc["trials"] == trials and doc["tolerance"] == TOLERANCE
        and doc["forced"] is None,
        "run json: bad header fields",
    )
    transcripts = doc["transcripts"]
    _require(len(transcripts) == trials,
             f"run json: {len(transcripts)} transcripts, want {trials}")
    count, norm = COEFFICIENTS[variant]
    uniform = 1.0 / (2 * OUTCOMES[variant])
    pairs = [(i, b) for i in range(OUTCOMES[variant]) for b in (0, 1)]
    tally = collections.Counter()
    fids = []
    all_met = True
    for k, t in enumerate(transcripts):
        outcome, bit = t["alice_outcome"], t["charlie_bit"]
        all_met &= _check_trial(
            variant, k, outcome, t["alice_cbits"], bit, t["correction"],
            t["fidelity"],
        )
        _require(t["variant"] == variant and t["messages"] == {
            "alice_to_bob": t["alice_cbits"], "charlie_to_bob": str(bit)},
            f"trial {k}: bad messages")
        coeffs = t["secret"]["coefficients"]
        _require(
            len(coeffs) == count
            and abs(sum(re * re + im * im for re, im in coeffs) - norm) <= 1e-12,
            f"trial {k}: secret is not a normalized class state",
        )
        dim = 2 ** BOB_QUBITS[variant]
        _require(len(t["bob_state_before"]) == dim == len(t["bob_state_after"]),
                 f"trial {k}: Bob's state has the wrong dimension")
        probs = t["probabilities"]
        _require(
            [(w["alice_outcome"], w["charlie_bit"]) for w in probs] == pairs
            and all(abs(w["probability"] - uniform) <= TOLERANCE for w in probs),
            f"trial {k}: outcome probabilities are not uniform",
        )
        tally[(outcome, bit)] += 1
        fids.append(t["fidelity"])
    summary = doc["summary"]
    counts = summary["outcome_counts"]
    _require(
        sum(c["count"] for c in counts) == trials
        and {(c["alice_outcome"], c["charlie_bit"]): c["count"] for c in counts}
        == dict(tally),
        "run json: outcome counts do not add up to the transcripts",
    )
    _require(
        summary["min_fidelity"] == min(fids)
        and math.isclose(summary["mean_fidelity"], sum(fids) / len(fids),
                         rel_tol=1e-12)
        and summary["all_above_threshold"] == all_met,
        "run json: summary disagrees with the transcripts",
    )
    return all_met


def _check_verify(opts, exit_code, stdout) -> None:
    encoding = "literal" if "--paper-literal" in opts else "canonical"
    doc = json.loads(stdout)
    _require(
        doc["schema_version"] == SCHEMA_VERSION and doc["command"] == "verify"
        and doc["encoding"] == encoding,
        "verify: bad header fields",
    )
    reports = doc["reports"]
    _require([r["variant"] for r in reports] == list(OUTCOMES),
             "verify --all: wrong variants")
    for report in reports:
        _check_report(report, encoding)
    passed = all(r["passed"] for r in reports)
    _require(doc["passed"] == passed, "verify: passed flag disagrees with reports")
    _require(exit_code == (0 if passed else 1),
             f"verify: exit status {exit_code} but passed={passed}")


def _check_report(report, encoding) -> None:
    variant = report["variant"]
    where = f"verify {variant} {encoding}"
    rows = report["rows"]
    _require(report["encoding"] == encoding, f"{where}: wrong encoding")
    _require(
        sorted((r["alice_outcome"], r["charlie_bit"]) for r in rows)
        == [(i, b) for i in range(OUTCOMES[variant]) for b in (0, 1)],
        f"{where}: rows do not cover every branch once",
    )
    counted = collections.Counter(r["status"] for r in rows)
    expected = EXPECTED_COUNTS[encoding][variant]
    _require(
        tuple(counted[s] for s in STATUSES) == expected
        and tuple(report["status_counts"][s] for s in STATUSES) == expected,
        f"{where}: status counts {report['status_counts']}, want {expected}",
    )
    anomalies = len(report["basis_anomalies"])
    _require(anomalies == EXPECTED_ANOMALIES[encoding][variant],
             f"{where}: {anomalies} basis anomalies")
    _require(report["passed"] == (expected[2] == 0 and anomalies == 0),
             f"{where}: wrong passed flag")
    for r in rows:
        status, bit = r["status"], r["charlie_bit"]
        _require(
            (r["published"] in r["solutions"]) == (status != "MISMATCH"),
            f"{where}: row {r['alice_outcome']},{bit} status {status} "
            "disagrees with its solutions",
        )
        if encoding == "canonical":
            _require(len(r["solutions"]) == SOLUTIONS_PER_ROW[variant],
                     f"{where}: {len(r['solutions'])} solutions")
            _require((status == "MISMATCH") == defective_row(variant, bit),
                     f"{where}: unexpected {status} row")
            _require(status != "PHASE_ONLY_MATCH" or bit == 1,
                     f"{where}: PHASE_ONLY_MATCH on a plus row")


def _check_export(opts, exit_code, stdout) -> None:
    variant = opts["--variant"]
    doc = json.loads(stdout)
    _require(exit_code == 0, f"export: exit status {exit_code}")
    _require(
        doc["schema_version"] == SCHEMA_VERSION and doc["command"] == "export"
        and doc["what"] == "table" and doc["variant"] == variant
        and doc["source"] == "derived",
        "export: bad header fields",
    )
    rows = {}
    for r in doc["rows"]:
        key = (r["alice_outcome"], r["charlie_bit"])
        _require(r["alice_cbits"] == format(key[0], "04b"),
                 f"export {variant}: bad cbits in row {key}")
        _require(len(r["correction"]) == BOB_QUBITS[variant]
                 and set(r["correction"]) <= PAULI_LABELS,
                 f"export {variant}: bad correction in row {key}")
        rows[key] = r["correction"]
    _require(
        sorted(rows) == [(i, b) for i in range(OUTCOMES[variant]) for b in (0, 1)]
        and len(doc["rows"]) == len(rows),
        f"export {variant}: rows do not cover every branch once",
    )
    if variant == "three-b":
        for i in range(OUTCOMES[variant]):
            plus, minus = rows[(i, 0)], rows[(i, 1)]
            _require(minus == plus[:2] + [_TIMES_Z[plus[2]]],
                     f"export three-b: minus row {i} is not plus row times Z3")
