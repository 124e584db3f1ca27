import collections
import contextlib
import csv
import dataclasses
import enum
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghzsplit
from ghzsplit import _numpy_bits, cli, oracle, protocol
from ghzsplit.cli import main
from ghzsplit.protocol import (
    TRIAL_BLOCK,
    OutcomeWeight,
    SecretSpec,
    Transcript,
    Variant,
    random_secret,
    run_protocol,
    substream,
)
from ghzsplit.statevec import PauliString, StateVector

# the directory that holds the package under test, for child interpreters
SRC = str(Path(ghzsplit.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("GHZSPLIT_SEED", raising=False)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _json_run_peak_rss_mib(trials: int) -> float:
    """Peak RSS of a fresh interpreter that runs ``run --format json``."""
    child = (
        "import contextlib, os, resource, sys\n"
        "from ghzsplit.cli import main\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    argv = ["run", "--variant", "three-a", "--trials", str(trials), "--format", "json"]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", child, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    # ru_maxrss counts KiB on Linux and bytes on macOS
    return int(done.stdout) / (2**20 if sys.platform == "darwin" else 2**10)


def run_cli_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, json.loads(captured.err, parse_constant=_reject_constant)


class TestRun:
    def test_forced_json_round_trip(self, capsys):
        code, out, err = run_cli(
            [
                "run",
                "--variant",
                "three-a",
                "--secret",
                "1,0,0,0",
                "--forced",
                "0,0",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "run"
        assert doc["forced"] == {"alice_outcome": 0, "charlie_bit": 0}
        (transcript,) = doc["transcripts"]
        assert transcript["alice_cbits"] == "0000"
        assert transcript["correction"] == ["I", "I", "I"]
        assert transcript["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert doc["summary"]["all_above_threshold"] is True

    def test_seeded_trials(self, capsys):
        code, out, _ = run_cli(
            ["run", "--variant", "four", "--trials", "3", "--seed", "9"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 9
        assert len(doc["transcripts"]) == 3
        assert doc["summary"]["min_fidelity"] >= 1.0 - 1e-9
        assert sum(c["count"] for c in doc["summary"]["outcome_counts"]) == 3

    def test_defective_published_row_exits_one(self, capsys):
        code, out, _ = run_cli(
            [
                "run",
                "--variant",
                "three-b",
                "--secret",
                "0.5,0.5,0.5,0.5",
                "--forced",
                "0,1",
            ],
            capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["all_above_threshold"] is False
        assert doc["summary"]["min_fidelity"] < 1.0 - 1e-9

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            [
                "run",
                "--variant",
                "three-a",
                "--trials",
                "2",
                "--seed",
                "4",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["trial", "variant", "alice_outcome"]
        assert len(rows) == 3
        assert {r[1] for r in rows[1:]} == {"three-a"}

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            [
                "run",
                "--variant",
                "three-a",
                "--secret",
                "0.5,0.5,0.5,0.5",
                "--forced",
                "3,1",
                "--format",
                "text",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("trial 0: outcome=3 cbits=0011 charlie=1")
        assert out.rstrip().endswith("ok=yes")

    def test_complex_coefficients_accepted(self, capsys):
        code, out, _ = run_cli(
            [
                "run",
                "--variant",
                "three-a",
                "--secret",
                "0.5, 0.5j, -0.5, -0.5j",
                "--forced",
                "0,0",
            ],
            capsys,
        )
        assert code == 0
        secret = json.loads(out)["transcripts"][0]["secret"]
        assert secret["coefficients"][1] == [0.0, 0.5]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_tabular_run_builds_no_transcript_dicts(self, fmt, capsys, monkeypatch):
        # csv and text print a few fields straight from the kernel's arrays:
        # neither a Transcript nor the JSON document is ever built
        argv = ["run", "--variant", "three-b", "--trials", "5", "--format", fmt]
        usual = run_cli(argv, capsys)

        def refuse(self, *args, **kwargs):
            raise AssertionError("Transcript built")

        monkeypatch.setattr(Transcript, "to_dict", refuse)
        monkeypatch.setattr(Transcript, "__init__", refuse)
        assert run_cli(argv, capsys) == usual

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_equals_streamed_stdout(self, fmt, capsys, tmp_path):
        target = tmp_path / f"trials.{fmt}"
        trials = TRIAL_BLOCK + 1  # across a block boundary
        code, out, _ = run_cli(
            ["run", "--variant", "four", "--trials", str(trials), "--format", fmt]
            + ["--emit", str(target)],
            capsys,
        )
        assert code == 0
        if fmt == "csv":
            assert len(out.splitlines()) == trials + 1
        else:
            assert len(json.loads(out)["transcripts"]) == trials
        assert target.read_text(encoding="utf-8") == out

    def test_json_transcripts_of_a_chunk_written_before_the_next_chunk(
        self, monkeypatch
    ):
        # stdout as each block of trials starts: all of the last block's
        # transcripts are out, and none of the next; and as each slice of a
        # block is encoded: all of the last slice's are out, and none of the
        # next
        trials = TRIAL_BLOCK + 1
        argv = ["run", "--variant", "four", "--trials", str(trials), "--format", "json"]
        out, seen, encoded = io.StringIO(), [], []
        run_trials, joint_weights = cli.run_trials, cli._joint_weights

        def spy(*args, **kwargs):
            chunks = run_trials(*args, **kwargs)
            while True:
                seen.append(out.getvalue())
                chunk = next(chunks, None)
                if chunk is None:
                    return
                yield chunk

        def encoding(branches, kets):
            encoded.append(out.getvalue())
            return joint_weights(branches, kets)

        monkeypatch.setattr(cli, "run_trials", spy)
        monkeypatch.setattr(cli, "_joint_weights", encoding)
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0
        transcripts = json.loads(out.getvalue())["transcripts"]
        written = [0, TRIAL_BLOCK, trials]
        sliced = list(range(0, trials, cli._ENCODED))
        assert len(sliced) == TRIAL_BLOCK // cli._ENCODED + 1
        # the header's schema_version and one per transcript; the first
        # block is made before the header is written, so nothing is out yet
        for texts, counts, head in ((seen, written, 0), (encoded, sliced, 1)):
            assert [text.count('"schema_version"') for text in texts] == [
                head,
                *(1 + n for n in counts[1:]),
            ]
            for text, n in zip(texts[1:], counts[1:]):
                assert text.endswith(
                    json.dumps(transcripts[n - 1], indent=2).replace("\n", "\n    ")
                )

    def test_json_run_writes_a_slice_of_trials_at_a_time(self):
        # the header, one write per slice of at most _JOINED trials of an
        # encoded slice, and the summary: not one write per trial
        trials = 2 * cli._ENCODED + 1  # across two slice boundaries
        writes = []

        class Counting(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        out = Counting()
        argv = ["run", "--variant", "three-a", "--trials", str(trials), "--format", "json"]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert len(json.loads(out.getvalue())["transcripts"]) == trials
        slices = 2 * math.ceil(cli._ENCODED / cli._JOINED) + 1
        assert len(writes) == 1 + slices + 1 < trials
        assert [w.count('"schema_version"') for w in writes[1:-1]] == (
            [cli._JOINED] * (slices - 1) + [1]
        )

    def test_json_run_calls_json_dumps_a_fixed_number_of_times(
        self, monkeypatch, capsys
    ):
        # the header, the summary and one template per transcript shape;
        # none per trial
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return json.dumps(*args, **kwargs)

        monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=counting))
        made = {}
        for trials in (30, 300):
            calls.clear()
            argv = ["run", "--variant", "three-a", "--trials", str(trials)]
            code, out, _ = run_cli(argv + ["--format", "json"], capsys)
            assert code == 0 and len(json.loads(out)["transcripts"]) == trials
            made[trials] = len(calls)
        assert made[30] == made[300], made

    def test_json_run_calls_to_dict_once_per_shape(self, monkeypatch, capsys):
        # the first transcript of a shape gives its template's skeleton;
        # every other one is filled from its fields
        calls = []
        to_dict = Transcript.to_dict

        def counting(self):
            calls.append(self)
            return to_dict(self)

        monkeypatch.setattr(Transcript, "to_dict", counting)
        made = {}
        for trials in (30, 300):
            calls.clear()
            argv = ["run", "--variant", "three-b", "--trials", str(trials)]
            code, out, _ = run_cli(argv + ["--format", "json"], capsys)
            assert code in (0, 1) and len(json.loads(out)["transcripts"]) == trials
            made[trials] = len(calls)
        assert made == {30: 1, 300: 1}

    def test_json_peak_memory_flat_in_trials(self):
        # a document held whole grows by about 80 MiB from 200 to 2000 trials
        pytest.importorskip("resource")
        growth = _json_run_peak_rss_mib(2000) - _json_run_peak_rss_mib(200)
        assert growth < 10, f"peak RSS grew by {growth:.1f} MiB"


# a fixed in-class secret per variant
FIXED_COEFFICIENTS = {
    Variant.THREE_A: (0.5, 0.5j, -0.5, 0.5),
    Variant.THREE_B: (0.5, 0.5j, -0.5, 0.5),
    Variant.FOUR: (0.5, -0.5j),
}
# how a run makes its trials: random secrets sampled or forced, or one fixed
# secret sampled
HOWS = ["sampled", "forced", "fixed"]
FORCED = (1, 1)


def _run_args(variant: Variant, how: str) -> tuple[SecretSpec | None, tuple | None]:
    """The ``secret`` and ``forced`` arguments of a run made ``how``."""
    fixed = SecretSpec(variant, FIXED_COEFFICIENTS[variant])
    return fixed if how == "fixed" else None, FORCED if how == "forced" else None


def _filled(chunks: list, seed: int, secret, forced) -> list[str]:
    """Every joined text of a run's chunks, filled as ``run`` fills them."""
    pieces = cli._template(chunks[0], seed, secret, forced)
    return [
        text for k, c in enumerate(chunks) for text in cli._transcripts(c, pieces, k == 0)
    ]


def _listed(texts: list[str]) -> list[str]:
    """``texts`` as ``run`` lists transcripts: each after its separator."""
    return [("\n    " if k == 0 else ",\n    ") + t for k, t in enumerate(texts)]


def _hand_built(monkeypatch, trials: list[dict], variant=Variant.FOUR):
    """The joined texts of a chunk of forced trials of the fixed secret,
    filled as ``run`` fills the first chunk of a run, and the texts
    ``_json_text`` gives of the Transcripts ``run_protocol`` makes of them;
    entry k of ``trials`` replaces fields of trial k in both: Transcript
    field names, with the coefficients as ``secret`` and the joint weights,
    outcome-major, as ``probabilities``. ``alice_outcome`` and
    ``charlie_bit`` move the trial to another row, and ``correction`` is its
    row's in the chunk's hand-built table, which the trials of one row
    share. The chunk gives the coefficient rows. No field is checked."""
    secret = SecretSpec(variant, FIXED_COEFFICIENTS[variant])
    chunks = protocol.run_trials(variant, 0, len(trials), secret=secret, forced=FORCED)
    (chunk,) = chunks
    pieces = cli._template(chunk, 0, secret, FORCED)
    t = run_protocol(secret, forced=FORCED)
    coefficients = chunk.coefficients.copy()
    weights = protocol._joint_weights(chunk.alice_branches, chunk.alice_kets)
    before, fidelities = chunk.bob_before.copy(), list(chunk.fidelities)
    rows, changed, want = chunk.rows.copy(), {}, []
    for k, fields in enumerate(trials):
        fields = dict(fields)
        i = fields.get("alice_outcome", FORCED[0])
        b = fields.get("charlie_bit", FORCED[1])
        rows[k] = 2 * i + b
        fields["alice_cbits"] = protocol.alice_cbits(i)
        if "correction" in fields:
            correction = fields["correction"]
            assert changed.setdefault((i, b), correction) is correction
        if "secret" in fields:
            coefficients[k] = fields["secret"]
            fields["secret"] = SecretSpec(variant, fields["secret"])
        if "probabilities" in fields:
            weights[k].flat = fields["probabilities"]
            fields["probabilities"] = tuple(
                OutcomeWeight(j // 2, j % 2, p)
                for j, p in enumerate(fields["probabilities"])
            )
        if "bob_state_before" in fields:
            before[k] = fields["bob_state_before"]
            # unchecked: the edge floats include NaN and inf
            state = object.__new__(StateVector)
            object.__setattr__(state, "amplitudes", before[k].copy())
            fields["bob_state_before"] = state
        fidelities[k] = fields.get("fidelity", fidelities[k])
        want.append(cli._json_text(dataclasses.replace(t, **fields).to_dict(), 2))
    table = {**chunk.table.rows, **changed}
    table = protocol.CorrectionTable(variant, "hand-built", table)
    chunk = dataclasses.replace(
        chunk, coefficients=coefficients, rows=rows, table=table,
        bob_before=before, fidelities=fidelities,
    )
    monkeypatch.setattr(cli, "_joint_weights", lambda branches, kets: weights)
    return list(cli._transcripts(chunk, pieces, True)), want


class TestFilledJson:
    """``_transcripts`` writes, for each trial of a chunk, the bytes
    ``_json_text`` writes of the Transcript ``run_protocol`` makes of that
    trial alone, after the separator ``run`` lists it with, a slice of at
    most ``_JOINED`` trials per text."""

    @staticmethod
    def assert_listed(texts: list[str], want: list[str]):
        """``texts`` are ``want`` listed as ``run`` lists them, cut only
        between trials, at most ``_JOINED`` trials per text."""
        items, got, start = _listed(want), "".join(texts), 0
        for t, item in enumerate(items):
            assert got[start : start + len(item)] == item, t
            start += len(item)
        assert start == len(got)
        ends = set(itertools.accumulate(map(len, items)))
        assert set(itertools.accumulate(map(len, texts))) <= ends
        assert all(t.count('"schema_version"') <= cli._JOINED for t in texts)

    @staticmethod
    def assert_run_filled(variant: Variant, how: str, trials: int):
        seed = 11
        secret, forced = _run_args(variant, how)
        chunks = list(
            protocol.run_trials(variant, seed, trials, secret=secret, forced=forced)
        )
        want = []
        for t in range(trials):
            rng = substream(seed, t)  # trial t's own generator
            spec = secret if secret is not None else random_secret(variant, rng)
            one = run_protocol(spec, rng=rng, forced=forced)
            want.append(cli._json_text(one.to_dict(), 2))
        TestFilledJson.assert_listed(_filled(chunks, seed, secret, forced), want)

    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_every_trial_is_its_own_run_protocol_transcript(self, variant, how):
        self.assert_run_filled(variant, how, cli._ENCODED + 2)

    def test_edge_floats_and_strings_match_json_text(self, monkeypatch):
        # a NaN fidelity, a -0.0 amplitude, JSON's float constants, and a
        # leaf string with a "%" and non-ASCII text, in two trials
        nan, inf = math.nan, math.inf
        amps = [0.5, -0.0, 0.5, complex(0.0, -0.0), -0.5, 0, 0, -0.5j] + [0] * 8
        edges = {
            "secret": (complex(nan, -0.0), complex(inf, -inf)),
            "correction": types.SimpleNamespace(labels=("I", "10%s \u2603", "I", "I")),
            "bob_state_before": amps,
            "fidelity": nan,
            "probabilities": (inf, -inf, nan, 1e22, -0.0, 0.0, 0.1, 1e-300),
        }
        texts, want = _hand_built(monkeypatch, [edges, edges])
        self.assert_listed(texts, want)

    def test_repeated_floats_and_signed_zeros_match_json_text(self, monkeypatch):
        # repeated values share one text per bit pattern across a chunk's
        # trials; 0.0 and -0.0 compare equal, so neither may take the
        # other's text, in either order
        nan = math.nan
        trials = [
            {"fidelity": values[0], "probabilities": values[1:]}
            for values in (
                (0.1, -0.1, 0.1, 1 / 3, -0.1, 1 / 3, 0.1, 1e-300, 1e-300),
                (0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0),
                (-0.0, 0.0, -0.0, 0.0, nan, nan, math.inf, -math.inf, math.inf),
                (np.float64(0.1), 0.1, np.float64(-0.0), 0.0, -0.0, 0.1, 0.0, nan, 0.1),
                (np.float64(-0.0), 0.0, 0.0, -0.0, 0.1, 0.1, -0.0, 0.0, 0.0),
            )
        ]
        texts, want = _hand_built(monkeypatch, trials)
        self.assert_listed(texts, want)

    def test_float_texts_match_json_text(self):
        # one repr per distinct magnitude: 0.0 and -0.0 compare equal but
        # keep their own texts, a negative float is "-" and its magnitude's
        # text, and every NaN (sign bit set, or a payload) is written as NaN
        values = np.array(
            [
                [0.0, -0.0, 0.1, 0.0, math.inf, 1e16, -0.1],
                [-0.0, 0.0, 1e-5, 0.0, -math.inf, 5e-324, -5e-324],
                [0.0, 0.0, 0.1, 0.0, 1e16, -0.0, -1e16],
                [-0.0, -0.0, 5e-324, 0.0, 0.1, 1e-5, -math.inf],
            ]
        )
        nans = values.view(np.uint64)[:, 3]
        nans[:] = [0xFFF8000000000000, 0x7FF8000000000001] * 2
        assert len(np.unique(values.view(np.int64))) == 13
        texts = cli._float_texts(values)
        assert texts.dtype == object and texts.shape == values.shape
        assert texts.tolist() == [[json.dumps(float(x)) for x in row] for row in values]
        negative = cli._float_texts(-values)
        assert negative.tolist() == [[json.dumps(-float(x)) for x in row] for row in values]

    @pytest.mark.parametrize(
        "variant, slots", [("three-a", 81), ("three-b", 81), ("four", 86)]
    )
    def test_template_slots_are_the_per_trial_leaves(self, variant, slots):
        # the schema version, the variant name, the secret's kind and each
        # joint weight's outcome and bit are in the pieces, once per run
        chunk = next(protocol.run_trials(variant, 3, 2))
        pieces = cli._template(chunk, 3, None, None)
        assert len(pieces) == slots + 1
        doc = json.loads(json.dumps(cli._LEAF).join(pieces))
        assert json.dumps(doc).count(json.dumps(cli._LEAF)) == slots
        assert (doc["schema_version"], doc["variant"]) == (1, variant)
        assert doc["secret"]["kind"] == "coefficients"

    def test_percent_and_non_ascii_in_the_template(self, monkeypatch):
        # the pieces' text comes from to_dict's keys, and is written as it is
        to_dict = Transcript.to_dict

        def renamed(self):
            doc = to_dict(self)
            return {("v%s %% \u00e9" if k == "variant" else k): v for k, v in doc.items()}

        monkeypatch.setattr(Transcript, "to_dict", renamed)
        for how in HOWS:
            self.assert_run_filled(Variant.FOUR, how, 3)

    @pytest.mark.parametrize("count", [2, 4], ids=["fewer", "more"])
    def test_leaf_count_off_its_template_raises(self, monkeypatch, count):
        # three-a corrections have 3 labels; trial 0's row fits, and trial
        # 1's is another row
        correction = {
            "alice_outcome": 6, "charlie_bit": 0,
            "correction": PauliString(("I",) * count),
        }
        with pytest.raises(ValueError, match="leaves"):
            _hand_built(monkeypatch, [{}, correction], Variant.THREE_A)

    def test_key_that_reads_as_a_slot_raises(self, monkeypatch):
        # the skeleton's leaf stand-in as a key adds a piece
        to_dict = Transcript.to_dict
        monkeypatch.setattr(
            Transcript, "to_dict", lambda self: {"\x00": 1, **to_dict(self)}
        )
        with pytest.raises(ValueError, match="leaves"):
            self.assert_run_filled(Variant.FOUR, "sampled", 3)


@pytest.mark.parametrize("how", HOWS)
def test_json_run_makes_one_run_protocol_call(how, monkeypatch, capsys):
    # trial 0 alone, on its own generator and secret, gives the template;
    # csv and text make no call
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs, kwargs["rng"].bit_generator.state))
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", counting)
    variant, trials = Variant.THREE_A, TRIAL_BLOCK + 1
    secret, forced = _run_args(variant, how)
    argv = ["run", "--variant", variant.value, "--trials", str(trials), "--seed", "3"]
    if secret is not None:
        argv += ["--secret", ",".join(map(str, secret.coefficients))]
    if forced is not None:
        argv += ["--forced", ",".join(map(str, forced))]
    for fmt in ("csv", "text"):
        run_cli(argv + ["--format", fmt], capsys)
    assert calls == []
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and len(json.loads(out)["transcripts"]) == trials
    ((args, kwargs, state),) = calls
    rng = substream(3, 0)
    spec = secret if secret is not None else random_secret(variant, rng)
    assert args == (spec,) and kwargs["forced"] == forced
    assert state == rng.bit_generator.state


@pytest.mark.parametrize(
    "field, value", [("alice_outcome", 99), ("charlie_bit", 2), ("fidelity", 0.5)]
)
def test_json_run_whose_trial_zero_differs_from_run_protocol_raises(
    field, value, monkeypatch, capsys
):
    def other(*args, **kwargs):
        return dataclasses.replace(run_protocol(*args, **kwargs), **{field: value})

    monkeypatch.setattr(cli, "run_protocol", other)
    argv = ["run", "--variant", "four", "--trials", "3", "--format", "json"]
    message = numpy_bits_error(argv, capsys)
    assert "differs from run_protocol's" in message


def numpy_bits_error(argv, capsys) -> str:
    """The message of the ``environment`` error, exit status 2, that
    ``argv`` ends in, with nothing written to stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    assert exc.value.code == 2
    err = json.loads(err)
    assert set(err) == {"schema_version", "error"}
    assert err["error"]["type"] == "environment"
    message = err["error"]["message"]
    assert message.startswith(f"numpy {np.__version__} does not give the bits")
    return message


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_run_whose_draw_differs_from_substream_is_an_environment_error(
    fmt, fresh_caches, monkeypatch, capsys
):
    seeds = _numpy_bits._pcg64_seeds
    monkeypatch.setattr(_numpy_bits, "_pcg64_seeds", lambda e: seeds(e) ^ np.uint64(1))
    argv = ["run", "--variant", "four", "--trials", "3", "--seed", "5"]
    message = numpy_bits_error(argv + ["--format", fmt], capsys)
    assert "the stacked draw of trial 0 differs from substream(5, 0)" in message


@pytest.mark.parametrize(
    "literal", [[], ["--paper-literal"]], ids=["canonical", "literal"]
)
def test_verify_on_another_summation_order_is_an_environment_error(
    literal, fresh_caches, monkeypatch, capsys
):
    # the columns added one after another: not numpy's order
    monkeypatch.setattr(
        _numpy_bits, "_reduce_order", lambda c: functools.reduce(lambda a, b: (a, b), c)
    )
    message = numpy_bits_error(["verify", "--all", *literal], capsys)
    assert "differs from numpy's add.reduce over the full rows" in message
    message = numpy_bits_error(["run", "--variant", "three-a"], capsys)
    assert "differs from numpy's add.reduce over the full rows" in message


AUDIT = [
    ["verify", "--all"],
    ["verify", "--all", "--paper-literal"],
    *(
        ["export", "--variant", v.value, "--what", "table", "--source", "derived"]
        for v in Variant
    ),
]


def test_audit_bytes_are_the_same_cold_and_warm(fresh_caches, capsys):
    # the benchmark's five audit commands, right after the caches are
    # emptied, then again on what the first pass cached
    cold = [run_cli(argv, capsys) for argv in AUDIT]
    assert oracle._sampled_rows.cache_info().currsize == 2 * len(Variant)
    warm = [run_cli(argv, capsys) for argv in AUDIT]
    assert [code for code, _, _ in cold] == [1, 1, 0, 0, 0]
    assert all(out and not err for _, out, err in cold)
    assert warm == cold
    assert oracle._sampled_rows.cache_info().misses == 2 * len(Variant)


def test_fixed_secret_json_run_builds_the_secret_once(monkeypatch, capsys, reference):
    # every ghzsplit namespace that holds build_secret gets the counting copy
    calls = []
    original = protocol.build_secret

    def counting(spec):
        calls.append(spec)
        return original(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("ghzsplit.") and vars(module).get("build_secret") is original:
            monkeypatch.setattr(module, "build_secret", counting)
    argv = ["run", "--variant", "three-a", "--trials", "50", "--seed", "4"]
    argv += ["--secret", "0.5,0.5j,-0.5,0.5", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(calls) <= 2
    reference("cli").main(argv)
    assert out == capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_random_secrets_are_one_draw_per_chunk(fmt, monkeypatch, capsys):
    # both formats keep each chunk's secrets as coefficient rows: no
    # random_secret call and no SecretSpec per trial. JSON remakes trial 0
    # alone, for its template: one random_secret call and its SecretSpec per
    # run, and three StateVectors are validated, that secret and Bob's two
    # transcript rows.
    argv = ["run", "--variant", "three-a", "--seed", "6", "--format", fmt]
    run_cli([*argv, "--trials", "1"], capsys)  # fills the caches first
    counts = collections.Counter()
    original = protocol.random_secret

    def counting(*args):
        counts["random_secret"] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        held = vars(module).get("random_secret")
        if name.startswith("ghzsplit") and held is original:
            monkeypatch.setattr(module, "random_secret", counting)
    for cls in (SecretSpec, StateVector):
        init = cls.__post_init__

        def wrapped(self, init=init, key=cls.__name__):
            counts[key] += 1
            init(self)

        monkeypatch.setattr(cls, "__post_init__", wrapped)
    code, out, _ = run_cli([*argv, "--trials", "300"], capsys)
    assert code == 0 and out
    per_run = 0 if fmt == "csv" else 1
    got = [counts[key] for key in ("random_secret", "SecretSpec", "StateVector")]
    assert got == [per_run, per_run, 3 * per_run]


class TestRunErrors:
    @pytest.mark.parametrize("trials", ["10000001", "99999999999999999999"])
    def test_trials_above_the_cap_rejected(self, trials, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--trials", trials], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert str(cli.MAX_TRIALS) in err["error"]["message"]

    def test_unparseable_coefficient(self, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--secret", "1,0,0,zebra"], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "zebra" in err["error"]["message"]

    def test_wrong_coefficient_count(self, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--secret", "1,0,0"], capsys
        )
        assert code == 2
        assert "takes 4 coefficients" in err["error"]["message"]

    def test_normalization_deficit_reported(self, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "four", "--secret", "1,0"], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert err["error"]["deficit"] == pytest.approx(0.5)

    @pytest.mark.parametrize("secret", ["nan,0,0,0", "inf,0,0,0", "0,nan+1j,0,0"])
    def test_non_finite_coefficients_rejected(self, secret, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--secret", secret], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "finite" in err["error"]["message"]

    @pytest.mark.parametrize(
        "secret", ["1e200,0,0,0", "1.7e308+1.7e308j,0,0,0", "1e154,1e154,1e154,1e154"]
    )
    def test_overflowing_weights_rejected_as_overflow(self, secret, capsys):
        # every coefficient is finite; only the sum of their weights is not
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--secret", secret], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "overflow" in err["error"]["message"]
        assert "finite" not in err["error"]["message"]
        assert "deficit" not in err["error"]

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_rejected(self, tolerance, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--tolerance", tolerance], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "--tolerance" in err["error"]["message"]

    def test_unwritable_emit_path_rejected(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--emit", str(target)], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert not target.exists()

    def test_unwritable_emit_path_leaves_streamed_stdout_empty(self, capsys, tmp_path):
        # the file is opened before the first row; run_cli_error also checks
        # that nothing reached stdout
        target = tmp_path / "missing" / "out.csv"
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--trials", "300", "--format", "csv"]
            + ["--emit", str(target)],
            capsys,
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert not target.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--variant", "four", "--trials", "300", "--format", "csv"],
            ["run", "--variant", "four", "--trials", "3", "--format", "json"],
            ["verify", "--variant", "four"],
        ],
        ids=["streamed-csv", "json", "verify"],
    )
    def test_emit_write_failure_leaves_stdout_empty(self, argv, capsys):
        # /dev/full opens, but every write to it fails with ENOSPC; the error
        # shows before stdout gets the first piece (run_cli_error checks it)
        code, err = run_cli_error(argv + ["--emit", "/dev/full"], capsys)
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "/dev/full" in err["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--variant", "four", "--trials", "3"],
            ["verify", "--variant", "four"],
            ["export", "--variant", "four", "--what", "table"],
        ],
        ids=["run", "verify", "export"],
    )
    def test_empty_emit_path_rejected(self, argv, capsys):
        # --emit "$OUT" with OUT unset must not read as "no --emit"
        code, err = run_cli_error(argv + ["--emit", ""], capsys)
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "--emit" in err["error"]["message"]

    def test_emit_path_with_a_nul_byte_rejected(self, capsys):
        # open() raises ValueError, not OSError, for an embedded NUL; only
        # an in-process caller can pass one, since argv strings cannot
        argv = ["export", "--variant", "four", "--what", "table", "--emit", "a\x00b"]
        code, err = run_cli_error(argv, capsys)
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "null byte" in err["error"]["message"]

    def test_closed_stdout_is_a_config_error(self):
        # `run ... | head -1`: the reader goes away after the first line
        argv = ["run", "--variant", "four", "--trials", "20000", "--format", "csv"]
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ghzsplit", *argv],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"trial,variant,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert "Traceback" not in err
        doc = json.loads(err, parse_constant=_reject_constant)
        assert doc["error"]["type"] == "config"
        assert "stdout" in doc["error"]["message"]

    def test_forced_outcome_out_of_range(self, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "four", "--forced", "4,0"], capsys
        )
        assert code == 2
        message = err["error"]["message"]
        assert message == "--forced outcome 4 out of range [0, 4) for four"

    def test_forced_needs_two_fields(self, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "four", "--forced", "1"], capsys
        )
        assert code == 2

    def test_zero_trials(self, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "four", "--trials", "0", "--seed", "1"], capsys
        )
        assert code == 2
        assert "--trials" in err["error"]["message"]

    def test_unknown_variant_is_usage_error(self, capsys):
        code, err = run_cli_error(["run", "--variant", "five"], capsys)
        assert code == 2
        assert err["error"]["type"] == "usage"

    def test_missing_subcommand(self, capsys):
        code, err = run_cli_error([], capsys)
        assert code == 2
        assert err["error"]["type"] == "usage"

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_after_a_good_call(self, capsys):
        # the one parser keeps no state from the call before
        assert run_cli(["run", "--variant", "four", "--trials", "2"], capsys)[0] == 0
        code, err = run_cli_error(["run", "--variant", "four", "--trials", "x"], capsys)
        assert code == 2
        assert err["error"]["type"] == "usage"
        assert "--trials" in err["error"]["message"]


class TestSeedResolution:
    def test_env_seed_used(self, capsys, monkeypatch):
        args = ["run", "--variant", "three-a", "--trials", "2"]
        monkeypatch.setenv("GHZSPLIT_SEED", "123")
        _, from_env, _ = run_cli(args, capsys)
        monkeypatch.delenv("GHZSPLIT_SEED")
        _, from_flag, _ = run_cli(args + ["--seed", "123"], capsys)
        assert from_env == from_flag
        assert json.loads(from_env)["seed"] == 123

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GHZSPLIT_SEED", "123")
        _, out, _ = run_cli(
            ["run", "--variant", "three-a", "--seed", "7"], capsys
        )
        assert json.loads(out)["seed"] == 7

    def test_default_seed_is_zero(self, capsys):
        _, out, _ = run_cli(["run", "--variant", "three-a"], capsys)
        assert json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("value", ["soon", "-5"])
    def test_invalid_env_seed(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GHZSPLIT_SEED", value)
        code, err = run_cli_error(["run", "--variant", "three-a"], capsys)
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "GHZSPLIT_SEED" in err["error"]["message"]

    def test_negative_seed_flag(self, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--seed", "-1"], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "--seed" in err["error"]["message"]


class TestVerify:
    def test_clean_variant_exits_zero(self, capsys):
        code, out, _ = run_cli(["verify", "--variant", "three-a"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        (report,) = doc["reports"]
        assert report["status_counts"] == {
            "MATCH": 24,
            "PHASE_ONLY_MATCH": 8,
            "MISMATCH": 0,
        }

    def test_defective_variant_exits_one(self, capsys):
        code, out, _ = run_cli(["verify", "--variant", "three-b"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["reports"][0]["status_counts"]["MISMATCH"] == 16

    def test_all_variants_single_document(self, capsys):
        code, out, _ = run_cli(["verify", "--all"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert [r["variant"] for r in doc["reports"]] == [
            "three-a",
            "three-b",
            "four",
        ]

    def test_literal_four_reports_anomaly(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--variant", "four", "--paper-literal"], capsys
        )
        assert code == 1
        (report,) = json.loads(out)["reports"]
        assert report["encoding"] == "literal"
        assert report["basis_anomalies"][0]["kind"] == "duplicated_basis_vector"

    def test_text_format_lists_mismatches(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--variant", "three-b", "--format", "text"], capsys
        )
        assert code == 1
        assert out.count("MISMATCH outcome=") == 16
        assert out.rstrip().endswith("passed=no")

    def test_three_b_mismatches_have_a_zero_fidelity_witness(self, capsys):
        # the secret (|000> + |001>)/sqrt(2): after each of three-b's 16
        # published minus-branch corrections Bob holds it with its two kets'
        # signs opposed, so a run prints fidelity 0.0 and fails; each
        # plus-branch correction recovers it exactly
        argv = ["run", "--variant", "three-b", "--trials", "1", "--format", "csv"]
        argv += ["--secret", "0.7071067811865476,0.7071067811865476,0,0"]
        for outcome in range(16):
            for bit, want in ((1, (1, "0.0")), (0, (0, "1.0"))):
                code, out, _ = run_cli([*argv, "--forced", f"{outcome},{bit}"], capsys)
                (row,) = csv.DictReader(io.StringIO(out))
                assert (row["alice_outcome"], row["charlie_bit"]) == (
                    str(outcome), str(bit)
                )
                assert (code, row["fidelity"]) == want, (outcome, bit)

    def test_requires_variant_or_all(self, capsys):
        code, err = run_cli_error(["verify"], capsys)
        assert code == 2
        assert err["error"]["type"] == "usage"


class TestExport:
    def test_basis_amplitude_alphabet(self, capsys):
        code, out, _ = run_cli(
            ["export", "--variant", "three-a", "--what", "basis"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["what"] == "basis"
        assert doc["target_qubits"] == [0, 1, 2, 3, 4]
        assert len(doc["vectors"]) == 16
        values = {
            (re, im) for v in doc["vectors"] for re, im in v["amplitudes"]
        }
        assert values == {(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0)}

    def test_literal_four_basis_duplicates_vector(self, capsys):
        code, out, _ = run_cli(
            [
                "export",
                "--variant",
                "four",
                "--what",
                "basis",
                "--paper-literal",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["encoding"] == "literal"
        assert doc["vectors"][2]["amplitudes"] == doc["vectors"][3]["amplitudes"]

    def test_basis_csv_lists_nonzero_components(self, capsys):
        code, out, _ = run_cli(
            [
                "export",
                "--variant",
                "four",
                "--what",
                "basis",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 4 * 4  # header + four vectors of four kets
        assert {r[5] for r in rows[1:]} == {"0.5", "-0.5"}

    def test_table_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "export",
                "--variant",
                "three-a",
                "--what",
                "table",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 33
        assert rows[1] == ["three-a", "published", "0", "0000", "0", "I*I*I"]

    def test_derived_table_repairs_defective_rows(self, capsys):
        _, published_out, _ = run_cli(
            ["export", "--variant", "three-b", "--what", "table"], capsys
        )
        _, derived_out, _ = run_cli(
            [
                "export",
                "--variant",
                "three-b",
                "--what",
                "table",
                "--source",
                "derived",
            ],
            capsys,
        )
        published = json.loads(published_out)["rows"]
        derived = json.loads(derived_out)["rows"]
        for pub, der in zip(published, derived):
            assert (pub["alice_outcome"], pub["charlie_bit"]) == (
                der["alice_outcome"],
                der["charlie_bit"],
            )
            if pub["charlie_bit"] == 1:
                assert pub["correction"] != der["correction"]

    def test_emit_duplicates_stdout(self, capsys, tmp_path):
        target = tmp_path / "basis.json"
        code, out, _ = run_cli(
            [
                "export",
                "--variant",
                "four",
                "--what",
                "basis",
                "--emit",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        assert target.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--what", "basis", "--source", "published"],
            ["--what", "basis", "--source", "derived"],
            ["--what", "table", "--paper-literal"],
            ["--what", "table", "--source", "derived", "--paper-literal"],
        ],
    )
    def test_flags_without_effect_rejected(self, flags, capsys):
        code, err = run_cli_error(["export", "--variant", "three-a", *flags], capsys)
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "applies to --what" in err["error"]["message"]

    def test_what_is_required(self, capsys):
        code, err = run_cli_error(["export", "--variant", "four"], capsys)
        assert code == 2
        assert err["error"]["type"] == "usage"


class TestDeterminism:
    def test_identical_invocations_identical_output(self, capsys):
        args = [
            "run",
            "--variant",
            "three-a",
            "--trials",
            "10",
            "--seed",
            "42",
        ]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_verify_output_stable(self, capsys):
        args = ["verify", "--variant", "four"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


# strings with quotes, backslashes, control characters, non-ASCII text and
# lone surrogates, which json escapes
_EDGE_STRINGS = [
    "", '"', "\\", '\\"', "\x00\x1f\n\t\r", "☃ caf\xe9", "\U0001f600", "\ud800", "a\udfffb"
]
_STRINGS = st.one_of(
    st.sampled_from(_EDGE_STRINGS),
    st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]))),
)
_JSON_LEAVES = st.one_of(
    st.sampled_from([
        True, False, None, 0, -1, -(2**63), 2**70,
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, -1e16,
    ]),
    st.booleans(), st.none(), st.integers(), st.floats(), _STRINGS,
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


class _Level(enum.IntEnum):
    LOW = 1


def _indented_dumps(value, depth: int) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(_JSON_TREES, st.integers(0, 3))
    def test_random_trees_match_json_dumps(self, value, depth):
        assert cli._json_text(value, depth) == _indented_dumps(value, depth)

    @pytest.mark.parametrize(
        "odd",
        [
            _Level.LOW,
            np.float64(-0.0),
            np.float64(0.1),
            {1: "a", "b": 2},
            {_Level.LOW: [1]},
        ],
        ids=["IntEnum", "float64-negative-zero", "float64", "int-key", "IntEnum-key"],
    )
    @pytest.mark.parametrize("depth", range(4))
    def test_other_types_give_json_bytes(self, odd, depth):
        # each at the top, inside a list and as a dict's value
        for value in (odd, [odd, {}, []], {"a": (odd, [[]], ())}):
            assert cli._json_text(value, depth) == _indented_dumps(value, depth)

    @pytest.mark.parametrize(
        "bad", [{1, 2}, np.int64(3), object()], ids=["set", "np.int64", "object"]
    )
    def test_unserializable_values_raise_json_error(self, bad):
        for value in (bad, [1, bad], {"a": {"b": bad}}):
            with pytest.raises(Exception) as want:
                json.dumps(value, indent=2)
            with pytest.raises(want.type):
                cli._json_text(value, 1)

    def test_no_document_uses_the_pure_python_encoder(self, monkeypatch, capsys):
        # json.dumps with an indent builds its encoder with _make_iterencode
        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError, match="pure-Python"):
            json.dumps({}, indent=2)
        for argv, want in [
            (["verify", "--all"], 1),
            (["verify", "--all", "--paper-literal"], 1),
            (["export", "--variant", "four", "--what", "basis"], 0),
            (["export", "--variant", "three-b", "--what", "table"], 0),
            (["run", "--variant", "three-a", "--trials", "3", "--format", "json"], 0),
        ]:
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (want, "") and json.loads(out), argv
        code, doc = run_cli_error(["run", "--variant", "four", "--trials", "0"], capsys)
        assert code == 2 and doc["error"]["type"] == "config"
