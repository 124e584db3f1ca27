import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghzsplit
from ghzsplit import cli, protocol
from ghzsplit.cli import main
from ghzsplit.protocol import TRIAL_CHUNK, Transcript, run_protocol

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
        trials = 2 * TRIAL_CHUNK + 1
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

    def test_json_transcript_written_when_its_trial_ends(self, monkeypatch):
        # stdout as each run_protocol call starts; the first transcript is
        # out before the third trial begins
        argv = ["run", "--variant", "four", "--trials", "3", "--format", "json"]
        out, seen = io.StringIO(), []

        def spy(*args, **kwargs):
            seen.append(out.getvalue())
            return run_protocol(*args, **kwargs)

        monkeypatch.setattr(cli, "run_protocol", spy)
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0 and len(seen) == 3
        first = json.loads(out.getvalue())["transcripts"][0]
        assert json.dumps(first, indent=2).replace("\n", "\n    ") in seen[2]

    def test_json_peak_memory_flat_in_trials(self):
        # a document held whole grows by about 80 MiB from 200 to 2000 trials
        pytest.importorskip("resource")
        growth = _json_run_peak_rss_mib(2000) - _json_run_peak_rss_mib(200)
        assert growth < 10, f"peak RSS grew by {growth:.1f} MiB"


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

    @pytest.mark.parametrize(
        "secret", ["nan,0,0,0", "inf,0,0,0", "0,nan+1j,0,0", "1e200,0,0,0"]
    )
    def test_non_finite_coefficients_rejected(self, secret, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "three-a", "--secret", secret], capsys
        )
        assert code == 2
        assert err["error"]["type"] == "config"
        assert "finite" in err["error"]["message"]

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

    def test_forced_outcome_out_of_range(self, capsys):
        code, err = run_cli_error(
            ["run", "--variant", "four", "--forced", "4,0"], capsys
        )
        assert code == 2
        assert "forced outcome" in err["error"]["message"]

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
