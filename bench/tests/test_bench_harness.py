import contextlib
import io
import json
import re
import sys

import pytest

import checks
import run
import tracer as tracing
from conftest import BENCH
from workloads import RUN_SIZES, WORKLOADS

import ghzsplit
from ghzsplit import cli, oracle

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- metric names ----------------------------------------------------------


def test_metric_names_are_well_formed():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(tracing.LAYER_METRICS) + list(run.END_TO_END_UNITS)
    assert [n for n in names if not NAME.fullmatch(n)] == []
    for group in ([w["name"] for w in spec["workloads"]],
                  [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]):
        assert len(set(group)) == len(group)


def test_spec_matches_what_the_benchmark_reports():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_the_children():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has child [6, 7]
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("protocol.run_protocol", 1.0, 4.0, 0, 0),
        ("protocol.run_protocol", 5.0, 9.0, 0, 0),
        ("statevec.fidelity", 6.0, 7.0, 2, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("statevec.fidelity", 1.0, 4.0, 0, 0),
        ("statevec.fidelity", 3.0, 6.0, 0, 0),
        ("statevec.fidelity", 8.0, 12.0, 0, 0),  # runs past its parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_span_metrics_aggregate_a_slice_of_a_longer_trace():
    earlier = [("cli.main", 0.0, 1.0, -1, 0)]
    spans = earlier + [
        ("cli.main", 10.0, 20.0, -1, 1),
        ("protocol.run_protocol", 11.0, 13.0, 1, 1),
        ("protocol.run_protocol", 14.0, 18.0, 1, 1),
        ("statevec.fidelity", 15.0, 16.0, 3, 1),
    ]
    m = tracing.span_metrics(spans[1:], id_offset=1)
    assert m["cli.main.calls"] == 1
    assert m["cli.main.total_s"] == 10.0
    assert m["cli.main.self_s"] == 4.0
    assert m["protocol.run_protocol.calls"] == 2
    assert m["protocol.run_protocol.self_s"] == 5.0
    assert m["protocol.run_protocol.p50_us"] == 2e6
    assert m["protocol.run_protocol.p99_us"] == 4e6
    assert m["oracle.verify_table.calls"] == 0


# -- interception --------------------------------------------------------------


def _ghzsplit_namespaces():
    return [m for n, m in sys.modules.items() if n.split(".")[0] == "ghzsplit"]


def test_every_namespace_holding_a_traced_function_is_rebound():
    originals = {
        id(getattr(sys.modules[f"ghzsplit.{layer}"], attr)): f"{layer}.{attr}"
        for layer, attrs in tracing.TRACED.items()
        for attr in attrs
        if "." not in attr
    }
    before = sum(
        id(v) in originals for m in _ghzsplit_namespaces() for v in vars(m).values()
    )
    with tracing.Tracer():
        leftover = [
            f"{m.__name__}.{k}"
            for m in _ghzsplit_namespaces()
            for k, v in vars(m).items()
            if id(v) in originals
        ]
        assert hasattr(ghzsplit.PauliString.matrix, "__wrapped__")
    assert leftover == []
    after = sum(
        id(v) in originals for m in _ghzsplit_namespaces() for v in vars(m).values()
    )
    assert after == before  # uninstall puts every original back


def test_every_listed_function_is_intercepted_when_another_module_calls_it():
    tracer = tracing.Tracer()
    with tracer:
        _cli(["run", "--variant", "three-a", "--trials", "2", "--format", "json"])
        _cli(["run", "--variant", "four", "--forced", "1,0"])
        _cli(["verify", "--variant", "four"])
        _cli(["export", "--variant", "four", "--what", "table", "--source", "derived"])
        spec = ghzsplit.SecretSpec(ghzsplit.Variant.FOUR, (0.5, 0.5))
        ghzsplit.outcome_distribution(spec)
        oracle.verify_span(ghzsplit.Variant.FOUR, valid_trials=1, invalid_trials=1)
    spans = tracer.spans
    names = {s[0] for s in spans}
    listed = {f"{layer}.{a}" for layer, attrs in tracing.TRACED.items() for a in attrs}
    assert listed <= names, listed - names
    # protocol.run_protocol calls measure_in_basis through its own import
    parents = {
        spans[s[3]][0] for s in spans
        if s[0] == "statevec.measure_in_basis" and s[3] >= 0
    }
    assert "protocol.run_protocol" in parents
    assert tracer.counters["statevec.StateVector.validations"] > 0
    assert tracer.counters["oracle.candidates_tried"] == 2 * 8 * 256
    assert tracer.counters["oracle.solutions_found"] == 2 * 8 * 8


# -- output checks -------------------------------------------------------------


def test_checker_accepts_the_program_output():
    for argv in (
        ["verify", "--all"],
        ["verify", "--all", "--paper-literal"],
        ["export", "--variant", "three-b", "--what", "table", "--source", "derived"],
        ["run", "--variant", "three-b", "--trials", "20", "--seed", "3", "--format", "json"],
        ["run", "--variant", "three-b", "--trials", "20", "--seed", "3", "--format", "csv"],
    ):
        code, out = _cli(argv)
        checks.check(argv, code, out)


def test_checker_rejects_a_corrupted_verify_document():
    argv = ["verify", "--all"]
    code, out = _cli(argv)
    doc = json.loads(out)
    row = next(r for r in doc["reports"][0]["rows"] if r["status"] == "MATCH")
    row["status"] = "MISMATCH"
    with pytest.raises(checks.CheckError, match="status counts"):
        checks.check(argv, code, json.dumps(doc))

    doc = json.loads(out)
    doc["reports"][2]["status_counts"]["MATCH"] -= 1
    with pytest.raises(checks.CheckError):
        checks.check(argv, code, json.dumps(doc))

    with pytest.raises(checks.CheckError, match="exit status"):
        checks.check(argv, 0, out)


def _csv(variant, outcome, bit, correction, fidelity) -> str:
    header = ",".join(checks.RUN_CSV_HEADER)
    return (f"{header}\n0,{variant},{outcome},{outcome:04b},{bit},"
            f"{correction},{fidelity!r}\n")


def test_checker_rejects_a_low_fidelity_trial_on_a_match_row():
    argv = ["run", "--variant", "three-a", "--trials", "1", "--seed", "1", "--format", "csv"]
    with pytest.raises(checks.CheckError, match="recovers the secret"):
        checks.check(argv, 1, _csv("three-a", 4, 0, "I*X*X", 0.5))
    checks.check(argv, 0, _csv("three-a", 4, 0, "I*X*X", 1.0))


def test_defective_three_b_rows_are_reported_output_not_failures():
    argv = ["run", "--variant", "three-b", "--trials", "1", "--seed", "1", "--format", "csv"]
    checks.check(argv, 1, _csv("three-b", 4, 1, "I*Z*X", 0.25))
    with pytest.raises(checks.CheckError, match="exit status"):
        checks.check(argv, 0, _csv("three-b", 4, 1, "I*Z*X", 0.25))
    with pytest.raises(checks.CheckError, match="recovers the secret"):
        checks.check(argv, 1, _csv("three-b", 4, 0, "I*I*X", 0.25))


# -- workloads -----------------------------------------------------------------


def test_workloads_are_a_function_of_the_seed():
    for make in WORKLOADS.values():
        assert make(5) == make(5)
    assert WORKLOADS["trials-csv"](5) != WORKLOADS["trials-csv"](6)


def test_trial_workloads_share_calls_and_span_two_orders_of_magnitude():
    csv_ops, json_ops = WORKLOADS["trials-csv"](9), WORKLOADS["trials-json"](9)
    assert [op.argv[:-1] for op in csv_ops] == [op.argv[:-1] for op in json_ops]
    assert max(RUN_SIZES) >= 100 * min(RUN_SIZES)
    assert [op.argv[2] for op in csv_ops[:3]] == ["three-a", "three-b", "four"]


def test_a_checked_pass_times_the_reference_on_the_same_operations():
    import child
    import passes

    reference = child.set_up("ghzsplit_ref")
    ops = [op for op in WORKLOADS["trials-csv"](2) if op.items == 10]
    p = passes.run_pass(cli, ops, check=True, reference=reference)
    assert p.failures == {}
    assert p.seconds > 0 and p.ref_seconds > 0
    assert p.digests == passes.run_pass(cli, ops, check=False).digests
