"""Each measurement projects the state onto its basis exactly once; ``run``
with csv or text output projects a whole chunk of trials at once.

Every basis projection goes through ``statevec._split_measured``; wrapping it
in each ghzsplit module that holds it counts projections by the number of
measured qubits (5 for Alice's basis, 1 for Charlie's Hadamard basis). The
span of each projection is checked once, by ``statevec._check_span``, which
is counted the same way.
"""

import collections
import sys

import pytest

from ghzsplit import statevec
from ghzsplit.cli import main
from ghzsplit.oracle import verify_span, verify_table
from ghzsplit.protocol import TRIAL_CHUNK, SecretSpec, Variant, run_protocol


def _rebind(monkeypatch, name, replacement):
    """Put ``replacement`` in every ghzsplit module that holds ``statevec.<name>``."""
    original = getattr(statevec, name)
    for module_name, module in list(sys.modules.items()):
        held = vars(module).get(name)
        if module_name.startswith("ghzsplit") and held is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def projections(monkeypatch):
    counts = collections.Counter()
    original = statevec._split_measured

    def counting(state, targets):
        counts[len(targets)] += 1
        return original(state, targets)

    _rebind(monkeypatch, "_split_measured", counting)
    return counts


@pytest.fixture
def span_checks(monkeypatch):
    calls = []
    original = statevec._check_span

    def counting(probs):
        calls.append(probs.shape)
        return original(probs)

    _rebind(monkeypatch, "_check_span", counting)
    return calls


SECRET = SecretSpec(Variant.THREE_A, (0.5, 0.5j, -0.5, 0.5))


@pytest.mark.parametrize(
    "how", [{"seed": 3}, {"forced": (5, 1)}],
    ids=["sampled", "forced"],
)
def test_a_trial_projects_once_per_party(how, projections):
    run_protocol(SECRET, **how)
    assert projections == {5: 1, 1: 1}


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_run_projects_once_per_party_per_chunk(fmt, projections, capsys):
    # three chunks: TRIAL_CHUNK, TRIAL_CHUNK and 1 trials, each one stacked
    # projection onto Alice's basis and one onto Charlie's
    trials = str(2 * TRIAL_CHUNK + 1)
    main(["run", "--variant", "three-b", "--trials", trials, "--format", fmt])
    assert capsys.readouterr().out
    assert projections == {5: 3, 1: 3}


def test_json_run_projects_once_per_party_per_trial(projections, capsys):
    # the JSON document is built from one run_protocol call per trial
    main(["run", "--variant", "three-b", "--trials", "5", "--format", "json"])
    assert capsys.readouterr().out
    assert projections == {5: 5, 1: 5}


def test_oracle_projects_each_test_secret_once_per_call(projections):
    # the 14 test secrets (4 unit, 10 seeded random) as one stacked projection
    # onto Alice's basis, then one stacked Hadamard projection per row
    verify_table(Variant.THREE_A)
    assert projections == {5: 1, 1: 32}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_span_check_projects_its_secrets_as_one_stack(variant, projections):
    verify_span(variant)
    assert projections == {5: 1}


@pytest.mark.parametrize(
    "how", [{"seed": 3}, {"forced": (5, 1)}],
    ids=["sampled", "forced"],
)
def test_a_trial_checks_each_span_once(how, span_checks):
    run_protocol(SECRET, **how)
    assert span_checks == [(1, 16), (1, 2)]  # Alice's outcomes, then Charlie's


def test_oracle_checks_each_span_once(span_checks):
    # the stacked projection of the 14 test secrets onto Alice's basis once,
    # then each row's Hadamard projection of Charlie's qubit
    verify_table(Variant.THREE_A)
    assert span_checks == [(14, 16)] + [(14, 2)] * 32
