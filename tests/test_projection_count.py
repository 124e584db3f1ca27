"""Each measurement projects the state onto its basis exactly once; ``run``
with csv or text output projects a whole chunk of trials at once.

Every basis projection goes through ``statevec._split_measured``; wrapping it
in each ghzsplit module that holds it counts projections by the number of
measured qubits (5 for Alice's basis, 1 for Charlie's Hadamard basis).
"""

import collections
import sys

import pytest

from ghzsplit import statevec
from ghzsplit.cli import main
from ghzsplit.oracle import verify_table
from ghzsplit.protocol import TRIAL_CHUNK, SecretSpec, Variant, run_protocol


@pytest.fixture
def projections(monkeypatch):
    counts = collections.Counter()
    original = statevec._split_measured

    def counting(state, targets):
        counts[len(targets)] += 1
        return original(state, targets)

    for name, module in list(sys.modules.items()):
        held = vars(module).get("_split_measured")
        if name.startswith("ghzsplit") and held is original:
            monkeypatch.setattr(module, "_split_measured", counting)
    return counts


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
    verify_table(Variant.THREE_A)
    assert projections[5] == 14  # 4 unit secrets plus 10 seeded random ones
