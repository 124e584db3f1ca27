"""Each measurement projects the state onto its basis exactly once; ``run``
projects a whole block of trials at once, in every format, and the oracle
projects each stack of secrets once.

Projections are counted by the number of measured qubits. Alice's (5) go
through ``statevec.LiftedBasis.project``, her measurement as a gather on the
secret rows; Charlie's Hadamard projections (1) go through
``statevec._Hadamard.project``, the halves of each row. A dense
``OrthonormalBasis.project`` builds each ``LiftedBasis`` once; every
``LiftedBasis`` is built before counting starts, and any dense projection
after that is counted as ``"dense"``. The span of each projection is
checked once, by ``statevec._check_span``, which is counted the same way.
"""

import collections
import sys

import pytest

from ghzsplit import statevec
from ghzsplit.cli import main
from ghzsplit.oracle import derive_table, verify_span, verify_table
from ghzsplit.protocol import (
    ENCODINGS,
    TRIAL_BLOCK,
    SecretSpec,
    Variant,
    _alice_measurement,
    build_alice_basis,
    run_protocol,
)


def _rebind(monkeypatch, name, replacement):
    """Put ``replacement`` in every ghzsplit module that holds ``statevec.<name>``."""
    original = getattr(statevec, name)
    for module_name, module in list(sys.modules.items()):
        held = vars(module).get(name)
        if module_name.startswith("ghzsplit") and held is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def projections(monkeypatch):
    for variant in Variant:  # every LiftedBasis, built by a dense projection
        for encoding in ENCODINGS:
            _alice_measurement(variant, build_alice_basis(variant, encoding))
    counts = collections.Counter()
    hadamard = statevec._Hadamard.project
    gather, dense = statevec.LiftedBasis.project, statevec.OrthonormalBasis.project

    def counting_hadamard(self, rows):
        counts[1] += 1
        return hadamard(self, rows)

    def counting_gather(self, rows):
        counts[5] += 1
        return gather(self, rows)

    def counting_dense(self, rows):
        counts["dense"] += 1
        return dense(self, rows)

    monkeypatch.setattr(statevec._Hadamard, "project", counting_hadamard)
    monkeypatch.setattr(statevec.LiftedBasis, "project", counting_gather)
    monkeypatch.setattr(statevec.OrthonormalBasis, "project", counting_dense)
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


@pytest.mark.parametrize(
    "fmt, alone", [("csv", 0), ("text", 0), ("json", 1)], ids=["csv", "text", "json"]
)
def test_run_projects_once_per_party_per_block(fmt, alone, projections, capsys):
    # three blocks: TRIAL_BLOCK, TRIAL_BLOCK and 1 trials, each one stacked
    # projection onto Alice's basis and one onto Charlie's; JSON also makes
    # trial 0 alone by run_protocol, for its template
    trials = str(2 * TRIAL_BLOCK + 1)
    main(["run", "--variant", "three-b", "--trials", trials, "--format", fmt])
    assert capsys.readouterr().out
    assert projections == {5: 3 + alone, 1: 3 + alone}


def test_integer_operators_take_one_projection_per_basis(fresh_caches, projections):
    # the secret's unit kets, stacked, projected onto Alice's canonical
    # basis once per variant; derive_table itself projects nothing
    derive_table(Variant.THREE_A)
    assert projections == {5: 1}
    derive_table(Variant.THREE_A)
    assert projections == {5: 1}
    # the literal encoding reads the canonical operators through its
    # outcome map: only the test secrets and their Hadamard are projected
    verify_table(Variant.THREE_A, encoding="literal")
    assert projections == {5: 2, 1: 1}
    # both are kept: a repeat, in either encoding, projects nothing
    verify_table(Variant.THREE_A, encoding="literal")
    verify_table(Variant.THREE_A)
    derive_table(Variant.THREE_A)
    assert projections == {5: 2, 1: 1}


def test_oracle_projects_each_test_secret_once_per_basis(
    fresh_caches, projections
):
    # the 14 test secrets (4 unit, 10 seeded random) as one stacked projection
    # onto Alice's basis, then one stacked Hadamard projection for all rows,
    # once per (variant, basis): a repeat projects nothing
    derive_table(Variant.THREE_A)  # builds the integer operators if need be
    projections.clear()
    verify_table(Variant.THREE_A)
    assert projections == {5: 1, 1: 1}
    projections.clear()
    verify_table(Variant.THREE_A)
    assert projections == {}


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


def test_oracle_checks_each_span_once(fresh_caches, span_checks):
    # the stacked projection of the 14 test secrets onto Alice's basis once,
    # then the Hadamard projection of Charlie's qubit for all 32 rows x 14
    # secrets; building the integer operators checks no span, and neither
    # does a repeat, which reuses the test secrets' states
    verify_table(Variant.THREE_A)
    assert span_checks == [(14, 16), (32 * 14, 2)]
    verify_table(Variant.THREE_A)
    assert span_checks == [(14, 16), (32 * 14, 2)]


def test_no_dense_alice_projection_once_built(monkeypatch, capsys):
    # once each (variant, basis) has its LiftedBasis, runs and audits make
    # no dense projection onto Alice's basis
    argvs = [
        ["run", "--variant", v.value, "--trials", "3", "--format", fmt]
        for v in Variant
        for fmt in ("csv", "json")
    ] + [["verify", "--all"], ["verify", "--all", "--paper-literal"]]
    for argv in argvs:  # builds every LiftedBasis these use
        main(argv)
    for v in Variant:
        verify_span(v)
    dense = []
    original = statevec.OrthonormalBasis.project

    def counting(self, rows):
        dense.append(rows.shape)
        return original(self, rows)

    monkeypatch.setattr(statevec.OrthonormalBasis, "project", counting)
    for argv in argvs:
        main(argv)
    for v in Variant:
        verify_span(v)
    assert capsys.readouterr().out
    assert dense == []
