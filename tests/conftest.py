import importlib
import sys
from pathlib import Path

import pytest

# frozen copy of ghzsplit 0.1.0, the yardstick for byte-identical output
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

# One summary line is printed per criterion after the run. A criterion passes
# only if every result recorded against it passed; criteria with no recorded
# result (e.g. the test errored before recording) are reported as failed.
ACCEPTANCE_CRITERIA = {
    "C1": "published tables recover every secret on every row",
    "C2": "brute-force oracle agrees with every published row",
    "C3": "bases are orthonormal and the encoding conflict is reported",
    "C4": "channels are qubit permutations of paired GHZ triplets",
    "C5": "secrets outside the restricted class are rejected",
    "C6": "joint outcome probabilities are exactly uniform",
    "C7": "CLI output is byte-identical across invocations",
}

_results: dict[str, list[tuple[str, bool]]] = {}


class AcceptanceRecorder:
    """Records acceptance results so failures still reach the summary."""

    def note(self, criterion: str, label: str, passed) -> bool:
        if criterion not in ACCEPTANCE_CRITERIA:
            raise KeyError(f"unknown acceptance criterion {criterion!r}")
        _results.setdefault(criterion, []).append((label, bool(passed)))
        return bool(passed)

    def check(self, criterion: str, label: str, passed) -> None:
        self.note(criterion, label, passed)
        assert passed, f"{criterion}: {label}"


@pytest.fixture
def acceptance() -> AcceptanceRecorder:
    return AcceptanceRecorder()


@pytest.fixture
def fresh_caches():
    """Empty, before and after the test, every cache that holds built
    ``statevec.Kets`` or what is made from them: the kets themselves,
    Alice's lifted measurements, and the oracle's integer images and
    test-secret states. The test's first call builds them whatever
    ran before, and leaves nothing of its own to later tests."""
    from ghzsplit import oracle, protocol, statevec

    caches = (
        statevec.Kets.every,
        protocol._alice_measurement,
        oracle._class_images,
        oracle._sampled_rows,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture(scope="session")
def reference():
    """Import ``ghzsplit_ref.<name>`` from the frozen reference copy."""

    def load(name: str):
        sys.path.insert(0, str(REFERENCE))
        try:
            return importlib.import_module(f"ghzsplit_ref.{name}")
        finally:
            sys.path.remove(str(REFERENCE))

    return load


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, title in ACCEPTANCE_CRITERIA.items():
        entries = _results.get(criterion, [])
        ok = bool(entries) and all(passed for _, passed in entries)
        line = f"ACCEPTANCE {criterion} {title}: {'PASS' if ok else 'FAIL'}"
        if not ok:
            bad = [label for label, passed in entries if not passed]
            line += " (" + "; ".join(bad or ["no result recorded"]) + ")"
        terminalreporter.write_line(line)
