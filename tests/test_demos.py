"""Every demo prints the same bytes, and exits the same way, as it does on the
frozen ghzsplit 0.1.0 copy in ``bench/reference/ghzsplit_ref``.

Each demo runs in its own interpreter twice: once on the package in ``src``,
once with ``ghzsplit`` (and its submodules) aliased to the reference copy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# runs the demo named by argv[1] with ``import ghzsplit`` bound to the reference
ON_REFERENCE = """\
import runpy, sys
import ghzsplit_ref
for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "ghzsplit_ref":
        sys.modules["ghzsplit" + name[len("ghzsplit_ref"):]] = module
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def _run(argv: list[str], pythonpath: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(pythonpath)}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=env, cwd=ROOT, timeout=120
    )


def test_demos_are_found():
    assert DEMOS  # an empty glob would leave the test below with no cases


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_reference(demo):
    ours = _run([str(demo)], ROOT / "src")
    ref = _run(["-c", ON_REFERENCE, str(demo)], REFERENCE)
    assert ref.returncode == 0, ref.stderr.decode()
    assert ours.stdout  # a demo that prints nothing shows nothing
    assert (ours.returncode, ours.stdout) == (ref.returncode, ref.stdout), (
        ours.stderr.decode()
    )
