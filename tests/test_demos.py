"""Each demo prints exactly its recorded output.

The expected stdout of ``demos/<name>.py`` is ``demo_outputs/<name>.txt``;
a change that alters a demo's output must update that file on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "demo_outputs"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    assert DEMOS and DEMOS == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (EXPECTED / f"{name}.txt").read_text()
