"""Hostile integer inputs, one whole process each.

Every command line below has one integer flag or JSON size replaced by
a boundary value.  Each template takes the 4,300-digit value, the
longest integer ``str`` converts, and two more values drawn with a fixed
seed.  Every case must exit 0 or 2 within ``TIMEOUT_S`` seconds, with no
traceback on stderr.  The cases run one process at a time.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 10
LONGEST = "9" * 4300
VALUES = ["-1", "0", "1", "2", str(10 ** 6), str(sys.maxsize),
          str(sys.maxsize + 1)]

HEIS = '{"type":"free_nilpotent","rank":2,"class":2}'
TRIANGLE = ('{"nvars":2,"ideal":[[{"coeff":"1","exp":[0,0]},'
            '{"coeff":"1","exp":[1,0]},{"coeff":"1","exp":[0,1]}]]}')
ACTION = ('{"type":"action","group":%s,"generators":[[["2","1"],["1","1"]]]}'
          % HEIS)
# "%s" marks the integer that is replaced
TEMPLATES = [
    ["betti", "--group", '{"type":"free_nilpotent","rank":%s,"class":2}'],
    ["betti", "--group", '{"type":"free_nilpotent","rank":3,"class":%s}'],
    ["filtration", "--j", "%s", "--group", HEIS],
    ["filtration", "--j", "3", "--group",
     '{"type":"free_nilpotent","rank":2,"class":%s}'],
    ["filtration", "--j", "2", "--group",
     '{"type":"free_nilpotent","rank":%s,"class":3}'],
    ["pages", "--group",
     '{"type":"central_extension","q_rank":%s,"a_rank":0,"pairing":[]}'],
    ["sigma", "--module", TRIANGLE, "--witness", "[1,0]", "--degree-bound", "%s"],
    ["sigma", "--module", '{"nvars":%s,"ideal":[]}'],
    ["tame", "--module", TRIANGLE, "--m", "%s"],
    ["tame", "--module", '{"nvars":%s,"ideal":[]}', "--m", "2"],
    ["tame", "--sigma-complement", "[]", "--nvars", "%s", "--m", "2"],
    ["vbscan", "--j", "%s", "--m-max", "2", "--group", ACTION],
    ["vbscan", "--j", "1", "--m-max", "%s", "--group", ACTION],
    ["report", "--c", "%s", "--n", "2", "--sigma-complement", "[]"],
    ["report", "--c", "2", "--n", "%s", "--sigma-complement", "[]"],
]


def _cases():
    rng = random.Random(1)
    for t, template in enumerate(TEMPLATES):
        for value in [LONGEST] + rng.sample(VALUES, 2):
            shown = value if len(value) < 30 else f"{len(value)}-digits"
            yield pytest.param([a % value if "%s" in a else a for a in template],
                               id=f"{template[0]}{t}-{shown}")


@pytest.mark.parametrize("argv", list(_cases()))
def test_a_boundary_integer_exits_0_or_2(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # an overrun is killed and fails the case
    proc = subprocess.run([sys.executable, "-m", "nilhom.cli", *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=env, timeout=TIMEOUT_S, text=True)
    assert proc.returncode in (0, 2), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
