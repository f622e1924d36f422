"""The README's "Command line" examples, run through ``cli.main``.

Every ``nilhom ...`` line of the block must exit 0, or the code its
``# exit N`` comment names, and every value a ``# ->`` line under it
shows must be in the document it prints.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from nilhom import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SHOWN = re.compile(r'"(\w+)": (\[[^\]]*\]|"[^"]*"|true|false|null|-?\d+)')


def command_line_examples():
    """(argv, exit code, shown values) for each command of the block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("nilhom "):
            code = re.search(r"#\s*exit (\d+)", line)
            argv = shlex.split(line, comments=True)[1:]
            examples.append((argv, int(code.group(1)) if code else 0, {}))
        elif line.startswith("# ->"):
            examples[-1][2].update((k, json.loads(v))
                                   for k, v in SHOWN.findall(line))
    return examples


EXAMPLES = command_line_examples()


def test_the_block_is_found_with_its_shown_values():
    assert len(EXAMPLES) >= 9
    assert sum(1 for _, code, _ in EXAMPLES if code) >= 1
    assert sum(1 for _, _, shown in EXAMPLES if shown) >= 3


@pytest.mark.parametrize("argv,code,shown", EXAMPLES,
                         ids=[f"{i}-{ex[0][0]}" for i, ex in enumerate(EXAMPLES)])
def test_readme_command_runs_as_documented(capsys, argv, code, shown):
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    doc = json.loads(out)
    for key, value in shown.items():
        assert doc[key] == value, key
