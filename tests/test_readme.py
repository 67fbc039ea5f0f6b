"""The README's examples run as written.

Its ``>>>`` block runs as a doctest, and every ``$ gausdisk ...`` block is
compared with the command's output line by line, where a ``...`` line
stands for any number of output lines.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from gausdisk.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```$", README, re.S | re.M)
SESSIONS = [block for block in BLOCKS if block.startswith(">>> ")]
COMMANDS = [block for block in BLOCKS if block.startswith("$ gausdisk ")]


def test_readme_has_the_examples():
    assert SESSIONS and len(COMMANDS) >= 4


@pytest.mark.parametrize("block", SESSIONS)
def test_doctest_block(block):
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


@pytest.mark.parametrize("block", COMMANDS, ids=lambda b: b.splitlines()[0][2:])
def test_command_output(capsys, block):
    command, *expected = block.splitlines()
    argv = shlex.split(command)[2:]
    assert main(argv) == 0
    out = capsys.readouterr().out
    pattern = "".join(
        r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in expected
    )
    assert re.fullmatch(pattern, out), f"{command!r} no longer prints:\n" + "\n".join(expected)
