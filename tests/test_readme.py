"""Every ``rotsurf4`` command in the README's fenced blocks runs through
``cli.main`` and exits 0, and every fenced ``python`` block runs, so the
README cannot drift from the parser or the library."""

import re
import shlex
from pathlib import Path

import pytest

from rotsurf4.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_commands(text: str) -> list[str]:
    """The lines of the fenced blocks of ``text`` that start with ``rotsurf4 ``,
    each with its backslash continuations joined."""
    commands, fenced, pending = [], False, ""
    for line in text.splitlines():
        if line.startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        if line.startswith("rotsurf4 "):
            commands.append(line)
    return commands


def fenced_python(text: str) -> list[str]:
    """The bodies of the fenced ``python`` blocks of ``text``."""
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


COMMANDS = fenced_commands(README.read_text())
PYTHON_BLOCKS = fenced_python(README.read_text())


def test_fenced_commands_joins_continuations():
    text = "```\n# a comment\nrotsurf4 msc \\\n    --alpha 1 --beta 2\npytest\n```\nrotsurf4 x\n"
    assert fenced_commands(text) == ["rotsurf4 msc --alpha 1 --beta 2"]


def test_readme_names_every_subcommand():
    assert ({shlex.split(command)[1] for command in COMMANDS}
            == {"invariants", "octet", "verify", "msc", "export", "plot"})


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_exits_0(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command, comments=True)[1:]) == 0, capsys.readouterr().err


def test_fenced_python_takes_only_python_blocks():
    text = "```\nrotsurf4 msc\n```\n```python\nx = 1\n\ny = x\n```\n"
    assert fenced_python(text) == ["x = 1\n\ny = x\n"]


def test_readme_python_blocks_run():
    assert PYTHON_BLOCKS
    for block in PYTHON_BLOCKS:
        exec(compile(block, str(README), "exec"), {})
