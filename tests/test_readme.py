"""The README's library quick start runs as written, and its CLI table
names each command's flags as build_parser() declares them."""

import argparse
import re
from pathlib import Path

from gkrevival.cli import _COMMANDS, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_executes():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_cli_table_names_each_commands_flags():
    # a row: | `command` | `--flag --flag ...` | dataset |; every dataset
    # command also takes --out, which the table leaves out
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` +\| `(--[a-z- ]+)` +\|", text, re.M)
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [command for command, _ in rows] == list(action.choices)
    for command, flags in rows:
        options = [s for a in action.choices[command]._actions for s in a.option_strings]
        extra = ["--out"] if command in _COMMANDS else []
        assert options == ["-h", "--help"] + flags.split() + extra, command
