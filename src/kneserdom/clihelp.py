"""The help and usage text of `kneserdom`, laid out as argparse lays it
out at the terminal's width, from the option rows that `cli` parses by.

`cli` imports this module only to print a help or a usage error, so a call
that parses cleanly loads neither it nor `shutil` and `textwrap`.
"""

from __future__ import annotations

import shutil
import textwrap

_PREFIX = "usage: "


def _width() -> int:
    return shutil.get_terminal_size().columns - 2


def _invocation(flag: str, spec: dict) -> str:
    """An option's flag and value name, or a positional's value name: the
    choices in braces, else the flag in capitals."""
    choices = spec.get("choices")
    value = ("{" + ",".join(map(str, choices)) + "}" if choices is not None
             else flag.lstrip("-").upper())
    if flag[0] != "-":
        return value
    return flag if "action" in spec else f"{flag} {value}"


def usage(prog: str, rows) -> str:
    """The usage line, wrapped where argparse wraps it: after the program
    name when that is short, else below it. Optional options are in
    brackets. The top level, whose row is a positional, shows that the
    subcommand's options follow it."""
    width = _width()
    parts = ["[-h]"]
    for flag, spec in rows:
        if flag[0] != "-":
            return f"{_PREFIX}{prog} [-h] {_invocation(flag, spec)} ...\n"
        if spec.get("required"):
            parts += _invocation(flag, spec).split()
        else:
            parts.append(f"[{_invocation(flag, spec)}]")
    text = " ".join([prog, *parts])
    if len(_PREFIX) + len(text) <= width:
        return f"{_PREFIX}{text}\n"
    short = len(_PREFIX) + len(prog) <= 0.75 * width
    indent = " " * (len(_PREFIX) + (len(prog) + 1 if short else 0))
    lines: list[str] = []
    line: list[str] = []
    length = len(_PREFIX) - 1
    for part in [prog, *parts] if short else parts:
        if line and length + 1 + len(part) > width:
            lines.append(" ".join(line))
            line, length = [], len(indent) - 1
        line.append(part)
        length += len(part) + 1
    lines.append(" ".join(line))
    text = ("\n" + indent).join(lines)
    if not short:
        text = prog + "\n" + indent + text
    return f"{_PREFIX}{text}\n"


def help_text(prog: str, rows, commands: dict) -> str:
    """The usage, then each positional and option with its help beside it
    or, for a long one, below it; the top level then lists `commands`."""
    width = _width()
    positionals = [(_invocation(flag, spec), spec.get("help"))
                   for flag, spec in rows if flag[0] != "-"]
    options = [("-h, --help", "show this help message and exit")]
    options += [(_invocation(flag, spec), spec.get("help"))
                for flag, spec in rows if flag[0] == "-"]
    column = min(max(len(name) for name, _ in positionals + options) + 4,
                 min(24, max(width - 20, 4)))

    def entry(name: str, text: str | None) -> str:
        if not text:
            return f"  {name}\n"
        lines = textwrap.wrap(" ".join(text.split()), max(width - column, 11))
        head = (f"  {name:<{column - 4}}  " if len(name) <= column - 4
                else f"  {name}\n" + " " * column)
        return head + ("\n" + " " * column).join(lines) + "\n"

    blocks = [usage(prog, rows)]
    if positionals:
        blocks.append("positional arguments:\n"
                      + "".join(entry(*item) for item in positionals))
    blocks.append("options:\n" + "".join(entry(*item) for item in options))
    if positionals:
        blocks.append("subcommands:\n" + "".join(
            f"  {name:12}{row.help}\n" for name, row in commands.items()))
    return "\n".join(blocks)
