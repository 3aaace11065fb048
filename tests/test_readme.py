"""The command-line examples of README.md, run in process.

Each ```sh block that starts with `$ hypergeo ...` is one example: the
command (with its backslash continuation lines) and the output shown
under it.  Every JSON object and CSV row shown must equal the output, in
order; a `...` line stands for any number of rows.
"""

import json
import os
import re
import shlex

import pytest

from hypergeo import cli

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _examples():
    """(argv, shown) per example; shown holds the parsed JSON objects, the
    CSV rows and the "..." lines, in order."""
    with open(README) as handle:
        text = handle.read()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines = block.splitlines()
        if not lines[0].startswith("$ hypergeo "):
            continue
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        shown, pending = [], ""
        for line in lines:
            if not (pending or line.startswith("{")):
                shown.append(line)
                continue
            pending += line + "\n"  # a JSON object may span lines
            try:
                shown.append(json.loads(pending))
            except json.JSONDecodeError:
                continue
            pending = ""
        assert not pending, "unterminated JSON in %r" % command
        examples.append((shlex.split(command)[2:], shown))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("argv,shown", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example(argv, shown, capsys, monkeypatch):
    monkeypatch.delenv("HYPERGEO_SEED", raising=False)
    cli.main(argv)
    got = [json.loads(line) if line.startswith("{") else line
           for line in capsys.readouterr().out.splitlines()]
    pos = 0
    for i, item in enumerate(shown):
        if item == "...":
            continue
        if i and shown[i - 1] == "...":
            assert item in got[pos:], item
            pos = got.index(item, pos)
        assert got[pos:pos + 1] == [item]
        pos += 1
    assert shown[-1] == "..." or pos == len(got), got[pos:]
