"""The `$ qspivey ...` examples of README.md's CLI section, run through
cli.main and checked against the output the README shows, and the python
block of its Library section, which must run without error.

An example is a `$ qspivey ...` line in a ```sh block and the lines after
it, up to the next `$` line or the end of the block.  A `...` line elides
output; `| tail -2` compares the last two lines; `$ echo $?` checks the
exit code of the example before it.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from qspivey import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _section(title):
    """The text of README.md's section `## title`, up to the next `## `."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _examples():
    """(argv, tail, shown lines, shown exit code or None) per example."""
    section = _section("CLI")
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk.startswith("$ "):
                continue
            command, *shown = [line for line in chunk.splitlines() if line]
            if command == "$ echo $?":
                argv, tail, lines, _ = examples.pop()
                examples.append((argv, tail, lines, int(shown[0])))
                continue
            command, _, pipe = command[2:].partition(" | ")
            tail = int(pipe.removeprefix("tail -")) if pipe else None
            assert pipe in ("", f"tail -{tail}"), pipe
            argv = shlex.split(command)
            assert argv[0] == "qspivey", command
            examples.append((argv[1:], tail, shown, None))
    return examples


EXAMPLES = _examples()


def test_the_readme_shows_examples():
    commands = {argv[0] for argv, *_ in EXAMPLES}
    assert {"triangle", "poly", "numbers", "normal-order", "verify", "sweep"} <= commands
    assert any(code is not None for *_, code in EXAMPLES)


@pytest.mark.parametrize(
    "argv, tail, shown, shown_code", EXAMPLES, ids=[" ".join(e[0]) for e in EXAMPLES]
)
def test_a_readme_example_prints_what_it_shows(argv, tail, shown, shown_code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    if tail is not None:
        lines = lines[-tail:]
    if "..." in shown:
        cut = shown.index("...")
        head, rest = shown[:cut], shown[cut + 1 :]
        assert len(lines) >= len(head) + len(rest)
        assert lines[: len(head)] == head
        assert lines[len(lines) - len(rest) :] == rest
    else:
        assert lines == shown
    if shown_code is not None:
        assert code == shown_code


def test_the_library_block_runs():
    [block] = re.findall(r"```python\n(.*?)```", _section("Library"), re.S)
    exec(compile(block, "README.md (Library)", "exec"), {})
