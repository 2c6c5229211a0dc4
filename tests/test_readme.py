"""The README's examples run as shown: each `lambert-tsallis ...` line of
its shell blocks through the CLI, and each commented value of its library
sketch."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from lambert_tsallis.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# the README documents this command's exit code: z lies below z_b
EXIT_ONE = {"classify wq --q '3-2*sqrt(2)' --z -10"}


def _blocks(language):
    """The lines of each fenced block in the given language."""
    return [b.splitlines() for b in re.findall(rf"^```{language}\n(.*?)^```", README,
                                               re.MULTILINE | re.DOTALL)]


def _commands():
    """(command line, the comment lines right below it): those show its output."""
    out = []
    for lines in _blocks("sh"):
        for i, line in enumerate(lines):
            if not line.startswith("lambert-tsallis "):
                continue
            shown = []
            for below in lines[i + 1:]:
                if not below.startswith("# "):
                    break
                shown.append(below[2:])
            out.append((line, shown))
    return out


def test_the_readme_has_examples():
    assert len(_commands()) >= 15
    assert ("lambert-tsallis eval wq --q 2 --z 1", ["0.5", "residual=0 iterations=1"]) \
        in _commands()


# ids are the command lines, so an example added to the README renames no other test
@pytest.mark.parametrize("line, shown", _commands(), ids=[line for line, _ in _commands()])
def test_readme_command(capsys, line, shown):
    argv = shlex.split(line, comments=True)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (1 if shlex.join(argv) in EXIT_ONE else 0), line
    if shown:
        assert out.splitlines() == shown


def _sketch():
    """(code, comment) per line of the library sketch; comment may be ''."""
    (lines,) = [b for b in _blocks("python") if "import lambert_tsallis as lt" in b]
    out = []
    for line in lines:
        code, _, comment = line.partition("#")
        if code.strip():
            out.append((code.strip(), comment.strip()))
    return out


def test_readme_library_sketch():
    """Runs the sketch line by line.  Each commented expression's comment
    starts with the value's repr or str, alone or followed by ': ' and a
    note."""
    ns = {}
    checked = 0
    for code, comment in _sketch():
        if not (comment and isinstance(ast.parse(code).body[0], ast.Expr)):
            exec(code, ns)
            continue
        value = eval(code, ns)
        shown = comment.split(": ")[0]
        assert shown in (repr(value), str(value)), (code, comment, value)
        checked += 1
    assert checked == 11
