"""The README's examples run: the library quickstart prints what its comments say,
and every ``flexmarket`` command of the command-line block exits 0."""

import contextlib
import io
import re
import shlex

from flexmarket.cli import main

from conftest import DATA

README = DATA.parent / "README.md"


def test_the_library_quickstart_prints_its_comments(monkeypatch):
    section = README.read_text().split("\n## Library quickstart\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(.*)$", code, re.MULTILINE)]
    assert expected
    monkeypatch.chdir(DATA.parent)  # the block names its data files from the repository root
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    assert printed.getvalue().splitlines() == expected


def test_the_command_line_block_runs_clean(monkeypatch, tmp_path, capsys):
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("flexmarket ")
    ]
    assert any("--trades" in args for args in commands)  # the audit is one of them
    monkeypatch.chdir(DATA.parent)  # the block names its data files from the repository root
    for args in commands:
        args = [arg.replace("/tmp/replay", str(tmp_path)) for arg in args[1:]]
        assert main(args) == 0, (args, capsys.readouterr().err)
