"""The README's library quickstart runs and prints what its comments say."""

import contextlib
import io
import re

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
