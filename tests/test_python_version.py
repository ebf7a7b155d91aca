"""Every Python file parses as Python 3.10, the oldest the package supports, writes it.

Python 3.10 is not always at hand to run the suite; this catches newer
grammar, such as ``except*``, under any later interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)  # requires-python in pyproject.toml
SOURCES = sorted(
    path for top in ("src", "tests", "bench", "demos") for path in (ROOT / top).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_file_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_grammar_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
