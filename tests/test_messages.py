"""Error messages show a caller's value through ``errors.shown``, never through a
bare ``!r`` field, which raises a ValueError for an int too long to write out."""

from pathlib import Path

import flexmarket

SOURCE = Path(flexmarket.__file__).parent


def test_no_message_formats_a_value_with_a_bare_repr():
    found = [
        f"{path.name}:{number}"
        for path in sorted(SOURCE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "!r}" in line
    ]
    assert found == []
