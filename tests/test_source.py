"""Checks on the library's source text."""

from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stellar").glob("*.py"))


def test_no_library_line_is_longer_than_100_characters():
    long = [
        f"{path.name}:{number} ({len(line)})"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert SOURCES and long == []
