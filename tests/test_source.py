"""Checks on the library's source text."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stellar").glob("*.py"))

# the functions that may test finiteness or an array's kind themselves: the one number
# reader, and three that judge what the library computed or read from JSON, not an argument
OWN_NUMBER_TESTS = {
    ("states", "_numbers"),  # the number reader
    ("polyroots", "_aberth"),  # stops on a non-finite iterate
    ("serialize", "_table"),  # refuses to write a non-finite result
    ("serialize", "_float"),  # judges JSON values before numpy would coerce them
}


def test_no_library_line_is_longer_than_100_characters():
    long = [
        f"{path.name}:{number} ({len(line)})"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert SOURCES and long == []


def _number_tests(tree: ast.AST, function: str = "") -> list[tuple[str, int]]:
    """(enclosing function, line) of each isfinite and .dtype.kind under tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Attribute):
            dtype_kind = node.attr == "kind" and getattr(node.value, "attr", None) == "dtype"
            if node.attr == "isfinite" or dtype_kind:
                found.append((function, node.lineno))
        elif isinstance(node, ast.Name) and node.id == "isfinite":
            found.append((function, node.lineno))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        found += _number_tests(node, inner)
    return found


def test_only_the_number_reader_tests_finiteness_or_kind():
    found = [
        (path.stem, function, line)
        for path in SOURCES
        for function, line in _number_tests(ast.parse(path.read_text(encoding="utf-8")))
    ]
    # a new copy of the rule belongs in states._numbers, and each allowed function still has one
    assert [f for f in found if f[:2] not in OWN_NUMBER_TESTS] == []
    assert {f[:2] for f in found} == OWN_NUMBER_TESTS
