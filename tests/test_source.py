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


# the functions that compare a tolerance: each reads it by the one rule first
TOLERANCE_USERS = {
    ("polyroots", "find_roots"),
    ("states", "rays_equal"),
    ("altsep", "decide_separability"),
}


def _tolerance_comparisons(path: Path):
    """(function, line of its first tol = _tolerance(tol), its comparisons that hold tol) for
    each function in the file that compares tol, but states._tolerance."""
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        compares = [
            node
            for node in ast.walk(function)
            if isinstance(node, ast.Compare)
            and any(isinstance(n, ast.Name) and n.id == "tol" for n in ast.walk(node))
        ]
        reads = [s.lineno for s in function.body if ast.unparse(s) == "tol = _tolerance(tol)"]
        if compares and (path.stem, function.name) != ("states", "_tolerance"):
            yield function.name, min(reads, default=None), compares


def test_every_tolerance_is_read_by_the_one_rule_before_it_is_compared():
    users, late, range_tests = set(), [], []
    for path in SOURCES:
        for function, read, compares in _tolerance_comparisons(path):
            users.add((path.stem, function))
            if read is None or read > min(c.lineno for c in compares):
                late.append((path.stem, function))
            # tol beside a number is a range test, which states._tolerance alone makes
            range_tests += [
                (path.stem, function, c.lineno)
                for c in compares
                for operands in [[c.left, *c.comparators]]
                if any(isinstance(o, ast.Name) and o.id == "tol" for o in operands)
                and any(isinstance(o, (ast.Constant, ast.UnaryOp)) for o in operands)
            ]
    # a re-added test such as if tol < 0 fails here; each user still reads tol by the rule
    assert late == [] and range_tests == []
    assert users == TOLERANCE_USERS
