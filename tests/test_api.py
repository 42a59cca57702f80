"""The package's export list and source-wide rules."""

import ast
from pathlib import Path

import singmat


def test_all_names_resolve_without_duplicates():
    assert len(singmat.__all__) == len(set(singmat.__all__))
    for name in singmat.__all__:
        assert hasattr(singmat, name), name


def test_no_assert_statements_in_the_package():
    """Checks must survive python -O, which strips assert statements."""
    found = []
    for path in sorted(Path(singmat.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
