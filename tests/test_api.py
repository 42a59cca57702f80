"""The package's export list and source-wide rules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singmat
from singmat.certify import is_singular_exact
from singmat.errors import DimensionMismatch, EmptyVector, InfeasibleDensity, InvalidInput, NotSquare, PairingInfeasible
from singmat.harness import verify_complement
from singmat.matrices import BitMatrix
from singmat.models import sample_pairing
from singmat.modular import PRIME_CEILING, crt_primes, random_prime
from singmat.rng import Stream
from singmat.structure import analyze_vector


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


def _value_error_raisers(node, scope):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield scope
        inner = child.name if isinstance(child, ast.FunctionDef) else scope
        yield from _value_error_raisers(child, inner)


def test_rejected_arguments_raise_invalid_input():
    """A rejected argument raises InvalidInput: a ValueError to library
    callers, exit 2 to the CLI.  The one bare ValueError guards an
    internal invariant of bounds._round_up."""
    assert issubclass(InvalidInput, ValueError)
    found = []
    for path in sorted(Path(singmat.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{scope}" for scope in _value_error_raisers(tree, None)]
    assert found == ["bounds.py:_round_up"]


@pytest.mark.parametrize("error, call", [
    (NotSquare, lambda: is_singular_exact(BitMatrix.zeros(2, 3))),
    (DimensionMismatch, lambda: BitMatrix.from_rows([[1, 0, 1], [0, 1]])),
    (EmptyVector, lambda: analyze_vector(())),
    (InfeasibleDensity, lambda: verify_complement(5, 0, 1, 0)),
    (PairingInfeasible, lambda: sample_pairing(5, 3, 0)),
])
def test_every_rejected_argument_is_a_value_error(error, call):
    """The typed argument errors are InvalidInput too: a ValueError to
    library callers, exit 2 to the CLI."""
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error and isinstance(info.value, InvalidInput)
    assert info.value.exit_code == 2


def test_library_primes_fit_the_int64_eliminations():
    """The int64 eliminations mod p need every product of two residues
    below 2**62; every prime the library draws must be below
    PRIME_CEILING, and PRIME_CEILING small enough for that."""
    assert (PRIME_CEILING - 1) ** 2 < 2**62
    stream = Stream(0)
    primes = crt_primes(50) + [random_prime(stream) for _ in range(200)]
    assert all(2 < p < PRIME_CEILING for p in primes)


def test_importing_the_cli_leaves_scipy_unloaded():
    """scipy is most of the import time; only clopper_pearson needs it."""
    code = "import sys, singmat.cli\nprint('scipy' in sys.modules)\n"
    src = str(Path(singmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["False"], proc.stderr


def _unused_imports(path: Path, exported: frozenset[str] = frozenset()) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """No linter runs on this repository, so an import nothing references
    would go unnoticed; names exported through __all__ count as used."""
    package = Path(singmat.__file__).parent
    found = _unused_imports(package / "__init__.py", frozenset(singmat.__all__))
    for path in sorted([*package.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]):
        if path != package / "__init__.py":
            found += _unused_imports(path)
    assert found == []


def test_no_unreferenced_private_functions():
    """A module-level function whose name starts with ``_`` serves only
    the package, so one that no name or attribute in the package
    references is dead code left behind by a deleted caller."""
    package = Path(singmat.__file__).parent
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
                defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert sorted(loc + " " + name for name, loc in defined.items() if name not in referenced) == []
