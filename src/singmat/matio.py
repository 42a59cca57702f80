"""Plain-text matrix files: diffable, language-portable fixtures.

Format: first line "n_rows n_cols", then one line of 0/1 characters per
row; only blank lines may follow the last row.  Parse errors carry the
offending line number.
"""

from __future__ import annotations

from pathlib import Path

from .errors import MatrixFormatError
from .matrices import BitMatrix


def format_matrix(m: BitMatrix) -> str:
    body = str(m)
    return f"{m.n_rows} {m.n_cols}\n" + (body + "\n" if body else "")


def write_matrix(m: BitMatrix, path: str | Path) -> None:
    Path(path).write_text(format_matrix(m), encoding="utf-8")


def parse_matrix(text: str) -> BitMatrix:
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError("empty file", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError('expected header "n_rows n_cols"', line=1)
    try:
        n_rows, n_cols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError("header fields must be integers", line=1) from None
    if n_rows < 0 or n_cols < 0:
        raise MatrixFormatError("dimensions must be nonnegative", line=1)
    rows = []
    for i in range(n_rows):
        lineno = i + 2
        if i + 1 >= len(lines) or not lines[i + 1].strip():
            raise MatrixFormatError(
                f"expected {n_rows} rows, file ends after {i}", line=lineno
            )
        raw = lines[i + 1].strip()
        if len(raw) != n_cols:
            raise MatrixFormatError(
                f"row has {len(raw)} entries, expected {n_cols}", line=lineno
            )
        if set(raw) - {"0", "1"}:
            raise MatrixFormatError("rows must contain only 0 and 1", line=lineno)
        rows.append([int(ch) for ch in raw])
    for lineno, line in enumerate(lines[n_rows + 1 :], start=n_rows + 2):
        if line.strip():
            raise MatrixFormatError(f"expected {n_rows} rows, found more", line=lineno)
    return BitMatrix.from_rows(rows, n_cols)


def read_matrix(path: str | Path) -> BitMatrix:
    # A byte that is not UTF-8 decodes to U+FFFD, which the parser refuses
    # with its line number.
    return parse_matrix(Path(path).read_text(encoding="utf-8", errors="replace"))
