"""Dense matrices over any of the exact scalar rings.

Solving is plain Gaussian elimination with exact division; a pivot is
acceptable iff it is invertible in the coefficient ring (nonzero rational,
or series with invertible constant term).  A failed pivot chain raises
``SingularMatrixError`` -- never a wrong answer.  A non-square system is a
fault of the caller, not of the point: it raises ``ValueError``.
"""

from __future__ import annotations

from .errors import SingularMatrixError
from .scalars import ONE, dot, invertible, reciprocal


class ScalarMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_data) -> "ScalarMatrix":
        rows_data = [list(r) for r in rows_data]
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        if any(len(r) != cols for r in rows_data):
            raise ValueError("ragged rows")
        return cls(rows, cols, [x for r in rows_data for x in r])

    @classmethod
    def identity(cls, size: int) -> "ScalarMatrix":
        return cls.diagonal([ONE] * size)

    @classmethod
    def diagonal(cls, values) -> "ScalarMatrix":
        values = list(values)
        n = len(values)
        m = cls(n, n, [0] * (n * n))
        for i, v in enumerate(values):
            m[i, i] = v
        return m

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def __setitem__(self, key, value):
        i, j = key
        self.entries[i * self.cols + j] = value

    def copy(self) -> "ScalarMatrix":
        return ScalarMatrix(self.rows, self.cols, list(self.entries))

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(
            self.cols, self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def __add__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        self.check_shape(other)
        return ScalarMatrix(
            self.rows, self.cols,
            [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        self.check_shape(other)
        return ScalarMatrix(
            self.rows, self.cols,
            [a - b for a, b in zip(self.entries, other.entries)])

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        a, b, cols = self.entries, other.entries, other.cols
        rows = [a[i * self.cols:(i + 1) * self.cols] for i in range(self.rows)]
        return ScalarMatrix(self.rows, cols, [
            dot(zip(row, b[j::cols])) for row in rows for j in range(cols)])

    def scale(self, c) -> "ScalarMatrix":
        return ScalarMatrix(self.rows, self.cols, [x * c for x in self.entries])

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for a, b in zip(self.entries, other.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(self[i, j]) for j in range(self.cols))
            for i in range(self.rows))
        return f"ScalarMatrix[{body}]"

    def check_shape(self, other):
        """ValueError unless `other` has this matrix's shape."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def solve(self, rhs: "ScalarMatrix") -> "ScalarMatrix":
        """Solve self @ X = rhs exactly; raises SingularMatrixError when no
        pivot of a column is invertible."""
        if self.rows != self.cols:
            raise ValueError("solve requires a square matrix")
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        n = self.rows
        a = self.copy()
        b = rhs.copy()
        inverses = []  # of the pivots a[i, i], which later columns leave unchanged
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if invertible(a[r, col]):
                    pivot_row = r
                    break
            if pivot_row is None:
                raise SingularMatrixError(f"no invertible pivot in column {col}")
            if pivot_row != col:
                _swap_rows(a, col, pivot_row)
                _swap_rows(b, col, pivot_row)
            inverses.append(reciprocal(a[col, col]))
            for r in range(n):
                if r == col:
                    continue
                factor = a[r, col] * inverses[col]
                if factor == 0:
                    continue
                for j in range(col, n):
                    a[r, j] = a[r, j] - factor * a[col, j]
                for j in range(b.cols):
                    b[r, j] = b[r, j] - factor * b[col, j]
        return ScalarMatrix(n, b.cols, [
            b[i, j] * inverses[i] for i in range(n) for j in range(b.cols)])


def _swap_rows(m: ScalarMatrix, i: int, j: int) -> None:
    for col in range(m.cols):
        m[i, col], m[j, col] = m[j, col], m[i, col]
