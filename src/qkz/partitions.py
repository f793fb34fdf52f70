"""Young diagrams: transpose, parity statistics, and pair enumeration."""

from __future__ import annotations

from functools import lru_cache


class Partition:
    """An immutable Young diagram; its conjugate is computed once, on the
    first transpose(), and kept."""

    __slots__ = ("parts", "_conjugate")

    def __init__(self, parts=()):
        parts = tuple(int(x) for x in parts)
        if any(x <= 0 for x in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts
        self._conjugate = None

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    @property
    def width(self) -> int:
        """First-row length = number of columns."""
        return self.parts[0] if self.parts else 0

    def transpose(self) -> "Partition":
        if self._conjugate is None:
            self._conjugate = Partition(
                sum(1 for x in self.parts if x >= j) for j in range(1, self.width + 1))
        return self._conjugate

    @property
    def odd_row_sum(self) -> int:
        """|lambda|_o = lambda_1 + lambda_3 + ..."""
        return sum(self.parts[0::2])

    @property
    def even_row_sum(self) -> int:
        """|lambda|_e = lambda_2 + lambda_4 + ..."""
        return sum(self.parts[1::2])


@lru_cache(maxsize=None)
def partitions_of(n: int, width: int | None = None) -> tuple:
    """All partitions of n in lexicographically decreasing part order; with
    `width`, only those with at most that many columns."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n if width is None else width))


def enumerate_pairs(total_size: int, widths=(None, None)) -> list:
    """All ordered pairs (lambda1, lambda2) with |lambda1| + |lambda2| = total
    and width(lambda_i) <= widths[i] (None: no bound), in deterministic
    lexicographic order."""
    w1, w2 = widths
    out = []
    for a in range(total_size + 1):
        for lam1 in partitions_of(a, w1):
            for lam2 in partitions_of(total_size - a, w2):
                out.append((lam1, lam2))
    return out
