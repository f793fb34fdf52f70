"""Young diagrams as weakly decreasing tuples of parts: conjugate and pair
enumeration."""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def conjugate(parts: tuple) -> tuple:
    """The conjugate diagram (column lengths), computed once per diagram:
    equal tuples share one memo entry."""
    width = parts[0] if parts else 0
    return tuple(sum(1 for x in parts if x >= j) for j in range(1, width + 1))


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

    return tuple(gen(n, n if width is None else width))


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
