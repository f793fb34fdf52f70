import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkz.partitions import Partition, enumerate_pairs, partitions_of


@st.composite
def partitions(draw, max_size=10):
    n = draw(st.integers(0, max_size))
    return draw(st.sampled_from(partitions_of(n))) if n >= 0 else Partition()


def _part(lam, i):
    """Row length lambda_i, 1-based; zero beyond the diagram."""
    return lam.parts[i - 1] if 1 <= i <= len(lam) else 0


@given(partitions())
def test_transpose_involution(lam):
    conj = lam.transpose()
    assert lam.transpose() is conj  # computed once and kept
    assert conj.transpose() == lam
    assert sum(conj.parts) == sum(lam.parts)


def test_cached_conjugate_keeps_equality_and_hash():
    lam = Partition((4, 2, 2, 1))
    assert lam.transpose() == Partition((4, 3, 1, 1))
    fresh = Partition((4, 2, 2, 1))
    assert lam == fresh and fresh == lam
    assert hash(lam) == hash(fresh)
    assert {lam: "seen"}[fresh] == "seen"


@given(partitions())
def test_parity_row_sums(lam):
    assert lam.odd_row_sum + lam.even_row_sum == sum(lam.parts)
    # |lam|_o - |lam|_e counts odd columns
    odd_columns = sum(1 for j in range(1, lam.width + 1) if _part(lam.transpose(), j) % 2 == 1)
    assert lam.odd_row_sum - lam.even_row_sum == odd_columns
    # row sums agree with floor sums over columns
    tr = lam.transpose()
    assert lam.odd_row_sum == sum((_part(tr, j) + 1) // 2 for j in range(1, lam.width + 1))
    assert lam.even_row_sum == sum(_part(tr, j) // 2 for j in range(1, lam.width + 1))


def test_enumerate_pairs_examples():
    assert enumerate_pairs(0) == [(Partition(), Partition())]
    assert enumerate_pairs(1) == [
        (Partition(), Partition((1,))),
        (Partition((1,)), Partition()),
    ]
    assert len(enumerate_pairs(4)) == sum(
        len(partitions_of(a)) * len(partitions_of(4 - a)) for a in range(5)) == 20


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 6))
def test_floor_identities(ell, mm, n):
    # the two bookkeeping identities used to regroup orbifold selections
    assert ell // n + 1 == -((-ell - 1) // n)
    res = ell % n
    assert (ell + mm) // n == ell // n + (res + mm) // n
