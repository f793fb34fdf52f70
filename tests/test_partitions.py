from hypothesis import given
from hypothesis import strategies as st

from qkz.partitions import conjugate, enumerate_pairs, partitions_of


@st.composite
def partitions(draw, max_size=10):
    n = draw(st.integers(0, max_size))
    return draw(st.sampled_from(partitions_of(n)))


@given(partitions())
def test_transpose_involution(lam):
    conj = conjugate(lam)
    assert conjugate(lam) is conj  # computed once and kept
    assert conjugate(conj) == lam
    assert sum(conj) == sum(lam)


def test_conjugate_memo_is_shared_by_equal_diagrams():
    assert conjugate((4, 2, 2, 1)) == (4, 3, 1, 1)
    assert conjugate(tuple([4, 2, 2, 1])) is conjugate((4, 2, 2, 1))


@given(partitions())
def test_parity_row_sums(lam):
    odd, even, tr = sum(lam[0::2]), sum(lam[1::2]), conjugate(lam)
    assert odd + even == sum(lam)
    # |lam|_o - |lam|_e counts odd columns
    assert odd - even == sum(1 for col in tr if col % 2 == 1)
    # row sums agree with floor sums over columns
    assert odd == sum((col + 1) // 2 for col in tr)
    assert even == sum(col // 2 for col in tr)


def test_enumerate_pairs_examples():
    assert enumerate_pairs(0) == [((), ())]
    assert enumerate_pairs(1) == [((), (1,)), ((1,), ())]
    assert len(enumerate_pairs(4)) == sum(
        len(partitions_of(a)) * len(partitions_of(4 - a)) for a in range(5)) == 20


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 6))
def test_floor_identities(ell, mm, n):
    # the two bookkeeping identities used to regroup orbifold selections
    assert ell // n + 1 == -((-ell - 1) // n)
    res = ell % n
    assert (ell + mm) // n == ell // n + (res + mm) // n
