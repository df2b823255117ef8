import pytest
from hypothesis import given, settings, strategies as st

from taitkit.form_ops import IndexOutOfRange, add_twists, block_sum, restrict
from taitkit.goeritz import Definiteness, SymmetricIntForm, definiteness


@st.composite
def positive_forms(draw, max_dim=3):
    """Random positive-definite integer forms U^T D U with D diagonal
    positive and U a product of integer shears."""
    dim = draw(st.integers(1, max_dim))
    diag = [draw(st.integers(1, 4)) for _ in range(dim)]
    u = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, dim - 1))
        j = draw(st.integers(0, dim - 1))
        if i == j:
            continue
        k = draw(st.integers(-2, 2))
        for col in range(dim):
            u[i][col] += k * u[j][col]
    rows = [[sum(u[k][i] * diag[k] * u[k][j] for k in range(dim))
             for j in range(dim)] for i in range(dim)]
    return SymmetricIntForm.from_rows(rows)


def test_block_sum_examples():
    f = SymmetricIntForm.from_rows([[2]])
    g = SymmetricIntForm.from_rows([[3]])
    assert block_sum(f, g).entries == ((2, 0), (0, 3))
    empty = SymmetricIntForm.from_rows([])
    assert block_sum(f, empty) == f
    assert block_sum(empty, f) == f


def test_add_twists_examples():
    f = SymmetricIntForm.from_rows([[2, -1], [-1, 2]])
    assert add_twists(f, 0, 3).entries == ((5, -1), (-1, 2))
    g = add_twists(SymmetricIntForm.from_rows([[1]]), 0, -2)
    assert g.entries == ((-1,),)
    assert definiteness(g) is Definiteness.NEGATIVE
    with pytest.raises(IndexOutOfRange):
        add_twists(f, 2, 1)
    with pytest.raises(ValueError):
        add_twists(f, 0, 0)


def test_restrict_examples():
    f = SymmetricIntForm.from_rows([[2, -1], [-1, 2]])
    assert restrict(f, {0}).entries == ((2,),)
    assert restrict(f, {0, 1}) == f
    assert restrict(f, set()).dim == 0
    with pytest.raises(IndexOutOfRange):
        restrict(f, {5})


@given(positive_forms(), positive_forms())
@settings(max_examples=60, deadline=None)
def test_block_sum_preserves_positive(f, g):
    assert definiteness(block_sum(f, g)) is Definiteness.POSITIVE


@given(positive_forms())
@settings(max_examples=60, deadline=None)
def test_block_sum_with_negative_is_indefinite(f):
    neg = SymmetricIntForm.from_rows([[-1]])
    assert definiteness(block_sum(f, neg)) is Definiteness.INDEFINITE


@given(positive_forms(), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_add_twists_preserves_positive(f, m, data):
    index = data.draw(st.integers(0, f.dim - 1))
    assert definiteness(add_twists(f, index, m)) is Definiteness.POSITIVE


@given(positive_forms(), st.data())
@settings(max_examples=60, deadline=None)
def test_restrict_preserves_positive(f, data):
    keep = data.draw(st.sets(st.integers(0, f.dim - 1), min_size=1))
    assert definiteness(restrict(f, keep)) is Definiteness.POSITIVE


@given(positive_forms(max_dim=2))
@settings(max_examples=30, deadline=None)
def test_restrict_preserves_negative(f):
    neg = SymmetricIntForm.from_rows([[-x for x in row] for row in f.entries])
    assert definiteness(restrict(neg, {0})) is Definiteness.NEGATIVE
