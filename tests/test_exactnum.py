import random
from fractions import Fraction

import pytest

from naryalg.exactnum import (
    SparseMatrix,
    in_row_space,
    kernel_basis,
    normalize_scalar,
    rref,
    scalar_from_str,
    scalar_to_str,
)
from oracles import dense_kernel, dense_rref, same_row_space


def test_rational_examples():
    assert scalar_from_str("2/4") == Fraction(1, 2)


def test_scalar_normalization():
    assert normalize_scalar(Fraction(4, 2)) == 2
    assert isinstance(normalize_scalar(Fraction(4, 2)), int)
    assert normalize_scalar(7) == 7
    assert scalar_to_str(Fraction(-6, 4)) == "-3/2"
    assert scalar_to_str(Fraction(8, 4)) == "2"
    assert scalar_from_str("-3/2") == Fraction(-3, 2)
    assert scalar_from_str("5") == 5


def test_rref_single_row():
    rank, pivots, red = rref(SparseMatrix.from_dense([[1, 1, 1]]))
    assert rank == 1
    assert pivots == [0]
    assert red.to_dense() == [[1, 1, 1]]


def test_rref_identity():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    rank, pivots, red = rref(SparseMatrix.from_dense(eye))
    assert rank == 3
    assert pivots == [0, 1, 2]
    assert red.to_dense() == eye


def test_rref_dependent_rows():
    m = SparseMatrix.from_dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    rank, pivots, red = rref(m)
    assert rank == 2
    assert pivots == [0, 1]
    assert red.to_dense() == [[1, 0, 1], [0, 1, 1]]


# Degree-7 relation system: 12 columns are the weight-2 codes in lex order
# (1,1),(1,2),(1,3),(1,4),(1,5),(2,2),(2,3),(2,4),(2,5),(3,3),(3,4),(3,5);
# each row is a sum of three codes with coefficient 1.
DEGREE7_ROWS = [
    {0, 3, 4},
    {1, 5, 8},
    {2, 6, 9},
    {3, 7, 10},
    {4, 8, 11},
    {0, 1, 2},
    {5, 6, 7},
    {9, 10, 11},
]


def degree7_matrix():
    return SparseMatrix(12, [[(c, 1) for c in sorted(row)] for row in DEGREE7_ROWS])


def test_rref_degree7_system():
    m = degree7_matrix()
    rank, pivots, red = rref(m)
    # frozen from the dense oracle below; 12 - 8 leaves a 4-dimensional quotient
    assert rank == 8
    assert len(kernel_basis(m)) == 4
    o_rank, o_pivots, o_rows = dense_rref(m.to_dense())
    assert o_rank == 8
    assert pivots == o_pivots
    assert red.to_dense() == o_rows


def test_kernel_vectors_annihilate():
    m = degree7_matrix()
    for vec in kernel_basis(m):
        for row in m.rows:
            assert sum(v * vec[c] for c, v in row) == 0


def random_sparse(rng, n_rows, n_cols, density=0.4):
    rows = []
    for _ in range(n_rows):
        row = {}
        for c in range(n_cols):
            if rng.random() < density:
                v = rng.randint(-4, 4)
                if v:
                    row[c] = Fraction(v, rng.randint(1, 3))
        rows.append(sorted(row.items()))
    return SparseMatrix(n_cols, rows)


def test_rref_matches_oracle_randomized():
    rng = random.Random(20260817)
    for trial in range(60):
        n_rows = rng.randint(1, 8)
        n_cols = rng.randint(1, 8)
        m = random_sparse(rng, n_rows, n_cols)
        rank, pivots, red = rref(m)
        o_rank, o_pivots, o_rows = dense_rref(m.to_dense())
        assert rank == o_rank, f"trial {trial}"
        assert pivots == o_pivots
        assert red.to_dense() == o_rows


def test_rref_idempotent_randomized():
    rng = random.Random(7)
    for _ in range(40):
        m = random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7))
        rank, pivots, red = rref(m)
        rank2, pivots2, red2 = rref(red)
        assert (rank, pivots) == (rank2, pivots2)
        assert red.to_dense() == red2.to_dense()


def test_rank_plus_kernel_randomized():
    rng = random.Random(11)
    for _ in range(40):
        n_cols = rng.randint(1, 7)
        m = random_sparse(rng, rng.randint(1, 7), n_cols)
        rank, _, _ = rref(m)
        ker = kernel_basis(m)
        assert rank + len(ker) == n_cols
        oker = dense_kernel(m.to_dense(), n_cols)
        assert len(ker) == len(oker)


def test_row_space_preserved_randomized():
    rng = random.Random(13)
    for _ in range(40):
        m = random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7))
        _, _, red = rref(m)
        assert same_row_space(m.to_dense(), red.to_dense(), m.n_cols)


def test_in_row_space():
    m = SparseMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
    _, _, red = rref(m)
    assert in_row_space(red, [1, 1, 2])
    assert in_row_space(red, [2, -1, 1])
    assert not in_row_space(red, [0, 0, 1])
    assert in_row_space(red, {0: 1, 2: 1})


def test_pivot_order_independence():
    # rref is unique, so shuffled row order must give identical output
    rng = random.Random(3)
    for _ in range(20):
        m = random_sparse(rng, 6, 6)
        base = rref(m)
        rows = list(m.rows)
        rng.shuffle(rows)
        other = rref(SparseMatrix(m.n_cols, rows))
        assert base[0] == other[0]
        assert base[1] == other[1]
        assert base[2].to_dense() == other[2].to_dense()


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, [[(0, 1), (0, 2)]])
    with pytest.raises(ValueError):
        SparseMatrix(2, [[(5, 1)]])
    # zero coefficients are dropped silently
    m = SparseMatrix(3, [[(0, 0), (1, 2)]])
    assert m.rows == [[(1, 2)]]
