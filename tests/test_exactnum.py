import random
import re
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg.exactnum import (
    SparseMatrix,
    _forward,
    _primitive,
    echelon_pivots,
    kernel_basis,
    normalize_scalar,
    rref,
    scalar_from_str,
    scalar_to_str,
    stacked_ranks,
)
from naryalg import cohomology, exactnum
from naryalg.freealg import operadic_relations
from naryalg.gerstenhaber import MultiMap
from naryalg.identities import matrix2, random_square_zero
from oracles import (
    READ_CORPUS,
    dense_kernel,
    dense_rref,
    fraction_kernel,
    fraction_rref,
    in_row_space,
    read_mismatch,
    same_row_space,
)


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


@pytest.mark.parametrize("s", READ_CORPUS, ids=lambda s: repr(s)[:12])
def test_scalar_from_str_matches_the_fraction_read(s):
    assert read_mismatch(scalar_from_str, s) is None


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    s=st.one_of(
        st.from_regex(r"-?[0-9]{1,40}", fullmatch=True),
        st.text(alphabet="0123456789-+_ ./eE\u0663\u00b2\u2212\u00a0", max_size=10),
        st.text(max_size=6),
    )
)
def test_scalar_from_str_matches_the_fraction_read_on_text(s):
    assert read_mismatch(scalar_from_str, s) is None


def test_written_integer_coefficients_are_plain_integer_strings():
    # every integer coefficient the package writes takes the integer path
    terms = {((0, 1), 1): 3, ((1, 0), 1): -3, ((1, 1), 0): Fraction(8, 4),
             ((0, 0), 0): 10**40, ((0, 0), 1): Fraction(-1, 2)}
    for e in MultiMap.from_entries(2, 2, terms).to_json_dict()["entries"]:
        coef = e["coef"]
        assert (re.fullmatch("-?[0-9]+", coef) is not None) == (coef != "-1/2"), coef
        assert scalar_from_str(coef) == terms[(tuple(e["in"]), e["out"])]


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
    for vec in kernel_basis(m).values():
        for row in m.rows:
            assert sum(v * vec.get(c, 0) for c, v in row) == 0


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


def test_sparse_matrix_sorts_only_rows_out_of_order():
    m = SparseMatrix(4, [[(3, 1), (0, 0), (1, Fraction(1, 2))], [(0, 2), (2, 0), (3, 1)]])
    assert m.rows == [[(1, Fraction(1, 2)), (3, 1)], [(0, 2), (3, 1)]]
    assert SparseMatrix.from_dicts(3, [{2: 1, 0: -1}]).rows == [[(0, -1), (2, 1)]]
    # a repeat is found after sorting, a column out of range in any order,
    # and a zero entry is dropped before either check
    with pytest.raises(ValueError, match="duplicate column"):
        SparseMatrix(4, [[(2, 1), (0, 1), (2, 3)]])
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix(4, [[(1, 1), (4, 1)]])
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix(4, [[(3, 1), (-1, 1)]])
    assert SparseMatrix(4, [[(9, 0), (1, 1), (1, 0)]]).rows == [[(1, 1)]]


def typed_rows(rows):
    # entries with their type, so an int and an equal Fraction differ
    return [[(c, type(v), v) for c, v in row] for row in rows]


def assert_matches_oracles(m, dense=True):
    rank, pivots, red = rref(m)
    o_rank, o_pivots, o_rows = fraction_rref(m)
    assert (rank, pivots) == (o_rank, o_pivots)
    assert typed_rows(red.rows) == typed_rows(o_rows)
    if dense and m.n_cols:
        d_rank, d_pivots, d_rows = dense_rref(m.to_dense())
        assert (rank, pivots) == (d_rank, d_pivots)
        assert red.to_dense() == d_rows


def random_wide(rng, n_rows, n_cols, fractions):
    """Sparse rows with coefficients up to 10^6, some rows repeated, scaled
    (by an int or a Fraction) or empty."""
    rows = []
    for _ in range(n_rows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.3:
            f = rng.choice([-3, 2, 10**6, Fraction(-7, 5)])
            rows.append([(c, v * f) for c, v in rng.choice(rows)])
        elif kind < 0.35:
            rows.append([])
        else:
            row = {}
            for c in range(n_cols):
                if rng.random() < 0.2:
                    v = rng.randint(-10**6, 10**6)
                    if fractions and rng.random() < 0.5:
                        v = Fraction(v, rng.randint(1, 10**6))
                    if v:
                        row[c] = v
            rows.append(sorted(row.items()))
    return SparseMatrix(n_cols, rows)


@pytest.mark.parametrize("fractions", [False, True])
def test_rref_matches_fraction_and_dense_oracles(fractions):
    rng = random.Random(20261018 + fractions)
    for _ in range(25):
        m = random_wide(rng, rng.randint(1, 40), rng.randint(1, 30), fractions)
        assert_matches_oracles(m)


def test_rref_low_rank_products_match_oracles():
    # a product of thin factors: many dependent rows with large entries
    rng = random.Random(5)
    for _ in range(10):
        k, n_rows, n_cols = rng.randint(1, 4), rng.randint(5, 30), rng.randint(5, 25)
        left = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n_rows)]
        right = [[rng.randint(-10**6, 10**6) * (rng.random() < 0.4) for _ in range(n_cols)]
                 for _ in range(k)]
        dense = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        assert_matches_oracles(SparseMatrix.from_dense(dense, n_cols))


def test_rref_empty_shapes():
    for m in (SparseMatrix(0, []), SparseMatrix(0, [[], []]), SparseMatrix(4, []),
              SparseMatrix(3, [[], []]), SparseMatrix(2, [[(0, 0)], [(1, 0), (0, 0)]])):
        rank, pivots, red = rref(m)
        assert (rank, pivots, red.rows, red.n_cols) == (0, [], [], m.n_cols)
        assert_matches_oracles(m, dense=False)
        assert echelon_pivots(m) == []
    # empty and zero rows among others, with a Fraction entry
    m = SparseMatrix(3, [[], [(2, Fraction(1, 2))], [(1, 0)], [(2, 3)], [(0, 0), (2, -1)]])
    assert echelon_pivots(m) == rref(m)[1] == fraction_rref(m)[1] == [2]
    assert kernel_basis(SparseMatrix(0, [])) == {}
    assert kernel_basis(SparseMatrix(2, [[]])) == {0: {0: 1}, 1: {1: 1}}


@pytest.mark.parametrize("fractions", [False, True])
def test_kernel_basis_matches_dense_oracle(fractions):
    # the dual basis against the textbook kernel, on empty shapes and on
    # random rows with repeats, multiples and empty rows
    rng = random.Random(20261020 + fractions)
    shapes = [(0, 0), (3, 0), (0, 4), (2, 5)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 10)) for _ in range(40)]
    for n_rows, n_cols in shapes:
        m = random_wide(rng, n_rows, n_cols, fractions)
        ker = kernel_basis(m)
        _, o_pivots, _ = dense_rref(m.to_dense())
        oracle = dense_kernel(m.to_dense(), n_cols)
        free = [c for c in range(n_cols) if c not in o_pivots]
        assert len(ker) == len(oracle)
        assert list(ker) == free
        for f, v in ker.items():
            assert v[f] == 1
            assert all(v.get(g, 0) == 0 for g in free if g != f)
            assert all(v.values())
            for row in m.rows:
                assert sum(x * v.get(c, 0) for c, x in row) == 0
        dense = [[v.get(c, 0) for c in range(n_cols)] for v in ker.values()]
        assert same_row_space(dense, oracle, n_cols)


def test_primitive_reads_an_integral_fraction_as_an_int():
    # the int fast path tests each entry's type: a Fraction(k, 1) entry has
    # denominator 1 but must still be scaled into an int
    for row, want in (
        ([(0, Fraction(-2, 1)), (3, Fraction(4, 1))], {0: -1, 3: 2}),
        ([(1, 6), (2, Fraction(-2, 1))], {1: 3, 2: -1}),
        ([(0, 4), (1, -6)], {0: 2, 1: -3}),
        ([(2, Fraction(3, 2)), (5, -3)], {2: 1, 5: -2}),
    ):
        r = _primitive(row)
        assert r == want and all(type(v) is int for v in r.values()), row


@pytest.mark.parametrize("seed", range(3))
def test_kernel_basis_types_match_the_fraction_oracle(seed):
    # coefficients drawn from ints, Fraction(k, 1) and Fraction(k, m), with
    # some rows of Fraction(k, 1) only: every rref and kernel_basis entry is
    # an int exactly when its denominator is 1, as in the Fraction oracle
    rng = random.Random(20261019 + seed)
    for _ in range(30):
        n_cols = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(1, 12)):
            kinds = rng.choice(("int", "integral", "mixed"))
            row = []
            for c in sorted(rng.sample(range(n_cols), rng.randint(0, n_cols))):
                k = rng.choice((-4, -2, -1, 1, 2, 3, 6))
                kind = rng.choice(("int", "integral", "fraction")) if kinds == "mixed" else kinds
                row.append((c, {"int": k, "integral": Fraction(k, 1),
                                "fraction": Fraction(k, rng.choice((2, 3, 4)))}[kind]))
            rows.append(row)
        m = SparseMatrix(n_cols, rows)
        assert_matches_oracles(m)
        got = kernel_basis(m)
        want = fraction_kernel(m)
        assert {f: typed_rows([sorted(v.items())]) for f, v in got.items()} == {
            f: typed_rows([sorted(v.items())]) for f, v in want.items()
        }


def test_kernel_basis_memory_is_sparse():
    # 1999 free columns: a dense vector per column would hold 2000 entries
    tracemalloc.start()
    try:
        ker = kernel_basis(SparseMatrix(2000, [[(0, 1)]]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ker) == 1999 and ker[1999] == {1999: 1}
    assert peak < 4 * 2**20


@pytest.mark.parametrize("p", range(2, 6))
def test_rref_matches_oracle_on_free_relations(p):
    rs = operadic_relations(3, p)
    m = SparseMatrix.from_dicts(len(rs.codes), rs.rows)
    assert_matches_oracles(m, dense=p <= 4)
    assert echelon_pivots(m) == rref(m)[1]


def test_rref_matches_oracle_on_cohomology_matrices(monkeypatch):
    # every matrix cohomology_dims eliminates: for the binary matrix2, the
    # delta image rows whose echelon_pivots it reads, and for an odd
    # square-zero product, the stacks whose stacked_ranks it reads. rref of
    # each matches the oracles, with the pivots or rank reported
    pivots_seen, ranks_seen = [], []

    def recording_echelon_pivots(m):
        pivots = echelon_pivots(m)
        pivots_seen.append((m, pivots))
        return pivots

    def recording_stacked_ranks(blocks):
        blocks = list(blocks)
        ranks = stacked_ranks(blocks)
        ranks_seen.append((blocks, ranks))
        return ranks

    monkeypatch.setattr(cohomology, "echelon_pivots", recording_echelon_pivots)
    monkeypatch.setattr(cohomology, "stacked_ranks", recording_stacked_ranks)
    cohomology.cohomology_dims(matrix2(), 0, 3)
    assert len(pivots_seen) == 3 and not ranks_seen
    for m, pivots in pivots_seen:
        assert_matches_oracles(m, dense=False)
        assert pivots == rref(m)[1]
    cohomology.cohomology_dims(random_square_zero(2, 3, 1, 1), 0, 2)
    assert len(pivots_seen) == 3 and len(ranks_seen) == 2
    assert all(len(blocks) == 2 and blocks[0].rows for blocks, _ in ranks_seen)
    for blocks, ranks in ranks_seen:
        n_cols = blocks[0].n_cols
        assert all(block.n_cols == n_cols for block in blocks)
        for k, rank in enumerate(ranks):
            m = SparseMatrix(n_cols, [row for block in blocks[: k + 1] for row in block.rows])
            assert_matches_oracles(m, dense=False)
            assert rank == rref(m)[0]


def random_blocks(rng, m):
    """m's rows cut into consecutive blocks, some of them empty."""
    blocks, rows = [], list(m.rows)
    while rows or rng.random() < 0.5:
        k = rng.randint(0, len(rows))
        blocks.append(rows[:k])
        rows = rows[k:]
    return blocks


def as_blocks(n_cols, blocks):
    """Each block, a list of rows as SparseMatrix takes them, as a SparseMatrix."""
    return [SparseMatrix(n_cols, block) for block in blocks]


@pytest.mark.parametrize("fractions", [False, True])
def test_stacked_ranks_match_fraction_oracle(fractions):
    # random sparse rows with repeats, multiples and empty rows, cut into
    # blocks with empty ones among them: each prefix stack's rank is the
    # oracle's rank of those rows, and forward elimination alone finds its
    # pivots
    rng = random.Random(20261019 + fractions)
    for _ in range(40):
        n_cols = rng.randint(1, 25)
        m = random_wide(rng, rng.randint(0, 40), n_cols, fractions)
        blocks = random_blocks(rng, m)
        ranks = stacked_ranks(as_blocks(n_cols, blocks))
        assert len(ranks) == len(blocks)
        for k, rank in enumerate(ranks):
            stack = SparseMatrix(n_cols, [row for block in blocks[: k + 1] for row in block])
            o_rank, o_pivots, _ = fraction_rref(stack)
            assert rank == o_rank
            assert echelon_pivots(stack) == rref(stack)[1] == o_pivots
    assert stacked_ranks([]) == []
    assert stacked_ranks(as_blocks(0, [[], [[]]])) == [0, 0]
    assert stacked_ranks(as_blocks(2, [[[(0, 0)], [(1, 0), (0, 0)]], [[(1, 4)]]])) == [0, 1]
    blocks = [[[(0, Fraction(1, 2))]], [[(0, 3)]], [], [[(0, 1), (1, 1)]]]
    assert stacked_ranks(as_blocks(2, blocks)) == [1, 1, 1, 2]


def test_stacked_ranks_validates_rows():
    # stacked_ranks and echelon_pivots take SparseMatrix blocks, which reject
    # a bad row as they are built, before any elimination
    with pytest.raises(ValueError, match="out of range"):
        stacked_ranks(as_blocks(2, [[[(2, 1)]]]))
    with pytest.raises(ValueError, match="out of range"):
        echelon_pivots(SparseMatrix(2, [[(2, 1)]]))
    with pytest.raises(ValueError, match="duplicate column"):
        stacked_ranks(as_blocks(2, [[], [[(1, 1), (1, 2)]]]))
    # blocks of different widths do not stack
    with pytest.raises(ValueError, match="different widths"):
        stacked_ranks([SparseMatrix(2, [[(0, 1)]]), SparseMatrix(3, [[(2, 1)]])])


def assert_mutually_reduced(pivot_rows, holders):
    # no pivot column appears in another pivot row, and holders names
    # exactly the pivot rows holding each column past their lead
    held = {}
    for lead, prow in pivot_rows.items():
        assert min(prow) == lead
        for k in prow:
            if k != lead:
                assert k not in pivot_rows, (lead, k)
                held.setdefault(k, set()).add(lead)
    assert {k: leads for k, leads in holders.items() if leads} == held


def reduced_rows(pivot_rows):
    """_forward's integer pivot rows divided by their leads, ordered by pivot."""
    return [
        sorted((c, normalize_scalar(Fraction(v, prow[p]))) for c, v in prow.items())
        for p, prow in sorted(pivot_rows.items())
    ]


def test_forward_tracks_a_cancellation_past_the_new_pivot():
    # Rows are taken by lowest column, descending, then by length, ties in
    # input order: [0 1 1 1] becomes the pivot row of column 1; [0 1 0 0 1 1]
    # reduces to [0 0 -1 -1 1 1], the pivot row of column 2, and clearing
    # column 2 from the first pivot row also cancels its column 3, so that
    # row no longer holds 3. The last row then reduces to lowest column 3.
    m = SparseMatrix.from_dense([
        [0, 1, 1, 1, 0, 0, 0],
        [0, 1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 0, 1],
    ])
    pivot_rows, holders = {}, defaultdict(set)
    _forward(pivot_rows, holders, m.rows[:2])
    assert pivot_rows[1] == {1: 1, 4: 1, 5: 1}
    assert holders[3] == {2}
    assert_mutually_reduced(pivot_rows, holders)
    _forward(pivot_rows, holders, m.rows[2:])
    assert sorted(pivot_rows) == [1, 2, 3]
    assert_mutually_reduced(pivot_rows, holders)
    assert_matches_oracles(m)


def test_stacked_ranks_clear_a_new_pivot_from_an_earlier_block():
    # block 1 makes the pivot row [1 1 0 0]; block 2's [0 1 1 0] takes
    # column 1, which must be cleared from that earlier row, or [1 0 0 1]
    # would reduce to lowest column 1 and replace a pivot row instead of
    # adding one
    blocks = [[[(0, 1), (1, 1)]], [[(1, 1), (2, 1)], [(0, 1), (3, 1)]]]
    assert stacked_ranks(as_blocks(4, blocks)) == [1, 3]
    stack = SparseMatrix(4, [row for block in blocks for row in block])
    assert fraction_rref(stack)[0] == 3


def test_forward_keeps_pivot_rows_mutually_reduced():
    # random blocks with coefficients from {-2, -1, 1, 2}, so that entries
    # cancel: after each block the pivot rows hold no other pivot column,
    # holders is exact, and the rows divided by their leads are the
    # oracle's reduced rows of the stack so far
    rng = random.Random(20261018)
    for _ in range(60):
        n_cols = rng.randint(1, 14)
        pivot_rows, holders, stack = {}, defaultdict(set), []
        for _ in range(rng.randint(1, 4)):
            block = []
            for _ in range(rng.randint(0, 8)):
                cols = rng.sample(range(n_cols), rng.randint(0, min(n_cols, 5)))
                block.append(sorted((c, rng.choice((-2, -1, 1, 2))) for c in cols))
            _forward(pivot_rows, holders, block)
            stack += block
            assert_mutually_reduced(pivot_rows, holders)
            rank, pivots, reduced = fraction_rref(SparseMatrix(n_cols, stack))
            assert sorted(pivot_rows) == pivots
            assert typed_rows(reduced_rows(pivot_rows)) == typed_rows(reduced)


def unit_heavy_rows(rng, n_rows, n_cols, fractions):
    """Rows of which about half hold a single entry, negative ones among
    them; the rest hold two to four entries from -3..3 (halved, thirded or
    fifthed at random when fractions is set)."""
    rows = []
    for _ in range(n_rows):
        width = 1 if rng.random() < 0.5 or n_cols < 2 else rng.randint(2, min(n_cols, 4))
        row = []
        for c in sorted(rng.sample(range(n_cols), width)):
            v = rng.choice((-3, -2, -1, 1, 2, 3))
            if fractions and rng.random() < 0.5:
                v = Fraction(v, rng.choice((2, 3, 5)))
            row.append((c, v))
        rows.append(row)
    return rows


def assert_unit_paths_match_oracle(n_cols, blocks):
    """rref, kernel_basis and echelon_pivots of every prefix stack, and
    stacked_ranks and _forward's pivot rows after each block, against the
    Fraction oracle."""
    ranks = stacked_ranks(as_blocks(n_cols, blocks))
    pivot_rows, holders, stack = {}, defaultdict(set), []
    for k, block in enumerate(blocks):
        _forward(pivot_rows, holders, SparseMatrix(n_cols, block).rows)
        stack += block
        m = SparseMatrix(n_cols, stack)
        o_rank, o_pivots, o_rows = fraction_rref(m)
        assert_mutually_reduced(pivot_rows, holders)
        assert typed_rows(reduced_rows(pivot_rows)) == typed_rows(o_rows)
        assert ranks[k] == o_rank
        assert_matches_oracles(m, dense=False)
        assert echelon_pivots(m) == o_pivots
        got = kernel_basis(m)
        want = fraction_kernel(m)
        assert {f: typed_rows([sorted(v.items())]) for f, v in got.items()} == {
            f: typed_rows([sorted(v.items())]) for f, v in want.items()
        }


def test_unit_pivot_rows_clear_by_deletion():
    # [0 1 1 0] is the pivot row of column 1 and holds column 2; [1 0 0 0]
    # makes a unit pivot row at 0, so [2 0 -3 0] loses column 0 by deletion
    # and arrives at column 2 as the unit row -e_2, which must then be
    # deleted from the earlier pivot row of column 1
    m = SparseMatrix(4, [[(1, 1), (2, 1)], [(0, 1)], [(0, 2), (2, -3)]])
    pivot_rows, holders = {}, defaultdict(set)
    _forward(pivot_rows, holders, m.rows)
    assert pivot_rows == {0: {0: 1}, 1: {1: 1}, 2: {2: -1}}
    assert_mutually_reduced(pivot_rows, holders)
    assert_unit_paths_match_oracle(4, [m.rows])
    # a later block's unit row -e_2 (from -7 e_2) clears the two pivot rows
    # of the first block that hold column 2; [1 5 0 1] then reduces through
    # both to lowest column 3, a fourth pivot
    blocks = [[[(0, 1), (2, 1)], [(1, 1), (2, 3)]], [[(2, -7)]], [[(0, 1), (1, 5), (3, 1)]]]
    assert stacked_ranks(as_blocks(4, blocks)) == [2, 3, 4]
    assert_unit_paths_match_oracle(4, blocks)
    # a unit row at a pivot column held by no other row, and one whose
    # column is already a unit pivot
    assert_unit_paths_match_oracle(3, [[[(1, Fraction(-2, 3))], [(1, 5)]], [[(0, 4), (1, -1)]]])


@pytest.mark.parametrize("fractions", [False, True])
def test_unit_heavy_matrices_match_fraction_oracle(fractions):
    # seeded matrices with many single-entry rows, cut into blocks
    rng = random.Random(20261020 + fractions)
    for _ in range(60):
        n_cols = rng.randint(1, 12)
        rows = unit_heavy_rows(rng, rng.randint(0, 16), n_cols, fractions)
        blocks = random_blocks(rng, SparseMatrix(n_cols, rows))
        assert_unit_paths_match_oracle(n_cols, blocks)


def test_no_combine_against_a_unit_pivot_row(monkeypatch):
    # the rsz231 stack at cochain arity 6: a column is cleared against a
    # one-entry pivot row by deletion, whether from an incoming row or from
    # an earlier pivot row, so no _combine is against such a row
    mu = random_square_zero(2, 3, 1, 1)
    blocks = [SparseMatrix._of_clean(2 ** 7, rows) for rows in cohomology.table_rows(mu, 6)]
    pivot_lengths = []
    original = exactnum._combine

    def counting_combine(r, c, prow):
        pivot_lengths.append(len(prow))
        original(r, c, prow)

    monkeypatch.setattr(exactnum, "_combine", counting_combine)
    assert stacked_ranks(blocks) == [83, 105]
    assert pivot_lengths and min(pivot_lengths) > 1
