import random
import subprocess
import sys
from dataclasses import replace
from itertools import product
from math import comb
from pathlib import Path

import pytest

from naryalg.exactnum import Fraction, SparseMatrix, kernel_basis, rref
from naryalg import freealg
from naryalg.freealg import (
    _annihilates,
    _compositions,
    _family_rows,
    _graft,
    _image,
    _live_codes,
    _normal_forms,
    _one_node_images,
    _one_node_preimages,
    _recursive_dual,
    _solved_cache,
    PUBLISHED_L9_CODES,
    BasisComparison,
    FreeElement,
    PlanarTree,
    RelationSystem,
    TreeCode,
    ascii_tree,
    bracket_string,
    code_from_tree,
    enumerate_codes,
    evaluate,
    free_dims,
    free_product,
    fuss_catalan,
    l9_basis_report,
    normal_form,
    operadic_relations,
    paper_rule_relations,
    relation_system,
    solve,
    solve_stacked,
    solved_relations,
    tree_from_code,
)

from fixtures import bracket_associator, filiform5_bracket, square_zero_map
from oracles import (
    brute_nary_trees,
    brute_ternary_trees,
    fraction_kernel,
    fraction_rref,
    grafted_code,
    in_row_space,
    operadic_rows,
    rows_through,
    same_row_space,
    scanned_live_codes,
    tree_value,
)

# the 8 degree-3 relation rows, as column sets over the 12 lex-ordered codes
DEGREE7_ROW_COLS = [
    {0, 3, 4},
    {1, 5, 8},
    {2, 6, 9},
    {3, 7, 10},
    {4, 8, 11},
    {0, 1, 2},
    {5, 6, 7},
    {9, 10, 11},
]


# ------------------------------------------------------------- enumeration


def test_code_counts_match_fuss_catalan():
    got = [len(enumerate_codes(3, p)) for p in range(1, 8)]
    assert got == [1, 3, 12, 55, 273, 1428, 7752]
    assert got == [fuss_catalan(3, p) for p in range(1, 8)]


def test_code_counts_match_brute_force_trees():
    for p in range(1, 6):
        assert len(enumerate_codes(3, p)) == brute_ternary_trees(p)
    for p in (6, 7):
        assert len(enumerate_codes(3, p)) == brute_nary_trees(p, 3)


def test_code_counts_binary():
    for p in range(1, 9):
        assert len(enumerate_codes(2, p)) == brute_nary_trees(p, 2)
        assert len(enumerate_codes(2, p)) == fuss_catalan(2, p)


def test_enumerate_small_degrees():
    assert [c.indices for c in enumerate_codes(3, 2)] == [(1,), (2,), (3,)]
    twelve = enumerate_codes(3, 3)
    assert len(twelve) == 12
    assert twelve[0].indices == (1, 1)
    assert twelve[-1].indices == (3, 5)
    assert twelve == sorted(twelve, key=lambda c: c.indices)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_codes(1, 3)
    with pytest.raises(ValueError):
        enumerate_codes(3, 0)


def test_code_validation():
    TreeCode(3, 3, (3, 5))
    with pytest.raises(ValueError):
        TreeCode(3, 3, (4, 5))  # j1 > 3
    with pytest.raises(ValueError):
        TreeCode(3, 3, (2, 1))  # decreasing
    with pytest.raises(ValueError):
        TreeCode(3, 3, (1, 6))  # j2 > 5
    with pytest.raises(ValueError):
        TreeCode(3, 3, (1,))  # wrong length
    with pytest.raises(ValueError):
        TreeCode(1, 2, (1,))
    assert TreeCode(3, 0, ()).leaves == 1
    assert TreeCode(3, 4, (1, 2, 4)).label() == "g_{1,2,4}"


def test_code_rejects_what_is_not_an_int():
    # n, p and every index must be an int: no 2.7 read as 2, no True as 1
    for args in [
        (3, 2, (2.7,)),
        (3, 2, (2.0,)),
        (3, 2, ("2",)),
        (3, 2, (True,)),
        (3, 3, (1, 2.0)),
        (3.5, 2, (2,)),
        (3.0, 2, (2,)),
        (3, 2.0, (2,)),
        (3, True, ()),
    ]:
        with pytest.raises(ValueError):
            TreeCode(*args)
    assert TreeCode(3, 3, [1, 2]) == TreeCode(3, 3, (1, 2))


# ------------------------------------------------------------- bijection


def test_bracket_string_published_example():
    tree = tree_from_code(TreeCode(3, 3, (3, 5)))
    assert bracket_string(tree) == "1·2·(3·4·(5·6·7))"


def test_single_node_tree():
    tree = tree_from_code(TreeCode(3, 1, ()))
    assert tree.internal_count() == 1
    assert tree.leaf_count() == 3
    assert bracket_string(tree) == "1·2·3"
    assert code_from_tree(tree, 3).indices == ()


def test_bare_leaf_round_trip():
    assert tree_from_code(TreeCode(3, 0, ())).is_leaf
    assert code_from_tree(PlanarTree(), 3) == TreeCode(3, 0, ())


def test_round_trip_all_codes():
    for n, pmax in ((3, 4), (2, 5)):
        for p in range(1, pmax + 1):
            for code in enumerate_codes(n, p):
                tree = tree_from_code(code)
                assert tree.internal_count() == p
                assert tree.leaf_count() == code.leaves
                assert code_from_tree(tree, n) == code


def test_code_from_tree_rejects_wrong_arity():
    tree = tree_from_code(TreeCode(2, 2, (1,)))
    with pytest.raises(ValueError):
        code_from_tree(tree, 3)


def test_ascii_tree_smoke():
    art = ascii_tree(tree_from_code(TreeCode(3, 2, (2,))))
    lines = art.splitlines()
    assert lines[0] == "*"
    assert "1" in art and "5" in art
    assert art.count("*") == 2


def test_graft_matches_tree_oracle():
    for n in (2, 3, 4):
        by_degree = {0: [TreeCode(n, 0, ())]}
        by_degree.update({k: enumerate_codes(n, k) for k in range(1, 5)})
        for pa in range(5):
            for pb in range(5 - pa):
                for a in by_degree[pa]:
                    for b in by_degree[pb]:
                        for q in range(1, a.leaves + 1):
                            got = _graft(n, (a.p, a.indices), q, (b.p, b.indices))
                            want = grafted_code(tree_from_code(a), q, tree_from_code(b))
                            assert got == want, (n, a, q, b)
                            TreeCode(n, *got)  # a valid code


def test_compositions_lexicographic():
    for total in range(5):
        for slots in range(1, 6):
            want = [c for c in product(range(total + 1), repeat=slots) if sum(c) == total]
            assert list(_compositions(total, slots)) == want


# ------------------------------------------------------------- relations


def test_operadic_degree_two():
    rs = operadic_relations(3, 2)
    assert len(rs.rows) == 1
    assert rs.rows[0] == {0: 1, 1: 1, 2: 1}


def test_operadic_degree_three_matches_published_rows():
    rs = operadic_relations(3, 3)
    assert len(rs.rows) == 8

    def dense(row_cols):
        return [[1 if c in cols else 0 for c in range(12)] for cols in row_cols]

    mine = [[row.get(c, 0) for c in range(12)] for row in rs.rows]
    assert same_row_space(mine, dense(DEGREE7_ROW_COLS), 12)
    solved = solve(rs)
    assert solved.rank == 8
    assert solved.multiplier == 4


def test_operadic_binary_signs():
    # n=2 rows alternate sign: mu._1 mu - mu._2 mu
    rs = operadic_relations(2, 2)
    assert len(rs.rows) == 1
    assert rs.rows[0] == {0: 1, 1: -1}


def test_operadic_rejects_degree_below_two():
    with pytest.raises(ValueError):
        operadic_relations(3, 1)


def test_operadic_rows_are_distinct_signed_n_term_rows():
    # each row's n codes are distinct, so nothing cancels, and ascend with i,
    # so the signs (-1)^((i-1)(n-1)) read off in code order and the lowest is
    # +1; no context repeats a row: C(np-1, p-2) rows in all
    for n in range(2, 7):
        signs = [(-1) ** (i * (n - 1)) for i in range(n)]
        for p in range(2, 9):
            if fuss_catalan(n, p) > 1428:
                break
            rows = operadic_relations(n, p).rows
            assert len(rows) == comb(n * p - 1, p - 2), (n, p)
            for row in rows:
                assert [row[c] for c in sorted(row)] == signs, (n, p, row)
            assert len({tuple(sorted(row.items())) for row in rows}) == len(rows), (n, p)


def test_operadic_rows_match_term_by_term_oracle():
    # same rows in the same order, with the keys of each row in term order
    for n in (2, 3, 4):
        for p in range(2, 6):
            got = [list(row.items()) for row in operadic_relations(n, p).rows]
            assert got == [list(row.items()) for row in operadic_rows(n, p)], (n, p)


def test_operadic_rows_are_built_where_they_are_read():
    rs = operadic_relations(3, 7)
    assert len(rs.rows) == comb(20, 5) == 15504
    solved = solve(rs)
    assert solved.method == "recursion" and solved.rows is rs.rows
    assert rs.rows._rows is None  # neither len nor the recursion built them
    assert rs.codes._rows is None  # nor listed the codes
    a, b = operadic_relations(3, 5), operadic_relations(3, 5)
    assert a == b
    assert a.rows == tuple(b.rows) and tuple(a.rows) == b.rows
    assert replace(a, rows=tuple(a.rows)) == a
    assert a.rows != tuple(b.rows)[1:] and a.rows != operadic_relations(3, 4).rows
    assert RelationSystem(3, 5, a.codes, (*a.rows, *b.rows)).rows == tuple(a.rows) * 2


def test_a_solve_at_degree_eleven_lists_no_codes(monkeypatch):
    # the recursion and its certificate work on codes, and free_dims reads
    # the codes and rows by their counts, so from p = 11 nothing is listed
    listed = freealg._code_tuples

    def listing(n, p):
        if p > 10:
            raise AssertionError(f"codes listed at p = {p}")
        return listed(n, p)

    monkeypatch.setattr(freealg, "_code_tuples", listing)
    rs = relation_system(3, 13)
    assert len(rs.codes) == fuss_catalan(3, 13) == 300_830_572
    assert len(rs.rows) == comb(38, 11)
    row = free_dims(3, 11)[-1]
    assert (row["p"], row["multiplier"], row["method"]) == (11, 12, "recursion")
    assert rs.codes._rows is None and rs.rows._rows is None


def test_free_dims_both_leaves_the_operadic_rows_unbuilt(monkeypatch):
    # with every rule row inside, the joint system stacks the operadic rows
    # without building them: from p = 5, where the recursion solves the
    # operadic system, no degree builds them, and the rows column still
    # counts them
    built = []
    build = freealg._operadic_rows

    def counting(n, p, codes):
        built.append(p)
        return build(n, p, codes)

    monkeypatch.setattr(freealg, "_operadic_rows", counting)
    table = free_dims(3, 7, "both")
    assert [p for p in built if p >= 5] == []
    for row in table[2:]:
        p = row["p"]
        assert row["rows"] == comb(3 * p - 1, p - 2) + len(paper_rule_relations(p).rows), p
    op, pr = solve(operadic_relations(3, 5)), paper_rule_relations(5)
    joint = solve_stacked(op, pr)[0]
    assert len(joint.rows) == 1324 and op.rows._rows is None
    assert joint.rows == (*op.rows, *pr.rows)


def test_paper_rules_degree_three_exact_rows():
    rs = paper_rule_relations(3)
    assert len(rs.rows) == 8
    got = {frozenset(row.items()) for row in rs.rows}
    want = {frozenset((c, 1) for c in cols) for cols in DEGREE7_ROW_COLS}
    assert got == want


def test_paper_rules_degree_four_count():
    rs = paper_rule_relations(4)
    assert len(rs.rows) == 80
    solved = solve(rs)
    assert solved.rank == 50
    assert solved.multiplier == 5


def test_paper_rules_contained_in_operadic():
    for p in (3, 4):
        op = solve(operadic_relations(3, p))
        a, b = operadic_relations(3, p), paper_rule_relations(p)
        joint = solve(RelationSystem(3, p, a.codes, (*a.rows, *b.rows)))
        assert joint.rank == op.rank
        assert joint.multiplier == op.multiplier


def _rule_a(i, c):
    # the paper's rule A: prepend i, shift every old index by i - 1
    return (i,) + tuple(j + i - 1 for j in c)


def _rule_b(i, c):
    # the paper's rule B: prepend i, keep the indices <= i, add 2 to the rest
    return tuple(sorted((i,) + tuple(j if j <= i else j + 2 for j in c)))


def test_paper_rules_literal_formulas_are_the_one_node_images():
    # rule A's i is the graft as child i of a new root, rule B's the corolla
    # grafted at leaf i
    for p in range(1, 7):
        for code in enumerate_codes(3, p):
            c = code.indices
            images = _one_node_images(3, c)
            assert images[code.leaves :] == [_rule_a(i, c) for i in (1, 2, 3)], c
            assert images[: code.leaves] == [
                _rule_b(i, c) for i in range(1, code.leaves + 1)
            ], c


def test_paper_rule_rows_are_the_literal_rules_in_order():
    rows = [{(1,): 1, (2,): 1, (3,): 1}]
    for p in range(3, 6):
        rules = [(_rule_a, i) for i in (1, 2, 3)] + [(_rule_b, i) for i in range(1, 2 * p)]
        rows = [{rule(i, c): v for c, v in row.items()} for row in rows for rule, i in rules]
        rs = paper_rule_relations(p)
        assert [{rs.codes[k]: v for k, v in row.items()} for row in rs.rows] == rows, p


def test_paper_rule_rows_are_the_operadic_rows():
    # with duplicates dropped, the rule rows are the operadic row set
    # (8, 55, 364, 2380 and 15504 rows)
    for p in range(3, 8):
        rules = {frozenset(row.items()) for row in paper_rule_relations(p).rows}
        operadic = {frozenset(row.items()) for row in operadic_relations(3, p).rows}
        assert rules == operadic, p
        assert len(rules) == comb(3 * p - 1, p - 2), p


def test_paper_rules_need_degree_three():
    with pytest.raises(ValueError):
        paper_rule_relations(2)


def test_multiplier_table():
    want = {2: 2, 3: 4, 4: 5, 5: 6}
    for p, mult in want.items():
        assert solve(operadic_relations(3, p)).multiplier == mult


def test_multiplier_degree_seven():
    rs = operadic_relations(3, 7)
    solved = solve(rs)
    assert (solved.rank, len(solved.codes)) == (7744, 7752)
    assert solved.multiplier == 8
    # the kernel half of the certificate: each v_f, independent of the others
    # by its unit entry at f, annihilates every relation row
    assert len(rs.rows) == 15504
    dual = solved.dual
    for f, v in dual.items():
        assert v[f] == 1 and all(v.get(g, 0) == 0 for g in dual if g != f)
        assert all(sum(c * v.get(k, 0) for k, c in row.items()) == 0 for row in rs.rows)


def test_binary_multiplier_always_one():
    for p in range(2, 6):
        assert solve(operadic_relations(2, p)).multiplier == 1


def test_multiplier_requires_solve():
    rs = operadic_relations(3, 2)
    assert rs.basis is None and not rs.solved
    for name in ("multiplier", "rank", "dual", "pivots", "quotient_basis", "reduced"):
        with pytest.raises(ValueError):
            getattr(rs, name)


def test_multiplier_tables_n4_n5():
    assert [solve(operadic_relations(4, p)).multiplier for p in range(2, 7)] == [3, 12, 55, 273, 1428]
    assert [solve(operadic_relations(5, p)).multiplier for p in range(2, 6)] == [4, 21, 123, 759]


# ------------------------------------------------------------- dual basis


def _typed(rows):
    return [[(c, type(v), v) for c, v in row] for row in rows]


def _assert_matches(solved, rank, pivots, reduced):
    # the fields read off the dual basis against an elimination's output
    assert solved.rank == rank
    assert list(solved.pivots) == list(pivots)
    assert _typed(solved.reduced.rows) == _typed(reduced)
    pivot_set = set(pivots)
    assert solved.quotient_basis == tuple(
        TreeCode(solved.n, solved.p, c) for i, c in enumerate(solved.codes) if i not in pivot_set
    )


@pytest.mark.parametrize(
    "n, p",
    [(2, p) for p in range(1, 7)] + [(3, p) for p in range(1, 6)] + [(4, p) for p in range(1, 6)],
)
def test_dual_matches_fraction_oracle(n, p):
    rs = relation_system(n, p)
    solved = solve(rs)
    _assert_matches(solved, *fraction_rref(SparseMatrix.from_dicts(len(rs.codes), rs.rows)))
    dual = solved.dual
    for f, v in dual.items():
        assert v[f] == 1
        assert all(v.get(g, 0) == 0 for g in dual if g != f)


def test_dual_of_stacked_system_matches_fraction_oracle():
    a, b = operadic_relations(3, 5), paper_rule_relations(5)
    rs = RelationSystem(3, 5, a.codes, (*a.rows, *b.rows))
    _assert_matches(solve(rs), *fraction_rref(SparseMatrix.from_dicts(len(rs.codes), rs.rows)))


def test_dual_degree_six_matches_rref():
    rs = operadic_relations(3, 6)
    rank, pivots, reduced = rref(SparseMatrix.from_dicts(len(rs.codes), rs.rows))
    _assert_matches(solve(rs), rank, pivots, reduced.rows)


def _assert_same_solution(got, want):
    assert got.rows == want.rows
    assert got.dual == want.dual
    assert (got.rank, got.pivots, got.quotient_basis) == (want.rank, want.pivots, want.quotient_basis)
    assert _typed(got.reduced.rows) == _typed(want.reduced.rows)


def _assert_matches_stacked_oracle(joint, solved, extra):
    # the Fraction elimination of solved's reduced rows and extra's, which
    # span the stacked rows' space: the oracle takes 5 s on the 2,380
    # operadic rows of degree 6 and 10 ms on their 1,421 reduced ones
    assert joint.rows == (*solved.rows, *extra.rows)
    rows = [*map(dict, solved.reduced.rows), *extra.rows]
    _assert_matches(joint, *fraction_rref(SparseMatrix.from_dicts(len(joint.codes), rows)))


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_solve_stacked_matches_joint_elimination(p):
    op = solve(operadic_relations(3, p))
    pr = paper_rule_relations(p)
    joint, failing = solve_stacked(op, pr)
    _assert_same_solution(joint, solve(RelationSystem(3, p, op.codes, (*op.rows, *pr.rows))))
    assert failing == []
    if p <= 5:
        assert all(in_row_space(op.reduced, row) for row in pr.rows)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_solve_stacked_with_rows_outside(p):
    # rows 0 and 2 are op rows plus combinations of basis codes, so they lie
    # outside op's row space; row 1 is an op row. The joint dual vector at f2
    # is v_f2 - (v_f0 + v_f1)/2, so halves meet and must sum to exact ints.
    op = solve(operadic_relations(3, p))
    f0, f1, f2 = list(op.dual)[:3]

    def plus(row, scale, extra):
        out = {c: scale * v for c, v in row.items()}
        for c, v in extra.items():
            out[c] = out.get(c, 0) + v
        return {c: v for c, v in out.items() if v}

    extra_rows = (
        plus(op.rows[0], 1, {f0: 2, f2: 1}),
        dict(op.rows[0]),
        plus(op.rows[1], Fraction(1, 2), {f1: 2, f2: 1}),
    )
    extra = RelationSystem(3, p, op.codes, extra_rows)
    joint, failing = solve_stacked(op, extra)
    _assert_matches_stacked_oracle(joint, op, extra)
    assert failing == [i for i, row in enumerate(extra_rows) if not in_row_space(op.reduced, row)]
    assert failing == [0, 2]
    assert joint.rank == op.rank + 2
    assert joint.dual[f2][f0] == joint.dual[f2][f1] == Fraction(-1, 2)


def test_solve_stacked_guards():
    with pytest.raises(ValueError):
        solve_stacked(operadic_relations(3, 3), paper_rule_relations(3))
    with pytest.raises(ValueError):
        solve_stacked(solve(operadic_relations(3, 4)), paper_rule_relations(3))


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_solve_stacked_reads_the_dual_when_every_row_is_inside(p, monkeypatch):
    # the rule rows lie in the operadic row space, so the joint dual is op's
    # and no second elimination runs
    op = solve(operadic_relations(3, p))

    def no_elimination(*args):
        raise AssertionError("kernel_basis called")

    monkeypatch.setattr(freealg, "kernel_basis", no_elimination)
    joint, failing = solve_stacked(op, paper_rule_relations(p))
    assert failing == []
    assert joint.dual == op.dual and joint.method == op.method


# ------------------------------------------------------------- recursion


def test_one_node_preimages_invert_the_images():
    for n in (2, 3, 4):
        for p in range(1, 5):
            codes = enumerate_codes(n, p)
            sources = {c.indices: set() for c in enumerate_codes(n, p + 1)}
            for code in codes:
                images = _one_node_images(n, code.indices)
                assert len(images) == code.leaves + n
                for idx in images:
                    sources[idx].add(code.indices)
            valid = {c.indices for c in codes}
            for idx, found in sources.items():
                assert found == set(_one_node_preimages(n, idx)) & valid, (n, idx)


def test_one_node_preimages_are_codes_but_the_root_removal():
    # _live_codes tests only the last preimage, the root removal, for being
    # a code: every corolla removal of a code is one
    for n in (2, 3, 4, 5):
        for p in range(2, 8 if n < 4 else 6):
            for idx in freealg._code_tuples(n, p):
                *removals, _ = _one_node_preimages(n, idx)
                assert all(freealg._is_code(n, t) for t in removals), (n, idx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_node_operations_map_rows_onto_rows(n):
    # the fact the recursion rests on: the images of the degree-(p-1) rows
    # under the one-node operations are exactly the degree-p rows, signs
    # included
    for p in range(3, 6):
        prev, rs = operadic_relations(n, p - 1), operadic_relations(n, p)
        col = {c: i for i, c in enumerate(rs.codes)}
        images = [_one_node_images(n, c) for c in prev.codes]
        grafted = {
            frozenset((col[images[c][k]], x) for c, x in row.items())
            for row in prev.rows
            for k in range(len(images[0]))
        }
        assert grafted == {frozenset(row.items()) for row in rs.rows}, (n, p)


# n = 2..5 at p = 2..6, up to 2100 codes
SMALL_DEGREES = [(n, p) for n in (2, 3, 4, 5) for p in range(2, 7) if fuss_catalan(n, p) <= 2100]


def test_one_node_operations_keep_lex_order():
    # _recursive_dual does not sort its core rows: the terms of a reduced
    # row are ascending codes, so each operation's images must ascend too
    for n, p in SMALL_DEGREES:
        images = [_one_node_images(n, c) for c in freealg._code_tuples(n, p)]
        for k in range(len(images[0])):
            column = [im[k] for im in images]
            assert all(a < b for a, b in zip(column, column[1:])), (n, p, k)


def _families(codes):
    # codes by all but their last index, as the certificate groups them
    families = {}
    for code in codes:
        families.setdefault(code[:-1], []).append(code[-1])
    return families


def test_rows_through_a_code_are_the_generated_rows_holding_it():
    # the certificate reads a code's p - 1 rows from the code alone; they are
    # exactly the generated rows that hold it, signs included, and together
    # they are every row
    for n, p in SMALL_DEGREES:
        rs = operadic_relations(n, p)
        col = {c: i for i, c in enumerate(rs.codes)}
        holding = {c: [] for c in range(len(rs.codes))}
        for row in rs.rows:
            for c in row:
                holding[c].append(dict(row))
        through = {
            s + (q,): rows
            for s, qs in _families(rs.codes).items()
            for q, rows in zip(qs, _family_rows(n, s, qs))
        }
        union = set()
        for c, code in enumerate(rs.codes):
            got = [{col[t]: x for t, x in row.items()} for row in through[code]]
            assert len(got) == p - 1, (n, p, code)
            assert sorted(got, key=sorted) == sorted(holding[c], key=sorted), (n, p, code)
            union.update(frozenset(row.items()) for row in got)
        assert union == {frozenset(row.items()) for row in rs.rows}, (n, p)


@pytest.mark.parametrize("n, p", SMALL_DEGREES)
def test_family_rows_match_the_one_code_walk(n, p):
    # walking a prefix once gives, code by code, the rows of walking each
    # code, with no skip, with the map's codes as the certificate skips
    # them, and with every third code
    rs = operadic_relations(n, p)
    dual = kernel_basis(SparseMatrix.from_dicts(len(rs.codes), rs.rows))
    nf = _normal_forms(_by_code(rs, dual))
    skips = ((), nf, set(rs.codes[::3]))
    for s, qs in _families(rs.codes).items():
        for skip in skips:
            got = _family_rows(n, s, qs, skip)
            assert got == [rows_through(n, s + (q,), skip) for q in qs], (n, p, s)
    for s, qs in _families(nf).items():
        got = _family_rows(n, s, qs, nf)
        assert got == [rows_through(n, s + (q,), nf) for q in qs], (n, p, s)


def _by_code(rs, dual):
    # a dual keyed by column, as kernel_basis gives it, keyed by code
    return {rs.codes[f]: {rs.codes[c]: x for c, x in v.items()} for f, v in dual.items()}


def _every_row_annihilated(rs, basis):
    # what the certificate decides, read from every generated row
    nf = _normal_forms(basis)
    return not any(_image(nf, {rs.codes[c]: x for c, x in row.items()}) for row in rs.rows)


def _single_entry_corruptions(basis, codes):
    # for the first and the last f, v_f with 1 added at a basis code (another
    # one where there is one), with the entry at one of its pivot codes
    # dropped, and with 1 put at a zero code: the support stays, can shrink,
    # and grows
    nf = _normal_forms(basis)
    zero = next((c for c in codes if c not in nf), None)
    for f in {min(basis), max(basis)}:
        v = basis[f]
        other = next((g for g in basis if g != f), f)
        pivot = next((c for c in v if c not in basis), None)
        yield {**basis, f: {**v, other: v.get(other, 0) + 1}}
        if pivot is not None:
            yield {**basis, f: {c: x for c, x in v.items() if c != pivot}}
        if zero is not None:
            yield {**basis, f: {**v, zero: 1}}


@pytest.mark.parametrize("n, p", SMALL_DEGREES)
def test_certificate_agrees_with_reading_every_row(n, p):
    # the rows through the support, each read from the first of its codes in
    # the map, decide exactly as every generated row does; a corrupted v_f
    # differs from the kernel vector by a multiple of some e_c, and every
    # code lies in some row, so each corruption fails
    rs = operadic_relations(n, p)
    basis = _by_code(rs, kernel_basis(SparseMatrix.from_dicts(len(rs.codes), rs.rows)))
    assert _annihilates(rs, basis) and _every_row_annihilated(rs, basis)
    corruptions = list(_single_entry_corruptions(basis, rs.codes))
    assert corruptions
    for corrupted in corruptions:
        assert not _every_row_annihilated(rs, corrupted), (n, p)
        assert not _annihilates(rs, corrupted), (n, p)


def test_certificate_builds_each_row_through_the_support_once(monkeypatch):
    # a row is read from the first of its codes in the map, so the rows of
    # any later code are dropped before they are built: 525 rows at p = 6 and
    # 1,488 at p = 7, the generated rows that meet the support, against the
    # 1,085 and 3,024 of building every support code's p - 1 rows; at p = 8
    # the certificate builds 3,969 rows and the recursion's core has 2,066
    built, core = [], []

    def counting(*args, **kwargs):
        families = _family_rows(*args, **kwargs)
        built.extend(row for rows in families for row in rows)
        return families

    def kernel(m):
        core.extend(m.rows)
        return kernel_basis(m)

    monkeypatch.setattr(freealg, "_family_rows", counting)
    monkeypatch.setattr(freealg, "kernel_basis", kernel)
    for p, want in ((6, 525), (7, 1488)):
        rs = operadic_relations(3, p)
        basis = solved_relations(3, p).basis
        built.clear()
        assert _annihilates(rs, basis)
        assert len(built) == want, p
        support = {c for v in basis.values() for c in v}
        rows = [{rs.codes[c]: x for c, x in row.items()} for row in rs.rows]
        meeting = {frozenset(row.items()) for row in rows if not support.isdisjoint(row)}
        assert {frozenset(row.items()) for row in built} == meeting
    basis = solved_relations(3, 8).basis
    built.clear()
    assert _annihilates(operadic_relations(3, 8), basis)
    assert len(built) == 3969
    assert _recursive(3, 8) == basis
    assert len(core) == 2066


def _recursive(n, p):
    prev = solved_relations(n, p - 1)
    return _recursive_dual(operadic_relations(n, p), prev, _normal_forms(prev.basis))


def _oracle_dual(rs):
    # the dual basis from oracles.fraction_rref, rows by lowest column
    # descending, which keeps the Fraction elimination fast
    m = SparseMatrix.from_dicts(len(rs.codes), rs.rows)
    m.rows.sort(key=lambda row: -row[0][0])
    return fraction_kernel(m)


@pytest.mark.parametrize(
    "n, p",
    [(2, p) for p in range(3, 7)] + [(3, p) for p in range(3, 7)]
    + [(4, 3), (4, 4), (5, 3), (5, 4)],
)
def test_recursive_dual_matches_elimination_and_fraction_oracle(n, p):
    # for every arity, not only where solve takes the recursion
    rs = operadic_relations(n, p)
    got = _recursive(n, p)
    assert got == _by_code(rs, kernel_basis(SparseMatrix.from_dicts(len(rs.codes), rs.rows)))
    assert got == _by_code(rs, _oracle_dual(rs))
    assert _annihilates(rs, got)


@pytest.mark.parametrize(
    "n, p",
    [(3, p) for p in range(3, 9)] + [(2, p) for p in range(3, 7)]
    + [(4, 3), (4, 4), (5, 3), (5, 4)],
)
def test_live_columns_match_the_full_scan(n, p):
    # the live codes, the columns of the recursion's core, built from the
    # support are the codes whose one-node preimages all miss Z, found by
    # testing every code, in the same order
    rs, prev = operadic_relations(n, p), solved_relations(n, p - 1)
    nf = _normal_forms(prev.basis)
    assert _live_codes(rs, nf) == scanned_live_codes(rs, nf)


def test_solve_by_recursion_matches_elimination_to_degree_seven():
    for p in range(2, 8):
        rs = operadic_relations(3, p)
        solved = solve(rs)
        assert solved.method == ("recursion" if p >= 5 else "elimination"), p
        assert solved.dual == kernel_basis(SparseMatrix.from_dicts(len(rs.codes), rs.rows))
        assert _solved_cache[(3, p)] is solved


def test_solve_eliminates_other_arities_and_unmarked_systems():
    for n, p in ((2, 6), (4, 5), (5, 4)):
        assert solve(operadic_relations(n, p)).method == "elimination"
    rs = operadic_relations(3, 6)
    assert rs.generator == "operadic"
    doubled = RelationSystem(3, 6, rs.codes, (*rs.rows, *rs.rows))
    for other in (replace(rs), doubled, paper_rule_relations(6)):
        assert other.generator is None
        solved = solve(other)
        assert solved.method == "elimination"
        assert solved.dual == solve(rs).dual


def _edited(rs, dual):
    # rs with one row dropped, and with a coefficient moved off the span:
    # the changed row meets some v_f of rs's dual at 1
    f = next(iter(dual))
    r = next(i for i, row in enumerate(rs.rows) if f in row)
    changed = [dict(row) for row in rs.rows]
    changed[r][f] += 1
    return replace(rs, rows=rs.rows[1:]), replace(rs, rows=tuple(changed))


@pytest.mark.parametrize("p", [5, 6])
def test_edited_system_is_eliminated_and_not_cached(p):
    # marked, either degree would take the recursion
    rs = operadic_relations(3, p)
    genuine = kernel_basis(SparseMatrix.from_dicts(len(rs.codes), rs.rows))
    with pytest.raises(TypeError):
        rs.rows[0][0] = 1
    for edited in _edited(rs, genuine):
        assert edited.generator is None
        _solved_cache.pop((3, p), None)
        solved = solve(edited)
        assert solved.method == "elimination"
        assert solved.dual == kernel_basis(
            SparseMatrix.from_dicts(len(rs.codes), edited.rows)
        )
        assert (3, p) not in _solved_cache
        assert solved_relations(3, p).dual == genuine
    assert solve(_edited(rs, genuine)[1]).rank == len(rs.codes) - len(genuine) + 1


def test_edited_degree_below_leaves_the_recursion_genuine():
    # an edited degree-5 system enlarges the row space; it must not become
    # the degree below that degree 6 is grafted from
    below = operadic_relations(3, 5)
    dual = kernel_basis(SparseMatrix.from_dicts(len(below.codes), below.rows))
    for p in (5, 6):
        _solved_cache.pop((3, p), None)
    solve(_edited(below, dual)[1])
    assert (3, 5) not in _solved_cache
    rs = operadic_relations(3, 6)
    solved = solve(rs)
    assert solved.method == "recursion"
    assert solved.dual == kernel_basis(SparseMatrix.from_dicts(len(rs.codes), rs.rows))


def test_failed_certificate_falls_back_to_elimination(monkeypatch):
    # one v_f entry changed, at f itself or at a pivot code of v_f
    for p in (5, 6):
        rs = operadic_relations(3, p)
        genuine = solve(rs).basis
        for at_basis in (True, False):
            basis = {f: dict(v) for f, v in genuine.items()}
            f = next(iter(basis))
            c = f if at_basis else next(c for c in basis[f] if c != f)
            basis[f][c] += 1
            assert not _annihilates(rs, basis), (p, c)
            with monkeypatch.context() as m:
                m.setattr(freealg, "_recursive_dual", lambda *args: basis)
                solved = solve(rs)
            assert solved.method == "elimination"
            assert solved.basis == genuine
            assert solved.dual == kernel_basis(SparseMatrix.from_dicts(len(rs.codes), rs.rows))


def test_certificate_rejects_a_corrupted_dual_vector():
    rs = operadic_relations(3, 6)
    basis = solve(rs).basis
    assert _annihilates(rs, basis)
    zero = next(c for c in rs.codes if all(c not in v for v in basis.values()))
    for f, v in basis.items():
        for c, bump in [(c, 1) for c in v] + [(zero, 1), (f, Fraction(1, 2))]:
            corrupted = dict(basis)
            corrupted[f] = {**v, c: v.get(c, 0) + bump}
            assert not _annihilates(rs, corrupted), (f, c)


@pytest.mark.parametrize("n, p", [(3, p) for p in range(2, 7)] + [(4, p) for p in range(2, 5)])
def test_normal_form_map_matches_reduced_rows_and_fraction_oracle(n, p):
    # the one normal-form map against its two readings: a basis code is
    # fixed, a pivot goes to minus its reduced row's tail (a zero code to 0),
    # and the coordinates are those of the Fraction elimination's dual
    rs = solve(operadic_relations(n, p))
    dual = rs.dual
    nf = _normal_forms(dual)
    tails = {row[0][0]: row[1:] for row in rs.reduced.rows}
    oracle = _oracle_dual(rs)
    for c, code in enumerate(rs.codes):
        want = {c: 1} if c in dual else {f: -x for f, x in tails[c]}
        assert {f: v[c] for f, v in oracle.items() if c in v} == want
        got = normal_form(FreeElement.from_code(TreeCode(n, p, code)), rs)
        assert got.entries == {(TreeCode(n, p, rs.codes[f]), None): x for f, x in want.items()}
        assert (c in nf) == bool(want)
        assert [f for f, _ in nf.get(c, ())] == sorted(want)


@pytest.mark.parametrize("n, p", [(3, 4), (3, 6), (4, 4)])
def test_solve_stacked_keeps_a_sum_of_relation_rows_inside(n, p):
    # both rows hold codes of the map, so the summed row's codes have nonzero
    # normal forms that cancel only once summed over the row
    op = solve(operadic_relations(n, p))
    nf = _normal_forms(op.dual)
    a, b = [row for row in op.rows if not nf.keys().isdisjoint(row)][:2]
    row = {c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()}
    row = {c: x for c, x in row.items() if x}
    assert any(_image(nf, {c: x}) for c, x in row.items())
    assert _image(nf, row) == {}
    f = next(iter(op.dual))
    extra = RelationSystem(n, p, op.codes, (row, {f: 1}))
    joint, failing = solve_stacked(op, extra)
    assert failing == [1]
    _assert_matches_stacked_oracle(joint, op, extra)
    joint, failing = solve_stacked(op, RelationSystem(n, p, op.codes, (row,)))
    assert failing == []
    assert joint.dual == op.dual


# ------------------------------------------------------------- normal form


def test_normal_form_degree_two():
    rs = solved_relations(3, 2)
    x = FreeElement.from_code(TreeCode(3, 2, (1,)))
    nf = normal_form(x, rs)
    want = FreeElement(
        3,
        2,
        {
            (TreeCode(3, 2, (2,)), None): -1,
            (TreeCode(3, 2, (3,)), None): -1,
        },
    )
    assert nf == want


def test_normal_form_fixes_basis_codes():
    rs = solved_relations(3, 3)
    for code in rs.quotient_basis:
        x = FreeElement.from_code(code)
        assert normal_form(x, rs) == x


def test_normal_form_idempotent_and_linear():
    rng = random.Random(11)
    rs = solved_relations(3, 3)
    entries = {}
    for code in rng.sample(list(rs.codes), 6):
        entries[(TreeCode(3, 3, code), None)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    x = FreeElement(3, 3, entries)
    nf = normal_form(x, rs)
    assert normal_form(nf, rs) == nf
    assert normal_form(x.scale(3), rs) == nf.scale(3)


def test_normal_form_kills_relation_rows():
    for p in (2, 3, 4):
        rs = solved_relations(3, p)
        for row in rs.rows:
            x = FreeElement(
                3, p, {(TreeCode(3, p, rs.codes[c]), None): v for c, v in row.items()}
            )
            assert normal_form(x, rs).is_zero()


def test_normal_form_degree_mismatch():
    rs = solved_relations(3, 2)
    with pytest.raises(ValueError):
        normal_form(FreeElement.from_code(TreeCode(3, 3, (1, 1))), rs)


def test_code_lookup_rejects_a_code_outside_the_system():
    # a system over part of the codes: the missing code is a ValueError for
    # normal_form and for l9_basis_report, not a KeyError or a wrong column
    codes = relation_system(3, 2).codes
    rs = solve(RelationSystem(3, 2, codes[:2], ()))
    second, third = (FreeElement.from_code(TreeCode(3, 2, c)) for c in codes[1:])
    assert normal_form(second, rs) == second
    with pytest.raises(ValueError, match="not a code of the system"):
        normal_form(third, rs)
    first = PUBLISHED_L9_CODES[0]
    rest = tuple(c for c in relation_system(3, 4).codes if c != first)
    with pytest.raises(ValueError, match="not a code of the system"):
        l9_basis_report(solve(RelationSystem(3, 4, rest, ())))


def test_normal_form_requires_solved():
    rs = operadic_relations(3, 2)
    with pytest.raises(ValueError):
        normal_form(FreeElement.from_code(TreeCode(3, 2, (1,))), rs)


# ------------------------------------------------------------- free product


def test_product_of_leaves():
    x = FreeElement.leaf(0)
    y = FreeElement.leaf(1)
    z = FreeElement.leaf(2)
    prod = free_product(x, y, z)
    assert prod.p == 1
    assert prod.entries == {(TreeCode(3, 1, ()), (0, 1, 2)): 1}


def test_product_reduces_modulo_relations():
    # bracketing the first three letters lands on code (1), which rewrites
    g1 = FreeElement.from_code(TreeCode(3, 1, ()))
    leaf = FreeElement.from_code(TreeCode(3, 0, ()))
    prod = free_product(g1, leaf, leaf)
    codes = {code.indices: v for (code, _), v in prod.entries.items()}
    assert codes == {(2,): -1, (3,): -1}


def test_product_partial_associativity():
    leaf = FreeElement.from_code(TreeCode(3, 0, ()))
    inner = free_product(leaf, leaf, leaf)
    total = FreeElement.zero(3, 2)
    slots = [
        free_product(inner, leaf, leaf),
        free_product(leaf, inner, leaf),
        free_product(leaf, leaf, inner),
    ]
    for term in slots:
        total = total + term
    assert total.is_zero()


def test_product_trivial_patterns_degree_four():
    g1 = FreeElement.from_code(TreeCode(3, 1, ()))
    leaf = FreeElement.from_code(TreeCode(3, 0, ()))
    # three bracketed factors
    assert free_product(g1, g1, g1).is_zero()
    # a factor with two bracketed slots in the same product
    l7 = free_product(g1, leaf, g1)
    assert not l7.is_zero()
    assert free_product(l7, leaf, leaf).is_zero()
    # two bracketed factors, adjacent across different products
    inner = free_product(leaf, leaf, g1)
    assert free_product(leaf, inner, g1).is_zero()
    # one bracketed factor nested under two extra products
    l5 = free_product(g1, leaf, leaf)
    l7b = free_product(l5, leaf, leaf)
    assert free_product(leaf, leaf, l7b).is_zero()


def test_product_with_zero_first_factor():
    g1 = FreeElement.from_code(TreeCode(3, 1, ()))
    leaf = FreeElement.from_code(TreeCode(3, 0, ()))
    x = free_product(g1, g1, g1)
    assert x.is_zero()
    for factors in ((x, g1, leaf), (g1, x, leaf), (leaf, g1, x)):
        prod = free_product(*factors)
        assert prod.is_zero() and prod.p == 6


def test_product_mode_and_arity_guards():
    leaf = FreeElement.leaf(0)
    uniform = FreeElement.from_code(TreeCode(3, 0, ()))
    with pytest.raises(ValueError):
        free_product(leaf, uniform, leaf)
    with pytest.raises(ValueError):
        free_product(
            FreeElement.zero(2, 0), FreeElement.zero(2, 0), FreeElement.zero(2, 0)
        )


def test_element_validation():
    with pytest.raises(ValueError):
        FreeElement(3, 2, {(TreeCode(3, 3, (1, 1)), None): 1})
    with pytest.raises(ValueError):
        FreeElement(3, 1, {(TreeCode(3, 1, ()), (0, 1)): 1})  # short word
    with pytest.raises(ValueError):
        FreeElement.zero(3, 1) + FreeElement.zero(3, 2)
    x = FreeElement.leaf(1).scale(Fraction(2, 3))
    assert x.entries[(TreeCode(3, 0, ()), (1,))] == Fraction(2, 3)
    assert (x - x).is_zero()


# ------------------------------------------------------------- evaluate


def test_evaluate_single_leaf():
    mu = bracket_associator(filiform5_bracket())
    for i in range(5):
        assert evaluate(FreeElement.leaf(i), mu) == [
            1 if j == i else 0 for j in range(5)
        ]


def test_evaluate_rejects_bad_inputs():
    mu = bracket_associator(filiform5_bracket())
    uniform = FreeElement.from_code(TreeCode(3, 1, ()))
    with pytest.raises(ValueError):
        evaluate(uniform, mu)
    from naryalg.gerstenhaber import MultiMap

    with pytest.raises(ValueError):
        evaluate(FreeElement.leaf(0, n=2), mu)
    # a product that is not partially associative
    bad = MultiMap.from_entries(2, 3, {((0, 0, 0), 1): 1, ((1, 0, 0), 1): 1})
    with pytest.raises(ValueError):
        evaluate(FreeElement.leaf(0), bad)


def test_relation_rows_evaluate_to_zero():
    rng = random.Random(7)
    rs = solved_relations(3, 3)
    mus = [square_zero_map(rng, 3, 3, 2) for _ in range(3)]
    mus.append(bracket_associator(filiform5_bracket()))
    for mu in mus:
        d = mu.dim
        for row in rs.rows:
            word = tuple(rng.randrange(d) for _ in range(7))
            x = FreeElement(
                3, 3, {(TreeCode(3, 3, rs.codes[c]), word): v for c, v in row.items()}
            )
            assert all(v == 0 for v in evaluate(x, mu))


def test_evaluate_morphism_law():
    rng = random.Random(13)
    mu = bracket_associator(filiform5_bracket())
    for _ in range(5):
        a = FreeElement.leaf(rng.randrange(5))
        b = FreeElement.leaf(rng.randrange(5))
        c = FreeElement.leaf(rng.randrange(5))
        inner = free_product(a, b, c)
        lhs = evaluate(free_product(inner, b, a), mu)
        ev_inner = evaluate(inner, mu)
        ev_b = evaluate(b, mu)
        ev_a = evaluate(a, mu)
        rhs = [0] * 5
        for i1, c1 in enumerate(ev_inner):
            if not c1:
                continue
            for i2, c2 in enumerate(ev_b):
                if not c2:
                    continue
                for i3, c3 in enumerate(ev_a):
                    if not c3:
                        continue
                    for j, cm in mu.value_at((i1, i2, i3)).items():
                        rhs[j] += c1 * c2 * c3 * cm
        assert lhs == rhs


def test_importing_freealg_leaves_gerstenhaber_unloaded():
    # evaluate imports what it needs from gerstenhaber when it is called
    script = """
import sys
sys.path.insert(0, sys.argv[1])
from naryalg import freealg
assert "naryalg.gerstenhaber" not in sys.modules, "gerstenhaber imported"
from naryalg.gerstenhaber import MultiMap
bad = MultiMap.from_entries(2, 3, {((0, 0, 0), 1): 1, ((1, 0, 0), 1): 1})
try:
    freealg.evaluate(freealg.FreeElement.leaf(0), bad)
except ValueError as e:
    print(e)
"""
    src = str(Path(freealg.__file__).parents[1])
    argv = [sys.executable, "-I", "-c", script, src]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "product is not partially associative\n"


def test_evaluate_rejects_out_of_range_leaves():
    from naryalg.gerstenhaber import MultiMap

    mu = MultiMap.from_entries(2, 3, {((0, 0, 0), 1): 1})
    g = TreeCode(3, 1, ())
    assert evaluate(FreeElement.from_code(g, (0, 0, 0)), mu) == [0, 1]
    for bad in (-1, 2, 5):
        with pytest.raises(ValueError, match="out of range"):
            evaluate(FreeElement.leaf(bad), mu)
        with pytest.raises(ValueError, match="out of range"):
            evaluate(FreeElement.from_code(g, (0, 0, bad)), mu)


def test_evaluate_matches_tree_walk():
    rng = random.Random(29)
    mus = [bracket_associator(filiform5_bracket())]
    mus += [square_zero_map(rng, 3, 3, 2) for _ in range(2)]
    for trial in range(30):
        mu = mus[trial % len(mus)]
        p = rng.randrange(4)
        codes = enumerate_codes(3, p) if p else [TreeCode(3, 0, ())]
        entries = {}
        for _ in range(rng.randrange(1, 4)):
            code = rng.choice(codes)
            word = tuple(rng.randrange(mu.dim) for _ in range(code.leaves))
            entries[(code, word)] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        want = [0] * mu.dim
        for (code, word), coef in entries.items():
            vec = tree_value(tree_from_code(code), word, mu)
            want = [w + coef * v for w, v in zip(want, vec)]
        assert evaluate(FreeElement(3, p, entries), mu) == want


# ------------------------------------------------------------- basis report


def test_published_degree_four_basis():
    rep = l9_basis_report()
    assert isinstance(rep, BasisComparison)
    assert rep.quotient_dim == 5
    assert rep.independent
    assert rep.invertible
    assert [c.indices for c in rep.candidate_codes] == [
        (3, 4, 4),
        (3, 4, 6),
        (1, 2, 4),
        (1, 2, 2),
        (1, 1, 7),
    ]
    rank, _, _ = rref(SparseMatrix.from_dense([list(r) for r in rep.change_of_basis], 5))
    assert rank == 5
    # only the solved (3, 4) system carries the published codes
    for rs in (relation_system(3, 4), solved_relations(3, 3)):
        with pytest.raises(ValueError, match="need the solved degree-4 system"):
            l9_basis_report(rs)


def test_basis_report_tells_independent_from_invertible():
    # with no relations the five published codes are distinct unit classes
    # of the 55-dimensional quotient: independent, not a basis
    codes = relation_system(3, 4).codes
    rep = l9_basis_report(solve(RelationSystem(3, 4, codes, ())))
    assert rep.quotient_dim == 55
    assert rep.independent and not rep.invertible
    assert sorted(map(sorted, rep.change_of_basis)) == [[0] * 54 + [1]] * 5
    # one relation identifying two of them leaves them dependent
    a, b = (codes.index(t) for t in PUBLISHED_L9_CODES[:2])
    rep = l9_basis_report(solve(RelationSystem(3, 4, codes, ({a: 1, b: -1},))))
    assert rep.quotient_dim == 54
    assert not rep.independent and not rep.invertible


def test_six_codes_always_dependent():
    rs = solved_relations(3, 4)
    rng = random.Random(3)
    picks = rng.sample(list(rs.codes), 6)
    vecs = []
    pos = {c: i for i, c in enumerate(rs.quotient_basis)}
    for code in picks:
        nf = normal_form(FreeElement.from_code(TreeCode(3, 4, code)), rs)
        row = [0] * 5
        for (c, _), v in nf.entries.items():
            row[pos[c]] = v
        vecs.append(row)
    rank, _, _ = rref(SparseMatrix.from_dense(vecs, 5))
    assert rank < 6


# ------------------------------------------------------------- dims and json


def test_free_dims_table_and_formula_flags():
    report = free_dims(3, 4)
    assert [r["multiplier"] for r in report] == [1, 2, 4, 5]
    assert [r["matches_formula"] for r in report] == [False, False, True, True]
    assert [r["codes"] for r in report] == [1, 3, 12, 55]
    assert all(r["seconds"] >= 0 for r in report)
    assert [r["method"] for r in free_dims(3, 6)] == ["elimination"] * 4 + ["recursion"] * 2
    assert {r["method"] for r in free_dims(4, 4, generator="operadic")} == {"elimination"}
    both = free_dims(3, 6, generator="both")
    assert [r["rows"] for r in both] == [0, 2, 16, 135, 1324, 15820]
    assert [r["rank"] for r in both] == [0, 1, 8, 50, 267, 1421]
    assert [r["multiplier"] for r in both] == [1, 2, 4, 5, 6, 7]
    assert [r["method"] for r in both] == ["elimination"] * 4 + ["recursion"] * 2


def test_free_dims_degree_nine():
    # the recursion reaches p = 9 (246,675 codes) without building its
    # 657,800 rows
    try:
        report = free_dims(3, 9)
        assert [r["multiplier"] for r in report] == [1, 2] + [p + 1 for p in range(3, 10)]
        assert [r["method"] for r in report] == ["elimination"] * 4 + ["recursion"] * 5
    finally:
        for p in (7, 8, 9):
            _solved_cache.pop((3, p), None)


def test_free_dims_generators_agree():
    by_rules = free_dims(3, 4, generator="paper-rules")
    joint = free_dims(3, 4, generator="both")
    assert [r["multiplier"] for r in by_rules] == [1, 2, 4, 5]
    assert [r["multiplier"] for r in joint] == [1, 2, 4, 5]
    with pytest.raises(ValueError):
        free_dims(3, 3, generator="mathematica")
    with pytest.raises(ValueError):
        free_dims(2, 3, generator="paper-rules")
    with pytest.raises(ValueError):
        free_dims(2, 3, generator="both")


def test_free_dims_both_matches_joint_elimination():
    # both is solved through solve_stacked; the stacked elimination is the
    # reference, from the seed degree on
    for row in free_dims(3, 5, generator="both")[1:]:
        p = row["p"]
        a, b = relation_system(3, p, "operadic"), relation_system(3, p, "paper-rules")
        joint = solve(RelationSystem(3, p, a.codes, (*a.rows, *b.rows)))
        assert (row["rows"], row["rank"], row["multiplier"]) == (
            len(joint.rows), joint.rank, joint.multiplier
        ), p
    with pytest.raises(ValueError):
        relation_system(3, 4, "both")


def test_relation_system_json():
    rs = solve(operadic_relations(3, 3))
    data = rs.to_json_dict()
    assert data["n"] == 3 and data["p"] == 3
    assert data["rank"] == 8
    assert data["quotient_multiplier"] == 4
    assert len(data["codes"]) == 12
    assert len(data["relations"]) == 8
    assert len(data["quotient_basis"]) == 4
    first = data["relations"][0]
    assert all(set(e) == {"code", "coef"} for e in first)
    assert all(isinstance(e["coef"], str) for e in first)
    with pytest.raises(ValueError):
        operadic_relations(3, 2).to_json_dict()
