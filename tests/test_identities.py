import math
import random
from itertools import product

import pytest

from naryalg.exactnum import SparseMatrix, stacked_ranks
from naryalg.gerstenhaber import (
    MultiMap,
    antisymmetrize,
    gprod,
    partial_assoc_defect,
)
from naryalg.graded import GradedSpace, graded_gprod
from naryalg.identities import (
    BUILTIN_ALGEBRAS,
    BracketAlgebra,
    abelian,
    associator_from_bracket,
    bracket_from_pairs,
    builtin_algebra,
    commutativity_defect,
    f_algebra_check,
    filiform5,
    heisenberg3,
    lower_central_series,
    matrix2,
    nilpotency_class,
    permute_inputs,
    poisson_leibniz_defect,
    random_square_zero,
    random_square_zero_graded,
    roby_defects,
    so3,
)
from oracles import apply_map


def parity_example():
    # V0 = span(x1, x2), V1 = span(y); [x1, x2] = -3 x1, [x2, y] = y,
    # {y, y, y} = x1; built to satisfy all four triple-system axioms
    grading = GradedSpace((0, 0, 1))
    br = BracketAlgebra(
        MultiMap.from_entries(3, 2, {
            ((0, 1), 0): -3, ((1, 0), 0): 3,
            ((1, 2), 2): 1, ((2, 1), 2): -1,
        }),
        space=grading,
    )
    triple = MultiMap.from_entries(3, 3, {((2, 2, 2), 0): 1})
    return grading, br, triple


def test_bracket_validation():
    with pytest.raises(ValueError):
        BracketAlgebra(MultiMap.zero(2, 3))
    with pytest.raises(ValueError):
        BracketAlgebra(MultiMap.from_entries(2, 2, {((0, 1), 0): 1}))
    with pytest.raises(ValueError):
        BracketAlgebra(MultiMap.from_entries(2, 2, {((0, 0), 1): 1}))
    # skew entries pass
    BracketAlgebra(MultiMap.from_entries(2, 2, {((0, 1), 0): 2, ((1, 0), 0): -2}))


def test_graded_bracket_validation():
    odd_pair = GradedSpace((0, 1))
    # odd-odd entries are symmetric
    BracketAlgebra(MultiMap.from_entries(2, 2, {((1, 1), 0): 1}), space=odd_pair)
    with pytest.raises(ValueError):
        BracketAlgebra(MultiMap.from_entries(2, 2, {((0, 0), 0): 1}), space=odd_pair)
    with pytest.raises(ValueError):
        # [even, odd] landing in the even part breaks parity additivity
        BracketAlgebra(
            MultiMap.from_entries(2, 2, {((0, 1), 0): 1, ((1, 0), 0): -1}),
            space=odd_pair,
        )
    with pytest.raises(ValueError):
        BracketAlgebra(MultiMap.zero(3, 2), space=odd_pair)
    with pytest.raises(ValueError):
        BracketAlgebra(MultiMap.zero(2, 2), space=GradedSpace((0, 2)))


def test_bracket_json_round_trip():
    data = filiform5().to_json_dict()
    assert data["antisymmetric"] is True
    assert "degrees" not in data
    assert BracketAlgebra.from_json_dict(data).bracket == filiform5().bracket
    grading, br, _ = parity_example()
    gd = br.to_json_dict()
    assert gd["degrees"] == [0, 0, 1]
    rt = BracketAlgebra.from_json_dict(gd)
    assert rt.space == grading and rt.bracket == br.bracket


def test_bracket_json_rejects_false():
    # a map that is not antisymmetric is a product, never a bracket
    data = MultiMap.from_entries(2, 2, {((0, 1), 0): 1}).to_json_dict()
    with pytest.raises(ValueError, match='"antisymmetric": false'):
        BracketAlgebra.from_json_dict(dict(data, antisymmetric=False))
    with pytest.raises(ValueError, match="symmetry law"):
        BracketAlgebra.from_json_dict(dict(data, antisymmetric=True))


def test_bracket_from_pairs():
    b = heisenberg3()
    assert b.bracket.coef((0, 1), 2) == 1
    assert b.bracket.coef((1, 0), 2) == -1
    assert b.bracket.coef((0, 2), 0) == 0
    with pytest.raises(ValueError):
        bracket_from_pairs(2, {(1, 1): (0, 1)})


def test_jacobi_reports():
    for name in ("heisenberg3", "filiform5", "so3"):
        assert builtin_algebra(name).jacobi_report().holds
    assert abelian(3).jacobi_report().holds
    bad = bracket_from_pairs(3, {(0, 1): (0, 1), (1, 2): (1, 1), (0, 2): (2, 1)})
    rep = bad.jacobi_report()
    assert not rep.holds and rep.witness is not None
    _, br, _ = parity_example()
    assert br.jacobi_report().holds


def test_builtin_registry():
    assert set(BUILTIN_ALGEBRAS) == {"heisenberg3", "filiform5", "so3", "matrix2"}
    assert isinstance(builtin_algebra("matrix2"), MultiMap)
    assert isinstance(builtin_algebra("so3"), BracketAlgebra)
    with pytest.raises(ValueError):
        builtin_algebra("nope")


def test_nilpotency_classes():
    assert nilpotency_class(abelian(4)) == 1
    assert nilpotency_class(heisenberg3()) == 2
    assert nilpotency_class(filiform5()) == 4
    assert nilpotency_class(so3()) == math.inf


def test_lower_central_series_dims():
    assert lower_central_series(filiform5()) == [5, 3, 2, 1, 0]
    assert lower_central_series(heisenberg3()) == [3, 1, 0]
    assert lower_central_series(abelian(2)) == [2, 0]
    series = lower_central_series(so3())
    assert series[0] == 3 and series[-1] == 3


def test_filiform_associator_is_partially_associative():
    # the four-step nilpotent case: nonzero ternary associator with zero defect
    A = associator_from_bracket(filiform5())
    assert not A.is_zero()
    assert partial_assoc_defect(A).is_zero()


def test_class_two_associator_vanishes():
    # bracket values central: both nested brackets in the associator die
    assert associator_from_bracket(heisenberg3()).is_zero()
    b = bracket_from_pairs(4, {(0, 1): (3, 1), (0, 2): (3, 1), (1, 2): (3, 1)})
    assert nilpotency_class(b) == 2
    assert associator_from_bracket(b).is_zero()


def test_abelian_associator_zero():
    assert associator_from_bracket(abelian(3)).is_zero()


def test_associator_matches_bracket_form():
    # [[X,Y],Z] - [X,[Y,Z]] = [[X,Z],Y] on random vectors
    b = filiform5()
    A = associator_from_bracket(b)
    rng = random.Random(1)
    for _ in range(10):
        X, Y, Z = ([rng.randint(-2, 2) for _ in range(5)] for _ in range(3))
        direct = apply_map(b.bracket, [apply_map(b.bracket, [X, Z]), Y])
        assert apply_map(A, [X, Y, Z]) == direct


def test_associator_rejects_non_jacobi():
    bad = bracket_from_pairs(3, {(0, 1): (0, 1), (1, 2): (1, 1), (0, 2): (2, 1)})
    assert not bad.jacobi_report().holds
    with pytest.raises(ValueError):
        associator_from_bracket(bad)


def test_associator_rejects_graded_or_loose():
    _, br, _ = parity_example()
    with pytest.raises(ValueError):
        associator_from_bracket(br)


def test_so3_associator_needs_nilpotency():
    # non-nilpotent control: the associator exists but its defect is nonzero
    A = associator_from_bracket(so3())
    assert not A.is_zero()
    assert not partial_assoc_defect(A).is_zero()


def test_commutativity_of_lie_associators():
    for name in ("heisenberg3", "filiform5", "so3"):
        A = associator_from_bracket(builtin_algebra(name))
        assert commutativity_defect(A).is_zero()


def test_commutativity_defect_is_only_the_alternating_sum():
    # from arity 3 on, a zero signed permutation sum does not make mu
    # commutative: here mu(e0,e1,e1) = mu(e1,e0,e1) = e0 cancel in the sum,
    # while mu(e1,e1,e0) = 0
    mu = MultiMap.from_entries(2, 3, {((0, 1, 1), 0): 1, ((1, 0, 1), 0): 1})
    assert commutativity_defect(mu).is_zero()
    assert mu.value_at((1, 1, 0)) != mu.value_at((0, 1, 1))


def test_commutativity_symmetric_and_antisymmetric():
    sym = MultiMap.from_entries(
        2, 3, {((i, j, k), 0): 1 for i, j, k in product(range(2), repeat=3)}
    )
    assert commutativity_defect(sym).is_zero()
    lam = antisymmetrize(MultiMap.from_entries(3, 3, {((0, 1, 2), 0): 1}))
    assert not lam.is_zero()
    assert commutativity_defect(lam) == lam.scale(6)
    lam2 = antisymmetrize(MultiMap.from_entries(2, 2, {((0, 1), 0): 1}))
    assert commutativity_defect(lam2) == lam2.scale(2)


def test_roby_zero_and_antisymmetric_hold():
    assert roby_defects(MultiMap.zero(2, 3)).holds
    lam = antisymmetrize(MultiMap.from_entries(3, 3, {((0, 1, 2), 0): 1}))
    assert roby_defects(lam).holds


def test_roby_symmetric_fails():
    sym = MultiMap.from_entries(
        2, 3, {((i, j, k), 0): 1 for i, j, k in product(range(2), repeat=3)}
    )
    rep = roby_defects(sym)
    assert not rep.holds
    family, idx, out, value = rep.witness
    assert family in ("six_term", "square_term")
    assert len(idx) == 3 and value != 0


def test_roby_witness_families():
    # lone distinct-index entry: the six-term family reports first
    rep = roby_defects(MultiMap.from_entries(3, 3, {((0, 1, 2), 0): 1}))
    assert not rep.holds and rep.witness[0] == "six_term"
    # middle-slot repeated index escapes the six-term family
    rep = roby_defects(MultiMap.from_entries(2, 3, {((0, 1, 0), 0): 1}))
    assert not rep.holds and rep.witness[0] == "square_term"
    with pytest.raises(ValueError):
        roby_defects(MultiMap.zero(2, 2))


def _triple_rows(d, sums):
    """Each sum of basis triples as a row over the d^3 triples: the relation
    it puts on the structure constants of one output."""
    rows = []
    for triples in sums:
        row: dict = {}
        for a, b, c in triples:
            col = (a * d + b) * d + c
            row[col] = row.get(col, 0) + 1
        rows.append(sorted(row.items()))
    return SparseMatrix(d**3, rows)


def test_roby_cube_relations_follow_from_the_square_relations():
    # roby_defects checks no cube relation: once every square sum vanishes,
    # every cube sum does, since the cube rows add no rank to the square rows
    for d, rank in ((2, 6), (3, 18), (4, 40)):
        square = _triple_rows(d, [
            ((a, c, b), (c, a, b), (b, a, c), (b, c, a))
            for a, c, b in product(range(d), repeat=3)
        ])
        cube = _triple_rows(d, [((a, a, a),) for a in range(d)] + [
            ((a, a, c), (a, c, a), (c, a, a))
            for a in range(d) for c in range(d) if c != a
        ])
        assert stacked_ranks([square, cube]) == [rank, rank]


def test_poisson_trivial_cases():
    mu = associator_from_bracket(filiform5())
    assert poisson_leibniz_defect(mu, abelian(5)).is_zero()
    assert poisson_leibniz_defect(MultiMap.zero(5, 3), filiform5()).is_zero()
    with pytest.raises(ValueError):
        poisson_leibniz_defect(MultiMap.zero(3, 3), filiform5())
    with pytest.raises(ValueError):
        poisson_leibniz_defect(MultiMap.zero(5, 2), filiform5())


def test_poisson_matches_direct_evaluation():
    rng = random.Random(0)
    for _ in range(10):
        d = 3
        entries = {}
        for _ in range(6):
            key = (tuple(rng.randrange(d) for _ in range(3)), rng.randrange(d))
            entries[key] = rng.randint(-2, 2)
        mu = MultiMap.from_entries(d, 3, entries)
        pairs = {
            (i, j): {k: rng.randint(-2, 2) for k in range(d)}
            for i, j in ((0, 1), (0, 2), (1, 2))
        }
        b = bracket_from_pairs(d, pairs)
        defect = poisson_leibniz_defect(mu, b)
        for _ in range(4):
            vecs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(4)]
            lhs = apply_map(b.bracket, [apply_map(mu, vecs[:3]), vecs[3]])
            r1 = apply_map(mu, [apply_map(b.bracket, [vecs[0], vecs[3]]), vecs[1], vecs[2]])
            r2 = apply_map(mu, [vecs[0], apply_map(b.bracket, [vecs[1], vecs[3]]), vecs[2]])
            r3 = apply_map(mu, [vecs[0], vecs[1], apply_map(b.bracket, [vecs[2], vecs[3]])])
            direct = [a - x - y - z for a, x, y, z in zip(lhs, r1, r2, r3)]
            assert apply_map(defect, vecs) == direct


def test_poisson_filiform_associator_vanishes():
    # brackets with T act as derivations of the bracket, hence of the
    # associator, so the compatibility holds exactly here
    b = filiform5()
    assert poisson_leibniz_defect(associator_from_bracket(b), b).is_zero()


def test_f_algebra_example_holds():
    grading, br, triple = parity_example()
    rep = f_algebra_check(grading, br, triple)
    assert rep.holds
    # scaling the triple keeps every axiom (they are linear in it)
    assert f_algebra_check(grading, br, triple.scale(5)).holds


def test_f_algebra_trivial_cases():
    grading, br, triple = parity_example()
    assert f_algebra_check(grading, br, MultiMap.zero(3, 3)).holds
    zero_b = BracketAlgebra(MultiMap.zero(3, 2), space=grading)
    assert f_algebra_check(grading, zero_b, triple).holds


def test_f_algebra_support_and_target_witnesses():
    grading, br, _ = parity_example()
    rep = f_algebra_check(grading, br, MultiMap.from_entries(3, 3, {((0, 2, 2), 0): 1}))
    assert not rep.holds and rep.witness[0] == "support"
    rep = f_algebra_check(grading, br, MultiMap.from_entries(3, 3, {((2, 2, 2), 2): 1}))
    assert not rep.holds and rep.witness[0] == "target"


def test_f_algebra_leibniz_witness():
    grading = GradedSpace((0, 0, 1))
    # [x1, y] = y with {y,y,y} = x1 forces [x1, {yyy}] = 0 != 3{yyy}
    br = BracketAlgebra(
        MultiMap.from_entries(3, 2, {((0, 2), 2): 1, ((2, 0), 2): -1}),
        space=grading,
    )
    triple = MultiMap.from_entries(3, 3, {((2, 2, 2), 0): 1})
    rep = f_algebra_check(grading, br, triple)
    assert not rep.holds and rep.witness[0] == "leibniz"


def test_f_algebra_cyclic_witness():
    # V0 = span(x), V1 = span(y1, y2); [x, y2] = y2 leaves Leibniz intact
    # because the triple only fires on y1, but [y2, {y1,y1,y1}] = -y2
    grading = GradedSpace((0, 1, 1))
    br = BracketAlgebra(
        MultiMap.from_entries(3, 2, {((0, 2), 2): 1, ((2, 0), 2): -1}),
        space=grading,
    )
    triple = MultiMap.from_entries(3, 3, {((1, 1, 1), 0): 1})
    rep = f_algebra_check(grading, br, triple)
    assert not rep.holds and rep.witness[0] == "cyclic"


def test_f_algebra_shape_errors():
    grading, br, triple = parity_example()
    with pytest.raises(ValueError):
        f_algebra_check(GradedSpace((0, 0, 2)), br, triple)
    with pytest.raises(ValueError):
        f_algebra_check(GradedSpace((0, 1)), br, triple)
    with pytest.raises(ValueError):
        f_algebra_check(grading, br, MultiMap.zero(3, 2))
    with pytest.raises(ValueError):
        f_algebra_check(grading, BracketAlgebra(MultiMap.zero(3, 2), space=GradedSpace((0, 1, 1))), triple)


def test_random_square_zero_properties():
    for seed in range(15):
        mu = random_square_zero(3, 3, seed, 2)
        assert partial_assoc_defect(mu).is_zero()
        assert gprod(mu, mu).is_zero()
    for n in (2, 4):
        mu = random_square_zero(3, n, 0, 1)
        assert partial_assoc_defect(mu).is_zero()
    assert random_square_zero(3, 3, 4, 2) == random_square_zero(3, 3, 4, 2)
    assert not random_square_zero(3, 3, 4, 2).is_zero()
    with pytest.raises(ValueError):
        random_square_zero(3, 3, 0, 0)
    with pytest.raises(ValueError):
        random_square_zero(3, 3, 0, 3)


def test_random_square_zero_block_structure():
    mu = random_square_zero(4, 3, 2, 2)
    for inputs, out, _ in mu.items():
        assert all(i < 2 for i in inputs) and out >= 2


def test_random_square_zero_graded():
    g = random_square_zero_graded(3, 3, 7, 2)
    assert g.space.degrees == (1, 1, 4)
    assert g.degree == 1
    assert graded_gprod(g, g).is_zero()
    g2 = random_square_zero_graded(4, 2, 1, 2, degree=-1)
    assert g2.space.degrees == (1, 1, 1, 1)
    assert g2.degree == -1


def test_matrix2_is_associative_with_unit():
    m2 = matrix2()
    assert m2.dim == 4 and m2.arity == 2
    assert partial_assoc_defect(m2).is_zero()
    ident = [1, 0, 0, 1]
    for i in range(4):
        basis = [0] * 4
        basis[i] = 1
        assert apply_map(m2, [ident, basis]) == basis
        assert apply_map(m2, [basis, ident]) == basis


def test_permute_inputs():
    m = MultiMap.from_entries(3, 3, {((0, 1, 2), 0): 5})
    pm = permute_inputs(m, (0, 2, 1))
    assert pm.coef((0, 2, 1), 0) == 5
    assert pm.coef((0, 1, 2), 0) == 0
    assert permute_inputs(pm, (0, 2, 1)) == m
    rng = random.Random(2)
    entries = {}
    for _ in range(5):
        key = (tuple(rng.randrange(2) for _ in range(3)), rng.randrange(2))
        entries[key] = rng.randint(-2, 2)
    m = MultiMap.from_entries(2, 3, entries)
    perm = (2, 0, 1)
    pm = permute_inputs(m, perm)
    for _ in range(5):
        vecs = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
        assert apply_map(pm, vecs) == apply_map(m, [vecs[p] for p in perm])
    with pytest.raises(ValueError):
        permute_inputs(m, (0, 1, 1))


def test_graded_witnesses_keep_first_touch_order():
    # output e1 cancels inside the first term of each sum but not in the
    # total; the witness is the first nonzero output in the order the sum
    # first touches them, so e1 (touched first) is reported, not e2
    b = bracket_from_pairs(3, {(1, 2): {1: 1, 2: 1}, (0, 1): (1, 1), (0, 2): {1: -1, 2: 1}})
    graded = BracketAlgebra(b.bracket, space=GradedSpace((0, 0, 0)))
    assert graded.jacobi_report().witness == ((0, 1, 2), 1, -2)
    br = bracket_from_pairs(4, {(0, 1): (1, 1), (0, 2): {1: -1, 2: 1}, (0, 3): (3, 1)})
    triple = MultiMap.from_entries(4, 3, {((3, 3, 3), 1): 1, ((3, 3, 3), 2): 1})
    rep = f_algebra_check(GradedSpace((0, 0, 0, 1)), br, triple)
    assert rep.witness == ("leibniz", (0, 3, 3, 3), 1, -3)
