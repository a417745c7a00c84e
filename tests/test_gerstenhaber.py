import random
from fractions import Fraction
from itertools import product

import pytest

from naryalg.gerstenhaber import (
    IdentityReport,
    MultiMap,
    Operator,
    antisymmetrize,
    apply_operator,
    composition_relation_defects,
    _compose_words,
    degree7_defects,
    gprod,
    insert_at,
    is_antisymmetric,
    jacobi_defect,
    partial_assoc_defect,
    prelie_defect,
    theta,
    total_assoc_check,
)
from fixtures import (
    bracket_associator,
    filiform5_bracket,
    matrix_algebra,
    poly_trunc_algebra,
    random_multimap,
    so3_bracket,
    square_zero_map,
)
from oracles import apply_map, compose_word, nested_defect


def one_dim_product(k, a=1):
    return MultiMap.from_entries(1, k, {((0,) * k, 0): a})


def test_insert_identity():
    rng = random.Random(1)
    f = random_multimap(rng, 2, 3)
    ident = MultiMap.identity(2)
    for i in (1, 2, 3):
        assert insert_at(f, ident, i) == f
    assert insert_at(ident, f, 1) == f


def test_insert_one_dimensional():
    f = one_dim_product(3, a=2)
    g = one_dim_product(2, a=5)
    h = insert_at(f, g, 2)
    assert h.arity == 4
    assert h.coef((0, 0, 0, 0), 0) == 10


def test_insert_arity_bookkeeping():
    rng = random.Random(2)
    f = random_multimap(rng, 2, 3)
    g = random_multimap(rng, 2, 3)
    assert insert_at(f, g, 2).arity == 5


def test_insert_errors():
    rng = random.Random(3)
    f = random_multimap(rng, 2, 2)
    g = random_multimap(rng, 3, 2)
    with pytest.raises(ValueError):
        insert_at(f, g, 1)
    g2 = random_multimap(rng, 2, 2)
    with pytest.raises(ValueError):
        insert_at(f, g2, 0)
    with pytest.raises(ValueError):
        insert_at(f, g2, 3)


def test_insert_positions_expand_correctly():
    # f(X1, g(X2, X3)) on basis: contract g's output into slot 2
    f = MultiMap.from_entries(2, 2, {((0, 1), 0): 1})
    g = MultiMap.from_entries(2, 2, {((1, 1), 1): 3})
    h = insert_at(f, g, 2)
    assert h.coef((0, 1, 1), 0) == 3
    assert sum(1 for _ in h.items()) == 1


def test_gprod_binary_is_associator():
    mu = matrix_algebra(2)
    d7 = gprod(mu, mu)
    # mu(mu(x,y),z) - mu(x,mu(y,z)) vanishes for matrix multiplication
    assert d7.is_zero()
    assert d7.arity == 3


def test_gprod_one_dim_even_arity_cancels():
    f = one_dim_product(2)
    assert gprod(f, f).is_zero()


def test_gprod_odd_inner_arity_all_plus():
    rng = random.Random(4)
    f = random_multimap(rng, 2, 2)
    g = random_multimap(rng, 2, 3)
    total = insert_at(f, g, 1) + insert_at(f, g, 2)
    assert gprod(f, g) == total


def test_partial_assoc_defect_zero_map():
    assert partial_assoc_defect(MultiMap.zero(2, 3)).is_zero()


def test_partial_assoc_defect_matrix_algebra():
    assert partial_assoc_defect(matrix_algebra(2)).is_zero()


def test_partial_assoc_defect_square_zero():
    rng = random.Random(5)
    mu = square_zero_map(rng, 4, 3, 2)
    assert partial_assoc_defect(mu).is_zero()


def test_partial_assoc_matches_nested_oracle():
    rng = random.Random(6)
    for n in (2, 3):
        mu = random_multimap(rng, 2, n, density=0.5)
        defect = partial_assoc_defect(mu)
        oracle = nested_defect(
            {(x, j): c for x, j, c in mu.items()}, 2, n
        )
        expect = MultiMap.from_entries(2, 2 * n - 1, oracle)
        assert defect == expect


def test_total_assoc_one_dim():
    for n in (2, 3, 4):
        rep = total_assoc_check(one_dim_product(n, a=3))
        assert rep.holds and rep.witness is None


def test_total_assoc_matrix():
    assert total_assoc_check(matrix_algebra(2)).holds


def test_total_assoc_random_fails():
    rng = random.Random(7)
    mu = random_multimap(rng, 2, 3)
    rep = total_assoc_check(mu)
    assert not rep.holds
    i, j = rep.witness[0], rep.witness[1]
    assert 1 <= i < j <= 3
    # witness indexes an actual disagreement between the two insertions
    idx, val = rep.witness[2], rep.witness[3]
    a = insert_at(mu, mu, i)
    b = insert_at(mu, mu, j)
    assert a.coef(idx[:-1], idx[-1]) - b.coef(idx[:-1], idx[-1]) == val != 0


def test_prelie_one_dimensional():
    rng = random.Random(8)
    for _ in range(5):
        ks = [rng.randint(1, 4) for _ in range(3)]
        f, g, h = (one_dim_product(k, rng.randint(-3, 3)) for k in ks)
        assert prelie_defect(f, g, h).is_zero()


def test_prelie_random_binary():
    rng = random.Random(9)
    for _ in range(5):
        f = random_multimap(rng, 2, 2)
        g = random_multimap(rng, 2, 2)
        h = random_multimap(rng, 2, 2)
        assert prelie_defect(f, g, h).is_zero()


def test_prelie_mixed_arities():
    rng = random.Random(10)
    for _ in range(5):
        f = random_multimap(rng, 2, rng.randint(1, 3), density=0.5)
        g = random_multimap(rng, 2, rng.randint(1, 3), density=0.5)
        h = random_multimap(rng, 2, rng.randint(1, 3), density=0.5)
        assert prelie_defect(f, g, h).is_zero()


def test_prelie_zero_maps():
    z = MultiMap.zero(2, 2)
    assert prelie_defect(z, z, z).is_zero()


def test_theta_k2():
    rng = random.Random(11)
    mu = random_multimap(rng, 2, 3, density=0.4)
    op = theta(mu, 2)
    assert op.source_power == 6
    assert op.target_power == 2
    assert len(op.terms) == 1
    (coef, word) = op.terms[0]
    assert coef == 1
    assert [seg[0] for seg in word] == ["map", "map"]


def test_theta_k3_words():
    rng = random.Random(12)
    mu = random_multimap(rng, 2, 3, density=0.4)
    op = theta(mu, 3)
    assert len(op.terms) == 3
    assert op.source_power == 7
    assert op.target_power == 3


def test_theta_word_count():
    rng = random.Random(13)
    mu = random_multimap(rng, 2, 2, density=0.4)
    for k in range(2, 7):
        assert len(theta(mu, k).terms) == k * (k - 1) // 2


def test_theta_rejects_small_k():
    with pytest.raises(ValueError):
        theta(MultiMap.zero(2, 3), 1)


def test_apply_operator_identity_word():
    rng = random.Random(14)
    phi = random_multimap(rng, 2, 3)
    op = Operator(3, 3, [(1, (("id", 3),))])
    assert apply_operator(phi, op) == phi


def test_apply_operator_scales():
    rng = random.Random(15)
    phi = random_multimap(rng, 2, 2)
    op = Operator(2, 2, [(Fraction(1, 2), (("id", 2),))])
    assert apply_operator(phi, op) == phi.scale(Fraction(1, 2))


def test_lemma_even_n_matrix_algebra():
    # even arity: (phi * mu) * mu vanishes outright once mu * mu does
    rng = random.Random(16)
    mu = matrix_algebra(2)
    for _ in range(3):
        phi = random_multimap(rng, 4, rng.randint(1, 2), density=0.2)
        assert gprod(gprod(phi, mu), mu).is_zero()


def test_lemma_even_n_square_zero_quaternary():
    rng = random.Random(17)
    mu = square_zero_map(rng, 3, 4, 1)
    assert partial_assoc_defect(mu).is_zero()
    for _ in range(3):
        phi = random_multimap(rng, 3, rng.randint(1, 3), density=0.3)
        assert gprod(gprod(phi, mu), mu).is_zero()


def test_lemma_odd_n_theta_factorization():
    # odd arity: (phi * mu) * mu = 2 phi o theta_k(mu), computed two ways
    rng = random.Random(18)
    for trial in range(4):
        d = rng.randint(3, 4)
        mu = square_zero_map(rng, d, 3, rng.randint(1, d - 1))
        assert partial_assoc_defect(mu).is_zero()
        k = rng.randint(2, 4)
        phi = random_multimap(rng, d, k, density=0.25)
        lhs = gprod(gprod(phi, mu), mu)
        rhs = apply_operator(phi, theta(mu, k)).scale(2)
        assert lhs == rhs, f"trial {trial}"


def test_apply_operator_arity_mismatch():
    rng = random.Random(19)
    phi = random_multimap(rng, 2, 2)
    with pytest.raises(ValueError):
        apply_operator(phi, Operator(3, 3, [(1, (("id", 3),))]))


def _random_word(rng, d, target):
    """A tensor word with `target` outputs: random id blocks and maps of
    arity 1-3 with Fraction coefficients."""
    word = []
    while len(word) < target:
        if word and word[-1][0] == "map" and rng.random() < 0.4:
            word.append(("id", 1))
        else:
            f = random_multimap(rng, d, rng.randint(1, 3), density=0.5)
            word.append(("map", f.scale(Fraction(rng.choice((1, -1, 2)), rng.randint(1, 3)))))
    return tuple(word)


def test_apply_operator_matches_word_oracle():
    rng = random.Random(25)
    for trial in range(30):
        d = rng.randint(1, 3)
        target = rng.randint(1, 3)
        first = _random_word(rng, d, target)
        src = sum(s[1] if s[0] == "id" else s[1].arity for s in first)
        # the same segments in other orders keep the source and target powers
        words = [first] + [tuple(rng.sample(first, len(first))) for _ in range(rng.randint(0, 2))]
        coefs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in words]
        phi = random_multimap(rng, d, target, density=0.6).scale(Fraction(1, 2))
        got = apply_operator(phi, Operator(src, target, list(zip(coefs, words))))
        want = {}
        for c, w in zip(coefs, words):
            for key, v in compose_word(phi, w).table.items():
                want[key] = want.get(key, 0) + c * v
        assert got.terms == {k: v for k, v in want.items() if v}, f"trial {trial}"


# the ten (outer word, inner word) pairs of degree7_defects, with their signs
_M = ("map", None)
_DEGREE7 = (
    (1, ((("id", 1), _M, ("id", 1)), (_M, ("id", 4)))),
    (1, ((_M, ("id", 2)), (("id", 3), _M, ("id", 1)))),
    (1, ((("id", 2), _M), (_M, ("id", 4)))),
    (1, ((_M, ("id", 2)), (("id", 4), _M))),
    (1, ((("id", 2), _M), (("id", 1), _M, ("id", 3)))),
    (1, ((("id", 1), _M, ("id", 1)), (("id", 4), _M))),
), (
    (1, ((_M, ("id", 2)), (_M, ("id", 4)))),
    (-1, ((_M, ("id", 2)), (("id", 3), _M, ("id", 1)))),
    (1, ((("id", 2), _M), (("id", 4), _M))),
    (-1, ((("id", 2), _M), (("id", 1), _M, ("id", 3)))),
)


def _bind(word, mu):
    return tuple(("map", mu) if seg is _M else seg for seg in word)


def _check_two_hops(m, outer, inner):
    """The oracle's two hops for mu = m, checked against _compose_words."""
    hops = compose_word(compose_word(m, _bind(outer, m)), _bind(inner, m)).table
    assert _compose_words(m, _bind(outer, m), _bind(inner, m)).terms == hops
    return hops


def test_degree7_defects_match_word_oracle():
    # a partially associative ternary product whose self-insertions do not vanish
    mu = MultiMap.from_entries(
        3, 3, {((1, 1, 1), 2): 1, ((1, 1, 2), 0): 1, ((2, 1, 1), 0): -1}
    )
    assert partial_assoc_defect(mu).is_zero()
    assert not insert_at(mu, mu, 1).is_zero()
    rng = random.Random(26)
    dense = random_multimap(rng, 2, 3, density=0.7)
    got = degree7_defects(mu)
    for family, defect in zip(_DEGREE7, got):
        want = {}
        for sign, (outer, inner) in family:
            # the composition itself needs no associativity: a dense random map
            _check_two_hops(dense, outer, inner)
            for key, v in _check_two_hops(mu, outer, inner).items():
                want[key] = want.get(key, 0) + sign * v
        assert defect.terms == {k: v for k, v in want.items() if v}


def test_antisymmetrize_symmetric_dies():
    sym = MultiMap.from_entries(2, 2, {((0, 1), 0): 1, ((1, 0), 0): 1})
    assert antisymmetrize(sym).is_zero()


def test_antisymmetrize_binary():
    lam = MultiMap.from_entries(2, 2, {((0, 1), 1): 1})
    alt = antisymmetrize(lam)
    assert alt.coef((0, 1), 1) == 1
    assert alt.coef((1, 0), 1) == -1


def test_antisymmetrize_fixes_antisymmetric():
    b = so3_bracket()
    assert is_antisymmetric(b)
    assert antisymmetrize(b) == b.scale(2)
    rng = random.Random(20)
    lam3 = antisymmetrize(random_multimap(rng, 3, 3, density=0.4))
    assert is_antisymmetric(lam3)
    assert antisymmetrize(lam3) == lam3.scale(6)


def test_jacobi_zero_bracket():
    assert jacobi_defect(MultiMap.zero(3, 2)).is_zero()


def test_jacobi_so3():
    assert jacobi_defect(so3_bracket()).is_zero()


def test_jacobi_filiform():
    assert jacobi_defect(filiform5_bracket()).is_zero()


def test_jacobi_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        jacobi_defect(matrix_algebra(2))


def test_jacobi_from_square_zero_ternary():
    # antisymmetrized square-zero maps satisfy the shuffle Jacobi identity
    rng = random.Random(21)
    for _ in range(3):
        lam = square_zero_map(rng, 4, 3, 2)
        assert partial_assoc_defect(lam).is_zero()
        mu = antisymmetrize(lam)
        assert jacobi_defect(mu).is_zero()


def test_jacobi_binary_commutator():
    mu = matrix_algebra(2)
    comm = antisymmetrize(mu)
    assert jacobi_defect(comm).is_zero()


def test_degree7_zero_map():
    a, b = degree7_defects(MultiMap.zero(2, 3))
    assert a.is_zero() and b.is_zero()
    assert a.arity == 7 and b.arity == 7


def test_degree7_square_zero():
    rng = random.Random(22)
    mu = square_zero_map(rng, 4, 3, 2)
    a, b = degree7_defects(mu)
    assert a.is_zero() and b.is_zero()


def test_degree7_filiform_associator():
    mu = bracket_associator(filiform5_bracket())
    assert partial_assoc_defect(mu).is_zero()
    a, b = degree7_defects(mu)
    assert a.is_zero() and b.is_zero()


def test_degree7_preconditions():
    with pytest.raises(ValueError):
        degree7_defects(MultiMap.zero(2, 2))
    rng = random.Random(23)
    bad = random_multimap(rng, 2, 3)
    assert not partial_assoc_defect(bad).is_zero()
    with pytest.raises(ValueError):
        degree7_defects(bad)


def test_composition_relations_random():
    rng = random.Random(24)
    for n in (2, 3, 4):
        mu = random_multimap(rng, 2, n, density=0.5)
        rep = composition_relation_defects(mu)
        assert rep.holds, rep.witness


def test_composition_relations_zero():
    assert composition_relation_defects(MultiMap.zero(2, 3)).holds


def test_identity_report_consistency():
    with pytest.raises(ValueError):
        IdentityReport("x", True, witness=(1, 2))
    with pytest.raises(ValueError):
        IdentityReport("x", False)


def test_multimap_json_round_trip():
    rng = random.Random(25)
    m = random_multimap(rng, 3, 2, density=0.4).scale(Fraction(1, 3))
    data = m.to_json_dict()
    assert data["dim"] == 3 and data["arity"] == 2
    for e in data["entries"]:
        assert isinstance(e["coef"], str)
    back = MultiMap.from_json_dict(data)
    assert back == m


def test_multimap_validation():
    with pytest.raises(ValueError):
        MultiMap.zero(0, 2)
    with pytest.raises(ValueError):
        MultiMap.zero(2, 0)
    with pytest.raises(ValueError):
        MultiMap.from_entries(2, 2, {((0, 1, 1), 0): 1})
    with pytest.raises(ValueError):
        MultiMap.from_entries(2, 2, {((0, 2), 0): 1})


def test_multimap_witness_order():
    # first_nonzero and the JSON entries follow the flattened index
    # (inputs, then output) in lexicographic order, also for computed maps
    # whose terms were accumulated out of that order
    rng = random.Random(31)
    for _ in range(30):
        d, k = rng.randint(1, 3), rng.randint(1, 3)
        f = random_multimap(rng, d, k, density=rng.choice([0.1, 0.5]))
        g = random_multimap(rng, d, rng.randint(1, 2), density=0.5)
        for m in (f, insert_at(f, g, rng.randint(1, k))):
            dense = [
                (x + (j,), m.coef(x, j))
                for x in product(range(d), repeat=m.arity)
                for j in range(d)
                if m.coef(x, j)
            ]
            assert m.first_nonzero() == (dense[0] if dense else None)
            entries = m.to_json_dict()["entries"]
            assert [tuple(e["in"]) + (e["out"],) for e in entries] == [idx for idx, _ in dense]


def _fraction_map(rng, d, k, density=0.5):
    entries = {}
    for idx in product(range(d), repeat=k):
        for j in range(d):
            if rng.random() < density:
                entries[(idx, j)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return MultiMap.from_entries(d, k, entries)


def test_apply_matches_dense_apply_map():
    # m(v_1..v_k) on sparse vectors against the dense multilinear oracle,
    # with empty vectors and Fraction coordinates
    rng = random.Random(47)
    for _ in range(40):
        d, k = rng.randint(1, 3), rng.randint(1, 3)
        m = _fraction_map(rng, d, k, density=rng.choice([0.2, 0.6]))
        sparse = []
        for _ in range(k):
            if rng.random() < 0.15:
                sparse.append({})
                continue
            vec = {}
            for i in range(d):
                if rng.random() < 0.6:
                    vec[i] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            sparse.append(vec)
        dense = [[v.get(i, 0) for i in range(d)] for v in sparse]
        expect = {j: c for j, c in enumerate(apply_map(m, dense)) if c}
        got = m.apply(*sparse)
        assert got == expect
        assert all(got.values())
    with pytest.raises(ValueError):
        MultiMap.identity(2).apply({0: 1}, {1: 1})


def test_first_nonzero_normalizes_integral_fractions():
    # a computed map can hold Fraction(4, 1); its witness is the int 4
    m = MultiMap.from_entries(2, 1, {((1,), 0): Fraction(1, 2)}).scale(8)
    assert m.terms[(1,), 0] == 4 and type(m.terms[(1,), 0]) is Fraction
    value = m.first_nonzero()[1]
    assert value == 4 and type(value) is int

