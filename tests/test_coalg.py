import random
from itertools import product

import pytest

from naryalg.coalg import (
    Comultiplication,
    coassoc_word,
    convolution_assoc_check,
    convolution_multimap,
    dual_of_algebra,
    dual_of_coalgebra,
    grouplike,
    partial_coassoc_defect,
    total_coassoc_check,
)
from naryalg.gerstenhaber import MultiMap, partial_assoc_defect, total_assoc_check
from fixtures import matrix_algebra, square_zero_map
from oracles import dense_coassoc_word, dense_convolution
from fractions import Fraction


def random_comultiplication(rng, d, n, lo=-3, hi=3, terms=4):
    entries = {}
    for i in range(d):
        for _ in range(terms):
            if rng.random() < 0.6:
                outs = tuple(rng.randrange(d) for _ in range(n))
                entries[(i, outs)] = entries.get((i, outs), 0) + rng.randint(lo, hi)
    return Comultiplication.from_entries(d, n, entries)


def cancellation_delta():
    # insertion words e2^{x5}, e2^{x5}, -2 e2^{x5}: they cancel in the signed
    # sum but differ pairwise, so partial coassociativity holds and total fails
    return Comultiplication.from_entries(3, 3, {
        (0, (1, 2, 2)): 1,
        (0, (2, 1, 2)): 1,
        (0, (2, 2, 1)): -2,
        (1, (2, 2, 2)): 1,
    })


def test_comultiplication_validation():
    with pytest.raises(ValueError):
        Comultiplication.zero(2, 1)
    with pytest.raises(ValueError):
        Comultiplication.from_entries(2, 3, {(0, (0, 1)): 1})
    with pytest.raises(ValueError):
        Comultiplication.from_entries(2, 3, {(2, (0, 0, 0)): 1})
    with pytest.raises(ValueError):
        Comultiplication.from_entries(2, 3, {(0, (0, 0, 2)): 1})


def test_comultiplication_arithmetic():
    rng = random.Random(0)
    a = random_comultiplication(rng, 2, 3)
    b = random_comultiplication(rng, 2, 3)
    assert (a + b) - b == a
    assert a + (-a) == Comultiplication.zero(2, 3)
    assert a.scale(2) == a + a
    assert Comultiplication.zero(2, 3).is_zero()
    with pytest.raises(ValueError):
        a + random_comultiplication(rng, 3, 3)


def test_comultiplication_json_round_trip():
    delta = Comultiplication.from_entries(2, 3, {
        (0, (1, 1, 0)): Fraction(2, 3),
        (1, (0, 0, 0)): -1,
    })
    data = delta.to_json_dict()
    assert data["dim"] == 2 and data["arity"] == 3
    for e in data["entries"]:
        assert isinstance(e["in"], int) and len(e["out"]) == 3
        assert isinstance(e["coef"], str)
    assert Comultiplication.from_json_dict(data) == delta


def test_defect_of_zero_comultiplication():
    assert partial_coassoc_defect(Comultiplication.zero(2, 3)).is_zero()
    assert partial_coassoc_defect(Comultiplication.zero(2, 2)).is_zero()


def test_grouplike_scalar_defect_is_three_fold():
    # odd arity: all three placements coincide, signs all +1
    defect = partial_coassoc_defect(grouplike(1, 3))
    assert defect.items() == [(0, (0, 0, 0, 0, 0), 3)]
    assert total_coassoc_check(grouplike(1, 3)).holds


def test_grouplike_even_arity_is_partially_coassociative():
    # n=2: the two placements agree and the signs are +1, -1
    assert partial_coassoc_defect(grouplike(1, 2)).is_zero()
    assert partial_coassoc_defect(grouplike(3, 2)).is_zero()


def test_diagonal_totally_coassociative_any_dim():
    for d in (1, 2, 3):
        assert total_coassoc_check(grouplike(d, 3)).holds


def test_coassoc_word_position_range():
    with pytest.raises(ValueError):
        coassoc_word(grouplike(2, 3), 3)
    with pytest.raises(ValueError):
        coassoc_word(grouplike(2, 3), -1)


def test_dual_of_square_zero_is_partially_coassociative():
    for seed in range(20):
        mu = square_zero_map(random.Random(seed), 3, 3, 2)
        delta = dual_of_algebra(mu)
        assert partial_coassoc_defect(delta).is_zero()


def test_defect_transposes_to_algebra_defect():
    # A(dual(Delta)) and Atilde(Delta) are transposes of each other entrywise
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        d = rng.choice([1, 2, 3])
        n = rng.choice([2, 3])
        delta = random_comultiplication(rng, d, n)
        lhs = partial_assoc_defect(dual_of_coalgebra(delta))
        rhs = dual_of_coalgebra(partial_coassoc_defect(delta))
        assert lhs == rhs
        if not lhs.is_zero():
            checked += 1
    assert checked >= 20


def test_defect_equivalence_on_seeded_deltas():
    # Atilde(Delta) = 0 iff A(dual) = 0, both directions hit; total
    # coassociativity is total associativity of the dual, with placement p
    # numbered from 0 and slot p + 1 from 1
    zero_cases = nonzero_cases = 0
    for seed in range(50):
        rng = random.Random(seed)
        delta = random_comultiplication(rng, rng.choice([2, 3]), 3)
        coalg_zero = partial_coassoc_defect(delta).is_zero()
        alg_zero = partial_assoc_defect(dual_of_coalgebra(delta)).is_zero()
        assert coalg_zero == alg_zero
        total = total_coassoc_check(delta)
        dual_total = total_assoc_check(dual_of_coalgebra(delta))
        assert total.holds == dual_total.holds
        if not total.holds:
            assert dual_total.witness[:2] == (total.witness[0] + 1, total.witness[1] + 1)
        nonzero_cases += not coalg_zero
        zero_cases += coalg_zero
    for seed in range(50):
        mu = square_zero_map(random.Random(seed), 3, 3, 2)
        delta = dual_of_algebra(mu)
        assert partial_coassoc_defect(delta).is_zero()
        assert partial_assoc_defect(dual_of_coalgebra(delta)).is_zero()
        assert total_coassoc_check(delta).holds and total_assoc_check(mu).holds
        zero_cases += 1
    assert nonzero_cases >= 20 and zero_cases >= 50


def test_total_coassoc_random_failure_witness():
    delta = Comultiplication.from_entries(2, 3, {
        (0, (0, 0, 0)): 1,
        (0, (1, 0, 1)): 1,
        (1, (1, 1, 1)): 1,
    })
    rep = total_coassoc_check(delta)
    assert not rep.holds
    p, q = rep.witness[0], rep.witness[1]
    assert 0 <= p < q <= 2
    # witness records a tensor entry where the two placements differ
    idx, value = rep.witness[2], rep.witness[3]
    assert len(idx) == 6 and value != 0
    diff = coassoc_word(delta, p) - coassoc_word(delta, q)
    assert diff.coef(idx[0], idx[1:]) == value


def test_partial_but_not_total_fixture():
    delta = cancellation_delta()
    assert partial_coassoc_defect(delta).is_zero()
    assert not total_coassoc_check(delta).holds


def test_dual_round_trips_both_orders():
    rng = random.Random(11)
    for _ in range(20):
        delta = random_comultiplication(rng, rng.choice([2, 3]), rng.choice([2, 3]))
        assert dual_of_algebra(dual_of_coalgebra(delta)) == delta
    for _ in range(20):
        d, n = rng.choice([2, 3]), rng.choice([2, 3])
        entries = {}
        for _ in range(5):
            key = (tuple(rng.randrange(d) for _ in range(n)), rng.randrange(d))
            entries[key] = rng.randint(-3, 3)
        mu = MultiMap.from_entries(d, n, entries)
        assert dual_of_coalgebra(dual_of_algebra(mu)) == mu


def test_matrix_algebra_dual_is_coassociative():
    mu = matrix_algebra(2)
    delta = dual_of_algebra(mu)
    assert partial_coassoc_defect(delta).is_zero()
    assert total_coassoc_check(delta).holds


def test_zero_product_dualizes_to_zero():
    assert dual_of_algebra(MultiMap.zero(2, 3)).is_zero()
    assert dual_of_coalgebra(Comultiplication.zero(2, 3)).is_zero()


def test_dual_of_algebra_rejects_unary():
    with pytest.raises(ValueError):
        dual_of_algebra(MultiMap.identity(2))


def test_grouplike_scalar_dual_is_scalar_product():
    mu = dual_of_coalgebra(grouplike(1, 2))
    assert mu.items() == [((0, 0), 0, 1)]


def hom(mat):
    """A dense matrix, mat[a][b] the e_b coefficient of f(e_a), as the sparse
    Hom vector over the matrix units E_ab, flattened as a * dim_A + b."""
    d_a = len(mat[0])
    return {a * d_a + b: v for a, row in enumerate(mat) for b, v in enumerate(row) if v}


def convolve(mu, delta, fs):
    return convolution_multimap(mu, delta).apply(*fs)


def add(u, v):
    total = dict(u)
    for k, c in v.items():
        total[k] = total.get(k, 0) + c
    return {k: c for k, c in total.items() if c}


def scale(u, c):
    return {k: c * v for k, v in u.items() if c}


def test_scalar_convolution_multiplies():
    mu = MultiMap.from_entries(1, 3, {((0, 0, 0), 0): 1})
    res = convolve(mu, grouplike(1, 3), [{0: 2}, {0: 3}, {0: 5}])
    assert res == {0: 30}


def test_convolution_zero_factor():
    rng = random.Random(3)
    mu = square_zero_map(rng, 2, 3, 1)
    delta = grouplike(2, 3)
    f = hom([[1, 2], [3, 4]])
    assert convolve(mu, delta, [f, {}, f]) == {}


def test_convolution_multilinear():
    rng = random.Random(42)
    mu = square_zero_map(random.Random(9), 2, 3, 1)
    delta = random_comultiplication(rng, 2, 3)

    def rand_hom():
        return hom([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])

    for _ in range(15):
        f1, f2, f2b, f3 = rand_hom(), rand_hom(), rand_hom(), rand_hom()
        lhs = convolve(mu, delta, [f1, add(f2, f2b), f3])
        rhs = add(convolve(mu, delta, [f1, f2, f3]), convolve(mu, delta, [f1, f2b, f3]))
        assert lhs == rhs
        scaled = convolve(mu, delta, [scale(f1, 7), f2, f3])
        assert scaled == scale(convolve(mu, delta, [f1, f2, f3]), 7)


def test_convolution_shape_errors():
    mu = MultiMap.from_entries(1, 3, {((0, 0, 0), 0): 1})
    delta = grouplike(1, 3)
    good = {0: 1}
    with pytest.raises(ValueError):
        convolve(mu, delta, [good, good])
    with pytest.raises(ValueError):
        convolve(mu, grouplike(1, 2), [good, good, good])
    # a 1x2 map is E_00 + E_01; E_01 lies outside the 1x1 matrix units
    with pytest.raises(ValueError, match="index 1 "):
        convolve(mu, delta, [good, good, {0: 1, 1: 1}])


def test_binary_convolution_unit_behavior():
    # d=1 classical case: the identity map is a unit for the convolution
    mu = MultiMap.from_entries(1, 2, {((0, 0), 0): 1})
    delta = grouplike(1, 2)
    e = {0: 1}
    for v in (0, 1, -3, Fraction(2, 5)):
        f = hom([[v]])
        assert convolve(mu, delta, [f, e]) == f
        assert convolve(mu, delta, [e, f]) == f
    star = convolution_multimap(mu, delta)
    assert star.items() == [((0, 0), 0, 1)]


def test_convolution_partially_associative_on_matrix_units():
    delta = grouplike(2, 3)
    for seed in range(6):
        mu = square_zero_map(random.Random(seed), 2, 3, 1)
        rep = convolution_assoc_check(mu, delta)
        assert rep.holds, (seed, rep.witness)
    # d_A = 2 against a one-dimensional source too
    mu = square_zero_map(random.Random(2), 2, 3, 1)
    assert convolution_assoc_check(mu, grouplike(1, 3)).holds


def test_convolution_check_zero_product():
    rep = convolution_assoc_check(MultiMap.zero(2, 3), grouplike(2, 3))
    assert rep.holds


def test_convolution_check_flags_non_total_delta():
    mu = MultiMap.from_entries(2, 3, {((1, 1, 1), 0): 1})
    assert partial_assoc_defect(mu).is_zero()
    rep = convolution_assoc_check(mu, cancellation_delta())
    assert not rep.holds
    assert rep.witness[0] == "hypothesis"
    assert rep.witness[1][0] == "comultiplication not totally coassociative"
    assert rep.witness[2][0] == "star_defect"


def test_convolution_check_flags_bad_product():
    # all-ones scalar cube has defect 3, not partially associative
    mu = MultiMap.from_entries(1, 3, {((0, 0, 0), 0): 1})
    rep = convolution_assoc_check(mu, grouplike(1, 3))
    assert not rep.holds
    assert rep.witness[0] == "hypothesis"
    assert rep.witness[1][0] == "product not partially associative"


def test_convolution_check_cancellation_product():
    # partially associative by cancellation, not termwise: the conclusion
    # still holds against a totally coassociative comultiplication
    mu = dual_of_coalgebra(cancellation_delta())
    assert partial_assoc_defect(mu).is_zero()
    assert not total_assoc_check(mu).holds
    assert convolution_assoc_check(mu, grouplike(1, 3)).holds
    assert convolution_assoc_check(mu, grouplike(2, 3)).holds


def test_comultiplication_witness_order():
    # first_nonzero and the JSON entries follow the flattened index
    # (source index, then output tuple) in lexicographic order
    rng = random.Random(32)
    for _ in range(30):
        d, n = rng.randint(1, 3), rng.randint(2, 3)
        delta = random_comultiplication(rng, d, n)
        for c in (delta, coassoc_word(delta, rng.randrange(n))):
            dense = [
                ((i,) + outs, c.coef(i, outs))
                for i in range(d)
                for outs in product(range(d), repeat=c.arity)
                if c.coef(i, outs)
            ]
            assert c.first_nonzero() == (dense[0] if dense else None)
            entries = c.to_json_dict()["entries"]
            assert [(e["in"],) + tuple(e["out"]) for e in entries] == [idx for idx, _ in dense]


def random_fraction_comultiplication(rng, d, n, terms=4):
    entries = {}
    for i in range(d):
        for _ in range(terms):
            if rng.random() < 0.7:
                outs = tuple(rng.randrange(d) for _ in range(n))
                entries[(i, outs)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Comultiplication.from_entries(d, n, entries)


def test_coassoc_words_match_dense_oracle():
    # the transposed insertion against the textbook (Id_p ox Delta ox Id) o
    # Delta expanded over every dense index, and the signed defect against
    # the signed sum of those dense words
    rng = random.Random(61)
    for d in (1, 2, 3):
        for n in (2, 3, 4):
            for _ in range(3):
                delta = random_fraction_comultiplication(rng, d, n)
                signed = {}
                for p in range(n):
                    dense = dense_coassoc_word(delta, p)
                    word = coassoc_word(delta, p)
                    assert {(i, outs): c for i, outs, c in word.items()} == dense
                    for key, c in dense.items():
                        signed[key] = signed.get(key, 0) + (-1) ** (p * (n - 1)) * c
                defect = partial_coassoc_defect(delta)
                assert isinstance(defect, Comultiplication)
                assert {(i, outs): c for i, outs, c in defect.items()} == {
                    k: v for k, v in signed.items() if v
                }


def test_convolution_multimap_matches_convolution_on_matrix_units():
    # apply on the structure constants built from the two term dicts agrees
    # with the dense textbook convolution, on every tuple of matrix units and
    # on random Fraction matrices
    rng = random.Random(67)
    randoms = 0
    for _ in range(30):
        d_m, d_a, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 3)
        entries = {}
        for _ in range(5):
            key = (tuple(rng.randrange(d_a) for _ in range(n)), rng.randrange(d_a))
            entries[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        mu = MultiMap.from_entries(d_a, n, entries)
        delta = random_fraction_comultiplication(rng, d_m, n, terms=2)
        star = convolution_multimap(mu, delta)
        assert (star.dim, star.arity) == (d_m * d_a, n)
        units = [
            [[int((r, col) == (a, b)) for col in range(d_a)] for r in range(d_m)]
            for a in range(d_m)
            for b in range(d_a)
        ]
        for combo in product(range(len(units)), repeat=n):
            res = dense_convolution(mu, delta, [units[u] for u in combo])
            for a in range(d_m):
                for b in range(d_a):
                    assert star.coef(combo, a * d_a + b) == res[a][b]
        for _ in range(8):
            mats = [
                [
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * (rng.random() < 0.7)
                     for _ in range(d_a)]
                    for _ in range(d_m)
                ]
                for _ in range(n)
            ]
            expect = hom(dense_convolution(mu, delta, mats))
            assert star.apply(*(hom(f) for f in mats)) == expect
            randoms += 1
    assert randoms >= 200
