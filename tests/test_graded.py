import itertools
import random

import pytest

from naryalg.exactnum import Fraction
from naryalg.gerstenhaber import (
    MultiMap,
    composition_relation_defects,
    gprod,
    insert_at,
    prelie_defect,
)
from naryalg.graded import (
    GradedMultiMap,
    GradedSpace,
    graded_assoc_equivalence,
    graded_coboundary,
    graded_composition_relations,
    graded_gprod,
    graded_insert,
    graded_prelie_defect,
    koszul_apply,
    sign_formula_check,
    suspend_map,
    suspension_roundtrip_sign,
)

from fixtures import graded_sink_product, matrix_algebra, random_homogeneous
from oracles import word_application_sign


def as_graded(m, space, degree=0):
    return GradedMultiMap(m, degree, space)


def zero_space(d):
    return GradedSpace((0,) * d)


# ---------------------------------------------------------------- spaces


def test_space_suspend_shifts_degrees():
    sp = GradedSpace((0, 2, -1))
    assert sp.suspend().degrees == (-1, 1, -2)
    assert sp.desuspend().degrees == (1, 3, 0)
    assert sp.suspend().desuspend() == sp
    assert sp.tuple_degree((0, 1, 1)) == 4


def test_space_needs_vectors():
    with pytest.raises(ValueError):
        GradedSpace(())


def test_homogeneity_enforced():
    sp = GradedSpace((0, 1))
    # output degree must be input degree sum plus map degree
    GradedMultiMap.from_entries(sp, 1, 1, {((0,), 1): 2})
    with pytest.raises(ValueError):
        GradedMultiMap.from_entries(sp, 1, 1, {((0,), 0): 2})
    with pytest.raises(ValueError):
        GradedMultiMap.from_entries(sp, 2, 0, {((0, 1), 0): 1})


def test_homogeneity_error_names_the_smallest_offending_entry():
    sp = GradedSpace((0, 1))
    # all three entries break homogeneity for a degree-1 map
    entries = {((1,), 1): 1, ((1,), 0): 3, ((0,), 0): 2}
    with pytest.raises(ValueError) as err:
        GradedMultiMap.from_entries(sp, 1, 1, entries)
    assert str(err.value) == (
        "entry (0,)->0 breaks homogeneity: output degree 0, needs 1"
    )


def test_zero_map_any_degree():
    sp = GradedSpace((0, 1))
    for deg in (-2, 0, 3):
        z = GradedMultiMap.zero(sp, 2, deg)
        assert z.is_zero() and z.degree == deg


# ---------------------------------------------------------------- koszul_apply


def test_koszul_two_maps_degree_zero():
    sp = zero_space(2)
    f = as_graded(MultiMap.from_entries(2, 1, {((0,), 1): 1}), sp)
    g = as_graded(MultiMap.from_entries(2, 1, {((1,), 0): 1}), sp)
    assert koszul_apply([f, g], (0, 1), sp) == {(1, 0): 1}


def test_koszul_basic_sign():
    # (f (x) g)(x (x) y) with |g| = 1 and |x| = 1 picks up a minus
    sp = GradedSpace((1, 0))
    f = GradedMultiMap.from_entries(sp, 1, 0, {((0,), 0): 1})
    g = GradedMultiMap.from_entries(sp, 1, 1, {((1,), 0): 1})
    assert koszul_apply([f, g], (0, 1), sp) == {(0, 0): -1}
    # degree-0 g: no sign
    g0 = GradedMultiMap.from_entries(sp, 1, 0, {((1,), 1): 1})
    assert koszul_apply([f, g0], (0, 1), sp) == {(0, 1): 1}


def test_koszul_id_segments():
    # id segments are degree 0, but a map still crosses the args under them
    sp = GradedSpace((1, 0))
    g = GradedMultiMap.from_entries(sp, 1, 1, {((1,), 0): 3})
    out = koszul_apply([("id", 2), g], (0, 1, 1), sp)
    assert out == {(0, 1, 0): -3}  # g crosses e0 (x) e1 of total degree 1
    out2 = koszul_apply([("id", 2), g], (1, 1, 1), sp)
    assert out2 == {(1, 1, 0): 3}
    out3 = koszul_apply([g, ("id", 2)], (1, 0, 1), sp)
    assert out3 == {(0, 0, 1): 3}  # nothing to the left of g


def test_koszul_word_sign_matches_swap_oracle():
    rng = random.Random(41)
    degrees = (1, 0, -1)
    sp = GradedSpace(degrees)
    for _ in range(60):
        widths = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        segs = []
        seg_info = []
        for w in widths:
            if rng.random() < 0.3:
                segs.append(("id", w))
                seg_info.append((0, w))
            else:
                dg = rng.choice([-1, 0, 1])
                m = random_homogeneous(rng, sp, w, dg, density=1.0)
                if m.is_zero():
                    m = None
                if m is None:
                    segs.append(("id", w))
                    seg_info.append((0, w))
                else:
                    segs.append(m)
                    seg_info.append((dg, w))
        n_args = sum(widths)
        args = tuple(rng.randrange(3) for _ in range(n_args))
        got = koszul_apply(segs, args, sp)
        expect_sign = word_application_sign(
            seg_info, [degrees[a] for a in args]
        )
        # strip the sign and reapply segments without any crossing signs
        plain = {}
        options = []
        pos = 0
        for seg, (dg, w) in zip(segs, seg_info):
            block = args[pos : pos + w]
            if isinstance(seg, tuple):
                options.append([(block, 1)])
            else:
                options.append(
                    [((j,), c) for j, c in seg.base.value_at(block).items()]
                )
            pos += w
        for combo in itertools.product(*options):
            idx = []
            c = expect_sign
            for block, cb in combo:
                idx.extend(block)
                c *= cb
            key = tuple(idx)
            plain[key] = plain.get(key, 0) + c
        plain = {k: v for k, v in plain.items() if v}
        assert got == plain


def test_koszul_word_length_mismatch():
    sp = zero_space(2)
    f = as_graded(MultiMap.identity(2), sp)
    with pytest.raises(ValueError):
        koszul_apply([f], (0, 1), sp)


# ---------------------------------------------------------------- suspension


def test_roundtrip_sign_small_powers():
    sp = GradedSpace((0, 1, -1)).suspend()
    want = {1: 1, 2: -1, 3: -1, 4: 1, 5: 1}
    for l, s in want.items():
        for args in itertools.product(range(sp.dim), repeat=min(l, 2)):
            pad = args + (0,) * (l - len(args))
            assert suspension_roundtrip_sign(sp, pad) == s


def test_suspend_map_identity_arity_one():
    # l=1: up o f o down carries no sign at all
    sp = GradedSpace((0, 2))
    f = GradedMultiMap.from_entries(sp, 1, 2, {((0,), 1): 5})
    sf = suspend_map(f)
    assert sf.space.degrees == (-1, 1)
    assert sf.degree == 2  # |f| + k - 1 with k = 1
    assert sf.base == f.base


def test_suspend_map_degree_bookkeeping():
    rng = random.Random(3)
    sp = GradedSpace((0, 1, 1))
    for k in (1, 2, 3):
        f = random_homogeneous(rng, sp, k, 1, density=0.8)
        assert suspend_map(f).degree == 1 + k - 1


def test_suspend_map_binary_sign():
    # arity 2: sign is (-1)^(suspended degree of the first argument)
    sp = GradedSpace((0, 1, 2))
    f = GradedMultiMap.from_entries(sp, 2, 1, {((0, 0), 1): 1, ((1, 0), 2): 2})
    sf = suspend_map(f)
    assert sf.base.coef((0, 0), 1) == -1  # first arg degree -1 upstairs
    assert sf.base.coef((1, 0), 2) == 2  # first arg degree 0 upstairs


def test_suspend_map_rejects_inhomogeneous_base():
    sp = GradedSpace((0, 1))
    with pytest.raises(ValueError):
        GradedMultiMap(MultiMap.identity(2) + MultiMap.identity(2), 1, sp)


# ---------------------------------------------------------------- graded insert


def test_graded_insert_degree_zero_matches_ungraded():
    rng = random.Random(9)
    sp = zero_space(3)
    for _ in range(25):
        k = rng.randint(1, 3)
        l = rng.randint(1, 3)
        f = random_homogeneous(rng, sp, k, 0, density=0.5)
        g = random_homogeneous(rng, sp, l, 0, density=0.5)
        i = rng.randint(1, k)
        assert graded_insert(f, g, i).base == insert_at(f.base, g.base, i)
        assert graded_gprod(f, g).base == gprod(f.base, g.base)
        h = random_homogeneous(rng, sp, rng.randint(1, 2), 0, density=0.5)
        assert graded_prelie_defect(f, g, h).base == prelie_defect(f.base, g.base, h.base)
        graded = graded_composition_relations(f)
        plain = composition_relation_defects(f.base)
        assert (graded.holds, graded.witness) == (plain.holds, plain.witness)


def test_graded_gprod_is_signed_sum_of_inserts():
    # one accumulator for all slots gives the slot-by-slot signed sum, also
    # when odd degrees make the Koszul prefix sign act
    rng = random.Random(11)
    sp = GradedSpace((0, 1, 2))
    odd_cases = 0
    for _ in range(40):
        f = random_homogeneous(rng, sp, rng.randint(1, 3), rng.choice([0, 1]), density=0.6)
        g = random_homogeneous(rng, sp, rng.randint(1, 3), rng.choice([1, 2]), density=0.6)
        l = g.arity
        total = GradedMultiMap.zero(sp, f.arity + l - 1, f.degree + g.degree)
        for i in range(1, f.arity + 1):
            term = graded_insert(f, g, i)
            total = total - term if ((i - 1) * (l - 1)) % 2 else total + term
        assert graded_gprod(f, g) == total
        if g.degree % 2 and not total.is_zero():
            odd_cases += 1
    assert odd_cases >= 5


def test_graded_insert_matches_koszul_word():
    # f after (id_{i-1} (x) g (x) id) on every basis tensor, through the
    # word convention of koszul_apply
    rng = random.Random(23)
    sp = GradedSpace((0, 1, 2))
    signed = 0
    for _ in range(40):
        f = random_homogeneous(rng, sp, rng.randint(1, 3), rng.choice([-1, 0, 1]), density=0.6)
        g = random_homogeneous(rng, sp, rng.randint(1, 2), rng.choice([-1, 0, 1]), density=0.6)
        i = rng.randint(1, f.arity)
        got = graded_insert(f, g, i)
        word = [("id", i - 1), g, ("id", f.arity - i)]
        for x in itertools.product(range(sp.dim), repeat=got.arity):
            want = {}
            for y, c in koszul_apply(word, x, sp).items():
                for j, cf in f.base.value_at(y).items():
                    want[j] = want.get(j, 0) + c * cf
            want = {j: v for j, v in want.items() if v}
            assert got.base.value_at(x) == want
            if want and g.degree % 2 and sp.tuple_degree(x[: i - 1]) % 2:
                signed += 1  # g crossed an odd prefix: the sign was -1
    assert signed >= 5


def test_graded_insert_prefix_sign():
    # inserting a degree-1 map at slot 2 crosses the first argument
    sp = GradedSpace((1, 0, 2))
    f = GradedMultiMap.from_entries(sp, 2, 0, {((0, 0), 2): 1, ((1, 0), 0): 1})
    g = GradedMultiMap.from_entries(sp, 1, 1, {((1,), 0): 1})
    h = graded_insert(f, g, 2)
    assert h.degree == 1
    assert h.base.coef((0, 1), 2) == -1  # crossed e0 of degree 1
    assert h.base.coef((1, 1), 0) == 1  # crossed e1 of degree 0
    # slot 1 never crosses anything
    h1 = graded_insert(f, g, 1)
    assert h1.base.coef((1, 0), 2) == 1


def test_graded_insert_degree_additivity():
    rng = random.Random(17)
    sp = GradedSpace((0, 1, -1))
    for _ in range(20):
        f = random_homogeneous(rng, sp, rng.randint(1, 3), rng.choice([-1, 0, 1]))
        g = random_homogeneous(rng, sp, rng.randint(1, 3), rng.choice([-1, 0, 1]))
        i = rng.randint(1, f.arity)
        out = graded_insert(f, g, i)
        assert out.degree == f.degree + g.degree
        assert out.arity == f.arity + g.arity - 1


def test_graded_insert_errors():
    spa = GradedSpace((0, 1))
    spb = GradedSpace((0, 0))
    f = GradedMultiMap.zero(spa, 2, 0)
    with pytest.raises(ValueError):
        graded_insert(f, GradedMultiMap.zero(spb, 1, 0), 1)
    with pytest.raises(ValueError):
        graded_insert(f, GradedMultiMap.zero(spa, 1, 0), 3)
    with pytest.raises(ValueError):
        f + GradedMultiMap.zero(spa, 2, 1)


def test_graded_map_is_a_multimap():
    rng = random.Random(41)
    sp = GradedSpace((0, 1, 1))
    f = random_homogeneous(rng, sp, 2, 1, density=0.8)
    g = random_homogeneous(rng, sp, 2, 1, density=0.8)
    assert isinstance(f, MultiMap) and not f.is_zero()
    # arithmetic keeps the subclass, the degree and the space
    for m in (f + g, f - g, -f, f.scale(Fraction(2, 3))):
        assert type(m) is GradedMultiMap and (m.degree, m.space) == (1, sp)
    assert f - f == GradedMultiMap.zero(sp, 2, 1)
    assert (f + g).base == f.base + g.base
    # the plain kernels compute the ungraded composite, without Koszul signs
    sq = GradedSpace((1, 0, 2))
    a = GradedMultiMap.from_entries(sq, 2, 0, {((0, 0), 2): 1, ((1, 0), 0): 1})
    b = GradedMultiMap.from_entries(sq, 1, 1, {((1,), 0): 1})
    assert type(insert_at(a, b, 2)) is MultiMap and type(gprod(a, b)) is MultiMap
    assert insert_at(a, b, 2) == insert_at(a.base, b.base, 2)
    assert insert_at(a, b, 2).coef((0, 1), 2) == 1
    assert graded_insert(a, b, 2).coef((0, 1), 2) == -1
    assert gprod(a, b) == gprod(a.base, b.base)
    # a graded map never equals a plain one with the same terms
    assert f != f.base and f.base != f
    with pytest.raises(TypeError):
        f + f.base
    with pytest.raises(ValueError, match="graded space mismatch"):
        f + GradedMultiMap.zero(GradedSpace((0, 1, 2)), 2, 1)
    with pytest.raises(ValueError, match="degree mismatch"):
        f + GradedMultiMap.zero(sp, 2, 0)


def test_graded_scale_fraction():
    sp = GradedSpace((0, 1))
    f = GradedMultiMap.from_entries(sp, 1, 1, {((0,), 1): 3})
    assert f.scale(Fraction(1, 3)).base.coef((0,), 1) == 1


# ---------------------------------------------------------------- sign transfer


def test_sign_formula_random_pairs():
    # degrees in {-1,0,1}, d <= 3, arities <= 3: the displayed exponent read
    # with k = arity(g), l = arity(f) matches the computed sign every time
    rng = random.Random(23)
    checked = 0
    for degrees in ((0, 1), (0, 1, -1), (1, 1, 0)):
        sp = GradedSpace(degrees)
        for _ in range(120):
            f = random_homogeneous(rng, sp, rng.randint(1, 3), rng.choice([-1, 0, 1]))
            g = random_homogeneous(rng, sp, rng.randint(1, 3), rng.choice([-1, 0, 1]))
            if f.is_zero() or g.is_zero():
                continue
            i = rng.randint(1, f.arity)
            rep = sign_formula_check(f, g, i)
            assert rep.holds, rep.witness
            checked += 1
    assert checked > 150


def test_sign_formula_opposite_binding_fails_somewhere():
    # reading the exponent with k = arity(f) instead is NOT an identity:
    # find a pair where the two bindings disagree and the computed sign
    # follows the arity(g) reading
    sp = GradedSpace((0, 1))
    f = random_homogeneous(random.Random(5), sp, 2, 1, density=1.0)
    g = random_homogeneous(random.Random(6), sp, 1, 1, density=1.0)
    i = 1
    gd = g.degree
    exp_g = (gd + g.arity - 1) * (f.arity - i) + gd * (i - 1)
    exp_f = (gd + f.arity - 1) * (g.arity - i) + gd * (i - 1)
    assert exp_g % 2 != exp_f % 2
    lhs = graded_insert(suspend_map(f), suspend_map(g), i)
    rhs = suspend_map(graded_insert(f, g, i))
    want = -rhs if exp_g % 2 else rhs
    assert lhs == want
    assert sign_formula_check(f, g, i).holds


def test_sign_transfer_self_insertion_pattern():
    # |mu| = n-2: suspended self-insertion is (-1)^(i(n+1)) times the
    # suspension of the plain self-insertion
    rng = random.Random(31)
    for n, degrees in ((2, (0, 0)), (3, (0, 1, 1)), (3, (0, 0, 1))):
        sp = GradedSpace(degrees)
        mu = random_homogeneous(rng, sp, n, n - 2, density=0.7)
        if mu.is_zero():
            continue
        smu = suspend_map(mu)
        for i in range(1, n + 1):
            lhs = graded_insert(smu, smu, i)
            rhs = suspend_map(graded_insert(mu, mu, i))
            if (i * (n + 1)) % 2:
                rhs = -rhs
            assert lhs == rhs, (n, i)


# ---------------------------------- signed vs suspended formulations


def test_assoc_equivalence_zero_mu():
    sp = GradedSpace((0, 1, 1))
    rep = graded_assoc_equivalence(GradedMultiMap.zero(sp, 3, 1))
    assert rep.holds and "sides_vanish=True" in rep.name


def test_assoc_equivalence_matrix_product():
    mu = as_graded(matrix_algebra(2), zero_space(4))
    rep = graded_assoc_equivalence(mu)
    assert rep.holds
    assert "sides_vanish=True" in rep.name


def test_assoc_equivalence_square_zero_ternary():
    rng = random.Random(19)
    mu = graded_sink_product(rng, (0, 0, 1), 3, 1, 2)
    assert not mu.is_zero()
    rep = graded_assoc_equivalence(mu)
    assert rep.holds
    assert "sides_vanish=True" in rep.name


def test_assoc_equivalence_generic_mu():
    # degrees 0,1,2 admit nonzero self-insertions, so both sides are
    # genuinely nonzero for generic mu
    rng = random.Random(67)
    found_nonzero = False
    sp = GradedSpace((0, 1, 2))
    for _ in range(40):
        mu = random_homogeneous(rng, sp, 3, 1, density=0.6)
        if mu.is_zero():
            continue
        rep = graded_assoc_equivalence(mu)
        assert rep.holds, rep.witness
        if "sides_vanish=False" in rep.name:
            found_nonzero = True
    assert found_nonzero  # the check is not vacuous


def test_assoc_equivalence_upper_bound_is_n():
    # stopping the sum at n-1 breaks the identity on a generic example,
    # so the bound really is n
    rng = random.Random(71)
    sp = GradedSpace((0, 1, 2))
    hit = False
    for _ in range(60):
        mu = random_homogeneous(rng, sp, 3, 1, density=0.6)
        if mu.is_zero():
            continue
        n = 3
        smu = suspend_map(mu)
        lhs = suspend_map(graded_gprod(mu, mu))
        full = GradedMultiMap.zero(smu.space, 2 * n - 1, 2 * smu.degree)
        for i in range(1, n + 1):
            full = full + graded_insert(smu, smu, i)
        truncated = full - graded_insert(smu, smu, n)
        assert lhs == full  # (-1)^(n-1) = +1 at n = 3
        if lhs != truncated:
            hit = True
            break
    assert hit


def test_assoc_equivalence_degree_guard():
    sp = GradedSpace((0, 1))
    with pytest.raises(ValueError):
        graded_assoc_equivalence(GradedMultiMap.zero(sp, 3, 0))


# ---------------------------------------------------------------- pre-Lie


def test_graded_prelie_zero_degrees():
    rng = random.Random(13)
    sp = zero_space(2)
    for _ in range(10):
        f = random_homogeneous(rng, sp, rng.randint(1, 2), 0, density=0.7)
        g = random_homogeneous(rng, sp, rng.randint(1, 2), 0, density=0.7)
        h = random_homogeneous(rng, sp, rng.randint(1, 2), 0, density=0.7)
        assert graded_prelie_defect(f, g, h).is_zero()
        assert prelie_defect(f.base, g.base, h.base).is_zero()


def test_graded_prelie_random_triples():
    rng = random.Random(29)
    sp = GradedSpace((0, 1, 2))
    cases = 0
    for _ in range(150):
        f = random_homogeneous(rng, sp, rng.randint(1, 2), rng.choice([0, 1]), density=0.6)
        g = random_homogeneous(rng, sp, rng.randint(1, 2), rng.choice([0, 1]), density=0.6)
        h = random_homogeneous(rng, sp, rng.randint(1, 2), rng.choice([0, 1]), density=0.6)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        assert graded_prelie_defect(f, g, h).is_zero()
        cases += 1
    assert cases >= 60


def test_graded_prelie_koszul_sign_matters():
    # dropping the (-1)^(|g||h|) factor must break the identity somewhere;
    # unary g and h keep the arity sign at +1 so only the Koszul factor acts
    rng = random.Random(37)
    sp = GradedSpace((0, 1, 2, 3, 4))
    hit = False
    for _ in range(40):
        f = random_homogeneous(rng, sp, 2, 1, lo=1, density=1.0)
        g = random_homogeneous(rng, sp, 1, 1, lo=1, density=1.0)
        h = random_homogeneous(rng, sp, 1, 1, lo=1, density=1.0)
        assert graded_prelie_defect(f, g, h).is_zero()
        lhs = graded_gprod(graded_gprod(f, g), h) - graded_gprod(f, graded_gprod(g, h))
        rhs = graded_gprod(graded_gprod(f, h), g) - graded_gprod(f, graded_gprod(h, g))
        # (m-1)(p-1) = 0 here, so the sign without Koszul would be +1
        wrong = lhs - rhs
        if not wrong.is_zero():
            hit = True
            break
    assert hit


def test_graded_prelie_zero_f():
    sp = GradedSpace((0, 1))
    z = GradedMultiMap.zero(sp, 2, 1)
    g = GradedMultiMap.from_entries(sp, 1, 1, {((0,), 1): 1})
    assert graded_prelie_defect(z, g, g).is_zero()


# ---------------------------------------------------------------- coboundary


def test_graded_coboundary_zero_phi():
    rng = random.Random(43)
    mu = graded_sink_product(rng, (0, 0, 1), 3, 1, 2)
    z = GradedMultiMap.zero(mu.space, 2, 0)
    assert graded_coboundary(mu, z).is_zero()


def test_graded_coboundary_squares_to_zero():
    rng = random.Random(47)
    mu = graded_sink_product(rng, (0, 0, 1), 3, 1, 2)
    assert graded_gprod(mu, mu).is_zero()
    cases = 0
    for _ in range(80):
        k = rng.randint(1, 3)
        dphi = rng.choice([-1, 0, 1, 2])
        phi = random_homogeneous(rng, mu.space, k, dphi, density=0.5)
        if phi.is_zero():
            continue
        d1 = graded_coboundary(mu, phi)
        assert d1.degree == phi.degree + 1
        assert graded_coboundary(mu, d1).is_zero(), (k, dphi)
        cases += 1
    assert cases >= 40


def test_graded_phi_mu_mu_vanishes():
    # (phi * mu) * mu = 0 with no restriction on phi
    rng = random.Random(53)
    mu = graded_sink_product(rng, (0, 0, 0, 1), 3, 1, 3)
    for _ in range(40):
        k = rng.randint(1, 3)
        phi = random_homogeneous(rng, mu.space, k, rng.choice([0, 1]), density=0.5)
        comp = graded_gprod(graded_gprod(phi, mu), mu)
        assert comp.is_zero(), (k, phi.degree)


def test_graded_coboundary_rejects_non_square_zero():
    sp = GradedSpace((0, 0, 1))
    # a ternary degree-1 map whose self-insertions survive
    entries = {((0, 0, 0), 2): 1, ((2, 0, 0), 2): 0}
    mu = GradedMultiMap.from_entries(sp, 3, 1, {((0, 0, 0), 2): 1})
    bad_sp = GradedSpace((0, 0, 0, 1, 2))
    bad = GradedMultiMap.from_entries(
        bad_sp, 3, 1, {((0, 0, 0), 3): 1, ((3, 0, 0), 4): 1}
    )
    assert not graded_gprod(bad, bad).is_zero()
    with pytest.raises(ValueError):
        graded_coboundary(bad, GradedMultiMap.zero(bad_sp, 1, 0))
    # the good one passes
    graded_coboundary(mu, GradedMultiMap.zero(sp, 1, 0))


# ------------------------------------------------------- composition relations


def test_graded_composition_degree_zero():
    rng = random.Random(59)
    sp = zero_space(2)
    for n in (2, 3):
        mu = random_homogeneous(rng, sp, n, 0, density=0.7)
        rep = graded_composition_relations(mu)
        assert rep.holds, rep.witness


def test_graded_composition_three_sign_system():
    # n=3 degree-1: disjoint insertions anticommute, giving the three
    # minus-sign relations; degrees up to 3 keep the triple products nonzero
    sp = GradedSpace((0, 1, 2, 3))
    entries = {}
    for x in itertools.product(range(4), repeat=3):
        want = sp.tuple_degree(x) + 1
        for j in range(4):
            if sp.degrees[j] == want:
                entries[(x, j)] = 1
    mu = GradedMultiMap.from_entries(sp, 3, 1, entries)
    rep = graded_composition_relations(mu)
    assert rep.holds, rep.witness
    pairs = [((2, 1), 4), ((3, 1), 5), ((3, 2), 5)]
    for (j, i), tgt in pairs:
        lhs = graded_insert(graded_insert(mu, mu, j), mu, i)
        rhs = graded_insert(graded_insert(mu, mu, i), mu, tgt)
        assert lhs == -rhs, (i, j)
        assert not lhs.is_zero()


def test_graded_composition_generic_degree_one():
    rng = random.Random(73)
    sp = GradedSpace((0, 0, 1))
    cases = 0
    for _ in range(30):
        mu = random_homogeneous(rng, sp, 3, 1, density=0.5)
        if mu.is_zero():
            continue
        rep = graded_composition_relations(mu)
        assert rep.holds, rep.witness
        cases += 1
    assert cases >= 15


def test_graded_composition_quaternary_even_degree():
    rng = random.Random(79)
    sp = GradedSpace((0, 0, 2))
    cases = 0
    for _ in range(20):
        mu = random_homogeneous(rng, sp, 4, 2, density=0.7)
        if mu.is_zero():
            continue
        rep = graded_composition_relations(mu)
        assert rep.holds, rep.witness
        cases += 1
        if cases >= 2:
            break
    assert cases >= 2


def test_graded_composition_zero_mu():
    sp = GradedSpace((0, 1))
    rep = graded_composition_relations(GradedMultiMap.zero(sp, 3, 1))
    assert rep.holds


# ---------------------------------------------------------------- json


def test_graded_json_round_trip():
    sp = GradedSpace((0, 1, 2))
    f = GradedMultiMap.from_entries(
        sp, 2, 1, {((0, 0), 1): Fraction(1, 2), ((1, 0), 2): -2}
    )
    data = f.to_json_dict()
    assert data["degree"] == 1
    assert data["degrees"] == [0, 1, 2]
    back = GradedMultiMap.from_json_dict(data)
    assert back == f
    # space override takes precedence
    back2 = GradedMultiMap.from_json_dict(data, sp)
    assert back2 == f


def test_space_json_round_trip():
    sp = GradedSpace((0, -1, 2))
    assert GradedSpace.from_json_dict(sp.to_json_dict()) == sp
