import json
import random
import time
import tracemalloc
from itertools import product

import pytest

from fractions import Fraction

from naryalg import cohomology
from naryalg.cli import main
from naryalg.cohomology import (
    chi_basis,
    chi_defects,
    chi_membership,
    coboundary,
    coboundary_image_rows,
    cohomology_dims,
    odd_coboundary_checked,
    table_rows,
    unital_check,
    unital_phi,
)
from naryalg.exactnum import SparseMatrix, stacked_ranks
from naryalg.gerstenhaber import MultiMap, gprod, partial_assoc_defect
from naryalg.identities import matrix2, random_square_zero
from fixtures import (
    block_domain_map,
    matrix_algebra,
    poly_trunc_algebra,
    random_multimap,
    square_zero_map,
    upper_triangular2,
)
from oracles import (
    dense_kernel,
    dense_rref,
    gprod_chi_defects,
    gprod_coboundary,
    gprod_operator_rows,
    restricted_table,
    same_row_space,
)


def one_dim_product(k, a=1):
    return MultiMap.from_entries(1, k, {((0,) * k, 0): a})


def nilpotent_ternary():
    # partially associative, not square-zero
    return MultiMap.from_entries(3, 3, {((0, 0, 0), 1): 1, ((0, 1, 0), 2): 1, ((1, 0, 0), 2): -1})


def test_coboundary_zero_cochain():
    mu = matrix_algebra(2)
    assert coboundary(mu, MultiMap.zero(4, 2)).is_zero()


def test_coboundary_scalar_pattern():
    # one-dimensional binary product: the coboundary coefficient alternates
    # 1, 0, 1, 0 with the cochain arity
    mu = one_dim_product(2)
    for k, expect in [(1, 1), (2, 0), (3, 1), (4, 0)]:
        phi = one_dim_product(k)
        out = coboundary(mu, phi)
        assert out.arity == k + 1
        assert out.coef((0,) * (k + 1), 0) == expect


def test_coboundary_arity_law():
    rng = random.Random(30)
    for n, k in [(2, 1), (2, 3), (3, 2), (4, 2)]:
        mu = random_multimap(rng, 2, n, density=0.4)
        phi = random_multimap(rng, 2, k, density=0.4)
        assert coboundary(mu, phi).arity == k + n - 1


def test_coboundary_dim_mismatch():
    with pytest.raises(ValueError):
        coboundary(matrix_algebra(2), MultiMap.zero(3, 2))


def test_coboundary_squares_matrix_algebra():
    rng = random.Random(31)
    mu = matrix_algebra(2)
    for _ in range(4):
        phi = random_multimap(rng, 4, rng.randint(1, 2), density=0.15)
        assert coboundary(mu, coboundary(mu, phi)).is_zero()


def test_coboundary_squares_truncated_polynomials():
    rng = random.Random(32)
    mu = poly_trunc_algebra(3)
    assert partial_assoc_defect(mu).is_zero()
    for _ in range(6):
        phi = random_multimap(rng, 3, rng.randint(1, 3), density=0.3)
        assert coboundary(mu, coboundary(mu, phi)).is_zero()


def test_coboundary_squares_quaternary_square_zero():
    rng = random.Random(33)
    mu = square_zero_map(rng, 3, 4, 1)
    for _ in range(4):
        phi = random_multimap(rng, 3, rng.randint(1, 3), density=0.25)
        assert coboundary(mu, coboundary(mu, phi)).is_zero()


def test_chi_membership_zero():
    mu = square_zero_map(random.Random(34), 4, 3, 2)
    assert chi_membership(mu, MultiMap.zero(4, 2)).holds


def test_chi_membership_mu_itself():
    mu = square_zero_map(random.Random(35), 4, 3, 2)
    assert chi_membership(mu, mu).holds


def test_chi_membership_generic_fails():
    rng = random.Random(36)
    mu = square_zero_map(rng, 4, 3, 2)
    phi = random_multimap(rng, 4, 2, density=0.6)
    rep = chi_membership(mu, phi)
    assert not rep.holds
    labels = {w[0] for w in rep.witness}
    assert "axiom1" in labels


def test_block_domain_maps_lie_in_chi():
    rng = random.Random(37)
    mu = square_zero_map(rng, 4, 3, 2)
    for k in (1, 2, 3):
        phi = block_domain_map(rng, 4, k, 2)
        assert chi_membership(mu, phi).holds


def test_odd_coboundary_of_mu_vanishes():
    rng = random.Random(38)
    mu = square_zero_map(rng, 4, 3, 2)
    assert odd_coboundary_checked(mu, mu).is_zero()


def test_odd_coboundary_chain():
    # nontrivial members of the restricted space: coboundary stays inside
    # and applying it twice gives zero
    rng = random.Random(39)
    mu = square_zero_map(rng, 3, 3, 2)
    seen_nonzero = False
    for k in (1, 2):
        for _ in range(3):
            phi = block_domain_map(rng, 3, k, 2)
            out = odd_coboundary_checked(mu, phi)
            if not out.is_zero():
                seen_nonzero = True
            assert odd_coboundary_checked(mu, out).is_zero()
    assert seen_nonzero


def test_odd_coboundary_preconditions():
    rng = random.Random(40)
    even_mu = matrix_algebra(2)
    with pytest.raises(ValueError):
        odd_coboundary_checked(even_mu, MultiMap.zero(4, 2))
    mu = square_zero_map(rng, 4, 3, 2)
    outsider = random_multimap(rng, 4, 2, density=0.6)
    assert not chi_membership(mu, outsider).holds
    with pytest.raises(ValueError):
        odd_coboundary_checked(mu, outsider)
    not_pa = random_multimap(rng, 2, 3, density=0.6)
    with pytest.raises(ValueError):
        odd_coboundary_checked(not_pa, MultiMap.zero(2, 2))


def test_odd_coboundary_checked_raises_when_coboundary_leaves_chi(monkeypatch):
    # the post-condition is an explicit raise, kept under python -O: a
    # coboundary that returns a cochain outside chi must trip it
    rng = random.Random(41)
    mu = square_zero_map(rng, 4, 3, 2)
    outsider = random_multimap(rng, 4, 4, density=0.6)
    assert not chi_membership(mu, outsider).holds
    monkeypatch.setattr(cohomology, "coboundary", lambda mu, phi: outsider)
    with pytest.raises(AssertionError, match="coboundary left the restricted space"):
        odd_coboundary_checked(mu, mu)


def test_cohomology_dims_zero_multiplication():
    table = cohomology_dims(MultiMap.zero(2, 2), 0, 3)
    assert [s.arity_in for s in table.steps] == [1, 2, 3]
    for s in table.steps:
        assert s.dim_ker == 2 ** (s.arity_in + 1)
        assert s.dim_im_prev == 0
        assert s.dim_H == s.dim_ker


def test_cohomology_dims_scalar_product():
    # one-dimensional associative product: every cohomology entry vanishes
    table = cohomology_dims(one_dim_product(2), 0, 4)
    assert [s.arity_in for s in table.steps] == [1, 2, 3, 4]
    assert [s.dim_ker for s in table.steps] == [0, 1, 0, 1]
    assert [s.dim_im_prev for s in table.steps] == [0, 1, 0, 1]
    assert all(s.dim_H == 0 for s in table.steps)


def test_cohomology_dims_upper_triangular():
    mu = upper_triangular2()
    assert partial_assoc_defect(mu).is_zero()
    table = cohomology_dims(mu, 0, 2)
    # frozen from the independent dense elimination below
    assert [s.arity_in for s in table.steps] == [1, 2]
    for s in table.steps:
        assert s.dim_H >= 0
    # oracle: ranks of the coboundary matrices by dense elimination
    ranks = {}
    for a in (1, 2):
        rows = []
        space = 3 ** a * 3
        for col in range(space):
            inputs_flat, j = divmod(col, 3)
            inputs = []
            for _ in range(a):
                inputs_flat, r = divmod(inputs_flat, 3)
                inputs.append(r)
            e = MultiMap.from_entries(3, a, {(tuple(reversed(inputs)), j): 1})
            img = coboundary(mu, e)
            row = [0] * (3 ** (a + 1) * 3)
            for x, out, c in img.items():
                flat = 0
                for i in x + (out,):
                    flat = flat * 3 + i
                row[flat] = c
            rows.append(row)
        rank, _, _ = dense_rref(rows)
        ranks[a] = rank
    assert table.steps[0].dim_ker == 3 * 3 - ranks[1]
    assert table.steps[1].dim_ker == 3 ** 2 * 3 - ranks[2]
    assert table.steps[1].dim_im_prev == ranks[1]
    # determinism across runs
    again = cohomology_dims(mu, 0, 2)
    assert again.to_json_dict() == table.to_json_dict()


def test_cohomology_dims_odd_restricted():
    rng = random.Random(41)
    mu = square_zero_map(rng, 3, 3, 1)
    table = cohomology_dims(mu, 0, 2)
    assert [s.arity_in for s in table.steps] == [2, 4]
    for s in table.steps:
        assert s.dim_H >= 0
    # images of restricted cochains stay restricted
    for b in chi_basis(mu, 2):
        assert chi_membership(mu, coboundary(mu, b)).holds


def test_cohomology_dims_slot_rows():
    # rows stay in their congruence class of arities mod (n - 1)
    rng = random.Random(45)
    mu = square_zero_map(rng, 2, 4, 1)
    rows = {0: [3], 1: [1, 4], 2: [2, 5]}
    for slot, arities in rows.items():
        table = cohomology_dims(mu, slot, len(arities))
        assert [s.arity_in for s in table.steps] == arities
        for s in table.steps:
            assert s.arity_in % 3 == slot % 3


def test_cohomology_dims_argument_errors():
    mu = one_dim_product(2)
    with pytest.raises(ValueError):
        cohomology_dims(mu, 1, 2)
    with pytest.raises(ValueError):
        cohomology_dims(mu, 0, 0)
    with pytest.raises(ValueError):
        cohomology_dims(matrix_algebra(2), 0, 3, cap=10)
    bad = random_multimap(random.Random(42), 2, 2, density=0.6)
    assert not partial_assoc_defect(bad).is_zero()
    with pytest.raises(ValueError):
        cohomology_dims(bad, 0, 1)


def test_cohomology_table_json():
    table = cohomology_dims(MultiMap.zero(2, 2), 0, 2)
    data = table.to_json_dict()
    assert data["slot"] == 0
    assert data["steps"][0] == {
        "arity_in": 1,
        "dim_ker": 4,
        "dim_im_prev": 0,
        "dim_H": 4,
    }


def test_unital_scalar_products():
    for n in (2, 3, 4):
        assert unital_check(one_dim_product(n), 0).holds
    # even arity: also partially associative; odd arity: defect is 3x product
    assert partial_assoc_defect(one_dim_product(4)).is_zero()
    defect = partial_assoc_defect(one_dim_product(3))
    assert defect.coef((0,) * 5, 0) == 3


def test_unital_truncated_polynomials():
    assert unital_check(poly_trunc_algebra(3), 0).holds
    rep = unital_check(poly_trunc_algebra(3), 1)
    assert not rep.holds
    for e in (-1, 3):
        with pytest.raises(ValueError, match=f"basis index {e} out of range"):
            unital_check(poly_trunc_algebra(3), e)


def test_unital_matrix_basis_fails():
    # no single matrix unit is a unit of the full matrix algebra
    mu = matrix_algebra(2)
    for e in range(4):
        assert not unital_check(mu, e).holds


def test_unital_phi_zero_and_arity():
    mu = poly_trunc_algebra(2, n=4)
    assert unital_check(mu, 0).holds
    assert partial_assoc_defect(mu).is_zero()
    assert unital_phi(mu, 0, MultiMap.zero(2, 2)).is_zero()
    rng = random.Random(43)
    phi = random_multimap(rng, 2, 2, density=0.5)
    assert unital_phi(mu, 0, phi).arity == 3


def test_unital_phi_chain_scalar():
    # one-dimensional even products: two consecutive unital maps compose to 0
    for n in (2, 4):
        mu1 = one_dim_product(n)
        for k in (1, 2, 3):
            phi = one_dim_product(k, 2)
            assert unital_phi(mu1, 0, unital_phi(mu1, 0, phi)).is_zero()


def test_unital_phi_chain_fails_beyond_scalars():
    # The chain property does NOT survive in higher dimension: on the
    # quaternary truncated polynomial algebra K[x]/(x^2) the composite of two
    # unital maps is nonzero for an explicit arity-1 cochain, even though the
    # coboundary itself squares to zero there. Frozen counterexample, checked
    # against independent nested-loop evaluation when first found.
    mu = poly_trunc_algebra(2, n=4)
    phi = MultiMap.from_entries(2, 1, {((0,), 1): 3, ((1,), 0): -1, ((1,), 1): -1})
    assert coboundary(mu, coboundary(mu, phi)).is_zero()
    step = unital_phi(mu, 0, phi)
    out = unital_phi(mu, 0, step)
    assert out.coef((1, 0, 1), 1) == 2
    assert out.coef((1, 1, 0), 1) == 2


def test_unital_phi_rejects_non_unital():
    with pytest.raises(ValueError):
        unital_phi(matrix_algebra(2), 0, MultiMap.zero(4, 1))


def test_cohomology_steps_capped_before_arities_are_built():
    # the cap stops a huge --steps at the first arity over it, before a list
    # of steps arities or a power of that size is made
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds cap"):
            cohomology_dims(matrix2(), 0, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_cohomology_steps_capped_on_one_dimensional_algebra(tmp_path, capsys):
    # every cochain space of a one-dimensional algebra has dense size 1, so
    # the cap counts that space as two-dimensional to bound the arity
    with pytest.raises(ValueError, match="exceeds cap"):
        cohomology_dims(one_dim_product(2), 0, 300)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(one_dim_product(2).to_json_dict()))
    assert main(["cohomology", "--algebra", str(path), "--steps", "300"]) == 2
    assert "exceeds cap" in capsys.readouterr().err
    # a short row stays well inside the cap
    assert main(["cohomology", "--algebra", str(path), "--steps", "4"]) == 0


def test_chi_basis_capped_on_one_dimensional_algebra():
    # the cap rule of cohomology_dims: dim 1 counts as 2, so the arity is
    # bounded and a huge arity fails at once instead of looping over it
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap"):
        chi_basis(one_dim_product(3), 10**6)
    assert time.perf_counter() - start < 1


def test_chi_basis_cap_message_at_large_arity():
    # the size is written as a power: printing 2^20001 itself would exceed
    # Python's int-to-string digit limit and raise a different ValueError
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"2\^20001 exceeds cap"):
        chi_basis(random_square_zero(2, 3, 1, 1), 20000)
    assert time.perf_counter() - start < 1


def test_chi_basis_rejects_even_arity():
    # chi is the odd-arity construction; an even product restricts nothing
    with pytest.raises(ValueError, match="needs a map of odd arity"):
        chi_basis(matrix2(), 1)


@pytest.mark.parametrize(
    "mu, arity",
    [
        (random_square_zero(2, 3, 1, 1), 2),
        (nilpotent_ternary(), 2),
    ],
)
def test_chi_basis_spans_dense_oracle_kernel(mu, arity):
    # the three axioms of every unit cochain as dense rows, by gprod
    d = mu.dim
    keys = [(k[:-1], k[-1]) for k in product(range(d), repeat=arity + 1)]
    rows = {}
    for col, key in enumerate(keys):
        phi = MultiMap(d, arity, {key: 1})
        pm = gprod(phi, mu)
        for idx, defect in enumerate((gprod(pm, mu), gprod(gprod(mu, phi), mu), gprod(mu, pm))):
            for x, j, c in defect.items():
                rows.setdefault((idx, x, j), [0] * len(keys))[col] = c
    oracle = dense_kernel(list(rows.values()), len(keys))
    assert 0 < len(oracle) < len(keys)
    basis = chi_basis(mu, arity)
    assert len(basis) == len(oracle)
    dense = [[phi.coef(x, j) for x, j in keys] for phi in basis]
    assert same_row_space(dense, oracle, len(keys))


@pytest.mark.parametrize(
    "d, n, steps", [(2, 2, 4), (2, 3, 2), (2, 4, 1), (3, 2, 2), (3, 3, 1), (3, 4, 1)]
)
def test_cohomology_dims_matches_kernel_basis_oracle(d, n, steps):
    # seed 0 gives a nonzero product for each (d, n); the odd rows with two
    # steps check the incoming image of a restricted differential
    mu = random_square_zero(d, n, 0, 1)
    assert not mu.is_zero()
    for slot in range(n - 1):
        got = cohomology_dims(mu, slot, steps).to_json_dict()["steps"]
        assert got == restricted_table(mu, slot, steps), slot


@pytest.mark.parametrize(
    "mu, slot, steps",
    [
        # arities 2 and 4 of the slot-0 row, where R(R(phi)) is not zero
        (nilpotent_ternary(), 0, 2),
        (random_square_zero(2, 5, 0, 1), 0, 1),
        (random_square_zero(2, 5, 0, 1), 1, 1),
        (random_square_zero(2, 5, 0, 1), 2, 1),
        (random_square_zero(2, 5, 0, 1), 3, 1),
        (random_square_zero(3, 5, 0, 1), 3, 1),
    ],
    ids=repr,
)
def test_cohomology_dims_matches_restricted_table_on_odd_rows(mu, slot, steps):
    # the dense literal-axiom oracle on odd rows the table above leaves out
    assert partial_assoc_defect(mu).is_zero() and not mu.is_zero()
    got = cohomology_dims(mu, slot, steps).to_json_dict()["steps"]
    assert got == restricted_table(mu, slot, steps)


def test_cohomology_dims_restriction_matters_on_nilpotent_ternary():
    # a partially associative ternary product that is not square-zero: here
    # some arity-3 cocycles of the full complex leave chi, so dropping the
    # chi constraints changes dim_ker (8 restricted, 9 unrestricted)
    mu = nilpotent_ternary()
    assert partial_assoc_defect(mu).is_zero()
    got = cohomology_dims(mu, 1, 2).to_json_dict()["steps"]
    assert got == restricted_table(mu, 1, 2)
    assert [s["dim_ker"] for s in got] == [3, 8]


def sparse_fraction_map(rng, d, n):
    # a few terms with Fraction coefficients, not partially associative in
    # general: the operators are linear maps whatever mu is
    entries = {}
    for _ in range(rng.randint(2, 3)):
        x = tuple(rng.randrange(d) for _ in range(n))
        entries[x, rng.randrange(d)] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    return MultiMap.from_entries(d, n, entries)


def operator_oracle_maps():
    rng = random.Random(20261018)
    maps = [sparse_fraction_map(rng, d, n) for d in (1, 2, 3) for n in (2, 3, 4)]
    maps += [sparse_fraction_map(rng, d, 5) for d in (1, 2, 3)]
    return maps + [matrix2(), nilpotent_ternary()]


def by_column(m):
    """m's terms keyed by cochain column: the base-d number with the digits
    of the inputs followed by the output."""
    out = {}
    for (x, j), c in m.terms.items():
        v = 0
        for t in x + (j,):
            v = v * m.dim + t
        out[v] = c
    return out


@pytest.mark.parametrize("mu", operator_oracle_maps(), ids=repr)
def test_operator_rows_match_gprod_oracle(mu):
    # every arity whose cochain space d^(a+1) is at most 512, a dimension of
    # 1 counted as 2 as the cap does. The even table's rows, transposed, are
    # delta's rows as a set, since the row order cannot change a rank; the
    # odd table's four images of each unit cochain e are the gprod
    # composites (e*mu)*mu, mu*(e*mu), mu*(mu*e) and delta(e), whatever mu is
    d = mu.dim
    index = cohomology._mu_index(mu)
    arities = [a for a in range(1, 10) if max(d, 2) ** (a + 1) <= 512]
    for a in arities:
        got = transposed_rows(coboundary_image_rows(mu, a))
        oracle = gprod_operator_rows(d, a, lambda e: (gprod_coboundary(mu, e),))
        assert got == set(oracle), ("delta", a)
        for u, key in enumerate(product(range(d), repeat=a + 1)):
            e = MultiMap(d, a, {(key[:-1], key[-1]): 1})
            em = gprod(e, mu)
            expect = (gprod(em, mu), gprod(mu, em), gprod(mu, gprod(mu, e)),
                      gprod_coboundary(mu, e))
            images = cohomology._odd_table(index, ((u, 1),), a)
            assert [{col: c for col, c in image.items() if c} for image in images] == [
                by_column(m) for m in expect
            ], ("odd table", a, key)


def sparse_fraction_cochain(rng, d, k):
    # several terms with Fraction coefficients, a few of them on one key
    entries = {}
    for _ in range(rng.randint(1, 5)):
        key = tuple(rng.randrange(d) for _ in range(k)), rng.randrange(d)
        entries[key] = entries.get(key, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return MultiMap.from_entries(d, k, entries)


def test_coboundary_and_chi_defects_match_gprod_formulas():
    # delta = (-1)^(k-1) mu * phi - phi * mu and the axioms (phi*mu)*mu,
    # (mu*phi)*mu, mu*(phi*mu), written out here with gprod; n = 5 and
    # k = 4 insert into five slots, and the zero cochain has no terms to
    # encode
    rng = random.Random(20261019)
    for d in (1, 2, 3):
        for n in (2, 3, 4, 5):
            mu = sparse_fraction_map(rng, d, n)
            cochains = [sparse_fraction_cochain(rng, d, k) for k in (1, 2, 3, 4)]
            for phi in cochains + [MultiMap.zero(d, 2)]:
                k = phi.arity
                sign = -1 if (k - 1) % 2 else 1
                delta = gprod(mu, phi).scale(sign) - gprod(phi, mu)
                got = coboundary(mu, phi)
                assert got == delta and got.arity == k + n - 1, (d, n, k)
                expect = (
                    gprod(gprod(phi, mu), mu),
                    gprod(gprod(mu, phi), mu),
                    gprod(mu, gprod(phi, mu)),
                )
                assert chi_defects(mu, phi) == expect, (d, n, k)
    with pytest.raises(ValueError, match="dimension mismatch"):
        coboundary(matrix2(), MultiMap.zero(3, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        chi_defects(nilpotent_ternary(), MultiMap.zero(2, 1))


def test_cohomology_tables_build_no_map_per_cochain(monkeypatch):
    # the table path feeds unit cochains to the column loops: no MultiMap is
    # built in cohomology, and neither the MultiMap operators nor the
    # tuple-keyed insertion kernel is reached through it, per unit cochain
    # or at all
    calls = []
    for name in ("MultiMap", "coboundary", "chi_defects", "gprod", "_insert_into", "_slot_index"):
        original = getattr(cohomology, name)
        monkeypatch.setattr(
            cohomology, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    even = cohomology_dims(matrix2(), 0, 4)
    odd = cohomology_dims(random_square_zero(2, 3, 1, 1), 0, 4)
    assert calls == []
    assert [s.dim_H for s in even.steps] == [3, 0, 0, 0]
    assert [s.dim_H for s in odd.steps] == [3, 6, 16, 46]
    # chi_basis is the kernel of the odd table's constraint block: its cap
    # check still comes before the table, and the table's precondition holds
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap"):
        chi_basis(one_dim_product(3), 10**6)
    assert time.perf_counter() - start < 1
    assert not partial_assoc_defect(one_dim_product(3)).is_zero()
    with pytest.raises(ValueError, match="not partially associative"):
        chi_basis(one_dim_product(3), 2)


def transported(mu, g, g_inv):
    # mu written in the basis of the columns of g: g mu(g^-1 x_1, ..., g^-1 x_n),
    # an isomorphic product with more terms
    d = mu.dim
    cols = [{i: g_inv[i][c] for i in range(d) if g_inv[i][c]} for c in range(d)]
    entries = {}
    for x in product(range(d), repeat=mu.arity):
        for m, v in mu.apply(*(cols[t] for t in x)).items():
            for j in range(d):
                entries[x, j] = entries.get((x, j), 0) + g[j][m] * v
    return MultiMap.from_entries(d, mu.arity, entries)


def sheared_nilpotent_ternary():
    # 9 terms against nilpotent_ternary's 3, with input e2 in use
    g = [[1, 0, 0], [0, 1, -1], [0, 0, 1]]
    g_inv = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    return transported(nilpotent_ternary(), g, g_inv)


def odd_partially_associative_products():
    maps = [nilpotent_ternary(), sheared_nilpotent_ternary()]
    for d, n, s in [(2, 3, 1), (3, 3, 1), (3, 3, 2), (4, 3, 2), (2, 5, 1), (3, 5, 1), (3, 5, 2)]:
        maps += [random_square_zero(d, n, seed, s) for seed in (0, 1)]
    return maps


def test_prelie_identity_for_odd_partially_associative_products():
    # (mu*phi)*mu - mu*(phi*mu) = -mu*(mu*phi) for odd n and mu*mu = 0, the
    # identity the odd table rests on, written with gprod alone
    rng = random.Random(20261020)
    rr_nonzero = set()
    for i, mu in enumerate(odd_partially_associative_products()):
        assert mu.arity % 2 and partial_assoc_defect(mu).is_zero()
        for k in (1, 2, 3):
            for _ in range(2):
                phi = sparse_fraction_cochain(rng, mu.dim, k)
                rr = gprod(mu, gprod(mu, phi))
                lhs = gprod(gprod(mu, phi), mu) - gprod(mu, gprod(phi, mu))
                assert lhs == -rr, (mu, k)
                if not rr.is_zero():
                    rr_nonzero.add(i)
    # square-zero products have mu*(mu*phi) = 0; the two nilpotent ones do not
    assert rr_nonzero == {0, 1}
    # the identity needs mu*mu = 0: it fails for a ternary product with mu*mu != 0
    mu = one_dim_product(3)
    assert not partial_assoc_defect(mu).is_zero()
    phi = one_dim_product(2)
    lhs = gprod(gprod(mu, phi), mu) - gprod(mu, gprod(phi, mu))
    assert lhs != -gprod(mu, gprod(mu, phi))


def transposed_rows(rows):
    """The distinct nonzero rows of the transpose of rows, the r-th row being
    column r, each as the (column, coefficient) tuple gprod_operator_rows
    makes."""
    cols: dict[int, dict] = {}
    for r, row in enumerate(rows):
        for c, v in row:
            cols.setdefault(c, {})[r] = v
    return {tuple(col.items()) for col in cols.values()}


@pytest.mark.parametrize(
    "mu",
    [
        nilpotent_ternary(),
        sheared_nilpotent_ternary(),
        random_square_zero(2, 3, 1, 1),
        random_square_zero(3, 3, 0, 2),
        random_square_zero(2, 5, 0, 1),
        matrix2(),
        random_square_zero(3, 2, 0, 2),
        random_square_zero(2, 4, 1, 1),
    ],
    ids=repr,
)
def test_table_rows_match_literal_axiom_rows(mu):
    # every arity whose cochain space d^(a+1) has at most 512 columns, the
    # literal rows built from gprod. For odd n the table's blocks rank like
    # the paper's axioms stacked on delta, and its delta block is exactly
    # delta's rows. For even n the table ranks coboundary_image_rows, one row
    # delta(e) per unit cochain e: the transpose of delta's rows, and a
    # skipped column drops its row. The tables pass the rows of either
    # parity on unchecked, so they must already be the sorted, in-range,
    # zero-free rows SparseMatrix makes
    d, n = mu.dim, mu.arity
    for a in [a for a in range(1, 10) if d ** (a + 1) <= 512]:
        space = d ** (a + 1)
        literal_delta = gprod_operator_rows(d, a, lambda e: (gprod_coboundary(mu, e),))
        if n % 2 == 0:
            image = coboundary_image_rows(mu, a)
            assert len(image) == space and transposed_rows(image) == set(literal_delta), a
            assert SparseMatrix(d ** (a + n), image).rows == image, a
            skip = set(range(0, space, 3))
            kept = [row for col, row in enumerate(image) if col not in skip]
            assert coboundary_image_rows(mu, a, skip) == kept, a
            continue
        constraints, delta = table_rows(mu, a)
        literal = (gprod_operator_rows(d, a, lambda e: gprod_chi_defects(mu, e)), literal_delta)
        got = [SparseMatrix(space, constraints), SparseMatrix(space, delta)]
        assert [[tuple(row) for row in block.rows] for block in got] == [constraints, delta], a
        assert stacked_ranks(got) == stacked_ranks([SparseMatrix(space, b) for b in literal]), a
        assert len(delta) == len(literal_delta) and set(delta) == set(literal_delta), a


def test_table_rows_rejects_non_partially_associative():
    for mu in (one_dim_product(3), random_multimap(random.Random(46), 2, 3, density=0.6)):
        assert not partial_assoc_defect(mu).is_zero()
        with pytest.raises(ValueError, match="not partially associative"):
            table_rows(mu, 2)
    # the even table does not use it: delta needs no restriction there
    with pytest.raises(ValueError, match="odd arity"):
        table_rows(matrix2(), 2)


@pytest.mark.parametrize("arity", [-1, 0, 1.0, True, "2", None], ids=repr)
def test_cochain_arity_must_be_a_positive_int(arity, monkeypatch):
    # one ValueError before any work: no insertion loop runs and chi_basis
    # reaches neither its cap check nor the elimination
    def forbidden(*args):
        raise AssertionError("work done before the arity check")

    for name in ("_mu_index", "_check_cap", "partial_assoc_defect"):
        monkeypatch.setattr(cohomology, name, forbidden)
    odd = random_square_zero(2, 3, 1, 1)
    for call in (
        lambda: table_rows(odd, arity),
        lambda: coboundary_image_rows(matrix2(), arity),
        lambda: chi_basis(odd, arity),
    ):
        with pytest.raises(ValueError, match="cochain arity must be an integer of at least 1"):
            call()


def test_odd_table_makes_five_insertion_loops_per_unit_cochain(monkeypatch):
    # L, R, L(L), R(L), R(R) per unit cochain and no other column loop; the
    # even table makes delta's two loops per unit cochain outside the
    # previous image's pivots
    calls = []
    for name in ("_left_into", "_right_into"):
        original = getattr(cohomology, name)
        monkeypatch.setattr(
            cohomology, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    odd = cohomology_dims(random_square_zero(2, 3, 1, 1), 0, 4)
    assert [s.dim_H for s in odd.steps] == [3, 6, 16, 46]
    units = sum(2 ** (s.arity_in + 1) for s in odd.steps)
    # L and L(L) on the column loop of L; R, R(L) and R(R) on that of R
    assert calls.count("_left_into") == 2 * units
    assert calls.count("_right_into") == 3 * units and len(calls) == 5 * units
    calls.clear()
    even = cohomology_dims(matrix2(), 0, 4)
    assert [s.dim_H for s in even.steps] == [3, 0, 0, 0]
    built = sum(4 ** (s.arity_in + 1) - s.dim_im_prev for s in even.steps)
    assert calls.count("_right_into") == calls.count("_left_into") == built
    assert len(calls) == 2 * built


def literal_even_table(mu, slot, steps):
    """cohomology_dims' steps from the full delta rows: rank delta at each
    arity of the row as stacked_ranks([SparseMatrix(space, rows)]), the rows
    of delta built from gprod by gprod_operator_rows."""
    d, n = mu.dim, mu.arity
    k0 = 0 if slot >= 1 else 1
    out, prev = [], 0
    for k in range(k0, k0 + steps):
        a = slot + k * (n - 1)
        space = d ** (a + 1)
        rows = gprod_operator_rows(d, a, lambda e: (gprod_coboundary(mu, e),))
        (rank,) = stacked_ranks([SparseMatrix(space, rows)])
        out.append({"arity_in": a, "dim_ker": space - rank, "dim_im_prev": prev,
                    "dim_H": space - rank - prev})
        prev = rank
    return out


def rational_matrix2():
    # matrix2 in the basis e_i / s_i for s = 1, 2, 1/3, -3/2: isomorphic, with
    # Fraction coefficients
    s = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-3, 2)]
    g = [[s[i] if i == j else 0 for j in range(4)] for i in range(4)]
    g_inv = [[1 / s[i] if i == j else 0 for j in range(4)] for i in range(4)]
    return transported(matrix2(), g, g_inv)


EVEN_SQUARE_ZERO = [(4, 2, 0, 2), (3, 2, 0, 2), (2, 4, 1, 1), (3, 2, 1, 1), (3, 2, 2, 2),
                    (4, 2, 1, 1), (4, 2, 2, 3), (2, 2, 0, 1), (3, 4, 0, 1), (2, 6, 0, 1),
                    (5, 2, 0, 2)]


@pytest.mark.parametrize("args", EVEN_SQUARE_ZERO, ids=str)
def test_even_tables_match_literal_delta_table_on_square_zero_products(args):
    # every slot, with as many steps as keep the last target space within
    # 4096 coordinates
    mu = random_square_zero(*args)
    d, n = mu.dim, mu.arity
    assert not mu.is_zero()
    for slot in range(n - 1):
        k0 = 0 if slot >= 1 else 1
        steps = 0
        while d ** (slot + (k0 + steps + 1) * (n - 1) + 1) <= 4096:
            steps += 1
        if steps:
            got = cohomology_dims(mu, slot, steps).to_json_dict()["steps"]
            assert got == literal_even_table(mu, slot, steps), slot


def test_even_tables_match_literal_delta_table_on_matrix2():
    # five steps of matrix2, and of a rational basis change of it, whose
    # Fraction rows echelon_pivots must scale to integers first
    mu = rational_matrix2()
    assert mu != matrix2() and any(isinstance(c, Fraction) for c in mu.terms.values())
    for mu in (matrix2(), mu):
        got = cohomology_dims(mu, 0, 5).to_json_dict()["steps"]
        assert got == literal_even_table(mu, 0, 5)
        assert [s["dim_H"] for s in got] == [3, 0, 0, 0, 0]


def test_even_table_builds_rows_outside_the_previous_image(monkeypatch):
    # one row per unit cochain outside the pivots of the previous image:
    # d^(a+1) minus the previous rank
    built = []

    def recording(mu, arity, skip=frozenset()):
        rows = coboundary_image_rows(mu, arity, skip)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(cohomology, "coboundary_image_rows", recording)
    table = cohomology_dims(matrix2(), 0, 4)
    assert built == [16, 51, 205, 819]
    assert built == [4 ** (s.arity_in + 1) - s.dim_im_prev for s in table.steps]
