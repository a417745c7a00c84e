import json
import random
import tracemalloc

import pytest

from naryalg.cli import main
from naryalg.cohomology import (
    chi_basis,
    chi_membership,
    coboundary,
    cohomology_dims,
    odd_coboundary_checked,
    unital_check,
    unital_phi,
)
from naryalg.gerstenhaber import MultiMap, gprod, partial_assoc_defect
from naryalg.identities import matrix2
from fixtures import (
    block_domain_map,
    matrix_algebra,
    poly_trunc_algebra,
    random_multimap,
    square_zero_map,
    upper_triangular2,
)
from oracles import dense_rref


def one_dim_product(k, a=1):
    return MultiMap.from_entries(1, k, {((0,) * k, 0): a})


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
