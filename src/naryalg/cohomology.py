"""Coboundary operators and cohomology tables for partially associative algebras.

One formula serves both parities of n: delta(phi) = (-1)^(k-1) mu * phi -
phi * mu with k = arity(phi). For even n it squares to zero on all cochains;
for odd n only on the restricted space chi cut out by three linear axioms,
(phi*mu)*mu, (mu*phi)*mu and mu*(phi*mu).

There is one kernel per key type. A MultiMap cochain goes through
gerstenhaber's tuple-keyed insertion kernel: coboundary is two _insert_into
calls into one dict, chi_defects the three gprod composites. The tables run
on integer cochain columns: the column of the coordinate (x, j) of an
arity-k cochain is the base-d number with the digits of x followed by j,
its place in product(range(d), repeat=k + 1), so the unit cochains are the
columns 0..d^(k+1)-1. Two column loops, L(phi) = phi * mu (_left_into) and
R(phi) = mu * phi (_right_into), take mu's terms indexed once (_mu_index)
and each unit cochain's column, so the tables build no map per cochain.

The odd tables (table_rows) need no basis of chi: with C the axioms and D
the coboundary as rows over the cochain columns, dim ker = space - rank
[C; D] and, by rank-nullity, dim delta(chi) = rank [C; D] - rank C, both
from one elimination (exactnum.stacked_ranks). C holds the rows of
L(L(phi)), R(L(phi)) and R(R(phi)), not those of the axioms L(L), L(R) and
R(L): for odd n and mu * mu = 0, Gerstenhaber's pre-Lie identity gives
(mu*phi)*mu - mu*(phi*mu) = -mu*(mu*phi), that is L(R) = R(L) - R(R) row by
row, so both sets span one row space. R(R(phi)) inserts into n slots where
L(R(phi)) inserts into arity + n - 1, and one L and one R per unit cochain
give delta too. chi_basis is the kernel of C, so it needs mu * mu = 0 too.

The even tables rank delta on its transpose, one row delta(e) per unit
cochain e (coboundary_image_rows), skipping each e at a pivot column of the
previous arity's image. delta vanishes on that image, and the unit cochains
off the pivots of an echelon basis of it span a complement, so the rows
left have rank delta. They span the image itself, so their pivots, found by
forward elimination alone (exactnum.echelon_pivots), are the next skip.
The rows of both parities are built sorted, in range and free of zeros, so
they reach the elimination through SparseMatrix._of_clean, unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactnum import SparseMatrix, echelon_pivots, kernel_basis, stacked_ranks
from .gerstenhaber import (
    IdentityReport, MultiMap, _insert_into, _slot_index, gprod, partial_assoc_defect,
)

DEFAULT_CAP = 20000


def _dense_size_exceeds(dim: int, arity: int, cap: int) -> bool:
    """Whether dim^(arity+1) > cap, without raising the power.

    A one-dimensional space counts as two, so that the arity is bounded as
    well: the work on a cochain space grows with its arity even when its
    dense size stays 1.
    """
    size = 1
    for _ in range(arity + 1):
        size *= max(dim, 2)
        if size > cap:
            return True
    return False


def _check_cap(dim: int, arity: int, cap: int) -> None:
    if _dense_size_exceeds(dim, arity, cap):
        size = f"{dim}^{arity + 1}" if dim > 1 else f"2^{arity + 1} (dim 1 counts as 2)"
        raise ValueError(f"cochain space size {size} exceeds cap {cap}")


def _value(digits, d: int) -> int:
    """The base-d number with the given digits, the first most significant."""
    v = 0
    for t in digits:
        v = v * d + t
    return v


def _decoded(acc: dict, d: int, arity: int) -> dict:
    """acc's column-keyed terms keyed by (inputs, out), for arity-cochains."""
    powers = [d ** p for p in range(arity, 0, -1)]
    return {(tuple([u // p % d for p in powers]), u % d): c for u, c in acc.items()}


def _mu_index(mu: MultiMap):
    """mu's terms indexed once for both column loops, as (d, n, by_out,
    by_slot, plans): by_out keys them by output as (input word value, c), for
    L; by_slot[i] keys them by the input at slot i (from 0) as (head value,
    tail-and-output value, c), for R; plans caches each loop's per-slot powers
    of d and weighted, signed terms for each cochain arity."""
    d, n = mu.dim, mu.arity
    by_out: dict[int, list] = {}
    by_slot: list[dict] = [{} for _ in range(n)]
    for (x, m), c in mu.terms.items():
        v = _value(x + (m,), d)
        by_out.setdefault(m, []).append((v // d, c))
        for i, slot in enumerate(by_slot):
            p = d ** (n - i)
            slot.setdefault(x[i], []).append((v // (p * d), v % p, c))
    return d, n, by_out, by_slot, {}


def _left_into(acc: dict, index, k: int, terms, sign: int = 1) -> None:
    """Add sign (+1 or -1) times L(phi) = phi * mu to acc, phi of arity k
    given by its (column, c) terms and mu by index = _mu_index(mu): mu goes
    into slot i (from 0) of phi with the comb sign (-1)^(i(n-1)), between the
    head digits of the column u and its tail and output digits."""
    d, n, by_out, _, plans = index
    plan = plans.get(("L", k))
    if plan is None:
        plan = plans["L", k] = [
            (d ** (k - i), d ** (k + 1 - i), d ** (k + n - i), {
                t: [(y * d ** (k - i), -c if i * (n - 1) % 2 else c) for y, c in found]
                for t, found in by_out.items()
            })
            for i in range(k)
        ]
    for u, c in terms:
        c = -c if sign < 0 else c
        for lo, hi, head, by_in in plan:
            found = by_in.get(u // lo % d)
            if found:
                base = u // hi * head + u % lo
                for y, cm in found:
                    acc[base + y] = acc.get(base + y, 0) + c * cm


def _right_into(acc: dict, index, k: int, terms, sign: int = 1) -> None:
    """Add sign (+1 or -1) times R(phi) = mu * phi to acc, phi of arity k
    given by its (column, c) terms and mu by index = _mu_index(mu): phi goes
    into slot i (from 0) of mu with the comb sign (-1)^(i(k-1)), its input
    digits between mu's head digits and mu's tail and output digits."""
    d, n, _, by_slot, plans = index
    plan = plans.get(("R", k))
    if plan is None:
        plan = plans["R", k] = [
            (d ** (n - i), {
                t: [(h * d ** (k + n - i) + rest, -c if i * (k - 1) % 2 else c)
                    for h, rest, c in found]
                for t, found in slot.items()
            })
            for i, slot in enumerate(by_slot)
        ]
    for u, c in terms:
        c = -c if sign < 0 else c
        x, j = divmod(u, d)
        for weight, by_in in plan:
            found = by_in.get(j)
            if found:
                base = x * weight
                for rest, cm in found:
                    acc[base + rest] = acc.get(base + rest, 0) + c * cm


def _delta(index, terms, k: int) -> dict:
    """Terms of delta(phi) = (-1)^(k-1) R(phi) - L(phi), phi of arity k given
    by its (column, c) terms and mu by index = _mu_index(mu)."""
    acc: dict = {}
    _right_into(acc, index, k, terms, -1 if (k - 1) % 2 else 1)
    _left_into(acc, index, k, terms, -1)
    return acc


def _odd_table(index, terms, k: int) -> tuple[dict, dict, dict, dict]:
    """Terms of L(L(phi)), R(L(phi)), R(R(phi)) and delta(phi), phi of arity
    k given by its (column, c) terms, from one L(phi) and one R(phi)."""
    left, right = {}, {}
    _left_into(left, index, k, terms)
    _right_into(right, index, k, terms)
    left = [(u, c) for u, c in left.items() if c]
    right = [(u, c) for u, c in right.items() if c]
    delta = {u: -c for u, c in left}
    sign = -1 if (k - 1) % 2 else 1
    for u, c in right:
        delta[u] = delta.get(u, 0) + sign * c
    k += index[1] - 1
    ll, rl, rr = {}, {}, {}
    _left_into(ll, index, k, left)
    _right_into(rl, index, k, left)
    _right_into(rr, index, k, right)
    return ll, rl, rr, delta


def coboundary(mu: MultiMap, phi: MultiMap) -> MultiMap:
    """delta(phi), raising the arity by arity(mu) - 1: both signed insertion
    sums go into one dict."""
    if mu.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {phi.dim}")
    k = phi.arity
    acc: dict = {}
    _insert_into(acc, _slot_index(mu, range(1, mu.arity + 1)), phi.terms.items(),
                 -1 if (k - 1) % 2 else 1)
    _insert_into(acc, _slot_index(phi, range(1, k + 1)), mu.terms.items(), -1)
    return MultiMap(mu.dim, k + mu.arity - 1, acc)


def chi_defects(mu: MultiMap, phi: MultiMap):
    """The three restriction axioms (phi*mu)*mu, (mu*phi)*mu and
    mu*(phi*mu) as defect maps, in display order."""
    pm = gprod(phi, mu)
    return gprod(pm, mu), gprod(gprod(mu, phi), mu), gprod(mu, pm)


def chi_membership(mu: MultiMap, phi: MultiMap) -> IdentityReport:
    """Membership in the restricted cochain space: all three axioms vanish."""
    failures = []
    for label, defect in zip(("axiom1", "axiom2", "axiom3"), chi_defects(mu, phi)):
        w = defect.first_nonzero()
        if w is not None:
            failures.append((label,) + w)
    if failures:
        return IdentityReport("chi_membership", False, tuple(failures))
    return IdentityReport("chi_membership", True)


def odd_coboundary_checked(mu: MultiMap, phi: MultiMap) -> MultiMap:
    """delta(phi) for odd arity(mu), with the domain restriction enforced."""
    n = mu.arity
    if n % 2 == 0:
        raise ValueError("odd-case coboundary needs a map of odd arity")
    if not partial_assoc_defect(mu).is_zero():
        raise ValueError("multiplication is not partially associative")
    rep = chi_membership(mu, phi)
    if not rep.holds:
        raise ValueError(f"cochain fails restriction axioms: {rep.witness}")
    out = coboundary(mu, phi)
    if not chi_membership(mu, out).holds:
        raise AssertionError("coboundary left the restricted space")
    return out


def _check_arity(arity) -> None:
    if type(arity) is not int or arity < 1:
        raise ValueError(f"cochain arity must be an integer of at least 1, got {arity!r}")


def table_rows(mu: MultiMap, arity: int) -> tuple[list[tuple], list[tuple]]:
    """The row blocks (C, D) cohomology_dims ranks at one arity for mu of odd
    arity, over the unit cochains in column order: C cuts out chi, as the
    rows of L(L), R(L) and R(R), and D is the rows of delta. mu must be
    partially associative. Each image of _odd_table scatters into its own
    dict of rows keyed by output column; C takes its three images' rows in
    turn, each in order of first appearance, which cannot change a rank.
    Identical rows in a block are kept once, as they add nothing to it. The
    rows are sorted and zero-free as built, for SparseMatrix._of_clean."""
    _check_arity(arity)
    if mu.arity % 2 == 0:
        raise ValueError("restricted cochain space needs a map of odd arity")
    if not partial_assoc_defect(mu).is_zero():
        raise ValueError("multiplication is not partially associative")
    index = _mu_index(mu)
    images = ({}, {}, {}, {})  # per image, {output column: {unit column: c}}
    for u in range(mu.dim ** (arity + 1)):
        for rows, image in zip(images, _odd_table(index, ((u, 1),), arity)):
            for col, c in image.items():
                if c:
                    rows.setdefault(col, {})[u] = c
    *axioms, delta = images
    return tuple(
        list(dict.fromkeys(tuple(row.items()) for rows in block for row in rows.values()))
        for block in (axioms, (delta,))
    )


def coboundary_image_rows(mu: MultiMap, arity: int, skip=frozenset()) -> list[list[tuple]]:
    """delta(e) for each unit arity-cochain e whose column is not in skip, in
    column order, as a sorted row of nonzero entries over the
    (arity + n - 1)-cochain columns: the rows of the transpose of delta's
    matrix, less the skipped columns."""
    _check_arity(arity)
    index = _mu_index(mu)
    return [
        sorted(term for term in _delta(index, ((u, 1),), arity).items() if term[1])
        for u in range(mu.dim ** (arity + 1))
        if u not in skip
    ]


def chi_basis(mu: MultiMap, arity: int, cap: int = DEFAULT_CAP) -> list[MultiMap]:
    """Basis of the restricted cochain space at the given arity, for mu of
    odd arity (even arity restricts nothing) that is partially associative:
    one cochain per kernel_basis vector of table_rows' constraint block C,
    which spans the three axioms' rows for such a mu."""
    _check_arity(arity)
    if mu.arity % 2 == 0:
        raise ValueError("restricted cochain space needs a map of odd arity")
    d = mu.dim
    _check_cap(d, arity, cap)
    equations = SparseMatrix._of_clean(d ** (arity + 1), table_rows(mu, arity)[0])
    return [
        MultiMap(d, arity, _decoded(vec, d, arity)) for vec in kernel_basis(equations).values()
    ]


@dataclass(frozen=True)
class CohomologyStep:
    arity_in: int
    dim_ker: int
    dim_im_prev: int

    @property
    def dim_H(self) -> int:
        return self.dim_ker - self.dim_im_prev


@dataclass(frozen=True)
class CohomologyTable:
    slot: int
    steps: list[CohomologyStep] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "slot": self.slot,
            "steps": [
                {
                    "arity_in": s.arity_in,
                    "dim_ker": s.dim_ker,
                    "dim_im_prev": s.dim_im_prev,
                    "dim_H": s.dim_H,
                }
                for s in self.steps
            ],
        }


def cohomology_dims(
    mu: MultiMap, slot: int, steps: int, cap: int = DEFAULT_CAP
) -> CohomologyTable:
    """Kernel/image dimensions along one row of the coboundary complex.

    The row visits arities slot + k(arity(mu) - 1); the arity-0 space at the
    head of the slot-0 row is not modeled, so that row starts at arity n-1
    with no incoming image. For odd n the differentials are restricted to the
    chi subspaces.
    """
    n = mu.arity
    d = mu.dim
    if n < 2:
        raise ValueError("cohomology rows need arity at least 2")
    if not 0 <= slot <= n - 2:
        raise ValueError(f"slot {slot} not in 0..{n - 2}")
    if steps < 1:
        raise ValueError("need at least one step")
    if not partial_assoc_defect(mu).is_zero():
        raise ValueError("multiplication is not partially associative")
    k0 = 0 if slot >= 1 else 1
    # the row's arities and the target arity of its last differential; each
    # is checked as it is made, so a huge steps stops at the first over cap
    arities = []
    for k in range(k0, k0 + steps + 1):
        a = slot + k * (n - 1)
        _check_cap(d, a, cap)
        arities.append(a)

    table_steps = []
    dim_im_prev = 0
    pivots = frozenset()
    for a in arities[:-1]:
        space = d ** a * d
        # the rows are sorted, in range and without zeros as built
        if n % 2:
            rank_c, rank_cd = stacked_ranks(
                SparseMatrix._of_clean(space, rows) for rows in table_rows(mu, a)
            )
        else:
            rows = coboundary_image_rows(mu, a, pivots)
            pivots = frozenset(echelon_pivots(SparseMatrix._of_clean(space * d ** (n - 1), rows)))
            rank_c, rank_cd = 0, len(pivots)
        table_steps.append(CohomologyStep(a, space - rank_cd, dim_im_prev))
        dim_im_prev = rank_cd - rank_c
    return CohomologyTable(slot, table_steps)


def unital_check(mu: MultiMap, e: int) -> IdentityReport:
    """e acts as a unit: mu with e in all slots but one is the identity."""
    d, n = mu.dim, mu.arity
    if not 0 <= e < d:
        raise ValueError(f"basis index {e} out of range")
    for slot in range(n):
        for b in range(d):
            inputs = tuple(e if t != slot else b for t in range(n))
            got = mu.value_at(inputs)
            expect = {b: 1}
            if got != expect:
                for j in range(d):
                    diff = got.get(j, 0) - expect.get(j, 0)
                    if diff:
                        return IdentityReport(
                            "unital", False, (slot + 1, b, j, diff)
                        )
    return IdentityReport("unital", True)


def _plug_front(m: MultiMap, e: int, count: int) -> MultiMap:
    """Partially evaluate the first count arguments at basis vector e."""
    if count == 0:
        return m
    if count >= m.arity:
        raise ValueError("cannot plug all argument slots")
    d = m.dim
    prefix = (e,) * count
    entries = {}
    for x, j, c in m.items():
        if x[:count] == prefix:
            entries[(x[count:], j)] = c
    return MultiMap.from_entries(d, m.arity - count, entries)


def unital_phi(mu: MultiMap, e: int, phi: MultiMap) -> MultiMap:
    """The arity-(k+1) map from plugging the unit into a coboundary.

    Applies delta, then fixes the first arity(mu) - 2 arguments at the unit.
    Iterating these maps gives a complex.
    """
    rep = unital_check(mu, e)
    if not rep.holds:
        raise ValueError(f"basis vector {e} is not a unit: {rep.witness}")
    psi = coboundary(mu, phi)
    return _plug_front(psi, e, mu.arity - 2)
