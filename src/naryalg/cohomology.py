"""Coboundary operators and cohomology tables for partially associative algebras.

One formula serves both parities of n: delta(phi) = (-1)^(k-1) mu * phi -
phi * mu with k = arity(phi). For even n it squares to zero on all cochains;
for odd n only on the restricted space chi cut out by three linear axioms.

The odd tables need no basis of chi: with C the axioms and D the
coboundary as rows over the cochain columns, dim ker = space - rank [C; D]
and, by rank-nullity, dim delta(chi) = rank [C; D] - rank C. Both ranks
come from one elimination, exactnum.stacked_ranks.

The even tables rank delta on its transpose, one row delta(e) per unit
cochain e (coboundary_image_rows), skipping each e at a pivot column of the
previous arity's image. delta vanishes on that image, and the unit cochains
off the pivots of an echelon basis of it span a complement, so the rows
left have rank delta. They span the image itself, so their pivots, found by
forward elimination alone (exactnum.echelon_pivots), are the next skip.

Every operator here runs on cochain columns: the column of the coordinate
(x, j) of an arity-k cochain is the base-d number with the digits of x
followed by j, its place in product(range(d), repeat=k + 1), so the unit
cochains are the columns 0..d^(k+1)-1. L(phi) = phi * mu (_left_into) and
R(phi) = mu * phi (_right_into) are the two column loops, on mu's terms
indexed once (_mu_index) and a cochain phi given by its (column, c) terms;
the MultiMap functions encode phi's terms and decode the result. delta =
(-1)^(k-1) R - L (_delta) and the paper's axioms are L(L(phi)), L(R(phi))
and R(L(phi)) (_chi), which the chi_* functions keep. The table
(table_rows) ranks L(L(phi)), R(L(phi)) and R(R(phi)) instead: for odd n
and mu * mu = 0, Gerstenhaber's pre-Lie identity gives (mu*phi)*mu -
mu*(phi*mu) = -mu*(mu*phi), that is L(R) = R(L) - R(R) row by row, so both
sets span one row space. R(R(phi)) inserts into n slots where L(R(phi))
inserts into arity + n - 1, and one L and one R per unit cochain give delta
too. The tables feed the loops each unit cochain's column, so they build no
map per cochain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactnum import SparseMatrix, echelon_pivots, kernel_basis, stacked_ranks
from .gerstenhaber import IdentityReport, MultiMap, partial_assoc_defect

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


def _columns(phi: MultiMap) -> list:
    """phi's terms as (column, c)."""
    return [(_value(x + (j,), phi.dim), c) for (x, j), c in phi.terms.items()]


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


def _left_right(index, terms, k: int) -> tuple[list, list]:
    """The nonzero terms of L(phi) = phi * mu and R(phi) = mu * phi, phi of
    arity k given by its (column, c) terms and mu by index = _mu_index(mu)."""
    left, right = {}, {}
    _left_into(left, index, k, terms)
    _right_into(right, index, k, terms)
    return [(u, c) for u, c in left.items() if c], [(u, c) for u, c in right.items() if c]


def _chi(index, terms, k: int) -> tuple[dict, dict, dict]:
    """Terms of the three axioms L(L(phi)), L(R(phi)), R(L(phi)), phi of arity
    k given by its (column, c) terms and mu by index = _mu_index(mu)."""
    left, right = _left_right(index, terms, k)
    k += index[1] - 1
    ll, lr, rl = {}, {}, {}
    _left_into(ll, index, k, left)
    _right_into(rl, index, k, left)
    _left_into(lr, index, k, right)
    return ll, lr, rl


def _odd_table(index, terms, k: int) -> tuple[dict, dict, dict, dict]:
    """Terms of L(L(phi)), R(L(phi)), R(R(phi)) and delta(phi), phi of arity
    k given by its (column, c) terms, from one L(phi) and one R(phi)."""
    left, right = _left_right(index, terms, k)
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
    """delta(phi), raising the arity by arity(mu) - 1."""
    if mu.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {phi.dim}")
    arity = phi.arity + mu.arity - 1
    acc = _delta(_mu_index(mu), _columns(phi), phi.arity)
    return MultiMap(mu.dim, arity, _decoded(acc, mu.dim, arity))


def chi_defects(mu: MultiMap, phi: MultiMap):
    """The three restriction axioms as defect maps, in display order."""
    if mu.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {phi.dim} vs {mu.dim}")
    d, arity = mu.dim, phi.arity + 2 * (mu.arity - 1)
    return tuple(
        MultiMap(d, arity, _decoded(acc, d, arity))
        for acc in _chi(_mu_index(mu), _columns(phi), phi.arity)
    )


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


def _operator_rows(d: int, arity: int, images, blocks=(0,)) -> list[list[tuple]]:
    """Distinct rows of linear maps on arity-cochains, over their columns.

    images(u) is a tuple of {output column: coefficient} dicts, the images of
    the unit cochain u under maps linear in the cochain; each (image index,
    output column with nonzero coefficient) gives one row, in order of first
    appearance. Image idx goes to block blocks[idx]; one list of rows is
    returned per block. The reduced echelon form is unique, so that order
    cannot change a rank. Identical rows in a block are kept once: they add
    nothing to the rank and cost elimination time.
    """
    out: list[dict[tuple, dict[int, object]]] = [{} for _ in range(max(blocks) + 1)]
    rows_of = [out[b] for b in blocks]
    for u in range(d ** (arity + 1)):
        for idx, image in enumerate(images(u)):
            rows = rows_of[idx]
            for col, c in image.items():
                if c:
                    rows.setdefault((idx, col), {})[u] = c
    return [list(dict.fromkeys(tuple(row.items()) for row in rows.values())) for rows in out]


def coboundary_rows(mu: MultiMap, arity: int) -> list[tuple]:
    """Distinct rows of delta on the arity-cochains, over the unit cochains in
    column order: the _delta of each unit cochain."""
    index = _mu_index(mu)
    return _operator_rows(mu.dim, arity, lambda u: (_delta(index, ((u, 1),), arity),))[0]


def chi_rows(mu: MultiMap, arity: int) -> list[tuple]:
    """Distinct rows of the three chi axioms on the arity-cochains, over the
    unit cochains in column order: the _chi of each unit cochain."""
    index = _mu_index(mu)
    return _operator_rows(mu.dim, arity, lambda u: _chi(index, ((u, 1),), arity), (0, 0, 0))[0]


def table_rows(mu: MultiMap, arity: int) -> tuple[list[tuple], list[tuple]]:
    """The row blocks (C, D) cohomology_dims ranks at one arity for mu of odd
    arity: C cuts out chi, as the distinct rows of L(L), R(L) and R(R), and D
    is the distinct rows of delta. mu must be partially associative."""
    if mu.arity % 2 == 0:
        raise ValueError("restricted cochain space needs a map of odd arity")
    if not partial_assoc_defect(mu).is_zero():
        raise ValueError("multiplication is not partially associative")
    index = _mu_index(mu)
    images = lambda u: _odd_table(index, ((u, 1),), arity)
    return tuple(_operator_rows(mu.dim, arity, images, (0, 0, 0, 1)))


def coboundary_image_rows(mu: MultiMap, arity: int, skip=frozenset()) -> list[list[tuple]]:
    """delta(e) for each unit arity-cochain e whose column is not in skip, in
    column order, as a sorted row of nonzero entries over the
    (arity + n - 1)-cochain columns: the transpose of coboundary_rows, less
    the skipped columns."""
    index = _mu_index(mu)
    return [
        sorted(term for term in _delta(index, ((u, 1),), arity).items() if term[1])
        for u in range(mu.dim ** (arity + 1))
        if u not in skip
    ]


def chi_basis(mu: MultiMap, arity: int, cap: int = DEFAULT_CAP) -> list[MultiMap]:
    """Basis of the restricted cochain space at the given arity, for mu of
    odd arity (even arity restricts nothing).

    The three axioms are linear in phi, so the space is the kernel of one
    stacked constraint matrix over the cochain columns, and each vector of
    its kernel_basis is one basis cochain.
    """
    if mu.arity % 2 == 0:
        raise ValueError("restricted cochain space needs a map of odd arity")
    d = mu.dim
    _check_cap(d, arity, cap)
    equations = chi_rows(mu, arity)
    return [
        MultiMap(d, arity, _decoded(vec, d, arity))
        for vec in kernel_basis(SparseMatrix(d ** (arity + 1), equations)).values()
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
        if n % 2:
            rank_c, rank_cd = stacked_ranks(space, table_rows(mu, a))
        else:
            # the rows are sorted, in range and without zeros as built
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
