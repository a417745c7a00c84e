"""Coboundary operators and cohomology tables for partially associative algebras.

One formula serves both parities of n: delta(phi) = (-1)^(k-1) mu * phi -
phi * mu with k = arity(phi). For even n it squares to zero on all cochains;
for odd n only on the restricted space chi cut out by three linear axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactnum import SparseMatrix, kernel_basis, rref
from .gerstenhaber import (
    IdentityReport,
    MultiMap,
    gprod,
    partial_assoc_defect,
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


def coboundary(mu: MultiMap, phi: MultiMap) -> MultiMap:
    """delta(phi), raising the arity by arity(mu) - 1."""
    if mu.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {phi.dim}")
    k = phi.arity
    left = gprod(mu, phi)
    if (k - 1) % 2:
        left = -left
    return left - gprod(phi, mu)


def chi_defects(mu: MultiMap, phi: MultiMap):
    """The three restriction axioms as defect maps, in display order."""
    pm = gprod(phi, mu)
    return (
        gprod(pm, mu),
        gprod(gprod(mu, phi), mu),
        gprod(mu, pm),
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
    assert chi_membership(mu, out).holds, "coboundary left the restricted space"
    return out


def _flatten(d: int, inputs, out: int) -> int:
    """Matrix column of the cochain coordinate (inputs, out): row-major
    over the inputs, then the output."""
    flat = 0
    for i in inputs:
        flat = flat * d + i
    return flat * d + out


def _unflatten(d: int, arity: int, flat: int) -> tuple[tuple, int]:
    """Inverse of _flatten: the (inputs, out) key of a matrix column."""
    rest, out = divmod(flat, d)
    inputs = []
    for _ in range(arity):
        rest, r = divmod(rest, d)
        inputs.append(r)
    return tuple(reversed(inputs)), out


def _basis_cochain(d: int, arity: int, flat: int) -> MultiMap:
    return MultiMap(d, arity, {_unflatten(d, arity, flat): 1})


def _to_row(m: MultiMap) -> dict:
    return {_flatten(m.dim, x, j): c for x, j, c in m.items()}


def chi_basis(mu: MultiMap, arity: int, cap: int = DEFAULT_CAP) -> list[MultiMap]:
    """Basis of the restricted cochain space at the given arity.

    The three axioms are linear in phi, so the space is the kernel of one
    stacked constraint matrix over the cochain coordinates.
    """
    d = mu.dim
    space = d ** arity * d
    if space > cap:
        raise ValueError(f"cochain space size {space} exceeds cap {cap}")
    # rows: one equation per nonzero output coordinate of each axiom
    equations: dict[tuple[int, int], dict[int, object]] = {}
    for col in range(space):
        e = _basis_cochain(d, arity, col)
        for a_idx, defect in enumerate(chi_defects(mu, e)):
            for pos, c in _to_row(defect).items():
                equations.setdefault((a_idx, pos), {})[col] = c
    if not equations:
        return [_basis_cochain(d, arity, col) for col in range(space)]
    m = SparseMatrix(space, [sorted(eq.items()) for eq in equations.values()])
    return [
        MultiMap(d, arity, {_unflatten(d, arity, col): v for col, v in enumerate(vec) if v})
        for vec in kernel_basis(m)
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
    odd = n % 2 == 1
    k0 = 0 if slot >= 1 else 1
    # the row's arities and the target arity of its last differential; each
    # is checked as it is made, so a huge steps stops at the first over cap
    arities = []
    for k in range(k0, k0 + steps + 1):
        a = slot + k * (n - 1)
        if _dense_size_exceeds(d, a, cap):
            size = d ** a * d if d > 1 else f"2^{a + 1} (dim 1 counts as 2)"
            raise ValueError(f"cochain space size {size} exceeds cap {cap}")
        arities.append(a)

    def delta_rank_and_domain_dim(a: int) -> tuple[int, int]:
        if odd:
            basis = chi_basis(mu, a, cap)
        else:
            basis = [_basis_cochain(d, a, col) for col in range(d ** a * d)]
        rows = []
        for b in basis:
            row = _to_row(coboundary(mu, b))
            if row:
                rows.append(sorted(row.items()))
        out_space = d ** (a + n - 1) * d
        rank, _, _ = rref(SparseMatrix(out_space, rows))
        return rank, len(basis)

    table_steps = []
    prev_rank = 0
    for idx, a in enumerate(arities[:-1]):
        rank, dim_domain = delta_rank_and_domain_dim(a)
        dim_ker = dim_domain - rank
        dim_im_prev = 0 if idx == 0 else prev_rank
        table_steps.append(CohomologyStep(a, dim_ker, dim_im_prev))
        prev_rank = rank
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
