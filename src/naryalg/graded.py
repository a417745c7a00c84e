"""Graded insertion calculus: suspensions, Koszul signs, and graded identities.

Conventions are fixed once and everything else is derived from them:
  - a word of maps acts by (f (x) g)(x (x) y) = (-1)^(|g||x|) f(x) (x) g(y),
  - insertion at slot i moves g past the first i-1 arguments,
  - suspension of a map is the literal composite up o f o down^(x)k.
The sign formulas quoted for these operations in the literature then become
theorems checked by the test suite instead of built-in assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .gerstenhaber import (
    IdentityReport,
    MultiMap,
    _composition_report,
    _gprod_terms,
    _insert_into,
    _prelie_symmetry,
    report_from_defect,
)


@dataclass(frozen=True)
class GradedSpace:
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(g) for g in self.degrees))
        if not self.degrees:
            raise ValueError("graded space needs at least one basis vector")

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def suspend(self) -> "GradedSpace":
        # (up V)_n = V_{n+1}: a vector of degree g becomes one of degree g - 1
        return GradedSpace(tuple(g - 1 for g in self.degrees))

    def desuspend(self) -> "GradedSpace":
        return GradedSpace(tuple(g + 1 for g in self.degrees))

    def tuple_degree(self, idx) -> int:
        return sum(self.degrees[i] for i in idx)

    def to_json_dict(self) -> dict:
        return {"degrees": list(self.degrees)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GradedSpace":
        return cls(tuple(data["degrees"]))


class GradedMultiMap(MultiMap):
    """Homogeneous multilinear map on a graded space, of a fixed degree.

    A MultiMap whose every term maps arguments of total degree g to an output
    of degree g + degree; arithmetic keeps the space and the degree. The
    plain kernels (insert_at, gprod) take it as an ungraded map.
    """

    __slots__ = ("degree", "space")

    def __init__(self, base: MultiMap, degree: int, space: GradedSpace):
        if space.dim != base.dim:
            raise ValueError(f"space dim {space.dim} vs map dim {base.dim}")
        bad = [(x, j) for x, j in base.terms
               if space.degrees[j] != space.tuple_degree(x) + degree]
        if bad:
            x, j = min(bad)
            raise ValueError(
                f"entry {x}->{j} breaks homogeneity: output degree "
                f"{space.degrees[j]}, needs {space.tuple_degree(x) + degree}"
            )
        # base is a built MultiMap, so its terms are in range and nonzero; maps
        # are never mutated, so the dict is shared rather than copied
        self.dim, self.arity, self.terms = base.dim, base.arity, base.terms
        self._items = None
        self.degree = degree
        self.space = space

    @classmethod
    def zero(cls, space: GradedSpace, arity: int, degree: int) -> "GradedMultiMap":
        return cls(MultiMap.zero(space.dim, arity), degree, space)

    @classmethod
    def from_entries(cls, space, arity, degree, entries) -> "GradedMultiMap":
        return cls(
            MultiMap.from_entries(space.dim, arity, entries), degree, space
        )

    @property
    def base(self) -> MultiMap:
        """The same terms as a plain MultiMap."""
        return MultiMap(self.dim, self.arity, self.terms)

    def _like(self, terms):
        return GradedMultiMap(
            MultiMap(self.dim, self.arity, terms), self.degree, self.space
        )

    def __eq__(self, other):
        if not isinstance(other, GradedMultiMap):
            return NotImplemented
        return (
            self.space == other.space
            and self.degree == other.degree
            and super().__eq__(other)
        )

    def _check_compatible(self, other):
        if isinstance(other, GradedMultiMap):
            if self.space != other.space:
                raise ValueError("graded space mismatch")
            if self.degree != other.degree:
                raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        super()._check_compatible(other)

    def to_json_dict(self) -> dict:
        data = super().to_json_dict()
        data["degree"] = self.degree
        data["degrees"] = list(self.space.degrees)
        return data

    @classmethod
    def from_json_dict(cls, data: dict, space: GradedSpace | None = None):
        if space is None:
            space = GradedSpace(tuple(data["degrees"]))
        return cls(MultiMap.from_json_dict(data), data["degree"], space)

    def __repr__(self):
        return (
            f"GradedMultiMap(arity={self.arity}, degree={self.degree}, "
            f"dim={self.dim})"
        )


def koszul_apply(maps, args, space: GradedSpace) -> dict:
    """Apply a tensor word of maps to a basis tensor with Koszul signs.

    maps: list of GradedMultiMap or ("id", m) segments; args: tuple of basis
    indices. Returns {output index tuple: coefficient}. Each map segment of
    degree s picks up (-1)^(s * degree of everything to its left).
    """
    pos = 0
    sign_exp = 0
    options = []
    left_degree = 0
    for seg in maps:
        if isinstance(seg, tuple) and seg and seg[0] == "id":
            m = seg[1]
            block = args[pos : pos + m]
            options.append([(block, 1)])
            left_degree += space.tuple_degree(block)
            pos += m
        elif isinstance(seg, GradedMultiMap):
            k = seg.arity
            block = args[pos : pos + k]
            sign_exp += seg.degree * left_degree
            vals = seg.value_at(block)
            options.append([((j,), c) for j, c in vals.items()])
            left_degree += space.tuple_degree(block)
            pos += k
        else:
            raise ValueError(f"bad word segment {seg!r}")
    if pos != len(args):
        raise ValueError(f"word consumes {pos} arguments, got {len(args)}")
    sign = -1 if sign_exp % 2 else 1
    out: dict = {}
    for combo in product(*options):
        idx = []
        c = sign
        for block, cb in combo:
            idx.extend(block)
            c = c * cb
        key = tuple(idx)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def suspension_roundtrip_sign(space: GradedSpace, args) -> int:
    """Sign of up^(x)l o down^(x)l on a basis tensor of the suspended space.

    Computed from the two Koszul word signs; the result is argument
    independent and equals (-1)^(l(l-1)/2).
    """
    l = len(args)
    xs = [space.degrees[i] for i in args]
    down_exp = sum((l - t - 1) * xs[t] for t in range(l))
    up_exp = sum((l - t - 1) * (xs[t] + 1) for t in range(l))
    return -1 if (down_exp + up_exp) % 2 else 1


def suspend_map(f: GradedMultiMap) -> GradedMultiMap:
    """The composite up o f o down^(x)arity on the suspended space."""
    space = f.space
    sus = space.suspend()
    k = f.arity
    terms = {}
    for (x, j), c in f.terms.items():
        # Koszul sign of down^(x)k on arguments whose suspended degrees
        # are the original ones minus 1
        exp = sum((k - t - 1) * (space.degrees[x[t]] - 1) for t in range(k))
        terms[x, j] = -c if exp % 2 else c
    base = MultiMap(f.dim, k, terms)
    return GradedMultiMap(base, f.degree + k - 1, sus)


def graded_insert(f: GradedMultiMap, g: GradedMultiMap, i: int) -> GradedMultiMap:
    """f with g inserted at slot i; g picks up the degree of the arguments
    it moves past."""
    if f.space != g.space:
        raise ValueError("graded space mismatch")
    if not 1 <= i <= f.arity:
        raise ValueError(f"position {i} not in 1..{f.arity}")
    acc: dict = {}
    _insert_into(acc, f, g, i, 1, f.space.degrees, g.degree)
    base = MultiMap(f.dim, f.arity + g.arity - 1, acc)
    return GradedMultiMap(base, f.degree + g.degree, f.space)


def graded_gprod(f: GradedMultiMap, g: GradedMultiMap) -> GradedMultiMap:
    """Signed insertion sum with the comb signs (-1)^((i-1)(arity(g)-1))."""
    if f.space != g.space:
        raise ValueError("graded space mismatch")
    acc = _gprod_terms(f, g, f.space.degrees, g.degree)
    base = MultiMap(f.dim, f.arity + g.arity - 1, acc)
    return GradedMultiMap(base, f.degree + g.degree, f.space)


def _constant_sign_ratio(a: GradedMultiMap, b: GradedMultiMap):
    """+1/-1 if a = +-b entrywise and nonzero, 0 if both zero, None otherwise."""
    if a.terms == b.terms:
        return 0 if a.is_zero() else 1
    if a.terms == (-b).terms:
        return -1
    return None


def sign_formula_check(f: GradedMultiMap, g: GradedMultiMap, i: int) -> IdentityReport:
    """Sign transfer between an insertion and its suspended counterpart.

    Computes s(f) *_i s(g) and s(f *_i g) independently (s = suspension) and
    checks the exponent (|g|+k-1)(l-i)+|g|(i-1) read with k = arity(g),
    l = arity(f); that reading makes the formula an identity, while binding
    k and l the other way round fails whenever arity(f)+arity(g) is odd and
    |g|+i is even.
    """
    name = "sign_transfer"
    lhs = graded_insert(suspend_map(f), suspend_map(g), i)
    rhs_map = suspend_map(graded_insert(f, g, i))
    ratio = _constant_sign_ratio(lhs, rhs_map)
    gd = g.degree
    k_bind, l_bind = g.arity, f.arity
    predicted_exp = (gd + k_bind - 1) * (l_bind - i) + gd * (i - 1)
    predicted = -1 if predicted_exp % 2 else 1
    if ratio == 0:
        return IdentityReport(name, True)
    if ratio == predicted:
        return IdentityReport(name, True)
    prose_exp = (gd + f.arity - 1) * (g.arity - i) + gd * (i - 1)
    witness = (
        ("computed_sign", ratio),
        ("exponent_with_k_arity_g", predicted),
        ("exponent_with_k_arity_f", -1 if prose_exp % 2 else 1),
    )
    return IdentityReport(name, False, witness)


def graded_assoc_equivalence(mu: GradedMultiMap) -> IdentityReport:
    """Suspension carries the signed self-insertion sum of a degree-(n-2)
    map onto the plain sum of suspended self-insertions, up to (-1)^(n-1)."""
    n = mu.arity
    if mu.degree != n - 2:
        raise ValueError(f"need degree {n - 2} for arity {n}, got {mu.degree}")
    lhs = suspend_map(graded_gprod(mu, mu))
    smu = suspend_map(mu)
    rhs = GradedMultiMap.zero(smu.space, 2 * n - 1, 2 * smu.degree)
    for i in range(1, n + 1):
        rhs = rhs + graded_insert(smu, smu, i)
    if (n - 1) % 2:
        rhs = -rhs
    both_zero = lhs.is_zero() and rhs.is_zero()
    name = f"graded_assoc_equivalence(sides_vanish={both_zero})"
    return report_from_defect(name, lhs - rhs)


def graded_prelie_defect(
    f: GradedMultiMap, g: GradedMultiMap, h: GradedMultiMap
) -> GradedMultiMap:
    """Graded associator symmetry defect of the insertion product.

    Zero for every homogeneous triple; the swapped terms carry the arity
    sign and the Koszul factor (-1)^(|g||h|).
    """
    koszul = -1 if (g.degree * h.degree) % 2 else 1
    return _prelie_symmetry(graded_gprod, f, g, h, koszul)


def graded_coboundary(mu: GradedMultiMap, phi: GradedMultiMap) -> GradedMultiMap:
    """delta(phi) = mu * phi - (-1)^|phi| phi * mu for a square-zero mu."""
    if not graded_gprod(mu, mu).is_zero():
        raise ValueError("multiplication does not square to zero")
    left = graded_gprod(mu, phi)
    right = graded_gprod(phi, mu)
    if phi.degree % 2:
        return left + right
    return left - right


def graded_composition_relations(mu: GradedMultiMap) -> IdentityReport:
    """Disjoint insertions commute up to (-1)^(|mu||mu|), both index families."""
    sign = -1 if (mu.degree * mu.degree) % 2 else 1
    return _composition_report("graded_composition_relations", mu, graded_insert, sign)
