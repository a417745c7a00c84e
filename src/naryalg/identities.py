"""Brackets, associators, and axiom suites for small example algebras.

The module hosts the binary-bracket side of the story (antisymmetry,
Jacobi, nilpotency, the associator construction), the symmetry-type
identities for ternary products (commutativity, the order-3 exterior
relations, Poisson compatibility, parity-graded triple systems), and the
seeded square-zero generators that feed property tests everywhere else.
"""

from __future__ import annotations

import math
import random
from itertools import permutations, product

from .exactnum import SparseMatrix, rref
from .gerstenhaber import (
    IdentityReport,
    MultiMap,
    _permute_into,
    antisymmetrize,
    insert_at,
    jacobi_defect,
    report_from_defect,
)
from .graded import GradedMultiMap, GradedSpace


def permute_inputs(m: MultiMap, perm) -> MultiMap:
    """Argument reordering: result at (x_1..x_k) = m at (x_{perm[0]}, ...)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(m.arity)):
        raise ValueError(f"{perm} is not a permutation of 0..{m.arity - 1}")
    # m's entry at y lands at the x with x[perm[t]] = y[t]
    acc: dict = {}
    _permute_into(acc, m, perm, 1)
    return MultiMap(m.dim, m.arity, acc)


def _combine(parts) -> dict:
    """Sum of sparse vectors, zeros omitted."""
    acc: dict = {}
    for part in parts:
        for k, v in part.items():
            acc[k] = acc.get(k, 0) + v
    return {k: v for k, v in acc.items() if v}


class BracketAlgebra:
    """Binary bracket with its symmetry law, optionally graded by parity.

    Ungraded: [x, y] = -[y, x]. With a parity grading, the sign follows the
    degrees, [x, y] = -(-1)^{|x||y|} [y, x], and the bracket adds parities.
    """

    __slots__ = ("bracket", "antisymmetric", "space")

    def __init__(self, bracket: MultiMap, antisymmetric: bool = True, space=None):
        if bracket.arity != 2:
            raise ValueError("bracket must be binary")
        if space is not None:
            if space.dim != bracket.dim:
                raise ValueError(f"grading dim {space.dim} vs bracket dim {bracket.dim}")
            if any(g not in (0, 1) for g in space.degrees):
                raise ValueError("grading degrees must be 0 or 1")
        self.bracket = bracket
        self.antisymmetric = bool(antisymmetric)
        self.space = space
        if self.antisymmetric:
            self._check_symmetry()

    @property
    def dim(self) -> int:
        return self.bracket.dim

    def parity(self, i: int) -> int:
        return 0 if self.space is None else self.space.degrees[i]

    def _check_symmetry(self):
        br = self.bracket
        for (i, j), k, c in br.items():
            sign = -1 if self.parity(i) * self.parity(j) == 0 else 1
            if br.coef((j, i), k) != sign * c:
                raise ValueError(
                    f"symmetry law broken at [{i},{j}] -> {k}: "
                    f"{c} vs {br.coef((j, i), k)}"
                )
            if self.space is not None:
                if self.parity(k) != (self.parity(i) + self.parity(j)) % 2:
                    raise ValueError(f"bracket entry [{i},{j}] -> {k} breaks parity")

    def jacobi_report(self) -> IdentityReport:
        if not self.antisymmetric:
            raise ValueError("Jacobi is only checked for antisymmetric brackets")
        if self.space is None:
            return report_from_defect("jacobi", jacobi_defect(self.bracket))
        br = self.bracket
        deg = self.parity
        for x, y, z in product(range(self.dim), repeat=3):
            acc: dict = {}
            # (-1)^{|x||z|}[x,[y,z]] and cyclic
            for (a, b, c), s in (
                ((x, y, z), (-1) ** (deg(x) * deg(z))),
                ((y, z, x), (-1) ** (deg(y) * deg(x))),
                ((z, x, y), (-1) ** (deg(z) * deg(y))),
            ):
                br._apply_into(acc, ({a: 1}, br.value_at((b, c))), s)
            for out, v in acc.items():
                if v:
                    return IdentityReport("jacobi", False, ((x, y, z), out, v))
        return IdentityReport("jacobi", True)

    def to_json_dict(self) -> dict:
        data = self.bracket.to_json_dict()
        data["antisymmetric"] = self.antisymmetric
        if self.space is not None:
            data["degrees"] = list(self.space.degrees)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "BracketAlgebra":
        space = GradedSpace(tuple(data["degrees"])) if "degrees" in data else None
        return cls(
            MultiMap.from_json_dict(data),
            antisymmetric=data.get("antisymmetric", True),
            space=space,
        )

    def __repr__(self):
        graded = "" if self.space is None else ", graded"
        return f"BracketAlgebra(dim={self.dim}{graded})"


def bracket_from_pairs(d: int, pairs) -> BracketAlgebra:
    """Build an antisymmetric bracket from entries [e_i, e_j] = sum c e_k, i < j.

    pairs: mapping (i, j) -> {k: coefficient} or -> (k, coefficient).
    """
    entries = {}
    for (i, j), val in pairs.items():
        if i == j:
            raise ValueError("diagonal entries are zero by antisymmetry")
        terms = val.items() if isinstance(val, dict) else [val]
        for k, c in terms:
            entries[((i, j), k)] = entries.get(((i, j), k), 0) + c
            entries[((j, i), k)] = entries.get(((j, i), k), 0) - c
    return BracketAlgebra(MultiMap.from_entries(d, 2, entries))


def heisenberg3() -> BracketAlgebra:
    """[e_0, e_1] = e_2, two-step nilpotent."""
    return bracket_from_pairs(3, {(0, 1): (2, 1)})


def filiform5() -> BracketAlgebra:
    """[e_0, e_i] = e_{i+1} for i = 1, 2, 3, four-step nilpotent."""
    return bracket_from_pairs(5, {(0, i): (i + 1, 1) for i in (1, 2, 3)})


def so3() -> BracketAlgebra:
    """Cyclic cross-product bracket, not nilpotent."""
    return bracket_from_pairs(3, {(0, 1): (2, 1), (1, 2): (0, 1), (2, 0): (1, 1)})


def abelian(d: int) -> BracketAlgebra:
    return BracketAlgebra(MultiMap.zero(d, 2))


def matrix2() -> MultiMap:
    """Product of 2x2 matrices on the basis E11, E12, E21, E22."""
    entries = {}
    for (a, b), (c, e) in product(product(range(2), repeat=2), repeat=2):
        if b == c:
            i = a * 2 + b
            j = c * 2 + e
            entries[((i, j), a * 2 + e)] = 1
    return MultiMap.from_entries(4, 2, entries)


BUILTIN_ALGEBRAS = {
    "heisenberg3": heisenberg3,
    "filiform5": filiform5,
    "so3": so3,
    "matrix2": matrix2,
}


def builtin_algebra(name: str):
    """Named example algebra: a BracketAlgebra or a plain product."""
    try:
        return BUILTIN_ALGEBRAS[name]()
    except KeyError:
        raise ValueError(
            f"unknown algebra {name!r}; built-ins: {sorted(BUILTIN_ALGEBRAS)}"
        ) from None


def associator_from_bracket(b: BracketAlgebra) -> MultiMap:
    """[[X,Y],Z] - [X,[Y,Z]] as a ternary map.

    For an antisymmetric bracket this equals [[X,Z],Y] exactly when Jacobi
    holds, so that identity is verified on the way and a failure raises.
    """
    if not b.antisymmetric:
        raise ValueError("associator construction needs an antisymmetric bracket")
    if b.space is not None:
        raise ValueError("associator construction is for ungraded brackets")
    left = insert_at(b.bracket, b.bracket, 1)    # [[X,Y],Z]
    right = insert_at(b.bracket, b.bracket, 2)   # [X,[Y,Z]]
    assoc = left - right
    jacobi_form = permute_inputs(left, (0, 2, 1))  # [[X,Z],Y]
    if assoc != jacobi_form:
        diff = (assoc - jacobi_form).first_nonzero()
        raise ValueError(f"bracket fails the Jacobi identity at {diff}")
    return assoc


def lower_central_series(b: BracketAlgebra) -> list[int]:
    """Dimensions of V, [V,V], [V,[V,V]], ... until zero or stabilization."""
    br = b.bracket
    d = b.dim
    dims = [d]
    # current term of the series as reduced sparse rows over the basis
    current = [{i: 1} for i in range(d)]
    prev_rows = None
    for _ in range(2 * d + 4):
        rows = []
        for i in range(d):
            for vec in current:
                row = sorted(br.apply({i: 1}, vec).items())
                if row:
                    rows.append(row)
        rank, _, reduced = rref(SparseMatrix(d, rows))
        dims.append(rank)
        # rref rows are canonical for the row space, so equality means the
        # series has stabilized
        if rank == 0 or reduced.rows == prev_rows:
            return dims
        prev_rows = reduced.rows
        current = [dict(row) for row in reduced.rows]
    return dims


def nilpotency_class(b: BracketAlgebra):
    """Length of the lower central series; math.inf when it never reaches zero."""
    dims = lower_central_series(b)
    if dims[-1] == 0:
        return len(dims) - 1
    return math.inf


def commutativity_defect(mu: MultiMap) -> MultiMap:
    """Signed sum of mu over all argument permutations; zero iff commutative."""
    return antisymmetrize(mu)


def roby_defects(mu: MultiMap) -> IdentityReport:
    """Order-3 exterior-algebra relations for a ternary product.

    Checks the six-term sum on distinct basis triples, the polarized
    two-sided square relation on all triples, and the cube consequence.
    """
    if mu.arity != 3:
        raise ValueError("ternary product required")
    d = mu.dim

    def value(*idx):
        return mu.value_at(idx)

    for a, b, c in product(range(d), repeat=3):
        if not a < b < c:
            continue
        total = _combine([value(*perm) for perm in permutations((a, b, c))])
        for out, v in total.items():
            return IdentityReport("roby_relations", False, ("six_term", (a, b, c), out, v))
    for a, c, b in product(range(d), repeat=3):
        total = _combine([value(a, c, b), value(c, a, b), value(b, a, c), value(b, c, a)])
        for out, v in total.items():
            return IdentityReport("roby_relations", False, ("square_term", (a, c, b), out, v))
    for a in range(d):
        for out, v in value(a, a, a).items():
            return IdentityReport("roby_relations", False, ("cube", (a, a, a), out, v))
        for c in range(d):
            if c == a:
                continue
            total = _combine([value(a, a, c), value(a, c, a), value(c, a, a)])
            for out, v in total.items():
                return IdentityReport("roby_relations", False, ("cube", (a, a, c), out, v))
    return IdentityReport("roby_relations", True)


def poisson_leibniz_defect(mu: MultiMap, b: BracketAlgebra) -> MultiMap:
    """[mu(X,Y,Z),T] minus the three bracket-in-a-slot terms, as a 4-ary map."""
    if mu.arity != 3:
        raise ValueError("ternary product required")
    if mu.dim != b.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {b.dim}")
    br = b.bracket
    lhs = insert_at(br, mu, 1)
    t1 = permute_inputs(insert_at(mu, br, 1), (0, 3, 1, 2))
    t2 = permute_inputs(insert_at(mu, br, 2), (0, 1, 3, 2))
    t3 = insert_at(mu, br, 3)
    return lhs - t1 - t2 - t3


def f_algebra_check(grading: GradedSpace, b: BracketAlgebra, triple: MultiMap) -> IdentityReport:
    """Axioms of a parity-graded triple system over a super bracket.

    Verifies that the triple product is supported on odd arguments only,
    lands in the even part, satisfies the Leibniz rule under brackets with
    even elements, and satisfies the four-term cyclic identity on odd
    elements.
    """
    if any(g not in (0, 1) for g in grading.degrees):
        raise ValueError("grading degrees must be 0 or 1")
    if triple.arity != 3:
        raise ValueError("ternary product required")
    if grading.dim != triple.dim or grading.dim != b.dim:
        raise ValueError("grading, bracket, and triple dimensions must agree")
    if b.space is None:
        b = BracketAlgebra(b.bracket, b.antisymmetric, grading)
    elif b.space != grading:
        raise ValueError("bracket grading disagrees with the given grading")
    deg = grading.degrees
    br = b.bracket

    for (i, j, k), out, c in triple.items():
        if (deg[i], deg[j], deg[k]) != (1, 1, 1):
            return IdentityReport("f_algebra", False, ("support", (i, j, k), out, c))
        if deg[out] != 0:
            return IdentityReport("f_algebra", False, ("target", (i, j, k), out, c))

    even = [i for i in range(grading.dim) if deg[i] == 0]
    odd = [i for i in range(grading.dim) if deg[i] == 1]

    # each sum goes into one accumulator, so its witness is the first nonzero
    # output in first-touch order, cancelled terms included
    for x in even:
        for y1, y2, y3 in product(odd, repeat=3):
            diff: dict = {}
            br._apply_into(diff, ({x: 1}, triple.value_at((y1, y2, y3))))
            triple._apply_into(diff, (br.value_at((x, y1)), {y2: 1}, {y3: 1}), -1)
            triple._apply_into(diff, ({y1: 1}, br.value_at((x, y2)), {y3: 1}), -1)
            triple._apply_into(diff, ({y1: 1}, {y2: 1}, br.value_at((x, y3))), -1)
            for out, v in diff.items():
                if v:
                    return IdentityReport(
                        "f_algebra", False, ("leibniz", (x, y1, y2, y3), out, v)
                    )

    for y, y1, y2, y3 in product(odd, repeat=4):
        total: dict = {}
        for head, args in (
            (y, (y1, y2, y3)), (y1, (y2, y3, y)), (y2, (y3, y, y1)), (y3, (y, y1, y2)),
        ):
            br._apply_into(total, ({head: 1}, triple.value_at(args)))
        for out, v in total.items():
            if v:
                return IdentityReport(
                    "f_algebra", False, ("cyclic", (y, y1, y2, y3), out, v)
                )

    return IdentityReport("f_algebra", True)


def random_square_zero(d: int, n: int, seed: int, s: int) -> MultiMap:
    """Deterministic product with inputs from the first s basis vectors and
    outputs in the remaining d - s, so every self-insertion vanishes termwise."""
    if not 1 <= s < d:
        raise ValueError(f"split must satisfy 1 <= s < d, got s={s}, d={d}")
    rng = random.Random(seed)
    entries = {}
    for idx in product(range(s), repeat=n):
        for j in range(s, d):
            v = rng.randint(-2, 2)
            if v:
                entries[(idx, j)] = v
    return MultiMap.from_entries(d, n, entries)


def random_square_zero_graded(d: int, n: int, seed: int, s: int, degree: int = 1) -> GradedMultiMap:
    """Graded flavor of random_square_zero, homogeneous of the given degree.

    Source vectors get degree 1, targets degree n + degree, which solves the
    homogeneity constraint deg(out) = sum of input degrees + map degree.
    """
    base = random_square_zero(d, n, seed, s)
    space = GradedSpace((1,) * s + (n + degree,) * (d - s))
    return GradedMultiMap(base, degree, space)
