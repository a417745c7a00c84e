"""Comultiplications and their interplay with n-ary products.

A Comultiplication stores Delta: M -> M^{otimes n} as the transpose of the
sparse structure constants of its dual product. The module computes the
signed coassociativity defect, checks total coassociativity, transposes
structures between algebras and coalgebras in both directions, and builds
the convolution product on Hom(M, A).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .exactnum import normalize_scalar
from .gerstenhaber import (
    IdentityReport,
    MultiMap,
    partial_assoc_defect,
    report_from_defect,
)


class Comultiplication(MultiMap):
    """Linear map Delta: M -> M^{otimes arity} on a dim-dimensional space.

    A transpose view of the dual product: terms[(outs, i)] is the
    e_{j_1} ox ... ox e_{j_n} coefficient of Delta(e_i) for outs = (j_1..j_n).
    Arithmetic, equality and JSON are the MultiMap ones; items(), coef() and
    from_entries() put the source index first.
    """

    __slots__ = ()

    min_arity = 2

    @classmethod
    def from_entries(cls, dim: int, arity: int, entries) -> "Comultiplication":
        """entries: mapping (source index, output tuple) -> coefficient."""
        return super().from_entries(
            dim, arity, {(outs, i): c for (i, outs), c in entries.items()}
        )

    def items(self):
        """Nonzero structure constants as (source index, output tuple, coef),
        in lexicographic order of the flattened index, source index first."""
        if self._items is None:
            self._items = sorted((i, outs, c) for (outs, i), c in self.terms.items())
        return self._items

    def coef(self, i: int, outs) -> int | Fraction:
        return self.terms.get((tuple(outs), i), 0)

    def rows(self):
        """Per-source sparse rows: rows()[i] = list of (output tuple, coef)."""
        table = [[] for _ in range(self.dim)]
        for i, outs, c in self.items():
            table[i].append((outs, c))
        return table


def grouplike(dim: int, arity: int) -> Comultiplication:
    """Delta(e_i) = e_i ox ... ox e_i on every basis vector."""
    return Comultiplication.from_entries(
        dim, arity, {(i, (i,) * arity): 1 for i in range(dim)}
    )


def coassoc_word(delta: Comultiplication, p: int) -> Comultiplication:
    """(Id_p ox Delta ox Id_{n-1-p}) o Delta as a map M -> M^{otimes 2n-1}."""
    n = delta.arity
    if not 0 <= p <= n - 1:
        raise ValueError(f"position {p} not in 0..{n - 1}")
    rows = delta.rows()
    acc = {}
    for i in range(delta.dim):
        for outs, c in rows[i]:
            for inner, c2 in rows[outs[p]]:
                key = (i, outs[:p] + inner + outs[p + 1 :])
                acc[key] = acc.get(key, 0) + c * c2
    return Comultiplication.from_entries(delta.dim, 2 * n - 1, acc)


def partial_coassoc_defect(delta: Comultiplication) -> Comultiplication:
    """Signed sum of the n comultiplication placements, as M -> M^{otimes 2n-1}.

    Zero iff delta is partially coassociative.
    """
    n = delta.arity
    acc = Comultiplication.zero(delta.dim, 2 * n - 1)
    for p in range(n):
        word = coassoc_word(delta, p)
        acc = acc + word if p * (n - 1) % 2 == 0 else acc - word
    return acc


def total_coassoc_check(delta: Comultiplication) -> IdentityReport:
    """All n placements of the second comultiplication agree, pairwise."""
    n = delta.arity
    words = [coassoc_word(delta, p) for p in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            diff = words[p] - words[q]
            w = diff.first_nonzero()
            if w is not None:
                return IdentityReport(
                    "total_coassociativity", False, (p, q) + w
                )
    return IdentityReport("total_coassociativity", True)


def dual_of_coalgebra(delta: Comultiplication) -> MultiMap:
    """Transpose: the product on the dual space with c_mu[outs, i] = c_delta[i, outs]."""
    return MultiMap(delta.dim, delta.arity, delta.terms)


def dual_of_algebra(mu: MultiMap) -> Comultiplication:
    """Transpose: the comultiplication on the dual space of a product."""
    return Comultiplication(mu.dim, mu.arity, mu.terms)


class HomElement:
    """Linear map between two based spaces, stored as an exact matrix.

    mat[i][j] is the coefficient of the j-th target basis vector in the
    image of the i-th source basis vector.
    """

    __slots__ = ("dim_src", "dim_dst", "mat")

    def __init__(self, mat):
        rows = tuple(tuple(normalize_scalar(v) for v in row) for row in mat)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
        self.dim_src = len(rows)
        self.dim_dst = width
        self.mat = rows

    @classmethod
    def zero(cls, dim_src: int, dim_dst: int) -> "HomElement":
        return cls([[0] * dim_dst for _ in range(dim_src)])

    @classmethod
    def matrix_unit(cls, dim_src: int, dim_dst: int, a: int, b: int) -> "HomElement":
        """The map sending source vector a to target vector b, all else to 0."""
        if not 0 <= a < dim_src or not 0 <= b < dim_dst:
            raise ValueError(f"unit position ({a}, {b}) out of range")
        mat = [[0] * dim_dst for _ in range(dim_src)]
        mat[a][b] = 1
        return cls(mat)

    def is_zero(self) -> bool:
        return all(not v for row in self.mat for v in row)

    def __eq__(self, other):
        if not isinstance(other, HomElement):
            return NotImplemented
        return self.mat == other.mat

    __hash__ = None

    def __add__(self, other):
        self._check_compatible(other)
        return HomElement(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.mat, other.mat)
            ]
        )

    def __sub__(self, other):
        self._check_compatible(other)
        return HomElement(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.mat, other.mat)
            ]
        )

    def __neg__(self):
        return HomElement([[-v for v in row] for row in self.mat])

    def scale(self, c):
        return HomElement([[v * c for v in row] for row in self.mat])

    def _check_compatible(self, other):
        if self.dim_src != other.dim_src or self.dim_dst != other.dim_dst:
            raise ValueError(
                f"shape mismatch: {self.dim_src}x{self.dim_dst} vs "
                f"{other.dim_src}x{other.dim_dst}"
            )

    def __repr__(self):
        return f"HomElement({self.dim_src}x{self.dim_dst})"


def convolution(mu: MultiMap, delta: Comultiplication, fs) -> HomElement:
    """f_1 * ... * f_n on Hom(M, A): apply delta, the maps slotwise, then mu.

    The slotwise application is composed directly on matrices; no tensor
    space of Hom elements is ever built.
    """
    n = mu.arity
    fs = list(fs)
    if delta.arity != n:
        raise ValueError(f"arity mismatch: product {n}, comultiplication {delta.arity}")
    if len(fs) != n:
        raise ValueError(f"expected {n} maps, got {len(fs)}")
    d_m, d_a = delta.dim, mu.dim
    for f in fs:
        if f.dim_src != d_m or f.dim_dst != d_a:
            raise ValueError(
                f"map shape {f.dim_src}x{f.dim_dst}, expected {d_m}x{d_a}"
            )
    out = [[0] * d_a for _ in range(d_m)]
    for i, outs, c in delta.items():
        # image vectors f_t(e_{j_t}) in A, kept as sparse lists
        vecs = []
        for t in range(n):
            row = fs[t].mat[outs[t]]
            vecs.append([(a, v) for a, v in enumerate(row) if v])
        for picks in product(*vecs):
            coef = c
            for _, v in picks:
                coef = coef * v
            inputs = tuple(a for a, _ in picks)
            for b, w in mu.value_at(inputs).items():
                out[i][b] += coef * w
    return HomElement(out)


def convolution_multimap(mu: MultiMap, delta: Comultiplication) -> MultiMap:
    """The convolution product as structure constants on the matrix-unit basis.

    Hom(M, A) gets the basis E_{ab} (source a to target b), flattened as
    a * dim_dst + b.
    """
    n = mu.arity
    if delta.arity != n:
        raise ValueError(f"arity mismatch: product {n}, comultiplication {delta.arity}")
    d_m, d_a = delta.dim, mu.dim
    units = [
        HomElement.matrix_unit(d_m, d_a, a, b)
        for a in range(d_m)
        for b in range(d_a)
    ]
    dim_hom = d_m * d_a
    entries = {}
    for combo in product(range(dim_hom), repeat=n):
        result = convolution(mu, delta, [units[u] for u in combo])
        for a in range(d_m):
            for b in range(d_a):
                v = result.mat[a][b]
                if v:
                    entries[(combo, a * d_a + b)] = v
    return MultiMap.from_entries(dim_hom, n, entries)


def convolution_assoc_check(mu: MultiMap, delta: Comultiplication) -> IdentityReport:
    """Partial associativity of the convolution product on matrix units.

    Requires the product to be partially associative and the
    comultiplication totally coassociative; a failed hypothesis is
    reported, with the convolution defect attached as information.
    """
    mu_defect = partial_assoc_defect(mu)
    total = total_coassoc_check(delta)
    if not mu_defect.is_zero() or not total.holds:
        if not mu_defect.is_zero():
            reason = ("product not partially associative",) + mu_defect.first_nonzero()
        else:
            reason = ("comultiplication not totally coassociative",) + total.witness
        star_defect = partial_assoc_defect(convolution_multimap(mu, delta))
        return IdentityReport(
            "convolution_partial_assoc",
            False,
            ("hypothesis", reason, ("star_defect", star_defect.first_nonzero())),
        )
    defect = partial_assoc_defect(convolution_multimap(mu, delta))
    return report_from_defect("convolution_partial_assoc", defect)
