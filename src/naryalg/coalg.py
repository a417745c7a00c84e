"""Comultiplications and their interplay with n-ary products.

A Comultiplication stores Delta: M -> M^{otimes n} as the transpose of the
sparse structure constants of its dual product. The coassociativity words
and the signed coassociativity defect are the transposes of the dual
product's self-insertions and partial associativity defect, so they run on
the MultiMap kernels. The module also checks total coassociativity,
transposes structures between algebras and coalgebras in both directions,
and builds the convolution product on Hom(M, A) as a MultiMap: an element
of Hom(M, A) is a sparse vector over the matrix units, and the convolution
of f_1..f_n is convolution_multimap(mu, delta).apply(f_1, ..., f_n).
"""

from __future__ import annotations

from fractions import Fraction

from .gerstenhaber import (
    IdentityReport,
    MultiMap,
    _pairwise_report,
    insert_at,
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

    _json_shape = (False, True)
    _shape_error = (
        "entry {} -> {}: a comultiplication entry maps one source index "
        "to {arity} output indices"
    )

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


def grouplike(dim: int, arity: int) -> Comultiplication:
    """Delta(e_i) = e_i ox ... ox e_i on every basis vector."""
    return Comultiplication.from_entries(
        dim, arity, {(i, (i,) * arity): 1 for i in range(dim)}
    )


def coassoc_word(delta: Comultiplication, p: int) -> Comultiplication:
    """(Id_p ox Delta ox Id_{n-1-p}) o Delta as a map M -> M^{otimes 2n-1}:
    the transpose of the dual product with itself inserted at slot p+1."""
    n = delta.arity
    if not 0 <= p <= n - 1:
        raise ValueError(f"position {p} not in 0..{n - 1}")
    mu = dual_of_coalgebra(delta)
    return dual_of_algebra(insert_at(mu, mu, p + 1))


def partial_coassoc_defect(delta: Comultiplication) -> Comultiplication:
    """Signed sum of the n comultiplication placements, as M -> M^{otimes 2n-1}.

    The transpose of the dual product's partial associativity defect: the
    sign (-1)^(p(n-1)) of placement p is gprod's sign at slot p+1. Zero iff
    delta is partially coassociative.
    """
    return dual_of_algebra(partial_assoc_defect(dual_of_coalgebra(delta)))


def total_coassoc_check(delta: Comultiplication) -> IdentityReport:
    """All n placements of the second comultiplication agree, pairwise;
    placements numbered from 0."""
    words = [coassoc_word(delta, p) for p in range(delta.arity)]
    return _pairwise_report("total_coassociativity", words, 0)


def dual_of_coalgebra(delta: Comultiplication) -> MultiMap:
    """Transpose: the product on the dual space with c_mu[outs, i] = c_delta[i, outs]."""
    return MultiMap(delta.dim, delta.arity, delta.terms)


def dual_of_algebra(mu: MultiMap) -> Comultiplication:
    """Transpose: the comultiplication on the dual space of a product."""
    return Comultiplication(mu.dim, mu.arity, mu.terms)


def convolution_multimap(mu: MultiMap, delta: Comultiplication) -> MultiMap:
    """The convolution product as structure constants on the matrix-unit basis.

    Hom(M, A) gets the basis E_{ab} (source a to target b), flattened as
    a * dim_A + b, so a map f is the sparse vector {a * dim_A + b: the e_b
    coefficient of f(e_a)}, and f_1 * ... * f_n is the result's apply on
    those vectors. E_{a_1 b_1} * ... * E_{a_n b_n} sends e_i to the
    (a_1..a_n) coefficient of Delta(e_i) times mu(e_{b_1},...,e_{b_n}), so
    each constant is one delta term times one mu term.
    """
    n = mu.arity
    if delta.arity != n:
        raise ValueError(f"arity mismatch: product {n}, comultiplication {delta.arity}")
    d_a = mu.dim
    entries = {}
    for (outs, i), c in delta.terms.items():
        for (bs, b), w in mu.terms.items():
            key = (tuple(a * d_a + b_t for a, b_t in zip(outs, bs)), i * d_a + b)
            entries[key] = c * w
    return MultiMap.from_entries(delta.dim * d_a, n, entries)


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
