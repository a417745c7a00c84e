"""Insertion calculus for multilinear maps on a finite-dimensional space.

A MultiMap stores the nonzero structure constants of m: V^{otimes k} -> V
exactly, as a sparse dict; every kernel below accumulates into such a dict.
The module implements the comb-insertion f at slot i, the signed insertion
sum f * g, the partial associativity defect A(mu), the theta operator, the
shuffle Jacobi sum, and the degree-7 composition identities for ternary
multiplications. A tensor word of maps composes as a series of insertions.
The insertion kernel, the pre-Lie symmetry and the composition-relation walk
also serve the graded calculus in graded.py, which adds a Koszul sign; on a
space concentrated in degree 0 that sign is +1.
MultiMap.apply is the one evaluation on sparse coordinate vectors, and
_permute_into the one argument-permutation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from .exactnum import normalize_scalar, scalar_from_str, scalar_to_str


def _as_tuple(index) -> tuple:
    return index if isinstance(index, tuple) else (index,)


class MultiMap:
    """Multilinear map V^{otimes arity} -> V over a d-dimensional space.

    terms[(inputs, j)] is the e_j coefficient of m(e_{i_1},...,e_{i_k}) for
    inputs = (i_1..i_k). Only nonzero structure constants are stored; the
    constructor trusts its keys to be in range, from_entries checks them.
    """

    __slots__ = ("dim", "arity", "terms", "_items")

    min_arity = 1

    def __init__(self, dim: int, arity: int, terms: dict):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError("dim must be a positive integer")
        if not isinstance(arity, int) or arity < self.min_arity:
            raise ValueError(f"arity must be an integer of at least {self.min_arity}")
        self.dim = dim
        self.arity = arity
        self.terms = {key: c for key, c in terms.items() if c}
        self._items = None

    @classmethod
    def zero(cls, dim: int, arity: int):
        return cls(dim, arity, {})

    @classmethod
    def from_entries(cls, dim: int, arity: int, entries):
        """entries: mapping (input tuple, output index) -> coefficient."""
        terms = {}
        for (inputs, out), coef in entries.items():
            inputs = tuple(inputs)
            if len(inputs) != arity:
                raise ValueError(f"index tuple {inputs} has wrong length")
            if not all(isinstance(i, int) and 0 <= i < dim for i in inputs + (out,)):
                raise ValueError(f"index out of range in ({inputs}, {out})")
            terms[inputs, out] = terms.get((inputs, out), 0) + coef
        return cls(dim, arity, {
            key: c if isinstance(c, int) else normalize_scalar(Fraction(c))
            for key, c in terms.items()
        })

    @classmethod
    def identity(cls, dim: int) -> "MultiMap":
        return cls.from_entries(dim, 1, {((i,), i): 1 for i in range(dim)})

    def items(self):
        """Nonzero structure constants as (input tuple, output index, coef),
        in lexicographic order of the flattened index."""
        if self._items is None:
            self._items = sorted((x, j, c) for (x, j), c in self.terms.items())
        return self._items

    def coef(self, inputs, out) -> int | Fraction:
        return self.terms.get((tuple(inputs), out), 0)

    def value_at(self, inputs) -> dict:
        """m(e_inputs) as {output index: coefficient}, zeros omitted."""
        inputs = tuple(inputs)
        terms = self.terms
        return {j: terms[inputs, j] for j in range(self.dim) if (inputs, j) in terms}

    def apply(self, *vectors) -> dict:
        """m(v_1,...,v_k) on sparse {basis index: coefficient} vectors, as
        {output index: coefficient} with zeros omitted."""
        out: dict = {}
        self._apply_into(out, vectors)
        return {j: v for j, v in out.items() if v}

    def _apply_into(self, acc: dict, vectors, scale=1) -> None:
        """Add scale times m(v_1,...,v_k) to acc. An output that cancels keeps
        its place, so acc lists every touched output of a sum in first-touch
        order, the order in which the identity checks pick their witness."""
        if len(vectors) != self.arity:
            raise ValueError(f"expected {self.arity} vectors, got {len(vectors)}")
        for combo in product(*(v.items() for v in vectors)):
            factor = scale
            for _, c in combo:
                factor *= c
            for j, w in self.value_at(tuple(i for i, _ in combo)).items():
                acc[j] = acc.get(j, 0) + factor * w

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.arity == other.arity
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return self._like(terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return self._like({key: c * v for key, v in self.terms.items()})

    def _like(self, terms):
        """A map of this one's kind and shape with the given terms."""
        return type(self)(self.dim, self.arity, terms)

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def first_nonzero(self):
        """(flattened index, value) of the first nonzero entry of items(), or None."""
        if not self.terms:
            return None
        a, b, c = self.items()[0]
        return _as_tuple(a) + _as_tuple(b), normalize_scalar(c)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "arity": self.arity,
            "entries": [
                {
                    "in": list(a) if isinstance(a, tuple) else a,
                    "out": list(b) if isinstance(b, tuple) else b,
                    "coef": scalar_to_str(c),
                }
                for a, b, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict):
        entries = {}
        for e in data.get("entries", []):
            key = tuple(
                tuple(v) if isinstance(v, list) else v for v in (e["in"], e["out"])
            )
            entries[key] = entries.get(key, 0) + scalar_from_str(e["coef"])
        return cls.from_entries(data["dim"], data["arity"], entries)

    def __repr__(self):
        return (
            f"{type(self).__name__}(dim={self.dim}, arity={self.arity}, "
            f"nnz={len(self.terms)})"
        )


@dataclass(frozen=True)
class IdentityReport:
    name: str
    holds: bool
    witness: tuple | None = None

    def __post_init__(self):
        if self.holds != (self.witness is None):
            raise ValueError("holds must mirror absence of witness")


def report_from_defect(name: str, defect: MultiMap) -> IdentityReport:
    w = defect.first_nonzero()
    if w is None:
        return IdentityReport(name, True)
    return IdentityReport(name, False, w)


def _insert_into(acc: dict, f: MultiMap, g: MultiMap, i: int, sign: int,
                 degrees=(), g_degree: int = 0) -> None:
    """Add sign times (f with g at slot i) to the terms in acc.

    With the degrees of a graded space and the degree of g, g also picks up
    the Koszul sign (-1)^(g_degree * degree of the i-1 arguments it crosses).
    An even g_degree, or slot 1, crosses with sign +1, so that case does no
    sign work per term.
    """
    koszul = g_degree % 2 and i > 1
    by_slot: dict[int, list] = {}
    for (x, j), cf in f.terms.items():
        head = x[: i - 1]
        if koszul and sum(degrees[t] for t in head) % 2:
            cf = -cf
        by_slot.setdefault(x[i - 1], []).append((head, x[i:], j, sign * cf))
    for (y, m), cg in g.terms.items():
        for head, tail, j, cf in by_slot.get(m, ()):
            key = (head + y + tail, j)
            acc[key] = acc.get(key, 0) + cf * cg


def _gprod_terms(f: MultiMap, g: MultiMap, degrees=(), g_degree: int = 0) -> dict:
    """Terms of the signed insertion sum, every slot in one accumulator."""
    l = g.arity
    acc: dict = {}
    for i in range(1, f.arity + 1):
        sign = -1 if ((i - 1) * (l - 1)) % 2 else 1
        _insert_into(acc, f, g, i, sign, degrees, g_degree)
    return acc


def insert_at(f: MultiMap, g: MultiMap, i: int) -> MultiMap:
    """f with g inserted in its i-th argument slot, 1-based."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if not 1 <= i <= f.arity:
        raise ValueError(f"position {i} not in 1..{f.arity}")
    acc: dict = {}
    _insert_into(acc, f, g, i, 1)
    return MultiMap(f.dim, f.arity + g.arity - 1, acc)


def gprod(f: MultiMap, g: MultiMap) -> MultiMap:
    """Signed insertion sum: sum_i (-1)^((i-1)(arity(g)-1)) f with g at slot i."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    return MultiMap(f.dim, f.arity + g.arity - 1, _gprod_terms(f, g))


def partial_assoc_defect(mu: MultiMap) -> MultiMap:
    return gprod(mu, mu)


def total_assoc_check(mu: MultiMap) -> IdentityReport:
    """All unsigned self-insertions pairwise equal."""
    name = "total_associativity"
    inserted = [insert_at(mu, mu, i) for i in range(1, mu.arity + 1)]
    for a in range(len(inserted)):
        for b in range(a + 1, len(inserted)):
            diff = inserted[a] - inserted[b]
            w = diff.first_nonzero()
            if w is not None:
                return IdentityReport(name, False, (a + 1, b + 1) + w)
    return IdentityReport(name, True)


def _prelie_symmetry(product, f, g, h, sign: int = 1):
    """(f*g)*h - f*(g*h) minus sign (-1)^((m-1)(p-1)) times its g,h-swapped
    mirror, m and p the arities of g and h; * is the given product."""
    lhs = product(product(f, g), h) - product(f, product(g, h))
    rhs = product(product(f, h), g) - product(f, product(h, g))
    if ((g.arity - 1) * (h.arity - 1)) % 2:
        sign = -sign
    return lhs - rhs.scale(sign)


def prelie_defect(f: MultiMap, g: MultiMap, h: MultiMap) -> MultiMap:
    """(f*g)*h - f*(g*h) minus its g,h-swapped mirror; identically zero."""
    return _prelie_symmetry(gprod, f, g, h)


def _word_powers(word) -> tuple[int, int]:
    """(source, target) tensor powers of a word of ("id", m) and ("map", f)
    segments."""
    src = tgt = 0
    for seg in word:
        kind = seg[0]
        if kind == "id":
            m = seg[1]
            if m < 1:
                raise ValueError("id segment must have m >= 1")
            src += m
            tgt += m
        elif kind == "map":
            src += seg[1].arity
            tgt += 1
        else:
            raise ValueError(f"bad segment {seg!r}")
    return src, tgt


class Operator:
    """Formal sum of tensor words mapping V^{otimes source} -> V^{otimes target}.

    Each word is a tuple of segments: ("id", m) passes m arguments through,
    ("map", f) consumes arity(f) arguments and emits one. Id_0 segments are
    simply absent.
    """

    __slots__ = ("source_power", "target_power", "terms")

    def __init__(self, source_power: int, target_power: int, terms):
        terms = [(c, tuple(word)) for c, word in terms]
        for _, word in terms:
            src, tgt = _word_powers(word)
            if src != source_power or tgt != target_power:
                raise ValueError(
                    f"word arity {src}->{tgt}, operator is {source_power}->{target_power}"
                )
        self.source_power = source_power
        self.target_power = target_power
        self.terms = terms

    def __repr__(self):
        return f"Operator({self.source_power}->{self.target_power}, {len(self.terms)} words)"


def theta(mu: MultiMap, k: int) -> Operator:
    """Two-copy insertion operator: sum over p,q >= 0 with p+q <= k-2 of
    Id_p (x) mu (x) Id_q (x) mu (x) Id_{k-p-q-2}."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = mu.arity
    words = []
    for p in range(k - 1):
        for q in range(k - 1 - p):
            r = k - p - q - 2
            word = []
            if p:
                word.append(("id", p))
            word.append(("map", mu))
            if q:
                word.append(("id", q))
            word.append(("map", mu))
            if r:
                word.append(("id", r))
            words.append((1, tuple(word)))
    return Operator(2 * n + k - 2, k, words)


def _compose_word(phi: MultiMap, word) -> MultiMap:
    """phi after one tensor word: each map segment is inserted at the slot its
    output feeds, right to left, so that the slots to its left stay put."""
    slots = []
    pos = 1
    for seg in word:
        if seg[0] == "map":
            slots.append((pos, seg[1]))
            pos += 1
        else:
            pos += seg[1]
    for pos, f in reversed(slots):
        phi = insert_at(phi, f, pos)
    return phi


def apply_operator(phi: MultiMap, op: Operator) -> MultiMap:
    """The composite phi after op as a MultiMap of arity op.source_power."""
    if phi.arity != op.target_power:
        raise ValueError(
            f"phi arity {phi.arity} vs operator target {op.target_power}"
        )
    acc: dict = {}
    for coef, word in op.terms:
        for key, c in _compose_word(phi, word).terms.items():
            acc[key] = acc.get(key, 0) + coef * c
    return MultiMap(phi.dim, op.source_power, acc)


def _parity(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return inv % 2


def _permute_into(acc: dict, m: MultiMap, perm, sign: int) -> None:
    """Add sign times m with its arguments permuted to the terms in acc:
    argument t moves to position perm[t]."""
    n = m.arity
    for (y, j), c in m.terms.items():
        x = [0] * n
        for t in range(n):
            x[perm[t]] = y[t]
        key = (tuple(x), j)
        acc[key] = acc.get(key, 0) + sign * c


def antisymmetrize(lam: MultiMap) -> MultiMap:
    """Signed sum of lam over all argument permutations."""
    acc: dict = {}
    for perm in permutations(range(lam.arity)):
        _permute_into(acc, lam, perm, -1 if _parity(perm) else 1)
    return MultiMap(lam.dim, lam.arity, acc)


def is_antisymmetric(m: MultiMap) -> bool:
    """Sign flip under every adjacent argument transposition."""
    if m.arity == 1:
        return True
    for t in range(m.arity - 1):
        for x, j, c in m.items():
            swapped = list(x)
            swapped[t], swapped[t + 1] = swapped[t + 1], swapped[t]
            if m.coef(tuple(swapped), j) != -c:
                return False
    return True


def jacobi_defect(mu: MultiMap) -> MultiMap:
    """Shuffle-sum Jacobi defect of an antisymmetric n-ary bracket.

    Sums sign(s) * mu(mu(X_{s(1)},..,X_{s(n)}), X_{s(n+1)},..) over all
    (n, n-1)-shuffles s of {1,..,2n-1}, generated directly from n-subsets.
    """
    if not is_antisymmetric(mu):
        raise ValueError("jacobi_defect requires an antisymmetric map")
    n = mu.arity
    comp = insert_at(mu, mu, 1)
    w = 2 * n - 1
    acc: dict = {}
    universe = range(w)
    for first in combinations(universe, n):
        rest = tuple(sorted(set(universe) - set(first)))
        s = first + rest  # s[m] = position (0-based) fed into comp slot m
        _permute_into(acc, comp, s, -1 if _parity(s) else 1)
    return MultiMap(mu.dim, w, acc)


def _compose_words(mu: MultiMap, outer_word, inner_word) -> MultiMap:
    """mu after outer_word after inner_word, composed one word at a time."""
    if _word_powers(outer_word)[0] != _word_powers(inner_word)[1]:
        raise ValueError("word powers do not compose")
    return _compose_word(_compose_word(mu, outer_word), inner_word)


def degree7_defects(mu: MultiMap) -> tuple[MultiMap, MultiMap]:
    """Defects of the two degree-7 identities for ternary mu with A(mu)=0."""
    if mu.arity != 3:
        raise ValueError("degree-7 identities need a ternary map")
    if not partial_assoc_defect(mu).is_zero():
        raise ValueError("degree-7 identities need a partially associative map")
    m = ("map", mu)

    def w(*segs):
        return tuple(segs)

    id1, id2, id3, id4 = ("id", 1), ("id", 2), ("id", 3), ("id", 4)
    first = (
        _compose_words(mu, w(id1, m, id1), w(m, id4))
        + _compose_words(mu, w(m, id2), w(id3, m, id1))
        + _compose_words(mu, w(id2, m), w(m, id4))
        + _compose_words(mu, w(m, id2), w(id4, m))
        + _compose_words(mu, w(id2, m), w(id1, m, id3))
        + _compose_words(mu, w(id1, m, id1), w(id4, m))
    )
    second = (
        _compose_words(mu, w(m, id2), w(m, id4))
        - _compose_words(mu, w(m, id2), w(id3, m, id1))
        + _compose_words(mu, w(id2, m), w(id4, m))
        - _compose_words(mu, w(id2, m), w(id1, m, id3))
    )
    return first, second


def _composition_report(name: str, mu, insert, sign: int) -> IdentityReport:
    """Disjoint insertions of mu into mu commute up to sign, over both index
    families; insert(f, g, i) is the insertion at slot i.

    Family one: (mu *_j mu) *_i mu = (mu *_i mu) *_{j+n-1} mu for i < j <= n.
    Family two re-indexes the outer slot past the inserted block: for
    i >= n+1 and j <= i-n, (mu *_j mu) *_i mu = (mu *_{i-n+1} mu) *_j mu.
    """
    n = mu.arity
    self_ins = {i: insert(mu, mu, i) for i in range(1, n + 1)}
    walk = [("family1", i, j, i, j + n - 1) for j in range(1, n + 1) for i in range(1, j)]
    walk += [
        ("family2", i, j, i - n + 1, j)
        for i in range(n + 1, 2 * n)
        for j in range(1, i - n + 1)
    ]
    for family, i, j, inner, outer in walk:
        lhs = insert(self_ins[j], mu, i)
        rhs = insert(self_ins[inner], mu, outer)
        wtn = (lhs - rhs.scale(sign)).first_nonzero()
        if wtn is not None:
            return IdentityReport(name, False, (family, i, j) + wtn)
    return IdentityReport(name, True)


def composition_relation_defects(mu: MultiMap) -> IdentityReport:
    """Commutation of disjoint insertions, checked over both index families."""
    return _composition_report("composition_relations", mu, insert_at, 1)
