"""Free 3-ary partially associative algebra: trees, relations, exact ranks.

Homogeneous components are spanned by planar trees with n-ary internal
nodes, coded by the sorted leaf positions of their opening brackets. Two
relation generators are kept deliberately separate: the operadic-context
construction (ground truth) and the textual prepend-and-shift rules, so the
row spaces can be compared instead of trusted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from math import comb

from .exactnum import (
    SparseMatrix,
    normalize_scalar,
    rref,
    scalar_to_str,
)
from .gerstenhaber import MultiMap, partial_assoc_defect


def fuss_catalan(n: int, p: int) -> int:
    return comb(n * p, p) // ((n - 1) * p + 1)


@dataclass(frozen=True)
class TreeCode:
    """Bracket positions (j_1,...,j_{p-1}) of a word with p internal nodes."""

    n: int
    p: int
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(j) for j in self.indices))
        if self.n < 2:
            raise ValueError("arity must be at least 2")
        if self.p < 0:
            raise ValueError("node count must be nonnegative")
        want = max(self.p - 1, 0)
        if len(self.indices) != want:
            raise ValueError(
                f"p={self.p} needs {want} indices, got {len(self.indices)}"
            )
        prev = 1
        for m, j in enumerate(self.indices, start=1):
            hi = m * (self.n - 1) + 1
            if not prev <= j <= hi:
                raise ValueError(
                    f"index {m} is {j}, allowed {prev}..{hi}"
                )
            prev = j

    @property
    def leaves(self) -> int:
        return self.p * (self.n - 1) + 1

    def label(self) -> str:
        if not self.indices:
            return "g" if self.p else "leaf"
        return "g_{" + ",".join(str(j) for j in self.indices) + "}"


@dataclass(frozen=True)
class PlanarTree:
    """Rooted planar tree; a node with no children is a leaf."""

    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return sum(ch.leaf_count() for ch in self.children)

    def internal_count(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + sum(ch.internal_count() for ch in self.children)


LEAF = PlanarTree()


def enumerate_codes(n: int, p: int) -> list:
    """All valid codes at p internal nodes, lexicographically ordered."""
    if n < 2:
        raise ValueError("arity must be at least 2")
    if p < 1:
        raise ValueError("need at least one internal node")
    results = []

    def rec(prefix, m):
        if m == p:
            results.append(TreeCode(n, p, tuple(prefix)))
            return
        lo = prefix[-1] if prefix else 1
        hi = m * (n - 1) + 1
        for j in range(lo, hi + 1):
            prefix.append(j)
            rec(prefix, m + 1)
            prefix.pop()

    rec([], 1)
    return results


def tree_from_code(code: TreeCode) -> PlanarTree:
    """Collapse bracket positions right to left; each grabs n items."""
    if code.p == 0:
        return LEAF
    n = code.n
    items = [LEAF] * code.leaves
    for j in reversed(code.indices):
        group = PlanarTree(tuple(items[j - 1 : j - 1 + n]))
        items[j - 1 : j - 1 + n] = [group]
    assert len(items) == n
    return PlanarTree(tuple(items))


def code_from_tree(tree: PlanarTree, n: int) -> TreeCode:
    """Sorted leftmost-leaf positions of the non-root internal nodes."""
    positions = []
    counter = 0

    def dfs(node, is_root):
        nonlocal counter
        if node.is_leaf:
            counter += 1
            return counter
        if len(node.children) != n:
            raise ValueError(
                f"internal node has {len(node.children)} children, expected {n}"
            )
        first = None
        for ch in node.children:
            fl = dfs(ch, False)
            if first is None:
                first = fl
        if not is_root:
            positions.append(first)
        return first

    if tree.is_leaf:
        return TreeCode(n, 0, ())
    dfs(tree, True)
    return TreeCode(n, tree.internal_count(), tuple(sorted(positions)))


def bracket_string(tree: PlanarTree) -> str:
    """Render with numbered leaves, e.g. 1·2·(3·4·(5·6·7))."""
    counter = [0]

    def rec(node, is_root):
        if node.is_leaf:
            counter[0] += 1
            return str(counter[0])
        body = "·".join(rec(ch, False) for ch in node.children)
        return body if is_root else f"({body})"

    return rec(tree, True)


def ascii_tree(tree: PlanarTree) -> str:
    """Plain-text tree drawing; internal nodes are stars, leaves numbered."""
    counter = [0]
    lines = []

    def rec(node, prefix, connector):
        if node.is_leaf:
            counter[0] += 1
            lines.append(prefix + connector + str(counter[0]))
            return
        lines.append(prefix + connector + "*")
        child_prefix = prefix + ("   " if connector in ("", "`- ") else "|  ")
        for idx, ch in enumerate(node.children):
            last = idx == len(node.children) - 1
            rec(ch, child_prefix, "`- " if last else "+- ")

    rec(tree, "", "")
    return "\n".join(lines)


def _two_level(n: int, i: int) -> PlanarTree:
    children = [LEAF] * n
    children[i - 1] = PlanarTree(tuple([LEAF] * n))
    return PlanarTree(tuple(children))


def _replace_leaves(tree: PlanarTree, subs) -> PlanarTree:
    """Replace the leaves, left to right, by the given subtrees."""
    it = iter(subs)

    def rec(node):
        if node.is_leaf:
            return next(it)
        return PlanarTree(tuple(rec(ch) for ch in node.children))

    out = rec(tree)
    leftover = next(it, None)
    assert leftover is None
    return out


def _replace_leaf_at(tree: PlanarTree, q: int, sub: PlanarTree) -> PlanarTree:
    counter = [0]

    def rec(node):
        if node.is_leaf:
            counter[0] += 1
            return sub if counter[0] == q else node
        return PlanarTree(tuple(rec(ch) for ch in node.children))

    return rec(tree)


@dataclass(frozen=True)
class RelationSystem:
    """Leaf-uniform relation rows over the lexicographic code list."""

    n: int
    p: int
    codes: tuple
    rows: tuple  # of {code index: coefficient}
    discarded: tuple = ()
    rank: int | None = None
    pivots: tuple | None = None
    reduced: SparseMatrix | None = None
    quotient_basis: tuple | None = None

    @property
    def solved(self) -> bool:
        return self.rank is not None

    @property
    def multiplier(self) -> int:
        """dim L^{p(n-1)+1}(V) = multiplier * dim(V)^(p(n-1)+1)."""
        if not self.solved:
            raise ValueError("system not solved")
        return len(self.codes) - self.rank

    def to_json_dict(self) -> dict:
        if not self.solved:
            raise ValueError("system not solved")
        return {
            "n": self.n,
            "p": self.p,
            "codes": [list(c.indices) for c in self.codes],
            "relations": [
                [
                    {"code": c, "coef": scalar_to_str(v)}
                    for c, v in sorted(row.items())
                ]
                for row in self.rows
            ],
            "rank": self.rank,
            "quotient_multiplier": self.multiplier,
            "quotient_basis": [list(c.indices) for c in self.quotient_basis],
        }


def _trees_with(n: int, k: int) -> list:
    if k == 0:
        return [LEAF]
    return [tree_from_code(c) for c in enumerate_codes(n, k)]


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def operadic_relations(n: int, p: int) -> RelationSystem:
    """One row per substitution of the signed generator into a context.

    A context is a tree A with k internal nodes, a leaf q of A, and subtrees
    B_1..B_{2n-1} with k + 2 + sum(nodes(B)) = p. The row is the signed sum
    over i of the code of A with leaf q replaced by the two-level tree of
    mu._i mu carrying the B's. Duplicate rows are dropped.
    """
    if p < 2:
        raise ValueError("relations start at two internal nodes")
    codes = enumerate_codes(n, p)
    col = {c: idx for idx, c in enumerate(codes)}
    trees_cache = {k: _trees_with(n, k) for k in range(p - 1)}
    rows = []
    seen = set()
    for k in range(p - 1):
        budget = p - 2 - k
        for context in trees_cache[k]:
            n_leaves = k * (n - 1) + 1
            for q in range(1, n_leaves + 1):
                for parts in _compositions(budget, 2 * n - 1):
                    for subs in product(*(trees_cache[b] for b in parts)):
                        row = {}
                        for i in range(1, n + 1):
                            filled = _replace_leaves(_two_level(n, i), subs)
                            whole = _replace_leaf_at(context, q, filled)
                            idx = col[code_from_tree(whole, n)]
                            sign = -1 if ((i - 1) * (n - 1)) % 2 else 1
                            row[idx] = row.get(idx, 0) + sign
                        row = {c: v for c, v in row.items() if v}
                        if not row:
                            continue
                        lead = row[min(row)]
                        if lead < 0:
                            row = {c: -v for c, v in row.items()}
                        key = tuple(sorted(row.items()))
                        if key not in seen:
                            seen.add(key)
                            rows.append(row)
    return RelationSystem(n, p, tuple(codes), tuple(rows))


def _seed_rule_system() -> list:
    # the single degree-2 relation: (1) + (2) + (3) = 0
    return [{(1,): 1, (2,): 1, (3,): 1}]


def paper_rule_relations(p: int) -> RelationSystem:
    """The two textual rules, iterated from the single degree-2 relation.

    Rule A: prepend i in {1,2,3}, shift every old index by i-1. Rule B:
    prepend i in {1,...,2p-1}, keep old indices <= i, add 2 to the rest,
    sort. Tuples that violate the code constraints are discarded and
    reported, never silently fixed. n = 3 only.
    """
    if p < 3:
        raise ValueError("the rules build degree 3 and up from the seed")
    n = 3
    rows_by_code = _seed_rule_system()
    discarded = []
    for target in range(3, p + 1):
        next_rows = []
        for row in rows_by_code:
            for i in (1, 2, 3):
                new = {}
                for idx_tuple, coef in row.items():
                    shifted = (i,) + tuple(j + (i - 1) for j in idx_tuple)
                    new[shifted] = new.get(shifted, 0) + coef
                next_rows.append(new)
            for i in range(1, 2 * target):
                new = {}
                bad = False
                for idx_tuple, coef in row.items():
                    moved = tuple(j if j <= i else j + 2 for j in idx_tuple)
                    shifted = tuple(sorted((i,) + moved))
                    try:
                        TreeCode(n, target, shifted)
                    except ValueError:
                        discarded.append((target, i, idx_tuple, shifted))
                        bad = True
                        break
                    new[shifted] = new.get(shifted, 0) + coef
                if not bad:
                    next_rows.append(new)
        rows_by_code = next_rows
    codes = enumerate_codes(n, p)
    col = {c.indices: idx for idx, c in enumerate(codes)}
    rows = tuple(
        {col[t]: v for t, v in row.items() if v} for row in rows_by_code
    )
    return RelationSystem(n, p, tuple(codes), rows, tuple(discarded))


def stack_systems(a: RelationSystem, b: RelationSystem) -> RelationSystem:
    if (a.n, a.p) != (b.n, b.p):
        raise ValueError("systems live in different components")
    return RelationSystem(a.n, a.p, a.codes, a.rows + b.rows, a.discarded + b.discarded)


def solve(rs: RelationSystem) -> RelationSystem:
    """Exact elimination over the lexicographic code order."""
    matrix = SparseMatrix.from_dicts(len(rs.codes), rs.rows)
    rank, pivots, reduced = rref(matrix)
    pivot_set = set(pivots)
    basis = tuple(c for idx, c in enumerate(rs.codes) if idx not in pivot_set)
    return RelationSystem(
        rs.n,
        rs.p,
        rs.codes,
        rs.rows,
        rs.discarded,
        rank,
        tuple(pivots),
        reduced,
        basis,
    )


class FreeElement:
    """Linear combination of coded trees, optionally with leafwords.

    entries maps (TreeCode, word) to a rational coefficient; word is a tuple
    of basis indices of length p(n-1)+1, or None in leaf-uniform mode. All
    codes share the degree p.
    """

    __slots__ = ("n", "p", "entries")

    def __init__(self, n: int, p: int, entries: dict):
        uniform = None
        clean = {}
        for (code, word), coef in entries.items():
            if code.n != n or code.p != p:
                raise ValueError(f"code {code} not of arity {n} degree {p}")
            this_uniform = word is None
            if uniform is None:
                uniform = this_uniform
            elif uniform != this_uniform:
                raise ValueError("mixed leaf-uniform and leafword entries")
            if word is not None:
                word = tuple(word)
                if len(word) != code.leaves:
                    raise ValueError(
                        f"leafword length {len(word)}, expected {code.leaves}"
                    )
            coef = normalize_scalar(coef)
            if coef:
                clean[(code, word)] = coef
        self.n = n
        self.p = p
        self.entries = clean

    @classmethod
    def zero(cls, n, p):
        return cls(n, p, {})

    @classmethod
    def from_code(cls, code: TreeCode, word=None, coef=1):
        return cls(code.n, code.p, {(code, None if word is None else tuple(word)): coef})

    @classmethod
    def leaf(cls, basis_index: int, n: int = 3):
        return cls(n, 0, {(TreeCode(n, 0, ()), (basis_index,)): 1})

    @property
    def leaf_uniform(self) -> bool:
        return bool(self.entries) and next(iter(self.entries))[1] is None

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return (self.n, self.p) == (other.n, other.p) and self.entries == other.entries

    __hash__ = None

    def __add__(self, other):
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError("degree mismatch")
        out = dict(self.entries)
        for key, coef in other.entries.items():
            out[key] = out.get(key, 0) + coef
        return FreeElement(self.n, self.p, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return FreeElement(
            self.n, self.p, {k: v * c for k, v in self.entries.items()}
        )

    def __repr__(self):
        return f"FreeElement(n={self.n}, p={self.p}, terms={len(self.entries)})"


def normal_form(x: FreeElement, rs: RelationSystem) -> FreeElement:
    """Rewrite pivot codes through the reduced rows; idempotent and linear."""
    if not rs.solved:
        raise ValueError("system not solved")
    if (x.n, x.p) != (rs.n, rs.p):
        raise ValueError(
            f"element lives at (n={x.n}, p={x.p}), system at (n={rs.n}, p={rs.p})"
        )
    rewrite = {}
    for row in rs.reduced.rows:
        pivot_col, lead = row[0]
        assert lead == 1
        rewrite[rs.codes[pivot_col]] = [
            (rs.codes[c], -v) for c, v in row[1:]
        ]
    out = {}
    for (code, word), coef in x.entries.items():
        target = rewrite.get(code)
        if target is None:
            out[(code, word)] = out.get((code, word), 0) + coef
        else:
            for other, factor in target:
                key = (other, word)
                out[key] = out.get(key, 0) + coef * factor
    return FreeElement(x.n, x.p, out)


GENERATORS = ("operadic", "paper-rules", "both")


def relation_system(n: int, p: int, generator: str = "operadic") -> RelationSystem:
    """The unsolved degree-p relation system of the named generator.

    Degrees below 2 have no relations, and degree 2 is the single seed row
    under every generator. paper-rules and both are 3-ary only.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    if generator != "operadic" and n != 3:
        raise ValueError("the textual rules are 3-ary only")
    if p < 2:
        return RelationSystem(n, p, (TreeCode(n, p, ()),), ())
    if generator == "operadic" or p == 2:
        return operadic_relations(n, p)
    if generator == "paper-rules":
        return paper_rule_relations(p)
    return stack_systems(operadic_relations(n, p), paper_rule_relations(p))


_solved_cache: dict = {}


def solved_relations(n: int, p: int) -> RelationSystem:
    """Solved operadic system, cached; degree 0 and 1 have no relations."""
    key = (n, p)
    if key not in _solved_cache:
        _solved_cache[key] = solve(relation_system(n, p))
    return _solved_cache[key]


def free_product(a: FreeElement, b: FreeElement, c: FreeElement,
                 rs: RelationSystem | None = None) -> FreeElement:
    """Graft three classes under a new root and reduce to normal form."""
    if not (a.n == b.n == c.n == 3):
        raise ValueError("the free product is the 3-ary structure")
    for x in (a, b, c):
        if x.entries and x.leaf_uniform != a.leaf_uniform:
            raise ValueError("mixed leaf-uniform and leafword factors")
    p = a.p + b.p + c.p + 1
    out = {}
    for (ca, wa), va in a.entries.items():
        for (cb, wb), vb in b.entries.items():
            for (cc, wc), vc in c.entries.items():
                parts = []
                off = 0
                for sub in (ca, cb, cc):
                    if sub.p >= 1:
                        parts.append(off + 1)
                        parts.extend(off + j for j in sub.indices)
                    off += sub.leaves
                code = TreeCode(3, p, tuple(sorted(parts)))
                word = None if wa is None else wa + wb + wc
                key = (code, word)
                out[key] = out.get(key, 0) + va * vb * vc
    result = FreeElement(3, p, out)
    if rs is None:
        rs = solved_relations(3, p)
    return normal_form(result, rs)


def evaluate(x: FreeElement, mu: MultiMap) -> list:
    """Push a leafworded element through mu bottom-up.

    Defined on classes only when mu is partially associative, so that every
    relation row evaluates to zero; checked up front.
    """
    if x.entries and x.leaf_uniform:
        raise ValueError("need concrete leafwords to evaluate")
    if mu.arity != x.n:
        raise ValueError(f"product arity {mu.arity}, trees are {x.n}-ary")
    if not partial_assoc_defect(mu).is_zero():
        raise ValueError("product is not partially associative")
    d = mu.dim
    total = [0] * d

    def eval_node(node, word, pos):
        # returns (vector dict, next leaf position)
        if node.is_leaf:
            return {word[pos]: 1}, pos + 1
        vecs = []
        for ch in node.children:
            v, pos = eval_node(ch, word, pos)
            vecs.append(v)
        return mu.apply(*vecs), pos

    for (code, word), coef in x.entries.items():
        vec, _ = eval_node(tree_from_code(code), word, 0)
        for j, v in vec.items():
            total[j] += coef * v
    return [normalize_scalar(v) for v in total]


PUBLISHED_L9_CODES = ((3, 4, 4), (3, 4, 6), (1, 2, 4), (1, 2, 2), (1, 1, 7))


@dataclass(frozen=True)
class BasisComparison:
    quotient_dim: int
    candidate_codes: tuple
    independent: bool
    change_of_basis: tuple  # rows: candidate in lex quotient coordinates
    invertible: bool


def l9_basis_report(rs: RelationSystem | None = None) -> BasisComparison:
    """Check the five published degree-4 codes against the lex quotient basis."""
    if rs is None:
        rs = solved_relations(3, 4)
    if not rs.solved or (rs.n, rs.p) != (3, 4):
        raise ValueError("need the solved degree-4 system")
    basis_pos = {c: i for i, c in enumerate(rs.quotient_basis)}
    qdim = len(rs.quotient_basis)
    candidates = tuple(TreeCode(3, 4, t) for t in PUBLISHED_L9_CODES)
    matrix = []
    for cand in candidates:
        nf = normal_form(FreeElement.from_code(cand), rs)
        vec = [0] * qdim
        for (code, _), coef in nf.entries.items():
            vec[basis_pos[code]] = coef
        matrix.append(tuple(vec))
    rank, _, _ = rref(SparseMatrix.from_dense(matrix, qdim))
    invertible = rank == len(candidates) == qdim
    return BasisComparison(qdim, candidates, invertible, tuple(matrix), invertible)


def free_dims(n: int, p_max: int, generator: str = "operadic") -> list:
    """Quotient multipliers per degree, with timing and the p+1 comparison."""
    report = []
    for p in range(1, p_max + 1):
        start = time.perf_counter()
        solved = solve(relation_system(n, p, generator))
        elapsed = time.perf_counter() - start
        report.append(
            {
                "p": p,
                "word_length": p * (n - 1) + 1,
                "codes": len(solved.codes),
                "rows": len(solved.rows),
                "rank": solved.rank,
                "multiplier": solved.multiplier,
                "formula_value": p + 1,
                "matches_formula": solved.multiplier == p + 1,
                "discarded": len(solved.discarded),
                "seconds": elapsed,
            }
        )
    return report
