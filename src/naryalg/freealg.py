"""Free n-ary partially associative algebras: trees, relations, exact ranks.

Homogeneous components are spanned by planar trees with n-ary internal
nodes, coded by the sorted leaf positions of their opening brackets. There
are two relation generators. The paper's two textual prepend-and-shift rules
are the one-node operations below, iterated from the degree-2 seed row. The
operadic-context construction stays independent of them, so it is the
ground truth they and the recursion are compared against. Every reader of a
solved system reads its dual basis as one normal-form map,
code c -> sum_f v_f[c] e_f.

solve finds a degree from the degree below whenever that degree has a zero
code: for n = 3 from p = 5 on, since degree 4 has 20 zero codes of 55. The
one-node operations, a corolla grafted at a leaf or the tree grafted as a
child of a new root, map the operadic rows of degree p-1 onto those of
degree p, so the grafted reduced rows of degree p-1 span the degree-p
relations, and most of them are single codes. Such a result is certified:
each of its kernel vectors must annihilate every relation row. Only a row
holding a code of the dual's support can fail, and a code's rows are built
from the code alone, so the certificate builds each of those rows once and
reads no other row. Both the recursion's live-code test and the
certificate take a code as a prefix with one last index appended, and do
the prefix's work once for every code that shares it. operadic_relations
lists its codes and builds its rows only where they are first read, and
the recursion reads neither: it works on codes alone, so a recursive solve
lists no code of its degree. If the certificate fails, the rows are
eliminated. Only the read-only rows that operadic_relations marks take
this path or enter the cache of solved degrees.

Inside the module a code is its index tuple; TreeCode objects are made
where a code leaves it. A column, a code's place in a system's code list,
is read only by the rows and the views derived from them.
"""

from __future__ import annotations

import time
from bisect import bisect, bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations, product
from math import comb
from types import MappingProxyType
from typing import TYPE_CHECKING

from .exactnum import (
    SparseMatrix,
    kernel_basis,
    normalize_scalar,
    scalar_to_str,
    stacked_ranks,
)

if TYPE_CHECKING:  # evaluate imports gerstenhaber when it is called
    from .gerstenhaber import MultiMap


def fuss_catalan(n: int, p: int) -> int:
    return comb(n * p, p) // ((n - 1) * p + 1)


@dataclass(frozen=True)
class TreeCode:
    """Bracket positions (j_1,...,j_{p-1}) of a word with p internal nodes."""

    n: int
    p: int
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if type(self.n) is not int or self.n < 2:
            raise ValueError("arity must be an integer of at least 2")
        if type(self.p) is not int or self.p < 0:
            raise ValueError("node count must be a nonnegative integer")
        want = max(self.p - 1, 0)
        if len(self.indices) != want:
            raise ValueError(
                f"p={self.p} needs {want} indices, got {len(self.indices)}"
            )
        if not _is_code(self.n, self.indices):
            raise ValueError(f"{self.indices} is not the index tuple of a code of arity {self.n}")

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


def _is_code(n: int, idx: tuple) -> bool:
    """Whether idx is the index tuple of a code: index m is an integer from
    the one before it (1 for the first) up to m(n-1)+1."""
    lo = 1
    for m, j in enumerate(idx, start=1):
        if type(j) is not int or not lo <= j <= m * (n - 1) + 1:
            return False
        lo = j
    return True


def enumerate_codes(n: int, p: int) -> list:
    """All valid codes at p internal nodes, lexicographically ordered."""
    if n < 2:
        raise ValueError("arity must be at least 2")
    if p < 1:
        raise ValueError("need at least one internal node")
    return [TreeCode(n, p, idx) for idx in _code_tuples(n, p)]


def _code_tuples(n: int, p: int) -> list:
    """The index tuples of enumerate_codes(n, p), in the same order, unchecked:
    index m runs from the one before it up to m(n-1)+1, so extending each
    prefix in lex order by its allowed indices, ascending, keeps lex order."""
    codes = [()]
    for m in range(1, p):
        hi = m * (n - 1) + 2
        codes = [c + (j,) for c in codes for j in range(c[-1] if c else 1, hi)]
    return codes


def _graft(n: int, a: tuple, q: int, b: tuple) -> tuple:
    """Tree a with its q-th leaf replaced by tree b, on (nodes, indices).

    a's positions after leaf q move right by b's extra leaves; b's root and
    its indices land at leaf q.
    """
    a_p, a_idx = a
    b_p, b_idx = b
    if not a_p:
        return b
    if not b_p:
        return a
    shift = b_p * (n - 1)
    moved = [j + shift if j > q else j for j in a_idx]
    moved.append(q)
    moved.extend(q - 1 + j for j in b_idx)
    return a_p + b_p, tuple(sorted(moved))


def _corolla_with(n: int, subs) -> tuple:
    """One root carrying the n given (nodes, indices) subtrees."""
    out = (1, ())
    for q in range(n, 0, -1):
        out = _graft(n, out, q, subs[q - 1])
    return out


def _collapse(code: TreeCode, items: list, join):
    """Collapse bracket positions right to left; each joins n items."""
    if code.p == 0:
        return items[0]
    n = code.n
    items = list(items)
    for j in reversed(code.indices):
        items[j - 1 : j - 1 + n] = [join(*items[j - 1 : j - 1 + n])]
    assert len(items) == n
    return join(*items)


def tree_from_code(code: TreeCode) -> PlanarTree:
    """The planar tree a code describes."""
    return _collapse(code, [LEAF] * code.leaves, lambda *ch: PlanarTree(ch))


def code_from_tree(tree: PlanarTree, n: int) -> TreeCode:
    """Graft the children's codes under one root, recursively."""

    def rec(node):
        if node.is_leaf:
            return 0, ()
        if len(node.children) != n:
            raise ValueError(
                f"internal node has {len(node.children)} children, expected {n}"
            )
        return _corolla_with(n, [rec(ch) for ch in node.children])

    return TreeCode(n, *rec(tree))


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


@dataclass(frozen=True)
class RelationSystem:
    """Leaf-uniform relation rows over the lexicographic code list.

    codes are index tuples, the indices of the TreeCodes they stand for,
    and each row maps a code's column, its place in codes, to its
    coefficient. TreeCode objects are made only where a code leaves the
    module, as in quotient_basis and the keys of normal_form.

    A solved system is its dual basis, keyed by code: basis maps each
    quotient-basis code f, in lex order, to the kernel vector
    v_f = {code: coef} of the rows, with v_f[f] = 1 and v_f zero at every
    other basis code. The rank and the multiplier are read off it; dual
    (by column, as exactnum.kernel_basis of the rows gives it), pivots,
    reduced and quotient_basis are derived from it where they are read.
    method says how solve found basis: "recursion" or "elimination".

    generator is "operadic" on a system exactly as operadic_relations built
    it, and solve trusts such rows. It is not an init field, so the
    constructor and dataclasses.replace leave it None, and the rows
    it marks are read-only mappings, built where they are first read: a
    system with edited rows is never marked.
    """

    n: int
    p: int
    codes: Sequence
    rows: Sequence  # of {column: coefficient}
    basis: dict | None = None
    method: str | None = field(default=None, compare=False)
    generator: str | None = field(default=None, init=False, compare=False)

    @property
    def solved(self) -> bool:
        return self.basis is not None

    def _solution(self) -> dict:
        if self.basis is None:
            raise ValueError("system not solved")
        return self.basis

    @property
    def multiplier(self) -> int:
        """dim L^{p(n-1)+1}(V) = multiplier * dim(V)^(p(n-1)+1)."""
        return len(self._solution())

    @property
    def rank(self) -> int:
        return len(self.codes) - self.multiplier

    @property
    def dual(self) -> dict:
        col = {code: c for c, code in enumerate(self.codes)}
        return {col[f]: {col[c]: x for c, x in v.items()} for f, v in self._solution().items()}

    @property
    def pivots(self) -> tuple:
        basis = self._solution()
        return tuple(c for c, code in enumerate(self.codes) if code not in basis)

    @property
    def quotient_basis(self) -> tuple:
        return tuple(TreeCode(self.n, self.p, f) for f in self._solution())

    @property
    def reduced(self) -> SparseMatrix:
        """The rref of the rows: row c is e_c - sum_f v_f[c] e_f, one per pivot."""
        nf = _normal_forms(self.dual)
        rows = [[(c, 1)] + [(f, -x) for f, x in nf.get(c, ())] for c in self.pivots]
        return SparseMatrix(len(self.codes), rows)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "codes": [list(c) for c in self.codes],
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


def _compositions(total: int, slots: int):
    """Weak compositions of total into slots parts, lexicographically: the
    parts are the gaps between slots - 1 bars placed among total stars."""
    end = total + slots - 1
    for bars in combinations(range(end), slots - 1):
        edges = (-1,) + bars + (end,)
        yield tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))


def operadic_relations(n: int, p: int) -> RelationSystem:
    """One row per substitution of the signed generator into a context.

    A context is a tree A with k internal nodes, a leaf q of A, and subtrees
    B_1..B_{2n-1} with k + 2 + sum(nodes(B)) = p. The row is the signed sum
    over i of the codes T_i of A with leaf q replaced by mu o_i mu carrying
    the B's. Re-bracketing moves no leaf, so T_i is T_1 with the inner
    bracket opening at q + leaves(B_1) + ... + leaves(B_{i-1}) instead of at
    q: the n codes increase with i, the lowest one, T_1, has sign +1, and
    T_1 with T_2's bracket fixes the context, so the rows are distinct,
    C(np-1, p-2) of them. The codes are listed, and the rows built, where
    they are first read.
    """
    if p < 2:
        raise ValueError("relations start at two internal nodes")
    codes = _LazyRows(fuss_catalan(n, p), lambda: tuple(_code_tuples(n, p)))
    rows = _LazyRows(comb(n * p - 1, p - 2), lambda: _operadic_rows(n, p, codes))
    rs = RelationSystem(n, p, codes, rows)
    object.__setattr__(rs, "generator", "operadic")
    return rs


class _LazyRows(Sequence):
    """A tuple whose length is known without it: the first read of an item
    builds the whole tuple, with build()."""

    __slots__ = ("_len", "_build", "_rows")

    def __init__(self, length: int, build):
        self._len, self._build, self._rows = length, build, None

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def _built(self) -> tuple:
        if self._rows is None:
            self._rows = self._build()
        return self._rows


def _operadic_rows(n: int, p: int, codes) -> tuple:
    """The read-only rows of operadic_relations(n, p), in its order."""
    col = {c: idx for idx, c in enumerate(codes)}
    shapes = {0: [(0, ())]}
    for k in range(1, p - 1):
        shapes[k] = [(k, c) for c in _code_tuples(n, k)]
    signs = [-1 if (i * (n - 1)) % 2 else 1 for i in range(1, n)]
    rows = []
    for k in range(p - 1):
        # mu(mu(B_1..B_n), B_{n+1}..B_{2n-1}) and the inner bracket's shifts
        fillers = []
        for parts in _compositions(p - 2 - k, 2 * n - 1):
            shifts = tuple(accumulate(b * (n - 1) + 1 for b in parts[: n - 1]))
            for subs in product(*(shapes[b] for b in parts)):
                inner = _corolla_with(n, subs[:n])
                fillers.append((_corolla_with(n, (inner,) + subs[n:]), shifts))
        for context in shapes[k]:
            for q in range(1, k * (n - 1) + 2):
                for filled, shifts in fillers:
                    first = _graft(n, context, q, filled)[1]
                    at = first.index(q)
                    rest = first[:at] + first[at + 1 :]
                    row = {col[first]: 1}
                    for shift, sign in zip(shifts, signs):
                        j = bisect(rest, q + shift)
                        row[col[rest[:j] + (q + shift,) + rest[j:]]] = sign
                    rows.append(MappingProxyType(row))
    return tuple(rows)


def _family_rows(n: int, s: tuple, qs, skip=()) -> list:
    """The operadic rows through each code s + (q,), q in qs, one list per q
    with one row per non-root node v, as {index tuple: coefficient}; each is
    in operadic_relations. A row with a code before s + (q,) in skip is left
    out as soon as that code is made: with the codes of a map as skip, a row
    holding some of them is built once, from the first.

    A walk down s finds each node's children's first leaves: a node takes n
    children in turn, each a node if the next bracket opens at the next leaf
    and that leaf otherwise, so node k >= 1 opens at s[k - 1]. With v at
    slot t of its parent u, the row's subtrees B_1..B_{2n-1} are u's
    children before v, v's children, then u's children after v, and T_i,
    i = 1..n, is the code with v's index replaced by the first leaf of B_i,
    with sign (-1)^((i-1)(n-1)); T_t is the code itself.

    s + (q,) is s with a corolla, the new last node, grafted at leaf q,
    which moves the first leaves past q right by n - 1. So at a node of s,
    T_i is s's own T_i with q appended when B_i starts at or before q, and
    s less v's index, then q, then the moved first leaf otherwise; the
    codes before T_t start before v, so at or before q. The new node's
    parent is the node holding leaf q, which the walk records.
    """
    starts = [[] for _ in range(len(s) + 1)]  # per node, its children's first leaves
    parents = [None] * (len(s) + 1)  # per non-root node, (parent, slot)
    holders = [None]  # per leaf, from leaf 1, (parent, slot)
    k = leaf = 0  # the brackets opened and the leaves passed
    stack = [0]  # the nodes still taking children, innermost last
    while stack:
        node = stack[-1]
        kids = starts[node]
        if len(kids) == n:
            stack.pop()
            continue
        kids.append(leaf + 1)
        if k < len(s) and s[k] == leaf + 1:
            k += 1
            parents[k] = node, len(kids) - 1
            stack.append(k)
        else:
            leaf += 1
            holders.append((node, len(kids) - 1))
    signs = [-1 if i * (n - 1) % 2 else 1 for i in range(n)]
    # per node of s: s less its index, T_t's sign, and s's T_i before and after T_t
    nodes = []
    for v in range(1, len(starts)):
        u, t = parents[v]
        rest = s[: v - 1] + s[v:]
        before, after = [], []
        for i, start in enumerate((starts[u][:t] + starts[v])[:n]):
            j = bisect(rest, start)
            if i < t:
                before.append((rest[:j] + (start,) + rest[j:], signs[i]))
            elif i > t:
                after.append((start, rest[:j] + (start,) + rest[j:], signs[i]))
        nodes.append((rest, signs[t], before, after))
    out = []
    for q in qs:
        code = s + (q,)
        rows = []
        for rest, sign_t, before, after in nodes:
            row = {}
            for t_s, sign in before:
                if (t_q := t_s + (q,)) in skip:
                    break
                row[t_q] = sign
            else:
                row[code] = sign_t
                for start, t_s, sign in after:
                    row[t_s + (q,) if start <= q else rest + (q, start + n - 1)] = sign
                rows.append(row)
        u, t = holders[q]  # the new node, at slot t of u
        row = {}
        for start, sign in zip(starts[u][:t], signs):
            j = bisect(s, start)
            if (t_q := s[:j] + (start,) + s[j:]) in skip:
                break
            row[t_q] = sign
        else:
            row[code] = signs[t]
            for i in range(t + 1, n):
                row[s + (q + i - t,)] = signs[i]
            rows.append(row)
        out.append(rows)
    return out


def paper_rule_relations(p: int) -> RelationSystem:
    """The two textual rules, iterated from the single degree-2 relation
    (1) + (2) + (3) = 0; n = 3 only.

    Each rule applies one one-node operation of _one_node_images to every
    code of a row. Rule A, prepend i in {1,2,3} and shift every old index by
    i-1, grafts the tree as child i of a new root; rule B, prepend i in
    {1,...,2t-1} at degree t, keep the old indices <= i, add 2 to the rest
    and sort, grafts a corolla at leaf i. A graft of a code is a code, so no
    image needs a validity test. Each row of degree t-1 yields rule A's
    three rows, then rule B's 2t-1.
    """
    if p < 3:
        raise ValueError("the rules build degree 3 and up from the seed")
    codes = _code_tuples(3, 2)  # (1,), (2,), (3,)
    rows = [{0: 1, 1: 1, 2: 1}]
    for t in range(3, p + 1):
        leaves = 2 * t - 1  # of a degree-(t-1) code
        # rule A for i = 1, 2, 3, then rule B for i = 1..leaves
        order = [leaves, leaves + 1, leaves + 2, *range(leaves)]
        prev, codes = codes, _code_tuples(3, t)
        col = {c: k for k, c in enumerate(codes)}
        cols = [[col[im] for im in _one_node_images(3, c)] for c in prev]
        rows = [{cols[c][k]: v for c, v in row.items()} for row in rows for k in order]
    return RelationSystem(3, p, tuple(codes), tuple(rows))


def _one_node_images(n: int, idx: tuple) -> list:
    """The index tuples that the one-node operations make of the code idx, in
    a fixed order: a corolla grafted at leaf 1, ..., at the last leaf, then
    the code grafted as child 1, ..., n of a new root. As in _graft, a
    corolla at leaf q opens a bracket at q and moves the brackets past q
    right by n - 1; as child j, the code's root opens at j and its brackets
    move by j - 1."""
    shifted = tuple(j + n - 1 for j in idx)
    images = []
    for q in range(1, len(idx) * (n - 1) + n + 1):
        k = bisect(idx, q)
        images.append(idx[:k] + (q,) + shifted[k:])
    images += [(j,) + tuple(i + j - 1 for i in idx) for j in range(1, n + 1)]
    return images


def _one_node_preimages(n: int, idx: tuple):
    """Index tuples that include every code a one-node operation maps onto the
    code idx, the others being no code. _graft puts a corolla grafted at leaf
    l after the indices <= l and moves those past l right by n - 1, so
    bracket k came from one iff it is the last bracket or the next opens
    past idx[k] + n - 1; removing it moves the later ones back. The first
    bracket opens the child that a new root was grafted on."""
    yield idx[:-1]
    for k in range(len(idx) - 1):
        if idx[k + 1] > idx[k] + n - 1:
            yield idx[:k] + tuple(j - n + 1 for j in idx[k + 1 :])
    yield tuple(j - idx[0] + 1 for j in idx[1:])


def _normal_forms(dual: dict) -> dict:
    """The one inversion of a dual basis: code c -> [(f, v_f[c])] by ascending
    f; a basis code f maps to [(f, 1)], and a zero code is absent. Codes may
    be index tuples or columns alike."""
    nf = {}
    for f, v in dual.items():
        for c, x in v.items():
            nf.setdefault(c, []).append((f, x))
    return nf


def _image(nf: dict, row) -> dict:
    """A row's quotient coordinates {f: sum_c row[c] v_f[c]}, zeros dropped."""
    acc = {}
    for c, x in row.items():
        for f, y in nf.get(c, ()):
            acc[f] = acc.get(f, 0) + x * y
    return {f: x for f, x in acc.items() if x}


def _recursive_dual(rs: RelationSystem, prev: RelationSystem, nf: dict) -> dict:
    """The dual basis, keyed by code, of the span S of the one-node images of
    the reduced rows of prev, the solved degree below rs, whose normal-form
    map nf is given.

    The images of prev's zero codes, absent from nf, form the zero set Z; the
    images of the other reduced rows, with their entries in Z dropped, form
    the core. Its kernel_basis over the codes outside Z, numbered in lex
    order, is the dual of S.
    """
    n = rs.n
    live = _live_codes(rs, nf)
    at = {code: i for i, code in enumerate(live)}
    # each image's number in live, None in Z
    cols = {c: [at.get(im) for im in _one_node_images(n, c)] for c in nf}
    core = {}  # over the numbers of live, deduplicated, in order
    for c in nf.keys() - prev.basis.keys():  # the pivots of nonzero class
        # every f in nf[c] lies above c, ascending, and each one-node
        # operation keeps lex order, so each row comes out sorted, and its
        # entries are nonzero: the row of operation k takes term k of each
        rows = [[] if b is None else [(b, 1)] for b in cols[c]]
        for f, x in nf[c]:
            x = -x
            for row, b in zip(rows, cols[f]):
                if b is not None:
                    row.append((b, x))
        for row in rows:
            if row:
                core[tuple(row)] = None
    basis = kernel_basis(SparseMatrix._of_clean(len(live), list(core)))
    return {live[f]: {live[c]: x for c, x in v.items()} for f, v in basis.items()}


def _live_codes(rs: RelationSystem, nf: dict) -> list:
    """The codes of rs outside the zero set Z of _recursive_dual, in lex
    order, found from the support of the degree below, the codes in nf.

    A code's last-bracket preimage is always a code, so a live code is a
    support code s with one last bracket put at q = s[-1], ..., the last
    leaf of its first p-1 nodes; taking s in lex order, then q, lists the
    candidates in lex order. A candidate is live when none of its one-node
    preimages is a zero code of the degree below: a code absent from nf.
    rs.p >= 3, as in every recursive solve, so s is never empty. Each
    preimage of s + (q,) but s itself is a prefix that s alone fixes with
    one last index appended, so the prefixes are built once per s: a
    bracket k of s that a corolla removal takes, whose preimage ends in
    q - n + 1; the last bracket of s, which one takes once q > s[-1] + n - 1;
    and the root removal. Every corolla removal of a code is a code, so only
    the root removal is tested for being one."""
    n = rs.n
    end = (rs.p - 1) * (n - 1) + 2
    live = []
    for s in sorted(nf):
        # s + (q,)'s corolla-removal preimages at brackets of s, each less its
        # last index q - n + 1, and its root-removal preimage less its last
        heads = [
            s[:k] + tuple(j - n + 1 for j in s[k + 1 :])
            for k in range(len(s) - 1)
            if s[k + 1] > s[k] + n - 1
        ]
        tail, root, first = s[:-1], tuple(j - s[0] + 1 for j in s[1:]), s[0] - 1
        for q in range(s[-1], end):
            last = (q - n + 1,)
            for h in heads:
                if h + last not in nf:
                    break
            else:
                if (q <= s[-1] + n - 1 or tail + last in nf) and (
                    (t := root + (q - first,)) in nf or not _is_code(n, t)
                ):
                    live.append(s + (q,))
    return live


def _annihilates(rs: RelationSystem, basis: dict) -> bool:
    """Whether every operadic row of rs's component has a zero image through
    the normal-form map of basis, keyed by code, each v_f orthogonal to it,
    read from the rows through the map's codes only, each row built and read
    once, from the first of its codes in the map.

    A row holding no code of the map has a zero image, and a row holding a
    code c of the map is one of the rows through c, so no other row can
    fail. The map's codes are grouped by all but their last index, and
    _family_rows walks each such prefix once for its whole group.
    """
    nf = _normal_forms(basis)
    families = {}  # the map's codes by all but their last index
    for code in nf:
        families.setdefault(code[:-1], []).append(code[-1])
    return not any(
        _image(nf, row)
        for s, qs in families.items()
        for rows in _family_rows(rs.n, s, qs, nf)
        for row in rows
    )


def solve(rs: RelationSystem) -> RelationSystem:
    """The dual basis of the rows, from exactnum.kernel_basis or from the
    degree below; both give the same dual, since the reduced echelon form of
    a row space is unique. method names the path taken.

    Recursion. The one-node operations map the degree-(p-1) rows of
    operadic_relations onto its degree-p rows, signs included, so the
    degree-p relation space R is the span S of the one-node images of the
    solved degree-(p-1) reduced rows, and _recursive_dual finds its dual
    from its normal-form map. It is tried, for p >= 3, only on rows
    operadic_relations built, as its generator mark says, all C(np-1, p-2)
    of them. It works on codes, so it reads neither the rows nor the code
    list. It is taken whenever degree p-1 has a zero code (absent from the
    map), since elimination must first build the rows: for n = 3 the zero
    codes start at degree 4 (20 of 55), so the recursion runs from p = 5
    on. n = 2 (p <= 8), n = 4 (p <= 5) and n = 5 (p <= 4) have no zero
    codes, so they are eliminated. Degree p-1 comes from _solved_cache or
    is solved first, so a lone call solves every lower degree too.

    Certificate. The recursive dual is kept only if every row has a zero
    image through its normal-form map, so that R lies in S; S lies in R
    because the reduced rows are combinations of the degree-(p-1) rows,
    whose images are rows of R. _annihilates reads only the rows through
    the codes of the map, the dual's support: a row without such a code has
    a zero image, and a row with one is among that code's p-1 rows. So the
    check is exact without the other rows. The support codes that share all
    but their last index share the walk that finds their rows. Otherwise the
    rows are eliminated, and the kernel's columns are mapped to their codes.

    Only results on marked rows enter _solved_cache, so a system with
    edited rows never changes what a later solve reads.
    """
    n, p = rs.n, rs.p
    marked = rs.generator == "operadic" and len(rs.rows) == comb(n * p - 1, p - 2)
    solved = None
    if marked and p >= 3:
        prev = solved_relations(n, p - 1)
        nf = _normal_forms(prev.basis)
        if len(nf) < len(prev.codes):
            basis = _recursive_dual(rs, prev, nf)
            if _annihilates(rs, basis):
                solved = replace(rs, basis=basis, method="recursion")
    if solved is None:
        dual, codes = kernel_basis(SparseMatrix.from_dicts(len(rs.codes), rs.rows)), rs.codes
        basis = {codes[f]: {codes[c]: x for c, x in v.items()} for f, v in dual.items()}
        solved = replace(rs, basis=basis, method="elimination")
    if marked:
        _solved_cache[(n, p)] = solved
    return solved


def solve_stacked(solved: RelationSystem, extra: RelationSystem) -> tuple[RelationSystem, list]:
    """The solved system of solved's rows followed by extra's, and the indices
    of extra's rows outside solved's row space: row r is outside iff its
    image, some r . v_f, is nonzero. With no row outside, the joint row space
    is solved's, so the joint system takes solved's basis and method;
    otherwise solve eliminates the stacked rows, which gives the same dual,
    since the reduced echelon form of a row space is unique. The joint rows
    are built where they are first read, so solved's rows that the
    recursion left unbuilt stay so unless the stacked rows are eliminated."""
    if (solved.n, solved.p) != (extra.n, extra.p):
        raise ValueError("systems live in different components")
    nf = _normal_forms(solved.dual)
    failing = [i for i, row in enumerate(extra.rows) if _image(nf, row)]
    rows = _LazyRows(len(solved.rows) + len(extra.rows), lambda: (*solved.rows, *extra.rows))
    joint = RelationSystem(solved.n, solved.p, solved.codes, rows)
    if failing:
        return solve(joint), failing
    return replace(joint, basis=solved.basis, method=solved.method), failing


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


def _zero_code(rs: RelationSystem, code: TreeCode) -> tuple:
    """The terms, none, of a code absent from the map, once it is found in
    rs.codes: by bisection, where rs was built by hand over fewer codes than
    its component has, and at once otherwise."""
    codes = rs.codes
    if len(codes) < fuss_catalan(rs.n, rs.p):
        i = bisect_left(codes, code.indices)
        if i == len(codes) or codes[i] != code.indices:
            raise ValueError(f"{code} is not a code of the system at (n={rs.n}, p={rs.p})")
    return ()


def normal_form(x: FreeElement, rs: RelationSystem) -> FreeElement:
    """Each code c goes to its entry sum_f v_f[c] e_f in the normal-form map:
    the pivot codes are rewritten, the basis codes fixed. Idempotent, linear."""
    nf = _normal_forms(rs._solution())
    if (x.n, x.p) != (rs.n, rs.p):
        raise ValueError(
            f"element lives at (n={x.n}, p={x.p}), system at (n={rs.n}, p={rs.p})"
        )
    out = {}
    for (code, word), coef in x.entries.items():
        for f, y in nf.get(code.indices) or _zero_code(rs, code):
            out[f, word] = out.get((f, word), 0) + coef * y
    return FreeElement(
        x.n, x.p, {(TreeCode(rs.n, rs.p, f), word): v for (f, word), v in out.items()}
    )


GENERATORS = ("operadic", "paper-rules", "both")


def relation_system(n: int, p: int, generator: str = "operadic") -> RelationSystem:
    """The unsolved degree-p system of the operadic or paper-rules generator.

    Degrees below 2 have no relations, and degree 2 is the single seed row
    under every generator. paper-rules is 3-ary only.
    """
    if generator not in ("operadic", "paper-rules"):
        raise ValueError(f"unknown generator {generator!r}")
    if generator != "operadic" and n != 3:
        raise ValueError("the textual rules are 3-ary only")
    if p < 2:
        return RelationSystem(n, p, ((),), ())
    if generator == "operadic" or p == 2:
        return operadic_relations(n, p)
    return paper_rule_relations(p)


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
    if len({x.leaf_uniform for x in (a, b, c) if x.entries}) > 1:
        raise ValueError("mixed leaf-uniform and leafword factors")
    p = a.p + b.p + c.p + 1
    out = {}
    for (ca, wa), va in a.entries.items():
        for (cb, wb), vb in b.entries.items():
            for (cc, wc), vc in c.entries.items():
                spliced = _corolla_with(3, [(s.p, s.indices) for s in (ca, cb, cc)])
                key = (TreeCode(3, *spliced), None if wa is None else wa + wb + wc)
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
    bad = [w for _, word in x.entries for w in word if not 0 <= w < mu.dim]
    if bad:
        raise ValueError(f"leaf index {bad[0]} out of range for dim {mu.dim}")
    from .gerstenhaber import partial_assoc_defect

    if not partial_assoc_defect(mu).is_zero():
        raise ValueError("product is not partially associative")
    total = [0] * mu.dim
    for (code, word), coef in x.entries.items():
        vec = _collapse(code, [{w: 1} for w in word], mu.apply)
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
    qdim = len(rs.basis)
    candidates = tuple(TreeCode(3, 4, t) for t in PUBLISHED_L9_CODES)
    nf = _normal_forms(rs.basis)
    # candidate c in lex quotient coordinates is its normal form (v_f[c]) over f
    coords = [dict(nf.get(c.indices) or _zero_code(rs, c)) for c in candidates]
    matrix = tuple(tuple(row.get(f, 0) for f in rs.basis) for row in coords)
    (rank,) = stacked_ranks([SparseMatrix.from_dense(matrix, qdim)])
    independent = rank == len(candidates)
    return BasisComparison(qdim, candidates, independent, matrix, independent and rank == qdim)


def free_dims(n: int, p_max: int, generator: str = "operadic") -> list:
    """Quotient multipliers per degree, with timing, the p+1 comparison and
    the method that found the dual (for both, that of the operadic system
    whenever every rule row lies in its row space)."""
    report = []
    for p in range(1, p_max + 1):
        start = time.perf_counter()
        if generator == "both":  # the 3-ary-only system first: n != 3 fails early
            pr = relation_system(n, p, "paper-rules")
            operadic = solve(relation_system(n, p, "operadic"))
            solved = solve_stacked(operadic, pr)[0]
        else:
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
                "seconds": elapsed,
                "method": solved.method,
            }
        )
    return report
