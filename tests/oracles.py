"""Independent reference implementations used to freeze expected values.

Everything here is written the slow, textbook way on dense lists of
Fractions, deliberately sharing no code with the package under test.
"""

from fractions import Fraction
from itertools import product


def dense_rref(rows):
    """Textbook Gauss-Jordan on a dense matrix. Returns (rank, pivots, rows)."""
    a = [[Fraction(v) for v in row] for row in rows]
    if not a:
        return 0, [], []
    n_cols = len(a[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        sel = None
        for i in range(r, len(a)):
            if a[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        lead = a[r][c]
        a[r] = [v / lead for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return r, pivots, a[:r]


def dense_kernel(rows, n_cols):
    rank, pivots, red = dense_rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -red[i][f]
        basis.append(vec)
    return basis


def same_row_space(rows_a, rows_b, n_cols):
    ra, _, _ = dense_rref(rows_a)
    rb, _, _ = dense_rref(rows_b)
    rab, _, _ = dense_rref(list(rows_a) + list(rows_b))
    return ra == rb == rab


def nested_defect(mu_entries, d, n):
    """Partial associativity defect of an n-ary product by brute expansion.

    mu_entries: dict mapping (input tuple, output index) -> coefficient.
    Returns dict over ((2n-1)-tuple, output) of the signed insertion sum.
    """
    def mu(xs):
        # xs: list of {basis index: coef}; returns {basis index: coef}
        out = {}
        for combo in product(*[list(x.items()) for x in xs]):
            idx = tuple(i for i, _ in combo)
            cf = Fraction(1)
            for _, c in combo:
                cf *= c
            for (inp, j), m in mu_entries.items():
                if inp == idx and m:
                    out[j] = out.get(j, 0) + cf * m
        return {k: v for k, v in out.items() if v}

    defect = {}
    for word in product(range(d), repeat=2 * n - 1):
        basis = [{i: Fraction(1)} for i in word]
        for i in range(1, n + 1):
            inner = mu(basis[i - 1 : i - 1 + n])
            args = basis[: i - 1] + [inner] + basis[i - 1 + n :]
            res = mu(args)
            sign = (-1) ** ((i - 1) * (n - 1))
            for j, c in res.items():
                key = (word, j)
                defect[key] = defect.get(key, 0) + sign * c
    return {k: v for k, v in defect.items() if v}


def brute_ternary_trees(p):
    """Number of planar ternary trees with p internal nodes, by direct
    enumeration of grafting structures (cached recursion)."""
    memo = {0: [()]}

    def trees(k):
        if k in memo:
            return memo[k]
        out = []
        for a in range(k):
            for b in range(k - a):
                c = k - 1 - a - b
                for ta in trees(a):
                    for tb in trees(b):
                        for tc in trees(c):
                            out.append((ta, tb, tc))
        memo[k] = out
        return out

    return len(trees(p))


def brute_nary_trees(p, n):
    """Number of planar n-ary trees with p internal nodes."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(k):
        if k == 0:
            return 1
        total = 0

        def parts(remaining, slots):
            if slots == 1:
                yield (remaining,)
                return
            for first in range(remaining + 1):
                for rest in parts(remaining - first, slots - 1):
                    yield (first,) + rest

        for split in parts(k - 1, n):
            prod = 1
            for s in split:
                prod *= count(s)
            total += prod
        return total

    return count(p)


def koszul_reorder_sign(symbols, target):
    """Sign of reordering a list of graded symbols by adjacent swaps.

    symbols: list of (label, degree) in the start order; target: the labels
    in the desired order. Each adjacent swap of labels a, b contributes
    (-1)^(deg(a)*deg(b)). Labels must be unique.
    """
    order = [lab for lab, _ in symbols]
    deg = dict(symbols)
    assert len(deg) == len(symbols), "labels must be unique"
    assert sorted(order) == sorted(target)
    sign = 1
    cur = list(order)
    for pos, lab in enumerate(target):
        at = cur.index(lab)
        while at > pos:
            left = cur[at - 1]
            if (deg[left] * deg[lab]) % 2:
                sign = -sign
            cur[at - 1], cur[at] = cur[at], cur[at - 1]
            at -= 1
    return sign


def word_application_sign(seg_info, arg_degrees):
    """Koszul sign of applying a word of maps to a tensor of arguments.

    seg_info: list of (map_degree, width) per segment, in order; arg_degrees:
    degrees of the individual arguments. Computed by simulating the reorder
    [h1 .. hr x1 .. xN] -> [h1 block1 h2 block2 ..] with adjacent swaps.
    """
    symbols = []
    for t, (dg, _w) in enumerate(seg_info):
        symbols.append((("h", t), dg))
    for s, dx in enumerate(arg_degrees):
        symbols.append((("x", s), dx))
    target = []
    pos = 0
    for t, (_dg, w) in enumerate(seg_info):
        target.append(("h", t))
        for s in range(pos, pos + w):
            target.append(("x", s))
        pos += w
    assert pos == len(arg_degrees)
    return koszul_reorder_sign(symbols, target)


def apply_map(m, vecs):
    """Multilinear extension of m to dense exact coordinate vectors, summed
    over every dense input tuple."""
    out = [0] * m.dim
    for idx in product(range(m.dim), repeat=m.arity):
        c = 1
        for t, i in enumerate(idx):
            c *= vecs[t][i]
        if c:
            for j in range(m.dim):
                out[j] += c * m.coef(idx, j)
    return out


def dense_coassoc_word(delta, p):
    """(Id_p (x) Delta (x) Id_{n-1-p}) o Delta by brute expansion over every
    dense index, read through delta.coef(source, outputs) only.

    Returns dict over (source, (2n-1)-tuple) of nonzero coefficients.
    """
    d, n = delta.dim, delta.arity
    word = {}
    for i in range(d):
        for outs in product(range(d), repeat=n):
            c = delta.coef(i, outs)
            if not c:
                continue
            for inner in product(range(d), repeat=n):
                c2 = delta.coef(outs[p], inner)
                key = (i, outs[:p] + inner + outs[p + 1:])
                word[key] = word.get(key, 0) + Fraction(c) * c2
    return {k: v for k, v in word.items() if v}


def _shape(node):
    """A tree with a `children` tuple as nested tuples; a leaf is ()."""
    return tuple(_shape(ch) for ch in node.children)


def grafted_code(tree_a, q, tree_b):
    """Replace leaf q of tree_a by tree_b, then read the code of the result
    by a depth-first walk: (internal nodes, sorted leftmost-leaf positions
    of the non-root internal nodes)."""
    leaves = [0]

    def graft(node):
        if not node:
            leaves[0] += 1
            return _shape(tree_b) if leaves[0] == q else node
        return tuple(graft(ch) for ch in node)

    whole = graft(_shape(tree_a))
    leaves[0] = 0
    positions = []

    def read(node, is_root):
        # (leftmost leaf position, internal nodes) of the subtree
        if not node:
            leaves[0] += 1
            return leaves[0], 0
        first, nodes = None, 1
        for ch in node:
            pos, k = read(ch, False)
            first = pos if first is None else first
            nodes += k
        if not is_root:
            positions.append(first)
        return first, nodes

    _, p = read(whole, True)
    return p, tuple(sorted(positions))


def tree_value(tree, word, m):
    """Dense value of a tree whose leaves, left to right, carry the basis
    vectors of word, with every internal node applied through apply_map."""
    letters = iter(word)

    def walk(node):
        if not node.children:
            vec = [0] * m.dim
            vec[next(letters)] = 1
            return vec
        return apply_map(m, [walk(ch) for ch in node.children])

    return walk(tree)


class CoefTable:
    """Nonzero coefficients keyed by (input tuple, output index), read back
    through coef() like a MultiMap, so that oracle results compose."""

    def __init__(self, dim, arity, table):
        self.dim = dim
        self.arity = arity
        self.table = table

    def coef(self, inputs, out):
        return self.table.get((tuple(inputs), out), 0)


def compose_word(phi, word):
    """phi after a tensor word of ("id", m) and ("map", f) segments, by brute
    expansion over every dense input tuple, read through coef() only.

    For each input tuple the segments yield every dense intermediate tuple
    with its coefficient: an id segment copies its block, a map segment
    ranges over all d outputs. phi is then read at each intermediate tuple.
    """
    d = phi.dim
    widths = [seg[1] if seg[0] == "id" else seg[1].arity for seg in word]
    table = {}
    for x in product(range(d), repeat=sum(widths)):
        options = []
        pos = 0
        for seg, w in zip(word, widths):
            block = x[pos : pos + w]
            pos += w
            if seg[0] == "id":
                options.append([(block, Fraction(1))])
            else:
                options.append([((m,), Fraction(seg[1].coef(block, m))) for m in range(d)])
        for combo in product(*options):
            y = tuple(i for block, _ in combo for i in block)
            c = Fraction(1)
            for _, cb in combo:
                c *= cb
            if not c:
                continue
            for j in range(d):
                v = c * phi.coef(y, j)
                if v:
                    table[x, j] = table.get((x, j), 0) + v
    return CoefTable(d, sum(widths), {k: v for k, v in table.items() if v})
