"""Independent reference implementations used to freeze expected values.

Everything here is written the slow, textbook way on dense lists of
Fractions, deliberately sharing no code with the package under test; the
exceptions, gprod_coboundary, gprod_chi_defects, restricted_table and
gprod_operator_rows, take their maps from the package's gprod and check
only what is built from them: delta and the chi axioms as gprod formulas,
the linear algebra, and the operator rows of one gprod-built map per unit
cochain. The package's tables run on column loops of their own, and
gprod_operator_rows gives the literal rows they are compared with.
scanned_live_codes takes the package's code list and one-node preimages
and checks how the live codes are found: it tests every code of the
component, not only those built from the support of the degree below.
fraction_rref is sparse: it is the
package's earlier eliminator (Fraction entries, rows in input order), kept
as the differential oracle for the fraction-free one. rows_through is the
package's earlier certificate builder, one walk per code, kept as the
differential oracle for freealg._family_rows, which walks a prefix once.
fraction_read is exactnum.scalar_from_str with every input read by
Fraction's parser, the oracle of its integer path; it needs only the
standard library, so read_mismatch over READ_CORPUS runs on an interpreter
without pytest too.
"""

from bisect import bisect
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
                a[i] = [v - f * w if w else v for v, w in zip(a[i], a[r])]
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


def dense_convolution(mu, delta, mats):
    """f_1 * ... * f_n on Hom(M, A) for dense matrices, mats[t][a][b] the e_b
    coefficient of f_t(e_a): Delta, then the maps slotwise, then mu, expanded
    over every dense index through mu.coef and delta.coef only.

    Returns the dim_M x dim_A result as a list of rows.
    """
    d_m, d_a, n = delta.dim, mu.dim, mu.arity
    if delta.arity != n or len(mats) != n:
        raise ValueError("arity mismatch")
    if any(len(f) != d_m or any(len(row) != d_a for row in f) for f in mats):
        raise ValueError("map shape mismatch")
    out = [[0] * d_a for _ in range(d_m)]
    for i in range(d_m):
        for outs in product(range(d_m), repeat=n):
            c = delta.coef(i, outs)
            if not c:
                continue
            for bs in product(range(d_a), repeat=n):
                w = Fraction(c)
                for t in range(n):
                    w *= mats[t][outs[t]][bs[t]]
                if w:
                    for b in range(d_a):
                        out[i][b] += w * mu.coef(bs, b)
    return out


def _shape(node):
    """A tree with a `children` tuple as nested tuples; a leaf is ()."""
    return tuple(_shape(ch) for ch in node.children)


def _graft_leaf(shape, q, sub):
    """Nested-tuple tree shape with its q-th leaf replaced by sub."""
    leaves = [0]

    def graft(node):
        if not node:
            leaves[0] += 1
            return sub if leaves[0] == q else node
        return tuple(graft(ch) for ch in node)

    return graft(shape)


def _read_code(shape):
    """Code of a nested-tuple tree by a depth-first walk: (internal nodes,
    sorted leftmost-leaf positions of the non-root internal nodes)."""
    leaves = [0]
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

    _, p = read(shape, True)
    return p, tuple(sorted(positions))


def grafted_code(tree_a, q, tree_b):
    """Replace leaf q of tree_a by tree_b, then read the code of the result."""
    return _read_code(_graft_leaf(_shape(tree_a), q, _shape(tree_b)))


def operadic_rows(n, p):
    """The operadic relation rows of degree p, each built term by term.

    Trees are nested tuples (a leaf is ()), listed per node count by
    ascending code. For each context tree A with k nodes, leaf q of A and
    subtrees B_1..B_{2n-1} (node counts in lexicographic order) the row is
    sum_i (-1)^((i-1)(n-1)) code(A[q <- mu(B_1..mu(B_i..B_{i+n-1})..)]),
    keyed by column in i order, with nothing cancelled, flipped or dropped.
    """
    trees = {0: [()]}
    for k in range(1, p + 1):
        grown = []
        for split in product(range(k), repeat=n):
            if sum(split) == k - 1:
                grown.extend(product(*(trees[s] for s in split)))
        trees[k] = sorted(grown, key=_read_code)
    col = {_read_code(t): c for c, t in enumerate(trees[p])}
    rows = []
    for k in range(p - 1):
        budget = p - 2 - k
        for context in trees[k]:
            for q in range(1, k * (n - 1) + 2):
                for parts in product(range(budget + 1), repeat=2 * n - 1):
                    if sum(parts) != budget:
                        continue
                    for subs in product(*(trees[b] for b in parts)):
                        row = {}
                        for i in range(n):
                            term = subs[:i] + (subs[i : i + n],) + subs[i + n :]
                            c = col[_read_code(_graft_leaf(context, q, term))]
                            row[c] = row.get(c, 0) + (-1) ** (i * (n - 1))
                        rows.append(row)
    return rows


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


def gprod_coboundary(mu, phi):
    """delta(phi) = (-1)^(k-1) gprod(mu, phi) - gprod(phi, mu), k = arity(phi)."""
    from naryalg.gerstenhaber import gprod

    left = gprod(mu, phi)
    if (phi.arity - 1) % 2:
        left = -left
    return left - gprod(phi, mu)


def gprod_chi_defects(mu, phi):
    """The three restriction axioms of phi as gprod composites, in display order."""
    from naryalg.gerstenhaber import gprod

    pm = gprod(phi, mu)
    return gprod(pm, mu), gprod(gprod(mu, phi), mu), gprod(mu, pm)


def gprod_operator_rows(d, arity, images):
    """Distinct rows of maps linear in an arity-cochain, one gprod-built
    MultiMap per unit cochain, over the unit cochains in product order.

    images(e) is a tuple of MultiMaps linear in the unit cochain e, such as
    (gprod_coboundary(mu, e),) or gprod_chi_defects(mu, e); each (image
    index, nonzero output key) gives one row, a tuple of (column,
    coefficient) pairs.
    """
    from naryalg.gerstenhaber import MultiMap

    rows = {}
    for col, key in enumerate(product(range(d), repeat=arity + 1)):
        e = MultiMap(d, arity, {(key[:-1], key[-1]): 1})
        for idx, image in enumerate(images(e)):
            for out_key, c in image.terms.items():
                rows.setdefault((idx, out_key), {})[col] = c
    return list(dict.fromkeys(tuple(row.items()) for row in rows.values()))


def restricted_table(mu, slot, steps):
    """Kernel/image dimensions along one cohomology row, the textbook way.

    Builds the cochain complex from gprod_chi_defects and gprod_coboundary
    on unit cochains, but finds every dimension by dense elimination: the
    dense chi constraint rows (none for even n), a dense kernel basis of
    them, the coboundary of each basis vector as a combination of unit
    images, and the rank of those images. Returns the steps in the format of
    CohomologyTable.to_json_dict.
    """
    from naryalg.gerstenhaber import MultiMap

    d, n = mu.dim, mu.arity
    k0 = 0 if slot >= 1 else 1
    out = []
    prev_rank = 0
    for k in range(k0, k0 + steps):
        a = slot + k * (n - 1)
        units = [
            MultiMap.from_entries(d, a, {(key[:-1], key[-1]): 1})
            for key in product(range(d), repeat=a + 1)
        ]
        space = len(units)
        if n % 2:
            constraints = {}
            for col, e in enumerate(units):
                for idx, defect in enumerate(gprod_chi_defects(mu, e)):
                    for x, j, c in defect.items():
                        row = constraints.setdefault((idx, x, j), [0] * space)
                        row[col] = c
            distinct = list(dict.fromkeys(tuple(row) for row in constraints.values()))
            kernel = dense_kernel(distinct, space)
        else:
            kernel = [[int(i == col) for i in range(space)] for col in range(space)]
        images = [{(x, j): c for x, j, c in gprod_coboundary(mu, e).items()} for e in units]
        keys = sorted({key for image in images for key in image})
        rows = []
        for vec in kernel:
            img = dict.fromkeys(keys, 0)
            for col, v in enumerate(vec):
                if v:
                    for key, c in images[col].items():
                        img[key] += v * c
            rows.append([img[key] for key in keys])
        rank = dense_rref(rows)[0]
        dim_ker = len(kernel) - rank
        out.append({
            "arity_in": a,
            "dim_ker": dim_ker,
            "dim_im_prev": prev_rank,
            "dim_H": dim_ker - prev_rank,
        })
        prev_rank = rank
    return out


def _eliminate(target, coeff, source, skip):
    # target -= coeff * source, skipping the source's own pivot column
    for c, v in source.items():
        if c == skip:
            continue
        nv = target.get(c, 0) - coeff * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def fraction_rref(m):
    """Sparse Gauss-Jordan over Fraction, rows taken in input order.

    m has .rows (sorted (column, coefficient) lists) and .n_cols. Returns
    (rank, sorted pivot columns, reduced rows ordered by pivot, each a sorted
    list of (column, coefficient) with int entries where the denominator is 1).
    """
    pivot_rows = {}
    for row in m.rows:
        r = {c: Fraction(v) for c, v in row}
        while r:
            c = min(r)
            prow = pivot_rows.get(c)
            if prow is None:
                break
            _eliminate(r, r.pop(c), prow, c)
        if r:
            c = min(r)
            lead = r[c]
            pivot_rows[c] = {cc: vv / lead for cc, vv in r.items()}
    # Back-substitute from the highest pivot down; rows eliminated against are
    # already fully reduced, so one pass suffices.
    for c in sorted(pivot_rows, reverse=True):
        prow = pivot_rows[c]
        for c2 in sorted(c2 for c2 in prow if c2 != c and c2 in pivot_rows):
            coeff = prow.pop(c2, 0)
            if coeff:
                _eliminate(prow, coeff, pivot_rows[c2], c2)
    pivots = sorted(pivot_rows)
    reduced = [
        sorted((c, int(v) if v.denominator == 1 else v) for c, v in pivot_rows[p].items())
        for p in pivots
    ]
    return len(pivots), pivots, reduced


def fraction_kernel(m):
    """The dual basis of the null space, as exactnum.kernel_basis gives it,
    read off fraction_rref: {free column f: v_f} with v_f[f] = 1, each entry
    an int exactly where its denominator is 1."""
    _, pivots, reduced = fraction_rref(m)
    free = set(range(m.n_cols)) - set(pivots)
    basis = {f: {f: 1} for f in sorted(free)}
    for row in reduced:
        for f, v in row[1:]:
            basis[f][row[0][0]] = -v
    return basis


def residual(reduced, vec):
    """Reduce a vector against the rows of an rref matrix; empty dict means the
    vector lies in the row space. vec may be a dense list or a {col: coef} dict."""
    if isinstance(vec, dict):
        r = {c: Fraction(v) for c, v in vec.items() if v}
    else:
        r = {c: Fraction(v) for c, v in enumerate(vec) if v}
    by_pivot = {row[0][0]: row for row in reduced.rows if row}
    for c in sorted(r):
        row = by_pivot.get(c)
        if row is not None and c in r:
            _eliminate(r, r.pop(c), dict(row), c)
    return {c: int(v) if v.denominator == 1 else v for c, v in r.items()}


def in_row_space(reduced, vec):
    return not residual(reduced, vec)


def scanned_live_codes(rs, nf):
    """The codes of rs that freealg._recursive_dual keeps, found by testing
    every code of rs's component: a code is live unless one of its one-node
    preimages is a code of the degree below outside the normal-form map nf.
    Removing the last bracket settles most codes, so it is tested before the
    others."""
    from naryalg.freealg import _code_tuples, _one_node_preimages

    zero = set(_code_tuples(rs.n, rs.p - 1)) - nf.keys()
    return [
        code
        for code in _code_tuples(rs.n, rs.p)
        if code[:-1] not in zero
        and not any(q in zero for q in _one_node_preimages(rs.n, code))
    ]


def rows_through(n: int, idx: tuple, skip=()) -> list:
    """The operadic rows that hold the code idx, one per non-root node v,
    as {index tuple: coefficient}. A row with a code before idx in skip is
    left out as soon as that code is made.

    A walk down the code finds each node's children's first leaves: a node
    takes n children in turn, each a node if the next bracket opens at the
    next leaf and that leaf otherwise, so node k >= 1 opens at idx[k - 1].
    With v at slot s of its parent u, the row's subtrees B_1..B_{2n-1} are
    u's children before v, v's children, then u's children after v, and
    T_i, i = 1..n, is idx with v's index replaced by the first leaf of B_i,
    with sign (-1)^((i-1)(n-1)); T_s is idx itself.
    """
    starts = [[] for _ in range(len(idx) + 1)]  # per node, its children's first leaves
    parents = [None] * (len(idx) + 1)  # per non-root node, (parent, slot)
    k = q = 0  # the brackets opened and the leaves passed
    stack = [0]  # the nodes still taking children, innermost last
    while stack:
        node = stack[-1]
        kids = starts[node]
        if len(kids) == n:
            stack.pop()
            continue
        kids.append(q + 1)
        if k < len(idx) and idx[k] == q + 1:
            k += 1
            parents[k] = node, len(kids) - 1
            stack.append(k)
        else:
            q += 1
    signs = [-1 if i * (n - 1) % 2 else 1 for i in range(n)]
    rows = []
    for v in range(1, len(starts)):
        u, s = parents[v]
        rest = idx[: v - 1] + idx[v:]
        row = {}
        for i, start in enumerate((starts[u][:s] + starts[v])[:n]):
            if i == s:
                row[idx] = signs[i]
                continue
            j = bisect(rest, start)
            code = rest[:j] + (start,) + rest[j:]
            if i < s and code in skip:
                break
            row[code] = signs[i]
        else:
            rows.append(row)
    return rows


# Inputs of scalar_from_str around its integer path: plain integers, the
# spellings next to them that only Fraction reads or that neither does
# (Python 3.10's Fraction rejects "1_0", which int takes, and "\u00b2" is a
# digit to str.isdigit), both sides of int's 4300-digit limit, and the
# inputs that are no string.
READ_CORPUS = [
    "0", "-0", "007", "-12", "+1", " 1", "1 ", "1_0",
    "\u0663", "\u00b2", "\u22121",
    "--1", "-", "", "1-", "1/2", "0.1", "1e3",
    "7" * 4300, "7" * 4301, "-" + "7" * 4300, "-" + "7" * 4301,
    5, Fraction(3, 1), True, None, 1.5,
]


def fraction_read(s):
    """The exact scalar Fraction(s) is, an int when its denominator is 1; a
    bool is no coefficient."""
    if isinstance(s, bool):
        raise ValueError(f"coefficient {s!r} is not a number")
    x = Fraction(s)
    return x.numerator if x.denominator == 1 else x


def read_mismatch(read, s):
    """None when read(s) is fraction_read(s), the same value of the same
    type, or raises an exception of the same type; else what differs."""
    try:
        want = fraction_read(s)
    except Exception as e:
        want = type(e)
    try:
        got = read(s)
    except Exception as e:
        got = type(e)
    if got == want and type(got) is type(want):
        return None
    return f"{s!r:.20}: read gives {got!r:.20}, Fraction {want!r:.20}"
