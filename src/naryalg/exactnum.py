"""Exact rational scalars and sparse row reduction.

Everything downstream stores structure constants exactly, so "defect == 0"
is decidable. Scalars are plain ints or fractions.Fraction, and arithmetic
mixes the two freely. Row reduction is fraction-free incremental
Gauss-Jordan, rows by lowest column descending: rows are eliminated as
primitive integer rows into pivot rows that stay reduced against each
other, and turn into exact scalars only once reduced, as ints where the
denominator is 1. Where only ranks are read, stacked_ranks makes no
Fractions; where only pivots are, echelon_pivots eliminates forward alone.
Clearing column c against a one-entry pivot row, e_c up to sign, is a
delete. Rows are validated once, where a SparseMatrix is built (_of_clean
takes them as clean); the eliminations read them as they are.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

Scalar = int | Fraction


def normalize_scalar(x: Scalar) -> Scalar:
    """Canonical exact scalar: int when the denominator is 1."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"not an exact scalar: {x!r}")


def scalar_to_str(x: Scalar) -> str:
    x = normalize_scalar(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Scalar:
    """The exact scalar s writes, normalize_scalar(Fraction(s)); a bool is
    no coefficient.

    A plain integer string (ASCII digits after at most one leading "-") and
    an int are read without Fraction's parser. Underscores, other signs,
    spaces and non-ASCII digits take the Fraction path, so the value, its
    type and any exception are Fraction's on every interpreter.
    """
    if type(s) is str:
        if s.isascii() and (s[1:] if s[:1] == "-" else s).isdigit():
            return int(s)
    elif type(s) is int:
        return s
    elif isinstance(s, bool):
        raise ValueError(f"coefficient {s!r} is not a number")
    return normalize_scalar(Fraction(s))


def _checked_row(row, n_cols: int) -> list:
    # One pass: zeros dropped, columns range-checked; sorted by column only
    # when out of order, and only then can a column repeat.
    out = []
    last = -1
    ordered = True
    for c, v in row:
        if v:
            if not 0 <= c < n_cols:
                raise ValueError(f"column {c} out of range 0..{n_cols - 1}")
            if c <= last:
                ordered = False
            last = c
            out.append((c, v))
    if not ordered:
        out.sort(key=itemgetter(0))
        if any(a[0] == b[0] for a, b in zip(out, out[1:])):
            raise ValueError("duplicate column in row")
    return out


class SparseMatrix:
    """Rows of sorted (column, nonzero coefficient) pairs over n_cols columns."""

    __slots__ = ("n_cols", "rows")

    def __init__(self, n_cols: int, rows):
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        self.n_cols = n_cols
        self.rows = [_checked_row(row, n_cols) for row in rows]

    @classmethod
    def _of_clean(cls, n_cols: int, rows: list):
        # rows already sorted, in range, without zeros or repeated columns
        m = cls.__new__(cls)
        m.n_cols = n_cols
        m.rows = rows
        return m

    @classmethod
    def from_dense(cls, rows2d, n_cols=None):
        rows2d = [list(r) for r in rows2d]
        if n_cols is None:
            n_cols = len(rows2d[0]) if rows2d else 0
        return cls(n_cols, [[(c, v) for c, v in enumerate(r) if v] for r in rows2d])

    @classmethod
    def from_dicts(cls, n_cols, dicts):
        return cls(n_cols, [d.items() for d in dicts])

    def to_dense(self):
        out = []
        for row in self.rows:
            dense = [0] * self.n_cols
            for c, v in row:
                dense[c] = v
            out.append(dense)
        return out

    def __repr__(self):
        return f"SparseMatrix({len(self.rows)}x{self.n_cols})"


def _primitive(row) -> dict:
    # The row's (column, coefficient) pairs as a primitive integer dict: scaled
    # by the lcm of its denominators, then divided by its content. Both keep
    # the row space. A row of ints is copied unscaled; the test is on the
    # type, since a Fraction(k, 1) entry must still become an int.
    if all(type(v) is int for _, v in row):
        r = dict(row)
    else:
        den = lcm(*(Fraction(v).denominator for _, v in row))
        r = {c: int(v * den) for c, v in row}
    _divide_content(r)
    return r


def _divide_content(r: dict) -> None:
    g = gcd(*r.values())
    if g > 1:
        for c in r:
            r[c] //= g


def _combine(r: dict, c: int, prow: dict) -> None:
    # Clear column c of the integer row r against the integer row prow, in
    # place: r <- b*r - a*prow with a = r[c], b = prow[c] divided by their
    # gcd, b > 0, then r divided by its content.
    a = r[c]
    b = prow[c]
    g = gcd(a, b) if b > 0 else -gcd(a, b)
    a //= g
    b //= g
    if b != 1:
        for k in r:
            r[k] *= b
    for k, v in prow.items():
        nv = r.get(k, 0) - a * v
        if nv:
            r[k] = nv
        else:
            del r[k]
    _divide_content(r)


def _by_lead(rows) -> list:
    # the nonempty rows by lowest column descending, ties by length
    return sorted((row for row in rows if row), key=lambda row: (-row[0][0], len(row)))


def _forward(pivot_rows: dict, holders: dict, rows) -> None:
    # Incremental Gauss-Jordan, in the row order rref's docstring gives.
    # pivot_rows, {pivot column: primitive integer row}, stay reduced against
    # each other, so one combine clears each pivot column from a row and
    # brings in no other. holders, a defaultdict(set), maps a column to the
    # leads of the pivot rows that hold it past their lead. In this order a
    # new pivot is mostly below every lead, so few pivot rows hold it. Either
    # way, clearing against a one-entry pivot row is a delete and a division
    # by the content (the singleton step of structured Gaussian elimination).
    for row in _by_lead(rows):
        r = _primitive(row)
        deleted = False
        for c in [c for c in r if c in pivot_rows]:
            prow = pivot_rows[c]
            if len(prow) == 1:
                del r[c]
                deleted = True
            else:
                _combine(r, c, prow)
        if not r:
            continue
        if deleted:
            _divide_content(r)
        c = min(r)
        for lead in holders.pop(c, ()):
            prow = pivot_rows[lead]
            if len(r) == 1:
                del prow[c]
                _divide_content(prow)
                continue
            held = prow.keys() & r.keys()  # only r's columns enter or leave prow
            _combine(prow, c, r)
            for k in held ^ (prow.keys() & r.keys()):
                (holders[k].add if k in prow else holders[k].discard)(lead)
        pivot_rows[c] = r
        for k in r:
            if k != c:
                holders[k].add(c)


def rref(m: SparseMatrix):
    """Reduced row echelon form.

    Fraction-free incremental Gauss-Jordan, rows by lowest column
    descending: empty rows are dropped and the rest are eliminated in that
    order, ties by length. Each row is kept as a primitive integer row
    (Bareiss-style integer-preserving elimination). A row's pivot is its
    lowest-index nonzero column, and the pivot rows stay reduced against
    each other; only at the end is each divided by its lead. The reduced
    echelon form of a row space is unique, so the row order cannot change
    the result. Returns (rank, sorted pivot columns, reduced SparseMatrix
    with rows ordered by pivot); an entry is an int exactly when its
    denominator is 1.
    """
    pivot_rows: dict[int, dict] = {}
    _forward(pivot_rows, defaultdict(set), m.rows)
    pivots = sorted(pivot_rows)
    reduced = []
    for p in pivots:
        prow = pivot_rows[p]
        lead = prow[p]
        reduced.append(
            sorted((c, Fraction(v, lead) if v % lead else v // lead) for c, v in prow.items())
        )
    return len(pivots), pivots, SparseMatrix._of_clean(m.n_cols, reduced)


def echelon_pivots(m: SparseMatrix) -> list[int]:
    """rref(m)[1], the sorted pivot columns, by forward elimination alone:
    rows in rref's order, as primitive integer rows, each cleared at its
    lowest column against the pivot row there until that column is free or
    the row vanishes. No back-substitution fills in, and no Fraction is made."""
    pivot_rows: dict[int, dict] = {}
    for row in _by_lead(m.rows):
        r = _primitive(row)
        c = row[0][0]
        while c in pivot_rows:
            prow = pivot_rows[c]
            if len(prow) == 1:
                del r[c]
                _divide_content(r)
            else:
                _combine(r, c, prow)
            if not r:
                break
            c = min(r)
        else:
            pivot_rows[c] = r
    return sorted(pivot_rows)


def stacked_ranks(blocks) -> list[int]:
    """Rank of each prefix stack of blocks: entry k is the rank of blocks 0..k
    stacked, each block a SparseMatrix, all of one width.

    The incremental Gauss-Jordan of rref over all blocks, in order, into one
    set of mutually reduced pivot rows; no Fractions are made.
    """
    blocks = list(blocks)
    if len({block.n_cols for block in blocks}) > 1:
        raise ValueError("blocks of different widths")
    pivot_rows: dict[int, dict] = {}
    holders = defaultdict(set)
    ranks = []
    for block in blocks:
        _forward(pivot_rows, holders, block.rows)
        ranks.append(len(pivot_rows))
    return ranks


def kernel_basis(m: SparseMatrix) -> dict:
    """Dual basis of the right null space: {free column f: v_f}, one entry per
    non-pivot column in ascending order. Each v_f is a sparse {column:
    coefficient} dict with no stored zeros, v_f[f] = 1 and v_f zero at every
    other free column; it is nonzero elsewhere only at pivots below f."""
    _, pivots, reduced = rref(m)
    pivot_set = set(pivots)
    basis = {f: {f: 1} for f in range(m.n_cols) if f not in pivot_set}
    # a reduced row is zero in every other pivot column, so each entry past
    # the lead sits in a free column; rref's entries are already normalized
    for row in reduced.rows:
        p = row[0][0]
        for f, v in row[1:]:
            basis[f][p] = -v
    return basis
