"""Exact rational scalars and sparse row reduction.

Everything downstream stores structure constants exactly, so "defect == 0"
is decidable. Scalars are plain ints or fractions.Fraction, and arithmetic
mixes the two freely. Row reduction is fraction-free: rows are eliminated
as primitive integer rows, sorted so that little fill-in arises, and turn
into exact scalars only once reduced, as ints where the denominator is 1.
Where only ranks are read, stacked_ranks stops after the forward pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    if isinstance(s, bool):
        raise ValueError(f"coefficient {s!r} is not a number")
    return normalize_scalar(Fraction(s))


class SparseMatrix:
    """Rows of sorted (column, nonzero coefficient) pairs over n_cols columns."""

    __slots__ = ("n_cols", "rows")

    def __init__(self, n_cols: int, rows):
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        clean = []
        for row in rows:
            row = [(c, v) for c, v in row if v]
            for c, _ in row:
                if not 0 <= c < n_cols:
                    raise ValueError(f"column {c} out of range 0..{n_cols - 1}")
            cols = [c for c, _ in row]
            if cols != sorted(set(cols)):
                row = sorted(row)
                if [c for c, _ in row] != sorted(set(cols)):
                    raise ValueError("duplicate column in row")
            clean.append(row)
        self.n_cols = n_cols
        self.rows = clean

    @classmethod
    def from_dense(cls, rows2d, n_cols=None):
        rows2d = [list(r) for r in rows2d]
        if n_cols is None:
            n_cols = len(rows2d[0]) if rows2d else 0
        return cls(n_cols, [[(c, v) for c, v in enumerate(r) if v] for r in rows2d])

    @classmethod
    def from_dicts(cls, n_cols, dicts):
        return cls(n_cols, [sorted(d.items()) for d in dicts])

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
    # the row space.
    den = 1
    for _, v in row:
        if type(v) is not int:
            den = lcm(den, Fraction(v).denominator)
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


def _forward(pivot_rows: dict, rows) -> None:
    # The forward pass of rref, in the row order its docstring gives: each
    # row is eliminated into pivot_rows, {pivot column: primitive integer
    # row}, and one that reduces to zero adds nothing.
    for row in sorted((row for row in rows if row), key=lambda row: (-row[-1][0], len(row))):
        r = _primitive(row)
        while r:
            c = min(r)
            prow = pivot_rows.get(c)
            if prow is None:
                pivot_rows[c] = r
                break
            _combine(r, c, prow)


def rref(m: SparseMatrix):
    """Reduced row echelon form.

    Fraction-free and fill-ordered: empty rows are dropped and the rest are
    eliminated sorted by highest column, descending, then by length. Each
    row is kept as a primitive integer row (Bareiss-style integer-preserving
    elimination), and a pivot row keeps its integer lead. A row's pivot is
    its lowest-index nonzero column. Back-substitution runs over the integer
    rows from the highest pivot down; only then is each row divided by its
    lead. The reduced echelon form of a row space is unique, so the row order
    cannot change the result. Returns (rank, sorted pivot columns, reduced
    SparseMatrix with rows ordered by pivot); an entry is an int exactly when
    its denominator is 1.
    """
    pivot_rows: dict[int, dict] = {}
    _forward(pivot_rows, m.rows)
    # Back-substitute from the highest pivot down; rows eliminated against are
    # already fully reduced, so one pass suffices.
    for c in sorted(pivot_rows, reverse=True):
        prow = pivot_rows[c]
        for c2 in sorted(c2 for c2 in prow if c2 != c and c2 in pivot_rows):
            _combine(prow, c2, pivot_rows[c2])
    pivots = sorted(pivot_rows)
    reduced = []
    for p in pivots:
        prow = pivot_rows[p]
        lead = prow[p]
        reduced.append(sorted((c, normalize_scalar(Fraction(v, lead))) for c, v in prow.items()))
    return len(pivots), pivots, SparseMatrix(m.n_cols, reduced)


def stacked_ranks(n_cols: int, blocks) -> list[int]:
    """Rank of each prefix stack of blocks: entry k is the rank of blocks 0..k
    stacked, each block a list of rows as SparseMatrix takes them.

    One forward elimination over all blocks, in order, into one set of pivot
    rows; with no back-substitution and no Fractions it costs less than rref
    where only ranks are read.
    """
    pivot_rows: dict[int, dict] = {}
    ranks = []
    for block in blocks:
        _forward(pivot_rows, SparseMatrix(n_cols, block).rows)
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
    # the lead sits in a free column
    for row in reduced.rows:
        p = row[0][0]
        for f, v in row[1:]:
            basis[f][p] = normalize_scalar(-v)
    return basis
