"""Exact rational scalars and sparse row reduction.

Everything downstream stores structure constants exactly, so "defect == 0"
is decidable. Scalars are plain ints or fractions.Fraction, and arithmetic
mixes the two freely. Row reduction works over Fraction throughout and
normalizes its results back to int where the denominator is 1.
"""

from __future__ import annotations

from fractions import Fraction

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
    return normalize_scalar(Fraction(s))


def rational_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    if op == "add":
        return normalize_scalar(Fraction(a) + Fraction(b))
    if op == "sub":
        return normalize_scalar(Fraction(a) - Fraction(b))
    if op == "mul":
        return normalize_scalar(Fraction(a) * Fraction(b))
    if op == "div":
        if b == 0:
            raise ZeroDivisionError("rational division by zero")
        return normalize_scalar(Fraction(a) / Fraction(b))
    raise ValueError(f"unknown op {op!r}")


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


def _eliminate(target: dict, coeff, source: dict, skip) -> None:
    # target -= coeff * source, skipping the source's own pivot column
    for c, v in source.items():
        if c == skip:
            continue
        nv = target.get(c, 0) - coeff * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def rref(m: SparseMatrix):
    """Reduced row echelon form.

    Deterministic: rows are processed in input order, each row's pivot is its
    lowest-index nonzero column, and a full back-substitution pass finishes the
    reduction. Returns (rank, sorted pivot columns, reduced SparseMatrix with
    rows ordered by pivot).
    """
    pivot_rows: dict[int, dict] = {}
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
    reduced = SparseMatrix(
        m.n_cols,
        [
            sorted((c, normalize_scalar(v)) for c, v in pivot_rows[p].items())
            for p in pivots
        ],
    )
    return len(pivots), pivots, reduced


def residual(reduced: SparseMatrix, vec) -> dict:
    """Reduce a vector against the rows of an rref matrix; empty dict means the
    vector lies in the row space. vec may be a dense list or a {col: coef} dict."""
    if isinstance(vec, dict):
        r = {c: Fraction(v) for c, v in vec.items() if v}
    else:
        r = {c: Fraction(v) for c, v in enumerate(vec) if v}
    by_pivot = {row[0][0]: row for row in reduced.rows if row}
    for c in sorted(r):
        coeff = r.get(c, 0)
        if not coeff:
            continue
        row = by_pivot.get(c)
        if row is None:
            continue
        del r[c]
        for cc, vv in row:
            if cc == c:
                continue
            nv = r.get(cc, 0) - coeff * vv
            if nv:
                r[cc] = nv
            else:
                r.pop(cc, None)
    return {c: normalize_scalar(v) for c, v in r.items()}


def in_row_space(reduced: SparseMatrix, vec) -> bool:
    return not residual(reduced, vec)


def kernel_basis(m: SparseMatrix):
    """Basis of the right null space, one vector per non-pivot column, in
    ascending free-column order."""
    _, pivots, reduced = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.n_cols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * m.n_cols
        vec[f] = 1
        for row in reduced.rows:
            p = row[0][0]
            for c, v in row:
                if c == f:
                    vec[p] = normalize_scalar(-v)
                    break
        basis.append(vec)
    return basis
