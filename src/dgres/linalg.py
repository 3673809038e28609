"""Exact sparse linear algebra over ℚ and F_p.

One elimination routine, `echelon`, answers every question.  A matrix is
eliminated as a list of row dicts {column: value}, never densified: rows are
fed in shortest first and each is reduced against the pivot rows found so
far, which are monic and keyed by their lead (smallest) column.  The number
of pivot rows is the rank.  Back-substitution turns them into the reduced
row echelon form (RREF), which is unique, so the nullspace basis (free
variables in column order) and the solution or infeasibility certificate of
a linear system do not depend on the order rows are fed in.  Values are
ints in [0, p) over F_p.  Over ℚ they are in the canonical form of
`scalars`: an int, or a `Fraction` whose denominator is not 1.  Every ℚ
update goes through the kernel of `scalars`, which works on numerator and
denominator and returns that form directly, with no `Fraction` operator;
an update whose three values are ints is done inline.
"""

from __future__ import annotations

from .errors import DgresError
from .scalars import Field, canonical, q_add, q_mul


def _axpy(row: dict, c, piv: dict, p: int | None) -> None:
    """row += c·piv in place, dropping entries that cancel."""
    get = row.get
    if p is not None:
        for j, v in piv.items():
            w = (get(j, 0) + c * v) % p
            if w:
                row[j] = w
            else:
                del row[j]
        return
    # over ℚ the kernel of `scalars` updates an entry; when the entry, c and
    # the pivot's value are all ints, as in every integral matrix, it is one
    # machine operation inline.  A canonical Fraction is never 0.
    cint = type(c) is int
    for j, v in piv.items():
        w = get(j, 0)
        if cint and type(v) is int and type(w) is int:
            w += c * v
            if not w:
                del row[j]
                continue
        else:
            w = q_add(w, q_mul(c, v))
            if type(w) is int and not w:
                del row[j]
                continue
        row[j] = w


def echelon(rows, field: Field, reduced: bool = False) -> dict:
    """Monic pivot rows spanning the row space of `rows`, keyed by lead column.

    `rows` are dicts column -> nonzero field element; they are not modified.
    With `reduced`, every pivot row is also cleared at the other pivot
    columns, so the values are the rows of the RREF.
    """
    p = field.p
    pivots: dict = {}
    for row in sorted(rows, key=len):
        row = dict(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = field.inv(row[lead])
                pivots[lead] = {j: field.mul(v, inv) for j, v in row.items()}
                break
            _axpy(row, field.neg(row[lead]), piv, p)
            if lead in row:  # a wrong field operation; the loop would never end
                raise DgresError(f"a pivot step left column {lead} in place")
    if reduced:
        for lead in sorted(pivots, reverse=True):
            row = pivots[lead]
            for j in [j for j in row if j != lead and j in pivots]:
                _axpy(row, field.neg(row[j]), pivots[j], p)
    return pivots


class SliceMatrix:
    """One degree slice of a linear map, over enumerated ordered bases.

    Entry (i, j) is the coefficient of target basis vector i in the image of
    source basis vector j (columns = source).
    """

    __slots__ = ("field", "nrows", "ncols", "entries", "row_labels", "col_labels", "_rank")

    def __init__(self, field: Field, nrows: int, ncols: int, entries: dict | None = None,
                 row_labels=None, col_labels=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries or {}
        self.row_labels = row_labels
        self.col_labels = col_labels
        self._rank = None

    @classmethod
    def from_columns(cls, field: Field, row_labels: tuple, col_labels: tuple, columns) -> "SliceMatrix":
        """The matrix whose column j is columns[j], a dict row label -> nonzero value.

        A label outside `row_labels` gets a new row after them, so a column
        with support outside the intended target basis shows up as
        nrows > len(row_labels) instead of raising.
        """
        index = {lb: i for i, lb in enumerate(row_labels)}
        entries = {}
        for j, col in enumerate(columns):
            for lb, c in col.items():
                i = index.get(lb)
                if i is None:
                    i = index[lb] = len(index)
                entries[(i, j)] = c
        if len(index) > len(row_labels):
            row_labels = tuple(index)
        return cls(field, len(index), len(col_labels), entries, row_labels, col_labels)

    def set(self, i: int, j: int, value):
        if value == self.field.zero:
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = value

    def get(self, i: int, j: int):
        return self.entries.get((i, j), self.field.zero)

    def rows(self) -> dict:
        """Row index -> {column: value}, for the nonzero rows only."""
        out: dict = {}
        for (i, j), v in self.entries.items():
            out.setdefault(i, {})[j] = v
        return out

    def columns(self) -> list[dict]:
        """Column j as {row label: value}, for every column."""
        cols: list = [{} for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][self.row_labels[i]] = v
        return cols

    def compose(self, other: "SliceMatrix") -> "SliceMatrix":
        """self ∘ other (matrix product self @ other).

        Each entry is summed in plain ints or Fractions and reduced once,
        mod p or to the canonical form, instead of after every term; only
        the entries of self in a column that is a row of other are grouped.
        """
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in compose")
        rows = {k for k, _ in other.entries}
        by_row: dict[int, list] = {}
        for (i, k), v in self.entries.items():
            if k in rows:
                by_row.setdefault(k, []).append((i, v))
        acc: dict = {}
        get = acc.get
        for (k, j), w in other.entries.items():
            for i, v in by_row.get(k, ()):
                acc[(i, j)] = get((i, j), 0) + v * w
        p = self.field.p
        entries = ({key: x % p for key, x in acc.items() if x % p} if p is not None
                   else {key: canonical(x) for key, x in acc.items() if x})
        return SliceMatrix(self.field, self.nrows, other.ncols, entries, self.row_labels, other.col_labels)

    def is_zero(self) -> bool:
        return not self.entries

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(echelon(self.rows().values(), self.field))
        return self._rank

    def nullspace(self) -> list[list]:
        """Canonical basis of the kernel (free variables in column order)."""
        f = self.field
        rref = echelon(self.rows().values(), f, reduced=True)
        basis = {j: [f.zero] * self.ncols for j in range(self.ncols) if j not in rref}
        for j, vec in basis.items():
            vec[j] = f.one
        for lead, row in rref.items():
            for j, v in row.items():
                if j != lead:
                    basis[j][lead] = f.neg(v)
        return list(basis.values())

    def __repr__(self):
        return f"SliceMatrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"


class InfeasibilityCertificate:
    """A row combination λ with λᵀA = 0 but λᵀb ≠ 0, witnessing Ax = b has no solution."""

    def __init__(self, row_combination: dict, first_row: int):
        self.row_combination = row_combination  # original row index -> coefficient
        self.first_row = first_row              # smallest original row index involved

    def __repr__(self):
        return f"InfeasibilityCertificate(first_row={self.first_row}, rows={sorted(self.row_combination)})"


def solve_linear(A: SliceMatrix, b: list):
    """Solve A x = b exactly.

    Returns (x, None) with free variables set to zero, or (None, certificate)
    when the system is inconsistent.  Both are read off the RREF of
    [A | b | I]: x from the b column, the certificate from the identity part
    of the row whose lead is the b column.  Row i carries the single
    identity entry at column ncols + 1 + i, so only rows that elimination
    touches grow.
    """
    f = A.field
    nc = A.ncols
    rows = A.rows()
    aug = []
    for i in range(A.nrows):
        row = rows.get(i, {})
        if b[i] != f.zero:
            row[nc] = b[i]
        row[nc + 1 + i] = f.one
        aug.append(row)
    rref = echelon(aug, f, reduced=True)
    bad = rref.get(nc)
    if bad is not None:
        comb = {k - nc - 1: v for k, v in sorted(bad.items()) if k > nc}
        return None, InfeasibilityCertificate(comb, min(comb))
    x = [f.zero] * nc
    for lead, row in rref.items():
        if lead < nc:
            x[lead] = row.get(nc, f.zero)
    return x, None


def verify_certificate(A: SliceMatrix, b: list, cert: InfeasibilityCertificate) -> bool:
    """True when λ = cert.row_combination satisfies λᵀA = 0 and λᵀb ≠ 0.

    Also rejects row indices outside A and a `first_row` that is not the
    smallest row involved.
    """
    f = A.field
    lam = cert.row_combination
    if not lam or cert.first_row != min(lam) or not all(0 <= i < A.nrows for i in lam):
        return False
    lam_A: dict = {}
    for (i, j), v in A.entries.items():
        c = lam.get(i)
        if c is not None:
            lam_A[j] = f.add(lam_A.get(j, f.zero), f.mul(c, v))
    lam_b = f.zero
    for i, c in lam.items():
        lam_b = f.add(lam_b, f.mul(c, b[i]))
    return all(v == f.zero for v in lam_A.values()) and lam_b != f.zero
