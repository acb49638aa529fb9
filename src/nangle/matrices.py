"""Dense exact matrices over R and over the residue field k.

Every matrix over R is equivalent to diag(p*I_u, I_v, 0) under invertible row
and column transforms; ``normal_form`` computes that shape together with the
transforms and always re-verifies that P*M*Q is that diagonal by exact
multiplication.  Linear systems over R are solved through the normal form: a
solver returns the solution or the certificate that none exists.  ``inverse``
lifts the residue inverse and corrects it by one Newton step, exact because
m² = 0.

The hot loops run on the list kernels of the coefficient ring or field
(``axpy``, ``scale``, ``matmul``; see ``nangle.rings``), which reduce once per
output entry over Z/q² and GF(p).  Column operations are made row kernels:
Q is eliminated transposed, and the column clearing of one pivot is one axpy
per row that meets the pivot column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import ResidueField, Ring


class _Matrix:
    """Immutable dense matrix; entries are canonical element codes of ``ring``,
    which is R for an ``RMatrix`` and the residue field k for a ``KMatrix``.

    Each subclass binds ``__init__`` and ``__matmul__`` in its own body, so the
    two classes can be wrapped one at a time.
    """

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: Ring | ResidueField, rows: int, cols: int, data):
        data = tuple(data)
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError(f"matrix data length {len(data)} != {rows}x{cols}")
        order = ring.order
        for x in data:
            if type(x) is not int or not 0 <= x < order:
                raise ValueError(f"entry {x!r} is not a canonical element of {ring}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_rows(cls, ring, rows_data):
        rows_data = [list(r) for r in rows_data]
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        if any(len(row) != c for row in rows_data):
            raise ValueError("ragged rows")
        return cls(ring, r, c, [x for row in rows_data for x in row])

    @classmethod
    def zeros(cls, ring, rows: int, cols: int):
        return cls(ring, rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, ring, n: int):
        return cls.scalar(ring, n, 1)

    @classmethod
    def scalar(cls, ring, n: int, c: int):
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = c
        return cls(ring, n, n, data)

    def entry(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.ring}, {self.rows}x{self.cols}, {self.to_lists()})"

    def __matmul__(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        n, m = self.rows, other.cols
        return type(self)(ring, n, m, ring.matmul(self.data, other.data, n, self.cols, m))

    def __add__(self, other):
        self._same_shape(other)
        return type(self)(self.ring, self.rows, self.cols, self.ring.axpy(self.data, 1, other.data))

    def __sub__(self, other):
        self._same_shape(other)
        ring = self.ring
        return type(self)(ring, self.rows, self.cols, ring.axpy(self.data, ring.neg(1), other.data))

    def __neg__(self):
        return self.scale(self.ring.neg(1))

    def _same_shape(self, other) -> None:
        if self.ring != other.ring or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape or ring mismatch")

    def scale(self, c: int):
        return type(self)(self.ring, self.rows, self.cols, self.ring.scale(c, self.data))


class RMatrix(_Matrix):
    """Immutable dense matrix over a Ring; entries are canonical element codes."""

    __slots__ = ()
    __init__ = _Matrix.__init__
    __matmul__ = _Matrix.__matmul__

    def transpose(self) -> "RMatrix":
        r, c, d = self.rows, self.cols, self.data
        return RMatrix(self.ring, c, r, [d[i * c + j] for j in range(c) for i in range(r)])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def is_minimal(self) -> bool:
        """True iff every entry lies in m = (p)."""
        q = self.ring.q
        return all(x % q == 0 for x in self.data)

    def residue(self) -> "KMatrix":
        q = self.ring.q
        return KMatrix(self.ring.k, self.rows, self.cols, [x % q for x in self.data])

    def p_part(self) -> "KMatrix":
        q = self.ring.q
        return KMatrix(self.ring.k, self.rows, self.cols, [x // q for x in self.data])

    def submatrix(self, row_idx, col_idx) -> "RMatrix":
        d = self.data
        c = self.cols
        return RMatrix(self.ring, len(row_idx), len(col_idx), [d[i * c + j] for i in row_idx for j in col_idx])


def lift(ring: Ring, km: "KMatrix") -> RMatrix:
    """Zero-p-part lift of a residue-field matrix."""
    if km.ring != ring.k:
        raise ValueError("residue field mismatch")
    return RMatrix(ring, km.rows, km.cols, [ring.from_residue(a) for a in km.data])


def lift_p(ring: Ring, km: "KMatrix") -> RMatrix:
    """The matrix p*B for a residue matrix B (entries with zero residue part)."""
    if km.ring != ring.k:
        raise ValueError("residue field mismatch")
    return RMatrix(ring, km.rows, km.cols, [ring.from_parts(0, b) for b in km.data])


def from_blocks(ring: Ring, rows: int, cols: int, blocks) -> RMatrix:
    """The rows x cols matrix over ``ring`` that is zero except for each
    ``(r, c, block)`` in ``blocks``, written with its top-left entry at (r, c)."""
    data = [0] * (rows * cols)
    for r, c, b in blocks:
        if b.ring != ring or r < 0 or c < 0 or r + b.rows > rows or c + b.cols > cols:
            raise ValueError(f"{b.rows}x{b.cols} block over {b.ring} at ({r}, {c}) does not fit {rows}x{cols} over {ring}")
        w = b.cols
        for i in range(b.rows):
            start = (r + i) * cols + c
            data[start : start + w] = b.data[i * w : (i + 1) * w]
    return RMatrix(ring, rows, cols, data)


class KMatrix(_Matrix):
    """Immutable dense matrix over the residue field k."""

    __slots__ = ()
    __init__ = _Matrix.__init__
    __matmul__ = _Matrix.__matmul__

    def scalar_value(self) -> int | None:
        """If this is c*I for some c, return c (0 allowed); else None."""
        if self.rows != self.cols or self.rows == 0:
            return None
        c = self.data[0]
        return c if self == KMatrix.scalar(self.ring, self.rows, c) else None


def _gauss_jordan(field: ResidueField, rows: list[list[int]], ncols: int, above: bool = True) -> int:
    """Reduce ``rows`` in place over k, pivoting only in the first ``ncols``
    columns; return the rank of that left part.  With ``above`` false each
    pivot clears only the rows below it, which is all a rank needs."""
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank] = field.scale(field.inv(rows[rank][col]), rows[rank])
        for r in range(0 if above else rank + 1, len(rows)):
            c = rows[r][col]
            if r != rank and c != 0:
                rows[r] = field.axpy(rows[r], field.neg(c), pivot_row)
        rank += 1
        if rank == len(rows):
            break
    return rank


def krank(m: KMatrix) -> int:
    """Rank over k by Gaussian elimination."""
    return _gauss_jordan(m.ring, [list(m.row(i)) for i in range(m.rows)], m.cols, above=False)


def kinv(m: KMatrix) -> KMatrix:
    """Inverse over k by Gauss-Jordan on [M | I]; raises if singular."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    rows = [list(m.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    if _gauss_jordan(m.ring, rows, n) != n:
        raise ValueError("singular matrix over k")
    return KMatrix(m.ring, n, n, [x for row in rows for x in row[n:]])


def is_invertible(m: RMatrix) -> bool:
    """Invertible over R iff the residue matrix is invertible over k."""
    return m.rows == m.cols and krank(m.residue()) == m.rows


@dataclass(frozen=True)
class NormalForm:
    """P @ M @ Q == diag(p*I_u, I_v, 0), P and Q invertible."""

    P: RMatrix
    Q: RMatrix
    u: int
    v: int


def normal_form(m: RMatrix) -> NormalForm:
    ring = m.ring
    rows, cols = m.rows, m.cols
    axpy, scale, neg = ring.axpy, ring.scale, ring.neg
    q = ring.q
    a = [list(m.row(i)) for i in range(rows)]
    p_mat = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    # Q is kept transposed, so that its column ops are row kernels too
    q_cols = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    used_rows: set[int] = set()
    used_cols: set[int] = set()
    unit_pivots: list[tuple[int, int]] = []
    p_pivots: list[tuple[int, int]] = []

    def find_pivot(units):
        for i in range(rows):
            if i not in used_rows:
                row = a[i]
                for j in range(cols):
                    if j not in used_cols and (row[j] % q if units else row[j]):
                        return i, j
        return None

    def over_p(x):
        return ring.from_residue(ring.p_part(x))

    # Unit pivots first, smallest (row, col) first.  Once none is left every
    # remaining entry lies in m, so the second phase takes u*p pivots and
    # divides entries by the pivot's shape p instead of 1 (int(x) == x).
    # p*m = 0 makes that clearing exact even though p is a zero divisor.
    for units, pivots, shape in ((True, unit_pivots, int), (False, p_pivots, over_p)):
        while (pivot := find_pivot(units)) is not None:
            i, j = pivot
            inv = ring.inv(shape(a[i][j]))
            a[i] = scale(inv, a[i])
            p_mat[i] = scale(inv, p_mat[i])
            # clear row i: column jj += cs[jj] * column j for every jj at once,
            # exact as column j is their common source and none of them changes it
            cs = [neg(shape(x)) if x and jj != j else 0 for jj, x in enumerate(a[i])]
            if any(cs):
                for r in range(rows):
                    if a[r][j]:
                        a[r] = axpy(a[r], a[r][j], cs)
                for jj, c in enumerate(cs):
                    if c:
                        q_cols[jj] = axpy(q_cols[jj], c, q_cols[j])
            # clear column j: row ii += c * row i
            for ii in range(rows):
                if ii != i and a[ii][j] != 0:
                    c = neg(shape(a[ii][j]))
                    a[ii] = axpy(a[ii], c, a[i])
                    p_mat[ii] = axpy(p_mat[ii], c, p_mat[i])
            used_rows.add(i)
            used_cols.add(j)
            pivots.append((i, j))

    # permute the p-block first, then the identity block (paper's order)
    row_order = [i for i, _ in p_pivots] + [i for i, _ in unit_pivots]
    row_order += [i for i in range(rows) if i not in used_rows]
    col_order = [j for _, j in p_pivots] + [j for _, j in unit_pivots]
    col_order += [j for j in range(cols) if j not in used_cols]

    pm = RMatrix(ring, rows, rows, [x for i in row_order for x in p_mat[i]])
    qm = RMatrix(ring, cols, cols, [q_cols[j][r] for r in range(cols) for j in col_order])

    nf = NormalForm(P=pm, Q=qm, u=len(p_pivots), v=len(unit_pivots))
    _check_normal_form(m, nf)
    return nf


def _check_normal_form(m: RMatrix, nf: NormalForm) -> None:
    rows, cols, u, v = m.rows, m.cols, nf.u, nf.v
    if min(u, v) < 0 or u + v > min(rows, cols):
        raise AssertionError(f"normal form block sizes u={u}, v={v} do not fit {rows}x{cols}")
    want = [0] * (rows * cols)
    for i in range(u + v):
        want[i * cols + i] = m.ring.p if i < u else 1
    if (nf.P @ m @ nf.Q).data != tuple(want):
        raise AssertionError("normal form identity P@M@Q == diag(p*I_u, I_v, 0) failed")
    if not (is_invertible(nf.P) and is_invertible(nf.Q)):
        raise AssertionError("normal form transform not invertible")


def inverse(m: RMatrix) -> RMatrix:
    """Exact inverse of an invertible matrix over R by one Newton step.

    B0, the zero-p-part lift of the residue inverse, leaves E = I - M·B0 in m,
    so E² = 0 and M·B0·(I + E) = (I - E)(I + E) = I exactly.
    """
    if m.rows != m.cols:
        raise ValueError("not square")
    ring = m.ring
    try:
        b0 = lift(ring, kinv(m.residue()))
    except ValueError:
        raise ValueError("matrix is not invertible over R") from None
    eye = RMatrix.identity(ring, m.rows)
    out = b0 + b0 @ (eye - m @ b0)
    if m @ out != eye:
        raise AssertionError("Newton inverse M @ M^-1 == I failed")
    return out


@dataclass(frozen=True)
class UnsolvableCertificate:
    """Proof that A x = b has no solution: row `row` of P@b must lie in the
    stated subset (m for a p-row of the normal form, {0} for a zero row) but
    does not."""

    row: int
    value: int
    constraint: str  # "in_m" or "zero"
    normal: NormalForm


def solve_linear(a: RMatrix, b: RMatrix) -> RMatrix | None:
    """Solve A x = b exactly for a single column x; None when unsolvable."""
    if b.cols != 1:
        raise ValueError("right-hand side must be a single column")
    x = _solve(a, b, normal_form(a))
    return x if isinstance(x, RMatrix) else None


def solve_linear_explained(a: RMatrix, b: RMatrix) -> RMatrix | UnsolvableCertificate:
    """Solve A x = b exactly for a single column x, or certify that no x exists."""
    if b.cols != 1:
        raise ValueError("right-hand side must be a single column")
    return _solve(a, b, normal_form(a))


def solve_matrix(a: RMatrix, b: RMatrix) -> RMatrix | None:
    """Solve A X = B for a matrix X (all columns against one normal form)."""
    x = _solve(a, b, normal_form(a))
    return x if isinstance(x, RMatrix) else None


def _solve(a: RMatrix, b: RMatrix, nf: NormalForm) -> RMatrix | UnsolvableCertificate:
    """X = Q·Y with diag(p*I_u, I_v, 0)·Y = P·B, or the certificate of the
    first row of P·B, column by column, that the diagonal cannot reach."""
    if b.rows != a.rows:
        raise ValueError("row mismatch")
    ring = a.ring
    c = nf.P @ b
    u, v, width = nf.u, nf.v, b.cols
    y = [0] * (a.cols * width)
    for j in range(width):
        for i in range(a.rows):
            ci = c.data[i * width + j]
            if i < u:
                if ci % ring.q != 0:
                    return UnsolvableCertificate(row=i, value=ci, constraint="in_m", normal=nf)
                y[i * width + j] = ring.from_residue(ring.p_part(ci))
            elif i < u + v:
                y[i * width + j] = ci
            elif ci != 0:
                return UnsolvableCertificate(row=i, value=ci, constraint="zero", normal=nf)
    return nf.Q @ RMatrix(ring, a.cols, width, y)


def solve_matrix_right(a: RMatrix, b: RMatrix) -> RMatrix | None:
    """Solve X A = B (right division) via transposes."""
    xt = solve_matrix(a.transpose(), b.transpose())
    return None if xt is None else xt.transpose()
