"""Dense exact matrices over R and over the residue field k.

Every matrix over R is equivalent to diag(p*I_u, I_v, 0) under invertible row
and column transforms; ``normal_form`` computes that shape together with the
transforms and always re-verifies P*M*Q = D by exact multiplication.  Linear
systems over R are solved through the normal form.  ``inverse`` lifts the
residue inverse and corrects it by one Newton step, exact because m² = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import ResidueField, Ring


class RMatrix:
    """Immutable dense matrix over a Ring; entries are canonical element codes."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: Ring, rows: int, cols: int, data):
        data = tuple(data)
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError(f"matrix data length {len(data)} != {rows}x{cols}")
        for x in data:
            if not isinstance(x, int) or not 0 <= x < ring.order:
                raise ValueError(f"entry {x!r} is not a canonical element of {ring.spec}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("RMatrix is immutable")

    @classmethod
    def from_rows(cls, ring: Ring, rows_data) -> "RMatrix":
        rows_data = [list(r) for r in rows_data]
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        if any(len(row) != c for row in rows_data):
            raise ValueError("ragged rows")
        return cls(ring, r, c, [x for row in rows_data for x in row])

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "RMatrix":
        return cls(ring, rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RMatrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(ring, n, n, data)

    @classmethod
    def scalar(cls, ring: Ring, n: int, c: int) -> "RMatrix":
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
            isinstance(other, RMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.ring.spec, self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"RMatrix({self.ring.spec}, {self.rows}x{self.cols}, {self.to_lists()})"

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        add, mul = ring.add, ring.mul
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.data, other.data
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            orow = i * m
            for t in range(k):
                x = arow[t]
                if x == 0:
                    continue
                brow = b[t * m : (t + 1) * m]
                for j in range(m):
                    y = brow[j]
                    if y:
                        out[orow + j] = add(out[orow + j], mul(x, y))
        return RMatrix(ring, n, m, out)

    def __add__(self, other: "RMatrix") -> "RMatrix":
        self._same_shape(other)
        add = self.ring.add
        return RMatrix(self.ring, self.rows, self.cols, [add(x, y) for x, y in zip(self.data, other.data)])

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        self._same_shape(other)
        ring = self.ring
        return RMatrix(ring, self.rows, self.cols, [ring.sub(x, y) for x, y in zip(self.data, other.data)])

    def __neg__(self) -> "RMatrix":
        neg = self.ring.neg
        return RMatrix(self.ring, self.rows, self.cols, [neg(x) for x in self.data])

    def _same_shape(self, other: "RMatrix") -> None:
        if self.ring != other.ring or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape or ring mismatch")

    def scale(self, c: int) -> "RMatrix":
        mul = self.ring.mul
        return RMatrix(self.ring, self.rows, self.cols, [mul(c, x) for x in self.data])

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


def residue(m: RMatrix) -> "KMatrix":
    return m.residue()


def lift(ring: Ring, km: "KMatrix") -> RMatrix:
    """Zero-p-part lift of a residue-field matrix."""
    if km.field != ring.k:
        raise ValueError("residue field mismatch")
    return RMatrix(ring, km.rows, km.cols, [ring.from_residue(a) for a in km.data])


def lift_p(ring: Ring, km: "KMatrix") -> RMatrix:
    """The matrix p*B for a residue matrix B (entries with zero residue part)."""
    if km.field != ring.k:
        raise ValueError("residue field mismatch")
    return RMatrix(ring, km.rows, km.cols, [ring.from_parts(0, b) for b in km.data])


def hstack(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.rows != b.rows or a.ring != b.ring:
        raise ValueError("hstack mismatch")
    data = []
    for i in range(a.rows):
        data.extend(a.row(i))
        data.extend(b.row(i))
    return RMatrix(a.ring, a.rows, a.cols + b.cols, data)


def vstack(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.cols != b.cols or a.ring != b.ring:
        raise ValueError("vstack mismatch")
    return RMatrix(a.ring, a.rows + b.rows, a.cols, a.data + b.data)


def block_matrix(blocks: list[list[RMatrix]]) -> RMatrix:
    rs = []
    for brow in blocks:
        acc = brow[0]
        for b in brow[1:]:
            acc = hstack(acc, b)
        rs.append(acc)
    acc = rs[0]
    for r in rs[1:]:
        acc = vstack(acc, r)
    return acc


def block_diag(ring: Ring, blocks: list[RMatrix]) -> RMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    data = [0] * (rows * cols)
    ro = co = 0
    for b in blocks:
        for i in range(b.rows):
            base = (ro + i) * cols + co
            brow = b.row(i)
            for j in range(b.cols):
                data[base + j] = brow[j]
        ro += b.rows
        co += b.cols
    return RMatrix(ring, rows, cols, data)


class KMatrix:
    """Immutable dense matrix over the residue field k."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: ResidueField, rows: int, cols: int, data):
        data = tuple(data)
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError("bad KMatrix data")
        for x in data:
            if not isinstance(x, int) or not 0 <= x < field.order:
                raise ValueError(f"entry {x!r} is not an element of {field}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("KMatrix is immutable")

    @classmethod
    def identity(cls, field: ResidueField, n: int) -> "KMatrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(field, n, n, data)

    def entry(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def to_lists(self) -> list[list[int]]:
        return [list(self.data[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KMatrix)
            and self.field == other.field
            and (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)
        )

    def __hash__(self) -> int:
        return hash((self.field.order, self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"KMatrix({self.field}, {self.rows}x{self.cols}, {self.to_lists()})"

    def __matmul__(self, other: "KMatrix") -> "KMatrix":
        if self.field != other.field or self.cols != other.rows:
            raise ValueError("KMatrix product mismatch")
        f = self.field
        add, mul = f.add, f.mul
        n, m, k = self.rows, other.cols, self.cols
        out = [0] * (n * m)
        for i in range(n):
            for t in range(k):
                x = self.data[i * k + t]
                if x == 0:
                    continue
                for j in range(m):
                    y = other.data[t * m + j]
                    if y:
                        out[i * m + j] = add(out[i * m + j], mul(x, y))
        return KMatrix(f, n, m, out)

    def scalar_value(self) -> int | None:
        """If this is c*I for some c, return c (0 allowed); else None."""
        if self.rows != self.cols:
            return None
        if self.rows == 0:
            return None
        c = self.entry(0, 0)
        for i in range(self.rows):
            for j in range(self.cols):
                want = c if i == j else 0
                if self.entry(i, j) != want:
                    return None
        return c


def krank(m: KMatrix) -> int:
    """Rank over k by Gaussian elimination."""
    f = m.field
    a = [list(m.data[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]
    rank = 0
    col = 0
    for col in range(m.cols):
        piv = None
        for r in range(rank, m.rows):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = f.inv(a[rank][col])
        a[rank] = [f.mul(inv, x) for x in a[rank]]
        for r in range(m.rows):
            if r != rank and a[r][col] != 0:
                c = a[r][col]
                a[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == m.rows:
            break
    return rank


def kinv(m: KMatrix) -> KMatrix:
    """Inverse over k (Gauss-Jordan); raises if singular."""
    if m.rows != m.cols:
        raise ValueError("not square")
    f = m.field
    n = m.rows
    a = [list(m.data[i * n : (i + 1) * n]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix over k")
        a[col], a[piv] = a[piv], a[col]
        inv = f.inv(a[col][col])
        a[col] = [f.mul(inv, x) for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                c = a[r][col]
                a[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(a[r], a[col])]
    return KMatrix(f, n, n, [a[i][n + j] for i in range(n) for j in range(n)])


def is_invertible(m: RMatrix) -> bool:
    """Invertible over R iff the residue matrix is invertible over k."""
    return m.rows == m.cols and krank(m.residue()) == m.rows


@dataclass(frozen=True)
class NormalForm:
    """P @ M @ Q == D with D = diag(p*I_u, I_v, 0), P and Q invertible."""

    D: RMatrix
    P: RMatrix
    Q: RMatrix
    u: int
    v: int


def normal_form(m: RMatrix) -> NormalForm:
    ring = m.ring
    rows, cols = m.rows, m.cols
    add, mul, neg, sub = ring.add, ring.mul, ring.neg, ring.sub
    q = ring.q
    a = [list(m.row(i)) for i in range(rows)]
    p_mat = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    q_mat = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_scale(i, c):
        a[i] = [mul(c, x) for x in a[i]]
        p_mat[i] = [mul(c, x) for x in p_mat[i]]

    def row_add(dst, src, c):
        # row_dst += c * row_src
        a[dst] = [add(x, mul(c, y)) for x, y in zip(a[dst], a[src])]
        p_mat[dst] = [add(x, mul(c, y)) for x, y in zip(p_mat[dst], p_mat[src])]

    def col_add(dst, src, c):
        for r in range(rows):
            a[r][dst] = add(a[r][dst], mul(c, a[r][src]))
        for r in range(cols):
            q_mat[r][dst] = add(q_mat[r][dst], mul(c, q_mat[r][src]))

    used_rows: set[int] = set()
    used_cols: set[int] = set()
    unit_pivots: list[tuple[int, int]] = []
    p_pivots: list[tuple[int, int]] = []

    # phase 1: unit pivots, smallest (row, col) first
    while True:
        pivot = None
        for i in range(rows):
            if i in used_rows:
                continue
            for j in range(cols):
                if j in used_cols:
                    continue
                if a[i][j] % q != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        row_scale(i, ring.inv(a[i][j]))
        for jj in range(cols):
            if jj != j and a[i][jj] != 0:
                col_add(jj, j, neg(a[i][jj]))
        for ii in range(rows):
            if ii != i and a[ii][j] != 0:
                row_add(ii, i, neg(a[ii][j]))
        used_rows.add(i)
        used_cols.add(j)
        unit_pivots.append((i, j))

    # phase 2: all remaining entries lie in m; pivot on u*p entries.
    # p*m = 0 makes the clearing exact even though p is a zero divisor.
    while True:
        pivot = None
        for i in range(rows):
            if i in used_rows:
                continue
            for j in range(cols):
                if j in used_cols:
                    continue
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        row_scale(i, ring.inv(ring.from_residue(ring.p_part(a[i][j]))))
        for jj in range(cols):
            if jj != j and a[i][jj] != 0:
                col_add(jj, j, neg(ring.from_residue(ring.p_part(a[i][jj]))))
        for ii in range(rows):
            if ii != i and a[ii][j] != 0:
                row_add(ii, i, neg(ring.from_residue(ring.p_part(a[ii][j]))))
        used_rows.add(i)
        used_cols.add(j)
        p_pivots.append((i, j))

    # phase 3: permute p-block first, then the identity block (paper's order)
    row_order = [i for i, _ in p_pivots] + [i for i, _ in unit_pivots]
    row_order += [i for i in range(rows) if i not in used_rows]
    col_order = [j for _, j in p_pivots] + [j for _, j in unit_pivots]
    col_order += [j for j in range(cols) if j not in used_cols]

    a = [a[i] for i in row_order]
    p_mat = [p_mat[i] for i in row_order]
    a = [[row[j] for j in col_order] for row in a]
    q_mat = [[row[j] for j in col_order] for row in q_mat]

    u, v = len(p_pivots), len(unit_pivots)
    d = RMatrix.from_rows(ring, a) if rows else RMatrix(ring, 0, cols, [])
    pm = RMatrix.from_rows(ring, p_mat) if rows else RMatrix(ring, 0, 0, [])
    qm = RMatrix.from_rows(ring, q_mat) if cols else RMatrix(ring, 0, 0, [])

    nf = NormalForm(D=d, P=pm, Q=qm, u=u, v=v)
    _check_normal_form(m, nf)
    return nf


def _check_normal_form(m: RMatrix, nf: NormalForm) -> None:
    ring = m.ring
    if nf.P @ m @ nf.Q != nf.D:
        raise AssertionError("normal form identity P@M@Q == D failed")
    if not (is_invertible(nf.P) and is_invertible(nf.Q)):
        raise AssertionError("normal form transform not invertible")
    u, v = nf.u, nf.v
    for i in range(m.rows):
        for j in range(m.cols):
            x = nf.D.entry(i, j)
            if i == j and i < u:
                want = ring.p
            elif i == j and i < u + v:
                want = 1
            else:
                want = 0
            if x != want:
                raise AssertionError("normal form D has wrong shape")


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
class LinearSolution:
    x0: RMatrix
    kernel_gens: tuple[RMatrix, ...]


@dataclass(frozen=True)
class UnsolvableCertificate:
    """Proof that A x = b has no solution: row `row` of P@b must lie in the
    stated subset (m for a p-row of D, {0} for a zero row) but does not."""

    row: int
    value: int
    constraint: str  # "in_m" or "zero"
    normal: NormalForm


def solve_linear(a: RMatrix, b: RMatrix) -> LinearSolution | None:
    """Solve A x = b exactly; returns a particular solution and kernel
    generators, or None when unsolvable."""
    res = _solve(a, b, normal_form(a))
    return res if isinstance(res, LinearSolution) else None


def solve_linear_explained(a: RMatrix, b: RMatrix) -> LinearSolution | UnsolvableCertificate:
    return _solve(a, b, normal_form(a))


def _solve(a: RMatrix, b: RMatrix, nf: NormalForm):
    ring = a.ring
    if b.cols != 1 or b.rows != a.rows:
        raise ValueError("right-hand side must be a column of matching height")
    c = nf.P @ b
    u, v = nf.u, nf.v
    y = [0] * a.cols
    for i in range(a.rows):
        ci = c.entry(i, 0)
        if i < u:
            if ci % ring.q != 0:
                return UnsolvableCertificate(row=i, value=ci, constraint="in_m", normal=nf)
            y[i] = ring.from_residue(ring.p_part(ci))
        elif i < u + v:
            y[i] = ci
        else:
            if ci != 0:
                return UnsolvableCertificate(row=i, value=ci, constraint="zero", normal=nf)
    x0 = nf.Q @ RMatrix(ring, a.cols, 1, y)
    gens = []
    for i in range(u):
        col = [0] * a.cols
        col[i] = ring.p
        gens.append(nf.Q @ RMatrix(ring, a.cols, 1, col))
    for j in range(u + v, a.cols):
        col = [0] * a.cols
        col[j] = 1
        gens.append(nf.Q @ RMatrix(ring, a.cols, 1, col))
    return LinearSolution(x0=x0, kernel_gens=tuple(gens))


def solve_matrix(a: RMatrix, b: RMatrix) -> RMatrix | None:
    """Solve A X = B for a matrix X (columns solved against one normal form)."""
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    nf = normal_form(a)
    cols = []
    for j in range(b.cols):
        col = RMatrix(a.ring, b.rows, 1, [b.entry(i, j) for i in range(b.rows)])
        sol = _solve(a, col, nf)
        if not isinstance(sol, LinearSolution):
            return None
        cols.append(sol.x0)
    out = RMatrix.zeros(a.ring, a.cols, b.cols)
    data = list(out.data)
    for j, col in enumerate(cols):
        for i in range(a.cols):
            data[i * b.cols + j] = col.entry(i, 0)
    return RMatrix(a.ring, a.cols, b.cols, data)


def solve_matrix_right(a: RMatrix, b: RMatrix) -> RMatrix | None:
    """Solve X A = B (right division) via transposes."""
    xt = solve_matrix(a.transpose(), b.transpose())
    return None if xt is None else xt.transpose()


def image_kernel_lengths(m: RMatrix) -> tuple[int, int]:
    """(length of Im, length of Ker) as R-modules, from the normal form:
    length(Im) = u + 2v, length(Ker) = 2*cols - u - 2v."""
    nf = normal_form(m)
    im = nf.u + 2 * nf.v
    return im, 2 * m.cols - im
