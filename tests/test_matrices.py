import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nangle.matrices import (
    KMatrix,
    RMatrix,
    from_blocks,
    image_kernel_lengths,
    inverse,
    is_invertible,
    krank,
    normal_form,
    solve_linear,
    solve_linear_explained,
    solve_matrix,
    solve_matrix_right,
    UnsolvableCertificate,
)
from nangle.rings import make_ring
from oracles import all_vectors, apply_matrix, brute_solutions, image_set, kernel_set, length_of_size

Z4 = make_ring("Z/4")
Z9 = make_ring("Z/9")
G2 = make_ring("GF(2)[x]/(x^2)")

# Both ring families, prime and extension residue fields, up to q = 512.
PROPERTY_RINGS = [make_ring(s) for s in ("Z/4", "Z/9", "Z/25", "GF(2)[x]/(x^2)", "GF(4)[x]/(x^2)", "GF(9)[x]/(x^2)", "GF(512)[x]/(x^2)")]
# A large Z/q^2, whose integer kernels sum products far above q^2 before reducing.
KERNEL_RINGS = PROPERTY_RINGS + [make_ring(f"Z/{(2**31 - 1) ** 2}")]
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)


@st.composite
def square_matrices(draw, min_size=0, max_size=8):
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    n = draw(st.integers(min_size, max_size))
    return RMatrix(ring, n, n, draw(st.lists(st.integers(0, ring.order - 1), min_size=n * n, max_size=n * n)))


def rand_matrix(ring, rows, cols, rng):
    return RMatrix(ring, rows, cols, [rng.randrange(ring.order) for _ in range(rows * cols)])


def test_normal_form_spec_examples():
    nf = normal_form(RMatrix.from_rows(Z4, [[3]]))
    assert (nf.u, nf.v) == (0, 1) and nf.D.to_lists() == [[1]]
    nf = normal_form(RMatrix.from_rows(Z4, [[2]]))
    assert (nf.u, nf.v) == (1, 0) and nf.D.to_lists() == [[2]]
    nf = normal_form(RMatrix.from_rows(Z4, [[2, 1], [0, 2]]))
    assert (nf.u, nf.v) == (0, 1)
    assert nf.D.to_lists() == [[1, 0], [0, 0]]


def _rand_invertible(ring, size, rng):
    while True:
        m = rand_matrix(ring, size, size, rng)
        if is_invertible(m):
            return m


def test_image_kernel_lengths_exhaustive_small():
    """length(Im) = u + 2v and length(Ker) = 2*cols - u - 2v, against literal
    element enumeration, for every matrix of shape up to 2 columns/rows over
    Z/4 and GF(2)[x]/(x^2) in the exhaustive shapes, plus sampled 2x2."""
    for ring in (Z4, G2):
        for rows, cols in [(1, 1), (1, 2), (2, 1)]:
            for entries in itertools.product(range(ring.order), repeat=rows * cols):
                m = RMatrix(ring, rows, cols, entries)
                im, ker = image_kernel_lengths(m)
                assert im == length_of_size(ring, len(image_set(m)))
                assert ker == length_of_size(ring, len(kernel_set(m)))
    rng = random.Random(3)
    for ring in (Z4, G2):
        for _ in range(200):
            m = rand_matrix(ring, 2, 2, rng)
            im, ker = image_kernel_lengths(m)
            assert im == length_of_size(ring, len(image_set(m)))
            assert ker == length_of_size(ring, len(kernel_set(m)))


def test_solve_linear_spec_examples():
    a = RMatrix.from_rows(Z4, [[2]])
    sol = solve_linear(a, RMatrix.from_rows(Z4, [[2]]))
    assert sol is not None
    assert (a @ sol.x0).to_lists() == [[2]]
    assert [g.to_lists() for g in sol.kernel_gens] == [[[2]]]
    assert solve_linear(a, RMatrix.from_rows(Z4, [[1]])) is None
    z = RMatrix.from_rows(Z4, [[0]])
    sol = solve_linear(z, RMatrix.from_rows(Z4, [[0]]))
    assert sol is not None and sol.x0.to_lists() == [[0]]
    assert [g.to_lists() for g in sol.kernel_gens] == [[[1]]]


def test_solve_linear_against_enumeration():
    """Presence, validity, and completeness of the solution set for all small
    seeded systems over Z/4 (<= 4 unknowns)."""
    rng = random.Random(4)
    for _ in range(120):
        rows = 1 + rng.randrange(3)
        cols = 1 + rng.randrange(4)
        a = rand_matrix(Z4, rows, cols, rng)
        b_vec = [rng.randrange(4) for _ in range(rows)]
        b = RMatrix(Z4, rows, 1, b_vec)
        expected = brute_solutions(a, b_vec)
        sol = solve_linear(a, b)
        if not expected:
            assert sol is None
            continue
        assert sol is not None
        x0 = tuple(sol.x0.entry(i, 0) for i in range(cols))
        assert x0 in expected
        for g in sol.kernel_gens:
            assert all(v == 0 for v in (a @ g).data)
        # the affine span x0 + <gens> covers every brute-force solution
        span = {(0,) * cols}
        frontier = [(0,) * cols]
        gens = [tuple(g.entry(i, 0) for i in range(cols)) for g in sol.kernel_gens]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple(Z4.add(c, h) for c, h in zip(cur, g))
                if nxt not in span:
                    span.add(nxt)
                    frontier.append(nxt)
        solutions = {tuple(Z4.add(x, s) for x, s in zip(x0, v)) for v in span}
        assert solutions == set(expected)


def test_unsolvable_certificate():
    a = RMatrix.from_rows(Z4, [[2]])
    res = solve_linear_explained(a, RMatrix.from_rows(Z4, [[1]]))
    assert isinstance(res, UnsolvableCertificate)
    assert res.constraint == "in_m" and res.value == 1
    # re-verify: row `row` of P @ b violates the constraint
    c = res.normal.P @ RMatrix.from_rows(Z4, [[1]])
    assert c.entry(res.row, 0) % Z4.q != 0


def test_residue_and_krank_examples():
    m = RMatrix.from_rows(Z4, [[2, 1], [0, 2]])
    assert m.residue().to_lists() == [[0, 1], [0, 0]]
    assert krank(m.residue()) == 1
    assert krank(RMatrix.identity(Z4, 3).residue()) == 3
    m9 = RMatrix.from_rows(Z9, [[3]])
    assert m9.residue().to_lists() == [[0]]
    assert krank(m9.residue()) == 0


def test_inverse_roundtrip():
    rng = random.Random(5)
    for ring in (Z4, Z9, G2):
        for size in (1, 2, 3):
            m = _rand_invertible(ring, size, rng)
            assert m @ inverse(m) == RMatrix.identity(ring, size)
            assert inverse(m) @ m == RMatrix.identity(ring, size)
    with pytest.raises(ValueError):
        inverse(RMatrix.from_rows(Z4, [[2]]))


def test_solve_matrix_both_sides():
    rng = random.Random(6)
    for _ in range(40):
        a = rand_matrix(Z4, 2, 2, rng)
        x = rand_matrix(Z4, 2, 2, rng)
        got = solve_matrix(a, a @ x)
        assert got is not None and a @ got == a @ x
        got_r = solve_matrix_right(a, x @ a)
        assert got_r is not None and got_r @ a == x @ a


def test_zero_sized_matrices():
    for rows, cols in [(0, 0), (0, 2), (2, 0)]:
        m = RMatrix.zeros(Z4, rows, cols)
        nf = normal_form(m)
        assert (nf.u, nf.v) == (0, 0)
        im, ker = image_kernel_lengths(m)
        assert im == 0 and ker == 2 * cols
    sol = solve_linear(RMatrix.zeros(Z4, 2, 0), RMatrix.zeros(Z4, 2, 1))
    assert sol is not None and sol.x0.rows == 0


def test_from_blocks_writes_blocks_and_rejects_misfits():
    rng = random.Random(9)
    a, b = rand_matrix(Z9, 2, 3, rng), rand_matrix(Z9, 1, 2, rng)
    m = from_blocks(Z9, 4, 5, [(0, 1, a), (3, 3, b)])
    assert (m.rows, m.cols) == (4, 5)
    assert m.submatrix(range(2), range(1, 4)) == a and m.submatrix([3], range(3, 5)) == b
    rest = [(i, j) for i in range(4) for j in range(5) if not (i < 2 and 1 <= j < 4) and not (i == 3 and j >= 3)]
    assert all(m.entry(i, j) == 0 for i, j in rest)
    assert from_blocks(Z9, 2, 3, []) == RMatrix.zeros(Z9, 2, 3)
    assert from_blocks(Z9, 2, 3, [(2, 3, RMatrix.zeros(Z9, 0, 0))]) == RMatrix.zeros(Z9, 2, 3)
    for r, c in ((3, 0), (0, 3), (2, 3), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="does not fit"):
            from_blocks(Z9, 4, 5, [(r, c, a)])
    for other in (rand_matrix(Z4, 1, 1, rng), a.residue()):
        with pytest.raises(ValueError, match="does not fit"):
            from_blocks(Z9, 4, 5, [(0, 0, other)])


def test_entries_must_be_int_codes():
    """A bool is an int to isinstance, but it is no element code: it would
    encode as JSON true/false, which decode_element refuses."""
    for bad in (True, False, 1.0, "1"):
        with pytest.raises(ValueError):
            RMatrix(Z4, 1, 1, [bad])
        with pytest.raises(ValueError):
            KMatrix(Z4.k, 1, 1, [bad])


def test_vector_mapping_matches_matrix_product():
    rng = random.Random(8)
    m = rand_matrix(Z4, 2, 2, rng)
    for v in all_vectors(Z4, 2):
        col = RMatrix(Z4, 2, 1, list(v))
        prod = m @ col
        assert tuple(prod.entry(i, 0) for i in range(2)) == apply_matrix(m, v)


@PROPERTY
@given(square_matrices())
def test_inverse_property(m):
    if not is_invertible(m):
        with pytest.raises(ValueError):
            inverse(m)
        return
    inv = inverse(m)
    eye = RMatrix.identity(m.ring, m.rows)
    assert m @ inv == eye and inv @ m == eye
    nf = normal_form(m)  # the elimination path, kept as the reference
    assert inv == nf.Q @ nf.P


@PROPERTY
@given(square_matrices(min_size=1), st.data())
def test_inverse_rejects_singular_residue_property(m, data):
    """Row i becomes c·(row j) + p·(anything), so the residue rows are dependent."""
    ring, n = m.ring, m.rows
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, ring.order - 1)) if i != j else 0
    ps = data.draw(st.lists(st.integers(0, ring.q - 1), min_size=n, max_size=n))
    rows = m.to_lists()
    rows[i] = [ring.add(ring.mul(c, a), ring.from_parts(0, b)) for a, b in zip(rows[j], ps)]
    with pytest.raises(ValueError):
        inverse(RMatrix.from_rows(ring, rows))


@st.composite
def matrices(draw, ring=None, rows=None, cols=None, max_size=8):
    """Rectangular matrices whose entries are all arbitrary, all in m, or
    mostly zero, so that both pivot kinds and zero rows of D occur.  The ring
    and either side are drawn unless given."""
    ring = draw(st.sampled_from(PROPERTY_RINGS)) if ring is None else ring
    rows = draw(st.integers(0, max_size)) if rows is None else rows
    cols = draw(st.integers(0, max_size)) if cols is None else cols
    any_entry = st.integers(0, ring.order - 1)
    in_m = st.integers(0, ring.q - 1).map(lambda b: ring.from_parts(0, b))
    entry = draw(st.sampled_from([any_entry, in_m, st.one_of(st.just(0), st.just(0), in_m, any_entry)]))
    return RMatrix(ring, rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))


def draw_matrix(data, ring, rows, cols):
    return RMatrix(ring, rows, cols, data.draw(st.lists(st.integers(0, ring.order - 1), min_size=rows * cols, max_size=rows * cols)))


def draw_invertible(data, ring, size):
    """L·U with L unit lower triangular and U upper triangular with unit diagonal."""
    low, up = draw_matrix(data, ring, size, size).to_lists(), draw_matrix(data, ring, size, size).to_lists()
    units = data.draw(st.lists(st.sampled_from(ring.unit_class_reps()), min_size=size, max_size=size))
    for i in range(size):
        low[i][i], up[i][i] = 1, units[i]
        for j in range(i + 1, size):
            low[i][j] = up[j][i] = 0
    return RMatrix(ring, size, size, [x for row in low for x in row]) @ RMatrix(ring, size, size, [x for row in up for x in row])


def assert_invertible(m):
    inv = inverse(m)  # sound either way: the two products are checked here
    eye = RMatrix.identity(m.ring, m.rows)
    assert m @ inv == eye and inv @ m == eye


@PROPERTY
@given(matrices(), st.data())
def test_normal_form_property(m, data):
    ring = m.ring
    nf = normal_form(m)
    assert nf.P @ m @ nf.Q == nf.D
    u, v = nf.u, nf.v
    want = [[ring.p if i == j < u else 1 if i == j < u + v else 0 for j in range(m.cols)] for i in range(m.rows)]
    assert nf.D.to_lists() == want
    assert_invertible(nf.P)
    assert_invertible(nf.Q)
    s, t = draw_invertible(data, ring, m.rows), draw_invertible(data, ring, m.cols)
    nf2 = normal_form(s @ m @ t)
    assert (nf2.u, nf2.v) == (u, v)


@PROPERTY
@given(matrices(), st.data())
def test_solve_property(m, data):
    ring = m.ring
    width = data.draw(st.integers(0, 3))
    b = m @ draw_matrix(data, ring, m.cols, width)
    got = solve_matrix(m, b)
    assert got is not None and m @ got == b
    nf = normal_form(m)
    for j in range(width):
        col = b.submatrix(range(m.rows), [j])
        sol = solve_linear(m, col)
        assert sol is not None and sol.x0 == got.submatrix(range(m.cols), [j])
        assert len(sol.kernel_gens) == m.cols - nf.v
        for g in sol.kernel_gens:
            assert (m @ g).is_zero()
    # an arbitrary right-hand side: solved exactly, or certified unsolvable
    rhs = draw_matrix(data, ring, m.rows, 1)
    res = solve_linear_explained(m, rhs)
    if isinstance(res, UnsolvableCertificate):
        assert solve_matrix(m, rhs) is None
        val = (res.normal.P @ rhs).entry(res.row, 0)
        assert res.value == val
        if res.constraint == "in_m":
            assert res.row < res.normal.u and val % ring.q != 0
        else:
            assert res.constraint == "zero" and res.row >= res.normal.u + res.normal.v and val != 0
    else:
        assert m @ res.x0 == rhs and solve_matrix(m, rhs) == res.x0
        for g in res.kernel_gens:
            assert (m @ g).is_zero()


def scalar_rank(field, rows):
    """Rank over k by row echelon form in the scalar field ops alone."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            c = field.mul(rows[r][col], inv)
            rows[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def scalar_product(ring, a, b):
    """a @ b entry by entry in the scalar ops."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for t in range(a.cols):
                acc = ring.add(acc, ring.mul(a.entry(i, t), b.entry(t, j)))
            out.append(acc)
    return out


@PROPERTY
@given(st.data())
def test_matmul_agrees_with_elementwise_definition(data):
    """Each list kernel, the matrix ops built on them and krank agree with
    the scalar add/mul definition, over R and over k."""
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    a = data.draw(matrices(ring))
    b = data.draw(matrices(ring, rows=a.cols))
    a2 = data.draw(matrices(ring, rows=a.rows, cols=a.cols))
    c = data.draw(st.sampled_from([0, 1, ring.neg(1), ring.p]) | st.integers(0, ring.order - 1))
    add, mul = ring.add, ring.mul
    assert (a @ b).data == tuple(scalar_product(ring, a, b))
    assert ring.axpy(a.data, c, a2.data) == [add(x, mul(c, y)) for x, y in zip(a.data, a2.data)]
    assert ring.scale(c, a.data) == [mul(c, x) for x in a.data]
    assert (a + a2).data == tuple(add(x, y) for x, y in zip(a.data, a2.data))
    assert (a - a2).data == tuple(ring.sub(x, y) for x, y in zip(a.data, a2.data))
    assert (-a).data == tuple(ring.neg(x) for x in a.data)
    assert a.scale(c).data == tuple(mul(c, x) for x in a.data)
    k, ck = ring.k, ring.residue(c)
    ka, kb, ka2 = a.residue(), b.residue(), a2.residue()
    assert (ka @ kb).data == tuple(scalar_product(k, ka, kb))
    assert k.axpy(ka.data, ck, ka2.data) == [k.add(x, k.mul(ck, y)) for x, y in zip(ka.data, ka2.data)]
    assert k.scale(ck, ka.data) == [k.mul(ck, x) for x in ka.data]
    for km in (ka, a.p_part()):
        assert krank(km) == scalar_rank(k, km.to_lists())
