import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nangle.matrices import (
    RMatrix,
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
PROPERTY_RINGS = [make_ring(s) for s in ("Z/4", "Z/9", "Z/25", "GF(4)[x]/(x^2)", "GF(9)[x]/(x^2)", "GF(512)[x]/(x^2)")]
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


def test_normal_form_transform_identity_random():
    rng = random.Random(1)
    for ring in (Z4, Z9, G2):
        for _ in range(60):
            rows, cols = rng.randrange(4), rng.randrange(4)
            m = rand_matrix(ring, rows, cols, rng)
            nf = normal_form(m)  # verification of P@M@Q == D is built in
            assert nf.P @ m @ nf.Q == nf.D
            assert is_invertible(nf.P) and is_invertible(nf.Q)


def test_normal_form_invariants_under_equivalence():
    """(u, v) are isomorphism invariants: unchanged under S @ M @ T for
    random invertible S, T."""
    rng = random.Random(2)
    for ring in (Z4, Z9, G2):
        for _ in range(40):
            rows, cols = 1 + rng.randrange(3), 1 + rng.randrange(3)
            m = rand_matrix(ring, rows, cols, rng)
            nf = normal_form(m)
            s = _rand_invertible(ring, rows, rng)
            t = _rand_invertible(ring, cols, rng)
            nf2 = normal_form(s @ m @ t)
            assert (nf.u, nf.v) == (nf2.u, nf2.v)


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


def test_matmul_agrees_with_elementwise_definition():
    rng = random.Random(7)
    for ring in (Z9, G2, make_ring("GF(4)[x]/(x^2)")):
        a = rand_matrix(ring, 3, 2, rng)
        b = rand_matrix(ring, 2, 4, rng)
        prod = a @ b
        for i in range(3):
            for j in range(4):
                acc = 0
                for t in range(2):
                    acc = ring.add(acc, ring.mul(a.entry(i, t), b.entry(t, j)))
                assert prod.entry(i, j) == acc


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
