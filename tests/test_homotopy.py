import random

import pytest
from hypothesis import given, settings, strategies as st

from nangle.homotopy import (
    Homotopy,
    _defects,
    _homotopy_system,
    _unpack,
    cone_iso_from_homotopy,
    contraction_of_cone_of_iso,
    find_homotopy,
    is_contractible,
)
from nangle.matrices import RMatrix, inverse, solve_matrix
from nangle.rings import make_ring
from nangle.sampling import random_homotopy_deformation, random_invertibles, random_matrix, random_member, random_morphism
from nangle.sequences import (
    SeqMorphism,
    TrivialSpec,
    apply_iso,
    compose,
    direct_sum,
    identity_morphism,
    is_exact,
    mapping_cone,
    standard_angle,
    trivial_sequence,
    zero_morphism,
)
from oracles import brute_homotopy_exists
from test_matrices import PROPERTY_RINGS

Z4 = make_ring("Z/4")


def const_morphism(x, c):
    return SeqMorphism(x, x, tuple(RMatrix(x.ring, 1, 1, [c]) for _ in range(x.n)))


def test_find_homotopy_spec_examples():
    x4 = standard_angle(Z4, 4, 1, 1)
    h = find_homotopy(const_morphism(x4, 1), const_morphism(x4, 3))
    assert h is not None
    # the frozen witness (1, 0, 1, 0) verifies as well
    Homotopy(
        phi=const_morphism(x4, 1),
        psi=const_morphism(x4, 3),
        thetas=tuple(RMatrix(Z4, 1, 1, [c]) for c in (1, 0, 1, 0)),
    )
    x3 = standard_angle(Z4, 3, 1, 1)
    assert find_homotopy(const_morphism(x3, 1), const_morphism(x3, 3)) is None
    phi = const_morphism(x3, 1)
    h0 = find_homotopy(phi, phi)
    assert h0 is not None  # theta = 0 works
    Homotopy(phi=phi, psi=phi, thetas=tuple(RMatrix.zeros(Z4, 1, 1) for _ in range(3)))


def test_homotopy_validation_rejects_bad_witness():
    x3 = standard_angle(Z4, 3, 1, 1)
    with pytest.raises(ValueError):
        Homotopy(
            phi=const_morphism(x3, 1),
            psi=const_morphism(x3, 3),
            thetas=tuple(RMatrix(Z4, 1, 1, [0]) for _ in range(3)),
        )


def test_find_homotopy_agrees_with_exhaustive_search():
    """Presence/absence matches brute-force enumeration for systems with at
    most 6 unknowns over Z/4."""
    rng = random.Random(21)
    checked = 0
    for n in (3, 4, 5, 6):
        x = standard_angle(Z4, n, 1, 1)
        for _ in range(6):
            phi = random_morphism(x, x, 1, rng)
            psi = random_morphism(x, x, 1, rng)
            got = find_homotopy(phi, psi)
            assert (got is not None) == brute_homotopy_exists(phi, psi)
            checked += 1
    # mixed-rank shapes with few unknowns: trivial ⊕ nothing against itself
    t = trivial_sequence(Z4, 3, TrivialSpec(1, 1))
    for _ in range(6):
        phi = random_morphism(t, t, 1, rng)
        psi = random_morphism(t, t, 1, rng)
        got = find_homotopy(phi, psi)
        assert (got is not None) == brute_homotopy_exists(phi, psi)
        checked += 1
    assert checked == 30


def test_homotopy_equivalence_relation():
    rng = random.Random(22)
    x = random_member(Z4, 4, 1, 2, rng)
    y = random_member(Z4, 4, 1, 2, rng)
    phi = random_morphism(x, y, 1, rng)
    h1 = random_homotopy_deformation(phi, rng)
    psi = h1.psi
    # reflexive: zero diagonals
    Homotopy(phi=phi, psi=phi, thetas=tuple(RMatrix.zeros(Z4, y.ranks[i], x.ranks[(i + 1) % 4]) for i in range(4)))
    # symmetric: negate
    Homotopy(phi=psi, psi=phi, thetas=tuple(-t for t in h1.thetas))
    # transitive: add
    h2 = random_homotopy_deformation(psi, rng)
    Homotopy(phi=phi, psi=h2.psi, thetas=tuple(a + b for a, b in zip(h1.thetas, h2.thetas)))


def test_is_contractible_examples():
    assert is_contractible(trivial_sequence(Z4, 3, TrivialSpec(1, 1))) is not None
    assert is_contractible(standard_angle(Z4, 3, 1, 1)) is None
    both = direct_sum(trivial_sequence(Z4, 3, TrivialSpec(1, 1)), trivial_sequence(Z4, 3, TrivialSpec(1, 3)))
    assert is_contractible(both) is not None


def test_contractible_implies_exact():
    rng = random.Random(23)
    # contractibles arise as cones of isomorphisms; each must be exact
    for n in (3, 4):
        x = random_member(Z4, n, 1, 2, rng)
        psis = random_invertibles(Z4, x.ranks, rng)
        y = apply_iso(x, psis)
        phi = SeqMorphism(x, y, tuple(psis))
        cone = mapping_cone(phi)
        contraction = contraction_of_cone_of_iso(phi)
        assert contraction.phi.source == cone
        assert is_exact(cone)


def test_cone_iso_from_homotopy_two_sided():
    rng = random.Random(24)
    for n in (3, 4):
        x = random_member(Z4, n, 1, 2, rng)
        y = random_member(Z4, n, 1, 2, rng)
        phi = random_morphism(x, y, 1, rng)
        h = random_homotopy_deformation(phi, rng)
        fwd, bwd = cone_iso_from_homotopy(h)
        n_ = x.n
        left = compose(bwd, fwd)
        right = compose(fwd, bwd)
        for i in range(n_):
            assert left.phis[i] == RMatrix.identity(Z4, left.phis[i].rows)
            assert right.phis[i] == RMatrix.identity(Z4, right.phis[i].rows)


def test_cone_iso_identity_case():
    x = standard_angle(Z4, 3, 1, 1)
    phi = const_morphism(x, 1)
    h = Homotopy(phi=phi, psi=phi, thetas=tuple(RMatrix.zeros(Z4, 1, 1) for _ in range(3)))
    fwd, bwd = cone_iso_from_homotopy(h)
    for f in fwd.phis + bwd.phis:
        assert f == RMatrix.identity(Z4, 2)


def test_contraction_of_cone_of_iso_examples():
    x = standard_angle(Z4, 3, 1, 1)
    ident = const_morphism(x, 1)
    h = contraction_of_cone_of_iso(ident)
    assert [t.to_lists() for t in h.thetas] == [[[0, 1], [0, 0]]] * 3
    iso3 = const_morphism(x, 3)
    h3 = contraction_of_cone_of_iso(iso3)
    assert [t.to_lists() for t in h3.thetas] == [[[0, 3], [0, 0]]] * 3
    with pytest.raises(ValueError):
        contraction_of_cone_of_iso(zero_morphism(x, x))


def _halves(first, second):
    """The coordinates of the two summands of a rank first + second object."""
    return range(first), range(first, first + second)


@pytest.mark.parametrize("spec, n", [("Z/9", 4), ("GF(4)[x]/(x^2)", 3)])
def test_cone_blocks_read_back(spec, n):
    """Read the blocks of mapping_cone [[-α, 0], [φ, β]], cone_iso_from_homotopy
    [[I, 0], [±Θ_i, I]] and contraction_of_cone_of_iso [[0, φ⁻¹], [0, 0]]
    back by submatrix, on members with trivial summands."""
    ring, rng = make_ring(spec), random.Random(26)
    u = ring.unit_class_reps()[-1]
    base = direct_sum(standard_angle(ring, n, u, 1), trivial_sequence(ring, n, TrivialSpec(2, 1)))
    x = apply_iso(base, random_invertibles(ring, base.ranks, rng))
    y = random_member(ring, n, u, 2, rng)
    h = random_homotopy_deformation(random_morphism(x, y, u, rng), rng)
    fwd, bwd = cone_iso_from_homotopy(h)
    psis = random_invertibles(ring, x.ranks, rng)
    thetas = contraction_of_cone_of_iso(SeqMorphism(x, apply_iso(x, psis), tuple(psis))).thetas
    for i in range(n):
        j, jj = (i + 1) % n, (i + 2) % n
        # cone object i is A_{i+1} ⊕ B_i, and cone object i + 1 is A_{i+2} ⊕ B_{i+1}
        a, b = _halves(x.ranks[j], y.ranks[i])
        a1, b1 = _halves(x.ranks[jj], y.ranks[j])
        cone_map = mapping_cone(h.phi).maps[i]
        assert cone_map.submatrix(a1, a) == -x.maps[j] and cone_map.submatrix(a1, b).is_zero()
        assert cone_map.submatrix(b1, a) == h.phi.phis[j] and cone_map.submatrix(b1, b) == y.maps[i]
        for f, theta in ((fwd.phis[i], h.thetas[i]), (bwd.phis[i], -h.thetas[i])):
            assert f.submatrix(a, a) == RMatrix.identity(ring, len(a)) and f.submatrix(a, b).is_zero()
            assert f.submatrix(b, a) == theta and f.submatrix(b, b) == RMatrix.identity(ring, len(b))
        # the cone of an isomorphism x -> x' has x' in place of y
        a, b = _halves(x.ranks[j], x.ranks[i])
        a1, b1 = _halves(x.ranks[jj], x.ranks[j])
        assert thetas[i].submatrix(a, b1) == inverse(psis[j])
        assert thetas[i].submatrix(a, a1).is_zero() and thetas[i].submatrix(b, range(thetas[i].cols)).is_zero()


def test_contraction_of_empty_sequence():
    from nangle.sequences import zero_sequence

    z = zero_sequence(Z4, 3)
    h = contraction_of_cone_of_iso(identity_morphism(z))
    assert all(t.rows == 0 and t.cols == 0 for t in h.thetas)


def test_composition_preserves_nullhomotopy():
    """Morphisms factoring through a nullhomotopic one stay nullhomotopic."""
    rng = random.Random(25)
    x = random_member(Z4, 4, 1, 2, rng)
    y = random_member(Z4, 4, 1, 2, rng)
    nullh = random_homotopy_deformation(zero_morphism(x, y), rng).psi  # ~ 0
    assert find_homotopy(nullh, zero_morphism(x, y)) is not None
    w = random_member(Z4, 4, 1, 2, rng)
    v = random_member(Z4, 4, 1, 2, rng)
    f = random_morphism(w, x, 1, rng)
    g = random_morphism(y, v, 1, rng)
    gf = compose(g, compose(nullh, f))
    assert find_homotopy(gf, zero_morphism(w, v)) is not None


def solve_open_chain(diffs, components):
    """Null-homotopy (h_1, ..., h_m) of the self-map (f_0, ..., f_m) of the
    open chain C_0 -> ... -> C_m with differentials ``diffs``, solved through
    the homotopy system builder, or None."""
    a, b, shapes = _homotopy_system(diffs, diffs, components, cyclic=False)
    sol = solve_matrix(a, b)
    return None if sol is None else _unpack(components[0].ring, sol.data, shapes)


def test_open_chain_solver_small_cases():
    ring = Z4
    p = RMatrix(ring, 1, 1, [ring.p])
    up = RMatrix(ring, 1, 1, [ring.mul(1, ring.p)])
    # n = 4 shape: two terms, one differential
    got = solve_open_chain([p], [up, up])
    assert got is not None and len(got) == 1
    assert all(d.is_zero() for d in _defects([p], [p], got, [up, up], cyclic=False))
    # n = 5 shape: three terms, two differentials (odd n, unsolvable)
    assert solve_open_chain([p, p], [up, up, up]) is None
    # single-term chain (the n = 3 shape): no unknowns and one equation, so
    # a nonzero self-map is unsolvable and the zero self-map trivially solved
    a, b, shapes = _homotopy_system([], [], [up], cyclic=False)
    assert (a.rows, a.cols, b.data, shapes) == (1, 0, (ring.p,), [])
    assert solve_open_chain([], [up]) is None
    assert solve_open_chain([], [RMatrix.zeros(ring, 1, 1)]) == ()


def boundary(alphas, betas, thetas, cyclic):
    """Θ_i·α_i + β_{i-1}·Θ_{i-1} written out from the definition."""
    k = len(thetas)
    out = []
    for i in range(k if cyclic else k + 1):
        terms = []
        if i < k:
            terms.append(thetas[i] @ alphas[i])
        if cyclic or i > 0:
            terms.append(betas[(i - 1) % k] @ thetas[(i - 1) % k])
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        out.append(acc)
    return out


def vec(ms):
    return RMatrix(ms[0].ring, sum(m.rows * m.cols for m in ms), 1, [v for m in ms for v in m.data])


def check_system(alphas, betas, rhs, cyclic, thetas):
    """The builder's system against the definition: its size, A·vec Θ for a
    known Θ, and every solution re-verified by the boundary evaluator."""
    a, b, shapes = _homotopy_system(alphas, betas, rhs, cyclic)
    assert a.cols == sum(t.rows * t.cols for t in thetas)
    assert a.rows == sum(d.rows * d.cols for d in rhs) and b == vec(rhs)
    assert shapes == [(t.rows, t.cols) for t in thetas]
    if a.cols and a.rows:
        assert a @ vec(thetas) == vec(boundary(alphas, betas, thetas, cyclic))
    sol = solve_matrix(a, b)
    if sol is not None:
        got = _unpack(rhs[0].ring, sol.data, shapes)
        assert all(d.is_zero() for d in _defects(alphas, betas, got, rhs, cyclic))
    return sol


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_homotopy_system_property(data):
    """The builder on random open chains C_0 -> ... -> C_m and on cyclic
    pairs (φ, φ - (Θ∘α + β∘Θ)) between random members: the unknowns number
    Σ rank(Y_i)·rank(X_{i+1}), the system maps vec Θ to the boundary of Θ, a
    boundary is solvable, and every solution passes the evaluator."""
    ring = data.draw(st.sampled_from(PROPERTY_RINGS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        x = random_member(ring, 4, 1, 2, rng)
        y = random_member(ring, 4, 1, 2, rng)
        h = random_homotopy_deformation(random_morphism(x, y, 1, rng), rng)
        assert sum(t.rows * t.cols for t in h.thetas) == sum(y.ranks[i] * x.ranks[(i + 1) % 4] for i in range(4))
        diffs = [f - g for f, g in zip(h.phi.phis, h.psi.phis)]
        assert check_system(x.maps, y.maps, diffs, True, h.thetas) is not None
        return
    m = data.draw(st.integers(0, 3))
    dims = [data.draw(st.integers(0, 3)) for _ in range(m + 1)]
    diffs = [random_matrix(ring, dims[i + 1], dims[i], rng) for i in range(m)]
    thetas = [random_matrix(ring, dims[i], dims[i + 1], rng) for i in range(m)]
    assert sum(t.rows * t.cols for t in thetas) == sum(dims[i] * dims[i + 1] for i in range(m))
    if data.draw(st.booleans()):
        rhs = boundary(diffs, diffs, thetas, cyclic=False) if m else [RMatrix.zeros(ring, dims[0], dims[0])]
        assert check_system(diffs, diffs, rhs, False, thetas) is not None
    else:
        check_system(diffs, diffs, [random_matrix(ring, d, d, rng) for d in dims], False, thetas)
