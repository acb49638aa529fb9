"""Homotopies of sequence morphisms, decided by exact linear algebra.

A homotopy from φ to ψ consists of diagonals Θ_i : A_{i+1} -> B_i (indices
mod n, Θ_n out of ΣA_1) with

    φ_i - ψ_i = Θ_i ∘ α_i + β_{i-1} ∘ Θ_{i-1}

for every i, the i = 1 equation using β_n ∘ Θ_n.

Between members of the N_u the equations are solved in split coordinates,
where every member is (contractible) ⊕ minimal core.  Moved along both
splittings, the system falls into one independent block per pair (target
summand, source summand).  A block that touches a trivial summand is solved
in closed form, as a trivial summand is contractible.  On the two minimal
cores, α_i = p·A_i and β_i = p·B_i with A_i, B_i invertible over k, so the
difference must lie in m and only the residues θ_i of the diagonals matter:
one substitution around the cycle over k leaves (1 - c)·X = C for the last
θ, with c = (-1)^n·v·u⁻¹ from the residue products u and v of the cores.

Any other pair goes to one global linear system over R, so absence of a
solution is a proof of non-homotopy.  ``_homotopy_system`` builds that
system, and ``_defects`` checks a solution of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .angulation import MembershipCertificate, _trivial_coords, classify
from .matrices import KMatrix, RMatrix, from_blocks, inverse, kinv, lift, solve_matrix
from .sequences import NSequence, SeqMorphism, identity_morphism, mapping_cone, zero_morphism


@dataclass(frozen=True)
class Homotopy:
    """A verified homotopy between two parallel morphisms."""

    phi: SeqMorphism
    psi: SeqMorphism
    thetas: tuple[RMatrix, ...]

    def __post_init__(self):
        phi, psi = self.phi, self.psi
        if phi.source != psi.source or phi.target != psi.target:
            raise ValueError("homotopy needs parallel morphisms")
        x, y = phi.source, phi.target
        n = x.n
        if len(self.thetas) != n:
            raise ValueError("need n diagonals")
        for i, th in enumerate(self.thetas):
            if th.cols != x.ranks[(i + 1) % n] or th.rows != y.ranks[i]:
                raise ValueError(f"diagonal {i} has wrong shape")
        diffs = [f - g for f, g in zip(phi.phis, psi.phis)]
        for i, defect in enumerate(_defects(x.maps, y.maps, self.thetas, diffs)):
            if not defect.is_zero():
                raise ValueError(f"homotopy identity fails at position {i + 1}")


def _homotopy_system(alphas, betas, rhs) -> tuple[RMatrix, RMatrix, list[tuple[int, int]]]:
    """The linear system A·vec Θ = vec D of D_i = Θ_i·α_i + β_{i-1}·Θ_{i-1}.

    There is one Θ_i and one equation per α_i, and equation 0 wraps to the
    last Θ.  Unknowns Θ_0, Θ_1, ... and equations D_0, D_1, ... are each
    row-major, so vec(Θ_i·α_i) = (I⊗α_iᵀ)·vec Θ_i and
    vec(β_{i-1}·Θ_{i-1}) = (β_{i-1}⊗I)·vec Θ_{i-1}.  A is the sum of the two
    block matrices that place these blocks in the rows of equation i, one
    kind in the columns of Θ_i and the other in those of Θ_{i-1}; with one
    equation both fall in the same place.  Returns (A, b, shapes of the Θ_i).
    """
    ring = rhs[0].ring
    shapes = [(d.rows, alpha.rows) for d, alpha in zip(rhs, alphas)]
    eqs = list(accumulate((d.rows * d.cols for d in rhs), initial=0))  # the first row of each equation
    ths = list(accumulate((r * c for r, c in shapes), initial=0))  # the first column of each Θ
    rows, cols = eqs.pop(), ths.pop()  # the totals; ths[i - 1] at i = 0 is then the last Θ
    own = [(eqs[i], ths[i], _kron(RMatrix.identity(ring, d.rows), a.transpose())) for i, (d, a) in enumerate(zip(rhs, alphas))]
    prev = [(eqs[i], ths[i - 1], _kron(betas[i - 1], RMatrix.identity(ring, d.cols))) for i, d in enumerate(rhs)]
    b = RMatrix(ring, rows, 1, [v for d in rhs for v in d.data])
    return from_blocks(ring, rows, cols, own) + from_blocks(ring, rows, cols, prev), b, shapes


def _kron(a: RMatrix, b: RMatrix) -> RMatrix:
    """The Kronecker product a⊗b: block (i, j) is a[i, j]·b."""
    blocks = [(i // a.cols * b.rows, i % a.cols * b.cols, b.scale(x)) for i, x in enumerate(a.data) if x]
    return from_blocks(a.ring, a.rows * b.rows, a.cols * b.cols, blocks)


def _unpack(ring, flat, shapes) -> tuple[RMatrix, ...]:
    out = []
    start = 0
    for r, c in shapes:
        out.append(RMatrix(ring, r, c, flat[start : start + r * c]))
        start += r * c
    return tuple(out)


def _defects(alphas, betas, thetas, rhs) -> list[RMatrix]:
    """D_i - Θ_i·α_i - β_{i-1}·Θ_{i-1} for every equation of the system of
    ``_homotopy_system``; all are zero iff the Θ solve it."""
    return [d - thetas[i] @ alphas[i] - betas[i - 1] @ thetas[i - 1] for i, d in enumerate(rhs)]


def find_homotopy(phi: SeqMorphism, psi: SeqMorphism) -> Homotopy | None:
    """A homotopy from φ to ψ, or None if there is none.

    Between members of the N_u (contractible or in some N_u at both ends)
    the system is solved block by block in split coordinates; any other
    pair is solved as one dense linear system over R.
    """
    if phi.source != psi.source or phi.target != psi.target:
        raise ValueError("morphisms must be parallel")
    x, y = phi.source, phi.target
    diffs = [f - g for f, g in zip(phi.phis, psi.phis)]
    cx = classify(x)
    cy = cx if y == x else classify(y)
    if {cx.verdict, cy.verdict} <= {"contractible", "in_nu"}:
        thetas = _split_homotopy(cx, cy, diffs)
    else:
        a, b, shapes = _homotopy_system(x.maps, y.maps, diffs)
        sol = solve_matrix(a, b)
        thetas = None if sol is None else _unpack(x.ring, sol.data, shapes)
    return None if thetas is None else Homotopy(phi=phi, psi=psi, thetas=thetas)


def _split_homotopy(cx: MembershipCertificate, cy: MembershipCertificate, diffs) -> tuple[RMatrix, ...] | None:
    """Diagonals Θ with D_i = Θ_i·α_i + β_{i-1}·Θ_{i-1} between two members,
    or None.  With ψˣ, ψʸ the split isomorphisms, D′_i = ψʸ_i·D_i·(ψˣ_i)⁻¹
    is solved by Θ′ between core ⊕ trivials of both ends, one block per pair
    (target summand, source summand), and Θ_i = (ψʸ_i)⁻¹·Θ′_i·ψˣ_{i+1}:

    - a source trivial on objects a, b: Θ′_a over its columns at b is D′_a
      over its columns at a;
    - a target trivial on objects a, b, against the source core: Θ′_a over
      its rows at a is D′_b over its rows at b;
    - core to core: the residues θ of Θ′ solve ``_core_thetas``.

    Every other block of Θ′ is zero.
    """
    sx, sy = cx.split, cy.split
    assert sx is not None and sy is not None
    ring, n = sx.core.ring, sx.core.n
    inv_x = [inverse(m) for m in sx.iso]
    inv_y = inv_x if sy is sx else [inverse(m) for m in sy.iso]
    d = [g @ f @ h for g, f, h in zip(sy.iso, diffs, inv_x)]
    blocks = [[] for _ in range(n)]  # the (row, column, block) of Θ′_i
    for a, b, cols in _trivial_coords(sx):
        blocks[a].append((0, cols[b].start, d[a].submatrix(range(d[a].rows), cols[a])))
    for a, b, rows in _trivial_coords(sy):
        blocks[a].append((rows[a].start, 0, d[b].submatrix(rows[b], range(sx.core.ranks[b]))))
    rx, ry = sx.core.ranks[0], sy.core.ranks[0]
    if rx and ry:
        core = [m.submatrix(range(ry), range(rx)) for m in d]
        if not all(m.is_minimal() for m in core):
            return None
        thetas = _core_thetas(cx, cy, [m.p_part() for m in core])
        if thetas is None:
            return None
        for i, t in enumerate(thetas):
            blocks[i].append((0, 0, lift(ring, t)))
    nxt = sx.iso[1:] + sx.iso[:1]  # ψˣ_{i+1}
    return tuple(g @ from_blocks(ring, g.cols, h.rows, bl) @ h for g, bl, h in zip(inv_y, blocks, nxt))


def _core_thetas(cx: MembershipCertificate, cy: MembershipCertificate, e) -> list[KMatrix] | None:
    """θ over k with e_i = θ_i·A_i + B_{i-1}·θ_{i-1} between the minimal
    cores p·A of cx and p·B of cy, or None.

    Each θ_i = (e_i - B_{i-1}·θ_{i-1})·A_i⁻¹ follows from θ_{n-1} = X, and
    the last equation becomes (1 - c)·X = C with c = (-1)^n·v·u⁻¹, since
    A_{n-1}⋯A_0 = u·I and any rotation of B_{n-1}⋯B_0 is v·I.  For c ≠ 1 the
    one solution is X = C/(1 - c); for c = 1 there is a solution iff C = 0.
    """
    k, n = e[0].ring, len(e)
    a_inv = [kinv(m.p_part()) for m in cx.split.core.maps]
    b = [m.p_part() for m in cy.split.core.maps]

    def sweep(x: KMatrix) -> list[KMatrix]:
        thetas = [x]  # θ_{n-1} first, then θ_0, ..., θ_{n-2}
        for i in range(n - 1):
            thetas.append((e[i] - b[i - 1] @ thetas[-1]) @ a_inv[i])
        return thetas[1:] + thetas[:1]

    thetas = sweep(KMatrix.zeros(k, e[-1].rows, e[-1].cols))
    closing = (e[-1] - b[-2] @ thetas[-2]) @ a_inv[-1]
    ratio = k.mul(cy.u_class, k.inv(cx.u_class))  # v·u⁻¹
    one_minus_c = k.add(1, ratio if n % 2 else k.neg(ratio))
    if one_minus_c:
        return sweep(closing.scale(k.inv(one_minus_c)))
    return thetas if not any(closing.data) else None


def is_contractible(x: NSequence) -> Homotopy | None:
    """A contracting homotopy (identity ~ zero) if one exists."""
    return find_homotopy(identity_morphism(x), zero_morphism(x, x))


def cone_iso_from_homotopy(h: Homotopy) -> tuple[SeqMorphism, SeqMorphism]:
    """The explicit inverse isomorphisms cone(φ) <-> cone(ψ) attached to a
    homotopy: components [[1, 0], [Θ_i, 1]] and [[1, 0], [-Θ_i, 1]]."""
    x = h.phi.source
    ring, n = x.ring, x.n
    cone_phi, cone_psi = mapping_cone(h.phi), mapping_cone(h.psi)
    fwd, bwd = [], []
    for i, size in enumerate(cone_phi.ranks):
        eye = RMatrix.identity(ring, size)
        theta = from_blocks(ring, size, size, [(x.ranks[(i + 1) % n], 0, h.thetas[i])])
        fwd.append(eye + theta)
        bwd.append(eye - theta)
    f = SeqMorphism(cone_phi, cone_psi, tuple(fwd))
    g = SeqMorphism(cone_psi, cone_phi, tuple(bwd))
    return f, g


def contraction_of_cone_of_iso(phi: SeqMorphism) -> Homotopy:
    """The contracting homotopy [[0, φ_i^{-1}], [0, 0]] on the mapping cone of
    an isomorphism (the i-th diagonal uses φ_{i+1}^{-1}, wrapping with Σφ_1)."""
    if not phi.is_isomorphism():
        raise ValueError("all components must be invertible")
    x = phi.source
    ring, n = x.ring, x.n
    cone = mapping_cone(phi)
    thetas = []
    for i in range(n):
        j = (i + 1) % n
        # cone object i is A_{i+1} ⊕ B_i; diagonal i maps A_{i+2} ⊕ B_{i+1}
        # into it, hitting only the B_{i+1} -> A_{i+1} corner.
        corner = [(0, x.ranks[(i + 2) % n], inverse(phi.phis[j]))]
        thetas.append(from_blocks(ring, cone.ranks[i], cone.ranks[j], corner))
    return Homotopy(
        phi=identity_morphism(cone),
        psi=zero_morphism(cone, cone),
        thetas=tuple(thetas),
    )
