"""Homotopies of sequence morphisms, decided by exact linear algebra over R.

A homotopy from φ to ψ consists of diagonals Θ_i : A_{i+1} -> B_i (indices
mod n, Θ_n out of ΣA_1) with

    φ_i - ψ_i = Θ_i ∘ α_i + β_{i-1} ∘ Θ_{i-1}

for every i, the i = 1 equation using β_n ∘ Θ_n.  The defining equations form
one global linear system over R, so absence of a solution is a proof of
non-homotopy.  ``_homotopy_system`` builds that system, and ``_defects``
checks a solution of it, both for this cyclic form and for the open chain
of the algebraicity obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import RMatrix, from_blocks, inverse, solve_matrix
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
        for i, defect in enumerate(_defects(x.maps, y.maps, self.thetas, diffs, cyclic=True)):
            if not defect.is_zero():
                raise ValueError(f"homotopy identity fails at position {i + 1}")


def _prev(i: int, count: int, cyclic: bool) -> int | None:
    """Index of Θ_{i-1} in equation i: wraps to the last Θ on a cyclic
    system, absent at i = 0 on an open chain."""
    if cyclic:
        return (i - 1) % count
    return i - 1 if i > 0 else None


def _homotopy_system(alphas, betas, rhs, cyclic: bool) -> tuple[RMatrix, RMatrix, list[tuple[int, int]]]:
    """The linear system A·vec Θ = vec D of D_i = Θ_i·α_i + β_{i-1}·Θ_{i-1}.

    There is one Θ_i per α_i.  A cyclic system has one equation per Θ and
    wraps i = 0 to the last Θ; an open chain has one equation more, with no
    β term at i = 0 and no Θ term in the last.  Rows are written from
    vec(Θα) = (αᵀ⊗I)·vec Θ and vec(βΘ) = (I⊗β)·vec Θ.  Unknowns are Θ_0, Θ_1,
    ... and equations D_0, D_1, ..., each row-major.  Returns (A, b, shapes
    of the Θ_i).
    """
    ring = rhs[0].ring
    count = len(alphas)
    shapes = [(rhs[i].rows, alphas[i].rows) for i in range(count)]
    offsets = [0]
    for r, c in shapes:
        offsets.append(offsets[-1] + r * c)
    total = offsets[-1]
    b = [v for d in rhs for v in d.data]
    data = [0] * (len(b) * total)
    row = 0  # start of the current equation's row in data
    for i, d in enumerate(rhs):
        j = _prev(i, count, cyclic)
        for r in range(d.rows):
            for c in range(d.cols):
                if i < count:
                    # (Θ_i α_i)[r, c] = Σ_t Θ_i[r, t] α_i[t, c]
                    alpha, th_cols = alphas[i], shapes[i][1]
                    base = row + offsets[i] + r * th_cols
                    for t in range(th_cols):
                        data[base + t] = alpha.entry(t, c)
                if j is not None:
                    # (β_{i-1} Θ_{i-1})[r, c] = Σ_t β_{i-1}[r, t] Θ_{i-1}[t, c]
                    beta, (th_rows, th_cols) = betas[j], shapes[j]
                    for t in range(th_rows):
                        idx = row + offsets[j] + t * th_cols + c
                        data[idx] = ring.add(data[idx], beta.entry(r, t))
                row += total
    return RMatrix(ring, len(b), total, data), RMatrix(ring, len(b), 1, b), shapes


def _unpack(ring, flat, shapes) -> tuple[RMatrix, ...]:
    out = []
    start = 0
    for r, c in shapes:
        out.append(RMatrix(ring, r, c, flat[start : start + r * c]))
        start += r * c
    return tuple(out)


def _defects(alphas, betas, thetas, rhs, cyclic: bool) -> list[RMatrix]:
    """D_i - Θ_i·α_i - β_{i-1}·Θ_{i-1} for every equation of the system of
    ``_homotopy_system``; all are zero iff the Θ solve it."""
    out = []
    for i, d in enumerate(rhs):
        if i < len(thetas):
            d = d - thetas[i] @ alphas[i]
        j = _prev(i, len(thetas), cyclic)
        if j is not None:
            d = d - betas[j] @ thetas[j]
        out.append(d)
    return out


def find_homotopy(phi: SeqMorphism, psi: SeqMorphism) -> Homotopy | None:
    """Solve the n coupled matrix equations as one linear system over R."""
    if phi.source != psi.source or phi.target != psi.target:
        raise ValueError("morphisms must be parallel")
    x, y = phi.source, phi.target
    diffs = [f - g for f, g in zip(phi.phis, psi.phis)]
    a, b, shapes = _homotopy_system(x.maps, y.maps, diffs, cyclic=True)
    sol = solve_matrix(a, b)
    if sol is None:
        return None
    return Homotopy(phi=phi, psi=psi, thetas=_unpack(x.ring, sol.data, shapes))


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
