"""Homotopies of sequence morphisms, decided by exact linear algebra over R.

A homotopy from φ to ψ consists of diagonals Θ_i : A_{i+1} -> B_i (indices
mod n, Θ_n out of ΣA_1) with

    φ_i - ψ_i = Θ_i ∘ α_i + β_{i-1} ∘ Θ_{i-1}

for every i, the i = 1 equation using β_n ∘ Θ_n.  The defining equations form
one global linear system over R, so absence of a solution is a proof of
non-homotopy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import RMatrix, block_matrix, inverse, solve_matrix
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
        for i in range(n):
            lhs = phi.phis[i] - psi.phis[i]
            rhs = self.thetas[i] @ x.maps[i] + y.maps[(i - 1) % n] @ self.thetas[(i - 1) % n]
            if lhs != rhs:
                raise ValueError(f"homotopy identity fails at position {i + 1}")


def find_homotopy(phi: SeqMorphism, psi: SeqMorphism) -> Homotopy | None:
    """Solve the n coupled matrix equations as one linear system over R.

    Unknown order: Θ_1 entries row-major, then Θ_2, and so on.
    """
    if phi.source != psi.source or phi.target != psi.target:
        raise ValueError("morphisms must be parallel")
    x, y = phi.source, phi.target
    ring, n = x.ring, x.n

    shapes = [(y.ranks[i], x.ranks[(i + 1) % n]) for i in range(n)]
    offsets = []
    total = 0
    for r, c in shapes:
        offsets.append(total)
        total += r * c

    rows = []
    rhs = []
    for i in range(n):
        alpha = x.maps[i]
        beta_prev = y.maps[(i - 1) % n]
        diff = phi.phis[i] - psi.phis[i]
        ri, ci = y.ranks[i], x.ranks[i]
        th_i_rows, th_i_cols = shapes[i]
        th_p_rows, th_p_cols = shapes[(i - 1) % n]
        for r in range(ri):
            for c in range(ci):
                coeff = [0] * total
                # d/dΘ_i[r, t] of (Θ_i α_i)[r, c] = α_i[t, c]
                base = offsets[i]
                for t in range(th_i_cols):
                    coeff[base + r * th_i_cols + t] = alpha.entry(t, c)
                # d/dΘ_{i-1}[t, c] of (β_{i-1} Θ_{i-1})[r, c] = β_{i-1}[r, t]
                base = offsets[(i - 1) % n]
                for t in range(th_p_rows):
                    idx = base + t * th_p_cols + c
                    coeff[idx] = ring.add(coeff[idx], beta_prev.entry(r, t))
                rows.append(coeff)
                rhs.append(diff.entry(r, c))

    neq = len(rows)
    a = RMatrix(ring, neq, total, [v for row in rows for v in row]) if neq else RMatrix(ring, 0, total, [])
    b = RMatrix(ring, neq, 1, rhs)
    sol = solve_matrix(a, b)
    if sol is None:
        return None
    flat = sol.data
    thetas = []
    for i, (r, c) in enumerate(shapes):
        chunk = flat[offsets[i] : offsets[i] + r * c]
        thetas.append(RMatrix(ring, r, c, chunk))
    return Homotopy(phi=phi, psi=psi, thetas=tuple(thetas))


def is_contractible(x: NSequence) -> Homotopy | None:
    """A contracting homotopy (identity ~ zero) if one exists."""
    return find_homotopy(identity_morphism(x), zero_morphism(x, x))


def cone_iso_from_homotopy(h: Homotopy) -> tuple[SeqMorphism, SeqMorphism]:
    """The explicit inverse isomorphisms cone(φ) <-> cone(ψ) attached to a
    homotopy: components [[1, 0], [Θ_i, 1]] and [[1, 0], [-Θ_i, 1]]."""
    phi, psi = h.phi, h.psi
    x, y = phi.source, phi.target
    ring, n = x.ring, x.n
    cone_phi = mapping_cone(phi)
    cone_psi = mapping_cone(psi)
    fwd = []
    bwd = []
    for i in range(n):
        a_rank = x.ranks[(i + 1) % n]
        b_rank = y.ranks[i]
        ia = RMatrix.identity(ring, a_rank)
        ib = RMatrix.identity(ring, b_rank)
        z = RMatrix.zeros(ring, a_rank, b_rank)
        fwd.append(block_matrix([[ia, z], [h.thetas[i], ib]]))
        bwd.append(block_matrix([[ia, z], [-h.thetas[i], ib]]))
    f = SeqMorphism(cone_phi, cone_psi, tuple(fwd))
    g = SeqMorphism(cone_psi, cone_phi, tuple(bwd))
    return f, g


def contraction_of_cone_of_iso(phi: SeqMorphism) -> Homotopy:
    """The contracting homotopy [[0, φ_i^{-1}], [0, 0]] on the mapping cone of
    an isomorphism (the i-th diagonal uses φ_{i+1}^{-1}, wrapping with Σφ_1)."""
    if not phi.is_isomorphism():
        raise ValueError("all components must be invertible")
    x, y = phi.source, phi.target
    ring, n = x.ring, x.n
    cone = mapping_cone(phi)
    thetas = []
    for i in range(n):
        j = (i + 1) % n
        # cone object i is A_{i+1} ⊕ B_i; diagonal i maps A_{i+2} ⊕ B_{i+1}
        # into it, hitting only the B_{i+1} -> A_{i+1} corner.
        jj = (i + 2) % n
        inv_j = inverse(phi.phis[j])
        z_tl = RMatrix.zeros(ring, x.ranks[j], x.ranks[jj])
        z_bl = RMatrix.zeros(ring, y.ranks[i], x.ranks[jj])
        z_br = RMatrix.zeros(ring, y.ranks[i], y.ranks[j])
        thetas.append(block_matrix([[z_tl, inv_j], [z_bl, z_br]]))
    return Homotopy(
        phi=identity_morphism(cone),
        psi=zero_morphism(cone, cone),
        thetas=tuple(thetas),
    )


def find_open_chain_nullhomotopy(diffs: list[RMatrix], components: list[RMatrix]) -> tuple[RMatrix, ...] | None:
    """Null-homotopy of a chain self-map on an open (non-cyclic) complex
    C_0 -> C_1 -> ... -> C_m.

    diffs[i] : C_i -> C_{i+1} (i = 0..m-1); components[i] : C_i -> C_i.
    Seeks h_i : C_i -> C_{i-1} (i = 1..m) with
        f_0 = h_1 ∘ δ_1,
        f_i = δ_i ∘ h_i + h_{i+1} ∘ δ_{i+1}   (0 < i < m),
        f_m = δ_m ∘ h_m.
    """
    m = len(diffs)
    if len(components) != m + 1:
        raise ValueError("need one component per chain term")
    if m == 0:
        return () if components[0].is_zero() else None
    ring = diffs[0].ring
    dims = [diffs[0].cols] + [d.rows for d in diffs]
    for i, d in enumerate(diffs):
        if d.cols != dims[i] or d.rows != dims[i + 1]:
            raise ValueError("differentials do not chain")
    shapes = [(dims[i - 1], dims[i]) for i in range(1, m + 1)]  # h_i : C_i -> C_{i-1}
    offsets = []
    total = 0
    for r, c in shapes:
        offsets.append(total)
        total += r * c

    rows = []
    rhs = []
    for i in range(m + 1):
        f = components[i]
        for r in range(dims[i]):
            for c in range(dims[i]):
                coeff = [0] * total
                if i < m:
                    # (h_{i+1} δ_{i+1})[r, c]: h_{i+1} has shape dims[i] x dims[i+1]
                    base = offsets[i]
                    hc = shapes[i][1]
                    for t in range(hc):
                        coeff[base + r * hc + t] = diffs[i].entry(t, c)
                if i > 0:
                    # (δ_i h_i)[r, c]: h_i has shape dims[i-1] x dims[i]
                    base = offsets[i - 1]
                    hr, hc = shapes[i - 1]
                    for t in range(hr):
                        idx = base + t * hc + c
                        coeff[idx] = ring.add(coeff[idx], diffs[i - 1].entry(r, t))
                rows.append(coeff)
                rhs.append(f.entry(r, c))

    neq = len(rows)
    a = RMatrix(ring, neq, total, [v for row in rows for v in row]) if neq else RMatrix(ring, 0, total, [])
    b = RMatrix(ring, neq, 1, rhs)
    sol = solve_matrix(a, b)
    if sol is None:
        return None
    flat = sol.data
    out = []
    for i, (r, c) in enumerate(shapes):
        chunk = flat[offsets[i] : offsets[i] + r * c]
        out.append(RMatrix(ring, r, c, chunk))
    # re-verify the chain identities exactly
    for i in range(m + 1):
        acc = RMatrix.zeros(ring, dims[i], dims[i])
        if i < m:
            acc = acc + out[i] @ diffs[i]
        if i > 0:
            acc = acc + diffs[i - 1] @ out[i - 1]
        if acc != components[i]:
            raise AssertionError("open-chain homotopy verification failed")
    return tuple(out)
