"""Seeded random generation of members of N_u and morphisms between them.

All randomness is derived from a 64-bit seed and a trial counter through a
splitmix64 step, so independent trials are reproducible and order-independent.
"""

from __future__ import annotations

import random

from .angulation import _split_morphism, classify
from .homotopy import Homotopy, _defects
from .matrices import KMatrix, RMatrix, kinv, krank, lift, lift_p
from .rings import Ring
from .sequences import NSequence, SeqMorphism, TrivialSpec, apply_iso, direct_sum, standard_angle, trivial_sequence

MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_rng(seed: int, counter: int) -> random.Random:
    return random.Random(splitmix64((seed & MASK64) ^ splitmix64(counter)))


def random_matrix(ring: Ring, rows: int, cols: int, rng: random.Random) -> RMatrix:
    return RMatrix(ring, rows, cols, [rng.randrange(ring.order) for _ in range(rows * cols)])


def random_invertible(ring: Ring, size: int, rng: random.Random) -> RMatrix:
    """Residue-invertible square matrix; rejection sampling over k keeps the
    acceptance rate above 1/4 even for q = 2."""
    if size == 0:
        return RMatrix(ring, 0, 0, [])
    while True:
        m = random_matrix(ring, size, size, rng)
        if krank(m.residue()) == size:
            return m


def random_invertibles(ring: Ring, ranks, rng: random.Random) -> list[RMatrix]:
    return [random_invertible(ring, r, rng) for r in ranks]


def random_member(ring: Ring, n: int, u: int, max_rank: int, rng: random.Random) -> NSequence:
    """A random element of N_u: standard core of random rank plus random
    trivials, conjugated by random invertible transforms.  By definition of
    N_u this reaches every member shape."""
    core_rank = rng.randrange(max_rank + 1)
    parts = [standard_angle(ring, n, u, core_rank)]
    for _ in range(rng.randrange(3)):
        parts.append(trivial_sequence(ring, n, TrivialSpec(rank=1 + rng.randrange(2), position=1 + rng.randrange(n))))
    base = direct_sum(*parts)
    return apply_iso(base, random_invertibles(ring, base.ranks, rng))


def _random_k_matrix(ring: Ring, rows: int, cols: int, rng: random.Random) -> KMatrix:
    return KMatrix(ring.k, rows, cols, [rng.randrange(ring.q) for _ in range(rows * cols)])


def _random_core_to_core(src: NSequence, tgt: NSequence, rng: random.Random) -> list[RMatrix]:
    """All morphisms between minimal cores: residues are chained from a free
    ψ_1 (the wrap closes because both residue products are scalar), p-parts
    are free."""
    ring, n = src.ring, src.n
    a_factors = [m.p_part() for m in src.maps]
    b_factors = [m.p_part() for m in tgt.maps]
    res = [_random_k_matrix(ring, tgt.ranks[0], src.ranks[0], rng)]
    for i in range(n - 1):
        res.append(b_factors[i] @ res[i] @ kinv(a_factors[i]))
    comps = []
    for i in range(n):
        theta = _random_k_matrix(ring, tgt.ranks[i], src.ranks[i], rng)
        comps.append(lift(ring, res[i]) + lift_p(ring, theta))
    return comps


def random_morphism(x: NSequence, y: NSequence, rng: random.Random, *, _certs=None) -> SeqMorphism:
    """Uniform-ish random morphism between members of N_u.

    Both members are split; a morphism between the decompositions is drawn
    blockwise from the free parametrizations (core-core residue chains with
    free p-parts, a free column at the source object of a source trivial, a
    free row at the far object of a target trivial), then transported back.
    Every morphism arises this way.  A caller that has classified x and y
    already passes the two certificates as ``_certs``.
    """
    cx, cy = _certs or (classify(x), classify(y))
    sx, sy = cx.split, cy.split
    if sx is None or sy is None:
        raise ValueError("both sequences must be candidates in N_u")

    def draw(e, o, at, divide) -> RMatrix:
        return random_matrix(x.ring, *map(len, at(e)), rng)

    core_block = lambda: _random_core_to_core(sx.core, sy.core, rng)
    return SeqMorphism(x, y, _split_morphism(sx, sy, core_block, draw))


def random_commuting_square(x: NSequence, y: NSequence, rng: random.Random, *, _certs=None) -> tuple[RMatrix, RMatrix]:
    """A commuting first square between members.  Any commuting square extends
    to a morphism (axiom N3), so sampling full morphisms loses nothing.
    ``_certs`` is handed to random_morphism."""
    m = random_morphism(x, y, rng, _certs=_certs)
    return m.phis[0], m.phis[1]


def random_homotopy_deformation(phi: SeqMorphism, rng: random.Random):
    """Random Θ and the morphism ψ = φ - (Θ∘α + β∘Θ); when source and target
    are candidates the boundary of any Θ is a morphism, so (φ, ψ, Θ) is a
    verified homotopic pair."""
    x, y = phi.source, phi.target
    ring, n = x.ring, x.n
    thetas = [random_matrix(ring, y.ranks[i], x.ranks[(i + 1) % n], rng) for i in range(n)]
    # ψ_i = φ_i - (Θ_i∘α_i + β_{i-1}∘Θ_{i-1}) is the defect of Θ against φ
    psi = SeqMorphism(x, y, tuple(_defects(x.maps, y.maps, thetas, phi.phis)))
    return Homotopy(phi=phi, psi=psi, thetas=tuple(thetas))
