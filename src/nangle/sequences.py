"""n-Sigma-sequences over the category of finitely generated free R-modules.

The suspension is the identity functor, so a sequence is just n ranks and n
matrices arranged in a cycle: maps[i] sends object i to object i+1 (indices
mod n, 0-based internally).  Positions in TrivialSpec are 1-based to match
the usual diagram numbering A_1, ..., A_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .matrices import RMatrix, from_blocks, image_kernel_lengths, inverse, is_invertible
from .rings import Ring


@dataclass(frozen=True)
class NSequence:
    ring: Ring
    n: int
    ranks: tuple[int, ...]
    maps: tuple[RMatrix, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        if len(self.ranks) != self.n or len(self.maps) != self.n:
            raise ValueError("need exactly n ranks and n maps")
        if any(r < 0 for r in self.ranks):
            raise ValueError("ranks must be non-negative")
        for i, m in enumerate(self.maps):
            if m.ring != self.ring:
                raise ValueError("map over wrong ring")
            if m.cols != self.ranks[i] or m.rows != self.ranks[(i + 1) % self.n]:
                raise ValueError(
                    f"map {i} is {m.rows}x{m.cols}, expected "
                    f"{self.ranks[(i + 1) % self.n]}x{self.ranks[i]}"
                )

    def total_rank(self) -> int:
        return sum(self.ranks)


@dataclass(frozen=True)
class TrivialSpec:
    """A rotation of the trivial sequence A --1--> A -> 0 -> ... -> 0.

    The identity map sits at maps[position] (1-based), the two copies of the
    object at positions `position` and `position + 1` (mod n).
    """

    rank: int
    position: int

    def __post_init__(self):
        if self.rank <= 0:
            raise ValueError("trivial rank must be positive")
        if self.position < 1:
            raise ValueError("position is 1-based")


def trivial_sequence(ring: Ring, n: int, spec: TrivialSpec) -> NSequence:
    if spec.position > n:
        raise ValueError(f"position {spec.position} out of range for n={n}")
    i = spec.position - 1
    ranks = [0] * n
    ranks[i] = spec.rank
    ranks[(i + 1) % n] = spec.rank
    maps = []
    for j in range(n):
        if j == i:
            maps.append(RMatrix.identity(ring, spec.rank))
        else:
            maps.append(RMatrix.zeros(ring, ranks[(j + 1) % n], ranks[j]))
    return NSequence(ring, n, tuple(ranks), tuple(maps))


def standard_angle(ring: Ring, n: int, u: int, rank: int) -> NSequence:
    """The generator F --u*p--> F --p--> ... --p--> F of rank `rank`."""
    ring.require_unit(u)
    if rank < 0:
        raise ValueError("rank must be non-negative")
    up = ring.mul(u, ring.p)
    maps = [RMatrix.scalar(ring, rank, up)]
    maps += [RMatrix.scalar(ring, rank, ring.p) for _ in range(n - 1)]
    return NSequence(ring, n, (rank,) * n, tuple(maps))


def zero_sequence(ring: Ring, n: int) -> NSequence:
    z = RMatrix.zeros(ring, 0, 0)
    return NSequence(ring, n, (0,) * n, (z,) * n)


def is_candidate(x: NSequence) -> bool:
    """All consecutive compositions vanish, including the wrap-around."""
    for i in range(x.n):
        if not (x.maps[(i + 1) % x.n] @ x.maps[i]).is_zero():
            return False
    return True


def is_exact(x: NSequence) -> bool:
    """Exactness as a periodic complex of free modules: at every object,
    length(Im incoming) == length(Ker outgoing).

    Since all objects are free and Hom(R^m, -) is m-fold module exactness,
    this coincides with exactness of the induced Hom sequences; the candidate
    condition supplies Im <= Ker, and equal finite lengths force equality.
    """
    if not is_candidate(x):
        return False
    lengths = [image_kernel_lengths(m) for m in x.maps]
    for i in range(x.n):
        im_in = lengths[(i - 1) % x.n][0]
        ker_out = lengths[i][1]
        if im_in != ker_out:
            return False
    return True


def _sign_scale(m: RMatrix, n: int) -> RMatrix:
    return m if n % 2 == 0 else -m


def rotate_left(x: NSequence) -> NSequence:
    """(A_2, ..., A_n, ΣA_1) with maps (α_2, ..., α_n, (-1)^n Σα_1)."""
    ranks = x.ranks[1:] + x.ranks[:1]
    maps = x.maps[1:] + (_sign_scale(x.maps[0], x.n),)
    return NSequence(x.ring, x.n, ranks, maps)


def rotate_right(x: NSequence) -> NSequence:
    ranks = x.ranks[-1:] + x.ranks[:-1]
    maps = (_sign_scale(x.maps[-1], x.n),) + x.maps[:-1]
    return NSequence(x.ring, x.n, ranks, maps)


def direct_sum(*seqs: NSequence) -> NSequence:
    if not seqs:
        raise ValueError("need at least one summand")
    ring, n = seqs[0].ring, seqs[0].n
    if any(s.ring != ring or s.n != n for s in seqs):
        raise ValueError("summands must share ring and n")
    # offs[i][k]: where summand k starts at object i; offs[i][-1] is the rank
    offs = [list(accumulate((s.ranks[i] for s in seqs), initial=0)) for i in range(n)]
    maps = []
    for i in range(n):
        j = (i + 1) % n
        blocks = [(offs[j][k], offs[i][k], s.maps[i]) for k, s in enumerate(seqs)]
        maps.append(from_blocks(ring, offs[j][-1], offs[i][-1], blocks))
    return NSequence(ring, n, tuple(o[-1] for o in offs), tuple(maps))


@dataclass(frozen=True)
class SeqMorphism:
    """A morphism of n-Sigma-sequences; all n squares (including the wrap,
    where Σφ_1 = φ_1) are checked to commute on construction."""

    source: NSequence
    target: NSequence
    phis: tuple[RMatrix, ...]

    def __post_init__(self):
        x, y = self.source, self.target
        if x.ring != y.ring or x.n != y.n:
            raise ValueError("source and target must share ring and n")
        if len(self.phis) != x.n:
            raise ValueError("need n components")
        for i, f in enumerate(self.phis):
            if f.cols != x.ranks[i] or f.rows != y.ranks[i]:
                raise ValueError(f"component {i} has wrong shape")
        for i in range(x.n):
            j = (i + 1) % x.n
            if self.phis[j] @ x.maps[i] != y.maps[i] @ self.phis[i]:
                raise ValueError(f"square {i + 1} does not commute")

    def is_isomorphism(self) -> bool:
        return all(is_invertible(f) for f in self.phis)


def identity_morphism(x: NSequence) -> SeqMorphism:
    return SeqMorphism(x, x, tuple(RMatrix.identity(x.ring, r) for r in x.ranks))


def zero_morphism(x: NSequence, y: NSequence) -> SeqMorphism:
    return SeqMorphism(x, y, tuple(RMatrix.zeros(x.ring, y.ranks[i], x.ranks[i]) for i in range(x.n)))


def compose(g: SeqMorphism, f: SeqMorphism) -> SeqMorphism:
    if f.target != g.source:
        raise ValueError("morphisms not composable")
    return SeqMorphism(f.source, g.target, tuple(a @ b for a, b in zip(g.phis, f.phis)))


def mapping_cone(phi: SeqMorphism) -> NSequence:
    """Objects A_{i+1} ⊕ B_i with maps [[-α_{i+1}, 0], [φ_{i+1}, β_i]]."""
    x, y = phi.source, phi.target
    ring, n = x.ring, x.n
    ranks = tuple(x.ranks[(i + 1) % n] + y.ranks[i] for i in range(n))
    maps = []
    for i in range(n):
        j = (i + 1) % n
        top, left = x.ranks[(i + 2) % n], x.ranks[j]
        blocks = [(0, 0, -x.maps[j]), (top, 0, phi.phis[j]), (top, left, y.maps[i])]
        maps.append(from_blocks(ring, ranks[j], ranks[i], blocks))
    return NSequence(ring, n, ranks, tuple(maps))


def apply_iso(x: NSequence, psis) -> NSequence:
    """Transport x along invertible ψ_i: the result has maps ψ_{i+1} α_i ψ_i^{-1},
    so ψ is an isomorphism from x to the result."""
    psis = tuple(psis)
    if len(psis) != x.n:
        raise ValueError("need n transforms")
    invs = []
    for i, m in enumerate(psis):
        if m.rows != m.cols or m.cols != x.ranks[i]:
            raise ValueError(f"transform {i} has wrong shape")
        try:
            invs.append(inverse(m))
        except ValueError:
            raise ValueError(f"transform {i} is not invertible over R") from None
    maps = tuple(psis[(i + 1) % x.n] @ x.maps[i] @ invs[i] for i in range(x.n))
    return NSequence(x.ring, x.n, tuple(m.rows for m in psis), maps)
