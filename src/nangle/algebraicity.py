"""The computable non-algebraicity obstruction.

If d*1_R = u*p is a nonzero element of m, the chain (R/d)• realized as the
constant rank-one chain with all maps p carries the self-map (u*p, ..., u*p);
a null-homotopy of it amounts to scalars q_1, ..., q_{n-3} with

    u*p = p*q_1 = q_1*p + p*q_2 = ... = q_{n-4}*p + p*q_{n-3} = q_{n-3}*p.

Algebraic n-angulated structure forces such a null-homotopy to exist; for odd
n with 2p = 0 summing the equations gives (n-2)*u*p = u*p = 0, a
contradiction, so unsolvability certifies non-algebraicity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homotopy import _defects, _homotopy_system
from .matrices import RMatrix, UnsolvableCertificate, solve_linear_explained
from .rings import Ring, require_n


@dataclass(frozen=True)
class QuotientComplex:
    """The constant rank-one chain standing for (R/d)• up to a contractible
    summand: terms (R/d)_1 ... (R/d)_{n-2}, all differentials p, self-map
    components all u*p where d*1_R = u*p."""

    ring: Ring
    d: int
    n: int
    u: int  # canonical unit with d*1_R = u*p

    def differentials(self) -> list[RMatrix]:
        ring = self.ring
        return [RMatrix(ring, 1, 1, [ring.p]) for _ in range(self.n - 3)]

    def self_map_components(self) -> list[RMatrix]:
        ring = self.ring
        up = ring.mul(self.u, ring.p)
        return [RMatrix(ring, 1, 1, [up]) for _ in range(self.n - 2)]


def quotient_complex(ring: Ring, n: int, d: int) -> QuotientComplex:
    require_n(n)
    u = _unit_part_of_d(ring, d)
    if u is None:
        raise ValueError(f"d = {d} does not satisfy d*1 in m\\{{0}} over {ring.spec}")
    return QuotientComplex(ring=ring, d=d, n=n, u=u)


def _d_times_one(ring: Ring, d: int) -> int:
    """d·1_R by doubling and adding, in O(log |d|) ring additions."""
    out, step = 0, 1 if d >= 0 else ring.neg(1)
    for bit in bin(abs(d))[2:]:
        out = ring.add(out, out)
        if bit == "1":
            out = ring.add(out, step)
    return out


def _unit_part_of_d(ring: Ring, d: int) -> int | None:
    x = _d_times_one(ring, d)
    kind, data = ring.classify(x)
    return data if kind == "unit_times_p" else None


def find_obstruction_d(ring: Ring) -> int | None:
    """Smallest positive d with d*1_R in m \\ {0}.  d*1_R lies in m exactly
    when the residue characteristic p divides d, and p*1_R = 0 makes every
    multiple of p vanish, so the answer is p or None."""
    d = ring.k.p
    return d if _d_times_one(ring, d) != 0 else None


def null_homotopy_d(ring: Ring, n: int, d: int) -> tuple[int, ...] | None:
    """A verified witness (q_1, ..., q_{n-3}) or None.

    For n = 3 the one unknown is the free closing diagonal and the single
    condition degenerates to u*p = 0, which the precondition d*1 = u*p != 0
    rules out.
    """
    qc = quotient_complex(ring, n, d)
    res = solve_linear_explained(*_system(qc))
    if isinstance(res, UnsolvableCertificate):
        return None
    # the closing diagonal is a zero column of A, so the solution is 0 there
    witness = res.data[:-1]
    _verify_witness(qc, witness)
    return witness


def _closed_chain(qc: QuotientComplex) -> list[RMatrix]:
    """The chain's differentials closed by a 1×1 zero map, so that its
    homotopy system is the general one with a free last diagonal."""
    return qc.differentials() + [RMatrix.zeros(qc.ring, 1, 1)]


def _system(qc: QuotientComplex) -> tuple[RMatrix, RMatrix]:
    """The scalar system A q = b in q_1..q_{n-3} and the closing diagonal:
    the homotopy system of the self-map on the closed chain."""
    maps = _closed_chain(qc)
    a, b, _ = _homotopy_system(maps, maps, qc.self_map_components())
    return a, b


def _verify_witness(qc: QuotientComplex, witness: tuple[int, ...]) -> None:
    if len(witness) != qc.n - 3:
        raise ValueError("witness has wrong length")
    maps = _closed_chain(qc)
    thetas = [RMatrix(qc.ring, 1, 1, [q]) for q in (*witness, 0)]
    if any(not m.is_zero() for m in _defects(maps, maps, thetas, qc.self_map_components())):
        raise AssertionError("null-homotopy witness fails the chain equations")


def alternating_witness(ring: Ring, n: int, u: int) -> tuple[int, ...]:
    """The explicit even-n witness (u, 0, u, ..., 0, u) of length n-3."""
    if n < 4 or n % 2 != 0:
        raise ValueError("the alternating witness exists for even n >= 4")
    out = []
    for i in range(n - 3):
        out.append(u if i % 2 == 0 else 0)
    return tuple(out)


@dataclass(frozen=True)
class ObstructionReport:
    """verdict 'not_algebraic' carries the unsolvability certificate;
    'inconclusive' carries either a verified null-homotopy witness or the
    reason ('no-valid-d' or 'parity')."""

    verdict: str  # "not_algebraic" | "inconclusive"
    d: int | None = None
    witness: tuple[int, ...] | None = None
    reason: str | None = None
    certificate: UnsolvableCertificate | None = None


def algebraicity_verdict(ring: Ring, n: int) -> ObstructionReport:
    """Decide the obstruction for (ring, n).

    NotAlgebraic only for odd n with 2p = 0 and a valid d, where the scalar
    system is certified unsolvable.  Even n gets the verified alternating
    witness; no valid d or odd n with 2p != 0 (the collections N_u are not
    angulations there) are inconclusive.  'Algebraic' is never reported.
    """
    require_n(n)
    d = find_obstruction_d(ring)
    if d is None:
        return ObstructionReport(verdict="inconclusive", reason="no-valid-d")
    qc = quotient_complex(ring, n, d)
    if n % 2 == 0:
        w = alternating_witness(ring, n, qc.u)
        _verify_witness(qc, w)
        return ObstructionReport(verdict="inconclusive", d=d, witness=w, reason="even-n-witness")
    if not ring.two_p_zero:
        return ObstructionReport(verdict="inconclusive", d=d, reason="parity")
    res = solve_linear_explained(*_system(qc))
    if isinstance(res, UnsolvableCertificate):
        return ObstructionReport(verdict="not_algebraic", d=d, certificate=res)
    # guaranteed impossible for odd n with 2p = 0; reaching here is a bug
    raise AssertionError("obstruction system solvable for odd n with 2p = 0")
