"""The computable non-algebraicity obstruction.

If d*1_R = u*p is a nonzero element of m, the chain (R/d)• realized as the
constant rank-one chain with all maps p carries the self-map (u*p, ..., u*p);
a null-homotopy of it amounts to scalars q_1, ..., q_{n-3} with

    u*p = p*q_1 = q_1*p + p*q_2 = ... = q_{n-4}*p + p*q_{n-3} = q_{n-3}*p.

Algebraic n-angulated structure forces such a null-homotopy to exist.  For
odd n the equations summed with alternating signs cancel on the left and
leave u*p != 0 on the right, so none exists, and with 2p = 0 that certifies
non-algebraicity.  For even n the alternating (u, 0, u, ..., 0, u) is one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import NormalForm, RMatrix, UnsolvableCertificate
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


def quotient_complex(ring: Ring, n: int, d: int) -> QuotientComplex:
    require_n(n)
    kind, u = ring.classify(_d_times_one(ring, d))
    if kind != "unit_times_p":
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


def find_obstruction_d(ring: Ring) -> int | None:
    """Smallest positive d with d*1_R in m \\ {0}.  d*1_R lies in m exactly
    when the residue characteristic p divides d, and p*1_R = 0 makes every
    multiple of p vanish, so the answer is p or None."""
    d = ring.k.p
    return d if _d_times_one(ring, d) != 0 else None


def null_homotopy_d(ring: Ring, n: int, d: int) -> tuple[int, ...] | None:
    """A verified witness (q_1, ..., q_{n-3}) or None.

    Over k the equations read q_1 = u, q_i + q_{i+1} = u and q_{n-3} = u, so
    the residues are forced to u, 0, u, ...: the last equation fails for odd
    n (for n = 3 it is u*p = 0 with no unknown), and for even n the
    alternating witness solves the equations.
    """
    qc = quotient_complex(ring, n, d)
    if n % 2:
        return None
    witness = alternating_witness(ring, n, qc.u)
    _verify_witness(qc, witness)
    return witness


def _verify_witness(qc: QuotientComplex, witness: tuple[int, ...]) -> None:
    """The n-2 equations q_e*p + p*q_{e+1} = u*p, with q_0 = q_{n-2} = 0."""
    if len(witness) != qc.n - 3:
        raise ValueError("witness has wrong length")
    ring, p = qc.ring, qc.ring.p
    up, qs = ring.mul(qc.u, p), (0, *witness, 0)
    if any(ring.add(ring.mul(a, p), ring.mul(p, b)) != up for a, b in zip(qs, qs[1:])):
        raise AssertionError("null-homotopy witness fails the chain equations")


def _alternating_certificate(qc: QuotientComplex) -> UnsolvableCertificate:
    """The alternating sum of the equations, as the normal form of the system
    A q = b in q_1..q_{n-3} and the free closing diagonal: with
    P[e][j] = (-1)^(e-j) for j <= e, P·A = diag(p*I_{n-3}, 0), and the last
    row of P·b is u*p != 0 for odd n.  Checked by that last row y alone: the
    coefficient p*y_k + p*y_{k+1} of every unknown cancels, and the sum of
    y_e*u*p is the value."""
    ring, m = qc.ring, qc.n - 2
    signs = (1, ring.neg(1))
    p_mat = RMatrix(ring, m, m, [signs[(e - j) % 2] if j <= e else 0 for e in range(m) for j in range(m)])
    up, y, value = ring.mul(qc.u, ring.p), p_mat.row(m - 1), 0
    for ye in y:
        value = ring.add(value, ring.mul(ye, up))
    if value == 0 or any(ring.add(ring.mul(ring.p, a), ring.mul(ring.p, b)) for a, b in zip(y, y[1:])):
        raise AssertionError("the alternating sum does not certify the obstruction")
    normal = NormalForm(p_mat, RMatrix.identity(ring, m), m - 1, 0)
    return UnsolvableCertificate(row=m - 1, value=value, constraint="zero", normal=normal)


def alternating_witness(ring: Ring, n: int, u: int) -> tuple[int, ...]:
    """The explicit even-n witness (u, 0, u, ..., 0, u) of length n-3."""
    require_n(n)
    ring.require_unit(u)
    if n % 2 != 0:
        raise ValueError("the alternating witness exists for even n >= 4")
    return tuple(u if i % 2 == 0 else 0 for i in range(n - 3))


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
    if n % 2 == 0:
        witness = null_homotopy_d(ring, n, d)
        return ObstructionReport(verdict="inconclusive", d=d, witness=witness, reason="even-n-witness")
    if not ring.two_p_zero:
        return ObstructionReport(verdict="inconclusive", d=d, reason="parity")
    certificate = _alternating_certificate(quotient_complex(ring, n, d))
    return ObstructionReport(verdict="not_algebraic", d=d, certificate=certificate)
