import pytest

import nangle.homotopy
import nangle.matrices
from nangle.algebraicity import (
    _alternating_certificate,
    algebraicity_verdict,
    find_obstruction_d,
    null_homotopy_d,
    quotient_complex,
    alternating_witness,
)
from nangle.homotopy import _homotopy_system
from nangle.matrices import RMatrix, _solve, normal_form, solve_matrix
from nangle.rings import MAX_N, make_ring
from oracles import brute_open_chain_nullhomotopy_exists

Z4 = make_ring("Z/4")
Z9 = make_ring("Z/9")
G2 = make_ring("GF(2)[x]/(x^2)")
G3 = make_ring("GF(3)[x]/(x^2)")


def test_find_obstruction_d_examples():
    assert find_obstruction_d(Z4) == 2
    assert find_obstruction_d(Z9) == 3
    assert find_obstruction_d(G2) is None
    assert find_obstruction_d(G3) is None
    assert find_obstruction_d(make_ring("Z/25")) == 5
    assert find_obstruction_d(make_ring("Z/49")) == 7
    for q in (4, 9, 512):
        assert find_obstruction_d(make_ring(f"GF({q})[x]/(x^2)")) is None


def test_algebraicity_on_a_large_ring_takes_few_additions(monkeypatch):
    """d*1 is built by doubling, so Z/q^2 with q near 10^12 answers at once;
    adding 1 up to q times would take days at this q."""
    ring = make_ring("Z/999999999978000000000121")
    add, calls = ring.add, []
    monkeypatch.setattr(ring, "add", lambda x, y: calls.append(1) or add(x, y))
    report = algebraicity_verdict(ring, 5)
    assert (report.verdict, report.reason, report.d) == ("inconclusive", "parity", 999999999989)
    assert len(calls) < 200


def test_quotient_complex_shape():
    qc = quotient_complex(Z4, 6, 2)
    assert (qc.ring, qc.d, qc.n, qc.u) == (Z4, 2, 6, 1)
    qc = quotient_complex(Z9, 5, 6)
    assert (qc.ring, qc.d, qc.n, qc.u) == (Z9, 6, 5, 2)  # 6*1 = 2*3
    # d*1 must lie in m\{0}: a unit (d = 1) or zero (d = 4 over Z/4) is refused
    for ring, n, d in ((Z4, 4, 1), (Z9, 5, 1), (Z4, 4, 4)):
        with pytest.raises(ValueError, match=rf"d = {d} does not satisfy d\*1 in m"):
            quotient_complex(ring, n, d)
    with pytest.raises(ValueError, match="n must be >= 3"):
        quotient_complex(Z4, 1, 4)


def test_null_homotopy_examples():
    assert null_homotopy_d(Z4, 5, 2) is None
    assert null_homotopy_d(Z4, 4, 2) == (1,)
    got = null_homotopy_d(Z4, 6, 2)
    assert got is not None and len(got) == 3
    # the alternating witness itself
    assert alternating_witness(Z4, 6, 1) == (1, 0, 1)


@pytest.mark.parametrize(
    "n, u",
    [(MAX_N + 2, 1), (2, 1), (5, 1), (6, 4), (6, 2), (6, -1)],
    ids=["n-above-bound", "n-below-bound", "odd-n", "u-not-a-code", "u-not-a-unit", "u-negative"],
)
def test_alternating_witness_refuses(n, u):
    with pytest.raises(ValueError):
        alternating_witness(Z4, n, u)


@pytest.mark.parametrize("ring, d", [(Z4, 2), (Z9, 3)], ids=["Z/4", "Z/9"])
def test_null_homotopy_witness_tuples_pinned(ring, d):
    """The closed form's witness is part of the output and stays fixed."""
    assert {n: null_homotopy_d(ring, n, d) for n in (4, 6, 8, 10)} == {
        4: (1,),
        6: (1, 0, 1),
        8: (1, 0, 1, 0, 1),
        10: (1, 0, 1, 0, 1, 0, 1),
    }


def test_null_homotopy_odd_absent_even_present():
    for n in range(3, 12):
        got = null_homotopy_d(Z4, n, 2)
        if n % 2:
            assert got is None
        else:
            assert got is not None


def test_null_homotopy_agrees_with_exhaustive():
    """Presence/absence equals exhaustive enumeration over R^(n-3) for
    |R| <= 9 and n <= 7 (rings with a valid d)."""
    for ring, d in [(Z4, 2), (Z9, 3)]:
        u = 1 if ring is Z4 else 1
        for n in range(3, 8):
            got = null_homotopy_d(ring, n, d)
            qc = quotient_complex(ring, n, d)
            assert (got is not None) == brute_open_chain_nullhomotopy_exists(ring, n, qc.u)


def quotient_system(qc):
    """The homotopy system of the self-map (u*p, ..., u*p) on the n-2 term
    chain with differentials p, closed by a 1×1 zero map."""
    ring, n = qc.ring, qc.n
    maps = [RMatrix(ring, 1, 1, [ring.p])] * (n - 3) + [RMatrix.zeros(ring, 1, 1)]
    self_map = [RMatrix(ring, 1, 1, [ring.mul(qc.u, ring.p)])] * (n - 2)
    return _homotopy_system(maps, maps, self_map)


def test_consistency_with_open_chain_solver():
    """The system of the self-map (u*p, ..., u*p) on the realized chain,
    closed by a zero map, is the scalar system u*p = p*q_1 = q_1*p + p*q_2 =
    ... = q_{n-3}*p with one more unknown in a zero column, and
    null_homotopy_d finds a witness iff that system is solvable."""
    for ring, d in [(Z4, 2), (Z9, 3), (make_ring("Z/25"), 5)]:
        for n in range(3, 12):
            qc = quotient_complex(ring, n, d)
            a, b, shapes = quotient_system(qc)
            want = [[ring.p if e - 1 <= k <= e else 0 for k in range(n - 3)] + [0] for e in range(n - 2)]
            assert a == RMatrix(ring, n - 2, n - 2, [v for row in want for v in row])
            assert b.data == (ring.mul(qc.u, ring.p),) * (n - 2) and shapes == [(1, 1)] * (n - 2)
            assert (solve_matrix(a, b) is not None) == (null_homotopy_d(ring, n, d) is not None)


def test_verdicts():
    for n in (3, 5, 7, 9, 11):
        rep = algebraicity_verdict(Z4, n)
        assert rep.verdict == "not_algebraic" and rep.d == 2
        assert rep.certificate is not None
    for n in (4, 6, 8, 10, 12):
        rep = algebraicity_verdict(Z4, n)
        assert rep.verdict == "inconclusive"
        assert rep.witness == alternating_witness(Z4, n, 1)
    assert algebraicity_verdict(G2, 5).reason == "no-valid-d"
    assert algebraicity_verdict(Z9, 5).reason == "parity"
    assert algebraicity_verdict(Z9, 4).verdict == "inconclusive"
    assert algebraicity_verdict(Z9, 4).witness is not None
    with pytest.raises(ValueError):
        algebraicity_verdict(Z4, 2)


def test_even_witness_arbitrary_char():
    # the alternating witness works even when 2p != 0
    rep = algebraicity_verdict(make_ring("Z/25"), 6)
    assert rep.verdict == "inconclusive" and rep.witness == (1, 0, 1)


def test_not_algebraic_certificate_reverifies():
    rep = algebraicity_verdict(Z4, 5)
    cert = rep.certificate
    assert cert is not None
    # the failing row of P @ b indeed violates its constraint
    _, rhs, _ = quotient_system(quotient_complex(Z4, 5, rep.d))
    c = cert.normal.P @ rhs
    val = c.entry(cert.row, 0)
    if cert.constraint == "in_m":
        assert Z4.is_unit(val)
    else:
        assert val != 0


def test_verify_witness_error_types():
    from nangle.algebraicity import _verify_witness

    qc = quotient_complex(Z4, 6, 2)
    _verify_witness(qc, (1, 0, 1))
    with pytest.raises(ValueError):
        _verify_witness(qc, (1, 0))
    with pytest.raises(AssertionError):
        _verify_witness(qc, (1, 1, 1))
    with pytest.raises(AssertionError):
        _verify_witness(quotient_complex(Z4, 3, 2), ())  # u*p != 0 has no empty witness


def test_obstruction_never_solves(monkeypatch):
    """Verdicts and witnesses come from the closed form: no normal form, no
    solve and no dense homotopy system."""

    def refuse(*args):
        raise AssertionError("the obstruction ran the dense solver")

    monkeypatch.setattr(nangle.matrices, "normal_form", refuse)
    monkeypatch.setattr(nangle.matrices, "_solve", refuse)
    monkeypatch.setattr(nangle.homotopy, "_homotopy_system", refuse)
    for ring in (Z4, Z9, G2):
        for n in range(3, 13):
            algebraicity_verdict(ring, n)
    assert [null_homotopy_d(Z9, n, 3) for n in range(3, 9)] == [None, (1,), None, (1, 0, 1), None, (1, 0, 1, 0, 1)]
    assert algebraicity_verdict(Z4, 5).verdict == "not_algebraic"


def test_alternating_certificate_refuses_even_n():
    """For even n the alternating sum of the right sides is 0, so it proves
    nothing and the certificate's check refuses it."""
    with pytest.raises(AssertionError):
        _alternating_certificate(quotient_complex(Z4, 6, 2))


def dense_solve(qc):
    a, b, _ = quotient_system(qc)
    return _solve(a, b, normal_form(a))


@pytest.mark.parametrize("n", [*range(3, 32, 2), 255])
def test_certificate_equals_the_dense_normal_form(n):
    """On Z/4, the only ring that reaches not_algebraic, the closed-form
    certificate is the one the dense solve of the obstruction system gives,
    P and Q included."""
    cert = algebraicity_verdict(Z4, n).certificate
    want = dense_solve(quotient_complex(Z4, n, 2))
    assert (cert.row, cert.value, cert.constraint) == (want.row, want.value, want.constraint)
    got_nf, want_nf = cert.normal, want.normal
    assert (got_nf.P, got_nf.Q, got_nf.u, got_nf.v) == (want_nf.P, want_nf.Q, want_nf.u, want_nf.v)


def valid_cases():
    for spec in ("Z/4", "Z/9", "Z/25", "Z/49"):
        ring = make_ring(spec)
        p = ring.k.p
        for d in range(p, 4 * ring.order, p):
            if d % (p * p):
                yield ring, d, range(3, 15)
        yield ring, p, (254,)


def test_witness_equals_the_dense_solution():
    """For every valid d below 4q² at n = 3..14, and for d = p at n = 254, the
    closed-form witness is the dense solution's q_1..q_{n-3}, and None
    exactly when the dense system has no solution."""
    for ring, d, ns in valid_cases():
        for n in ns:
            qc = quotient_complex(ring, n, d)
            x = dense_solve(qc)
            want = tuple(x.data[:-1]) if isinstance(x, RMatrix) else None
            assert null_homotopy_d(ring, n, d) == want, (ring.spec, d, n)
