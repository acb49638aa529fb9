import pytest

from nangle.algebraicity import (
    algebraicity_verdict,
    find_obstruction_d,
    null_homotopy_d,
    quotient_complex,
    alternating_witness,
)
from nangle.homotopy import find_open_chain_nullhomotopy
from nangle.rings import make_ring
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


def test_quotient_complex_shape():
    qc = quotient_complex(Z4, 6, 2)
    assert qc.u == 1 and qc.num_terms == 4
    assert len(qc.differentials()) == 3
    assert all(m.to_lists() == [[2]] for m in qc.differentials())
    assert all(m.to_lists() == [[2]] for m in qc.self_map_components())
    with pytest.raises(ValueError):
        quotient_complex(Z4, 1, 4)  # 1*1 is a unit, not in m\{0}


def test_null_homotopy_examples():
    assert null_homotopy_d(Z4, 5, 2) is None
    assert null_homotopy_d(Z4, 4, 2) == (1,)
    got = null_homotopy_d(Z4, 6, 2)
    assert got is not None and len(got) == 3
    # the alternating witness itself
    assert alternating_witness(Z4, 6, 1) == (1, 0, 1)


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


def test_consistency_with_open_chain_solver():
    """null_homotopy_d presence iff the generic open-chain null-homotopy of
    the self-map (u*p, ..., u*p) on the realized chain exists."""
    for ring, d in [(Z4, 2), (Z9, 3)]:
        for n in range(3, 9):
            qc = quotient_complex(ring, n, d)
            generic = find_open_chain_nullhomotopy(qc.differentials(), qc.self_map_components())
            assert (generic is not None) == (null_homotopy_d(ring, n, d) is not None)


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
    from nangle.algebraicity import _build_system

    _, rhs = _build_system(Z4, 5, 1)
    c = cert.normal.P @ rhs
    val = c.entry(cert.row, 0)
    if cert.constraint == "in_m":
        assert Z4.is_unit(val)
    else:
        assert val != 0
