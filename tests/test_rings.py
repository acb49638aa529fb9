import itertools
import math
import random
import re

import pytest

from nangle.rings import (
    IRREDUCIBLE_POLYS,
    PRIMALITY_BOUND,
    DualNumbers,
    ExtensionField,
    IntModQSquared,
    ResidueField,
    is_prime,
    make_ring,
)
from oracles import NaiveDualRing, NaivePolyField, naive_zq2_add, naive_zq2_mul


def test_parse_families():
    r = make_ring("Z/4")
    assert isinstance(r, IntModQSquared)
    assert r.q == 2 and r.p == 2 and r.two_p_zero
    g = make_ring("GF(2)[x]/(x^2)")
    assert isinstance(g, DualNumbers)
    assert g.q == 2 and g.two_p_zero
    assert make_ring("Z/9").two_p_zero is False
    assert make_ring("GF(4)[x]/(x^2)").two_p_zero is True
    assert make_ring("GF(9)[x]/(x^2)").two_p_zero is False


PARSE_REFUSALS = {
    "Z/6": "6 is not the square of a prime",
    "Z/8": "8 is not the square of a prime",
    "Z/0": "0 is not the square of a prime",
    "GF(6)[x]/(x^2)": "6 is not a prime power",
    "GF(1)[x]/(x^2)": "1 is not a prime power",
    "GF(513)[x]/(x^2)": "exceeds the supported bound 512",
    "GF(1000000000000000000000007)[x]/(x^2)": "exceeds the supported bound 512",
    "GF(y)[x]/(x^2)": "cannot parse ring spec",
    "Q": "cannot parse ring spec",
    "Z/x": "cannot parse ring spec",
}


@pytest.mark.parametrize("bad", PARSE_REFUSALS)
def test_parse_rejects(bad):
    with pytest.raises(ValueError, match=re.escape(PARSE_REFUSALS[bad])):
        make_ring(bad)


def test_ring_and_field_refusals():
    z4, g4 = make_ring("Z/4"), make_ring("GF(4)[x]/(x^2)")
    for ring, x in ((z4, 2), (g4, g4.p), (z4, 0)):
        with pytest.raises(ZeroDivisionError, match="is not a unit"):
            ring.inv(x)
    for ring, x in ((z4, 4), (z4, -1), (g4, 16)):
        with pytest.raises(ValueError, match="is not a canonical element code"):
            ring.classify(x)
    for field in (z4.k, make_ring("Z/9").k, g4.k):
        with pytest.raises(ZeroDivisionError, match="0 is not invertible in the residue field"):
            field.inv(0)
    with pytest.raises(ValueError, match="field characteristic 4 is not prime"):
        ResidueField(4, 1)


def test_extension_field_refuses_a_modulus_off_file_or_reducible(monkeypatch):
    """GF(2^10) and GF(23^2) lie above the 512 bound of the table, and
    x² + 1 = (x + 1)² over GF(2) has no element whose powers reach every
    nonzero code."""
    for p, e in ((2, 10), (23, 2)):
        with pytest.raises(ValueError, match=rf"no irreducible polynomial on file for GF\({p}\^{e}\)"):
            ExtensionField(p, e)
    monkeypatch.setitem(IRREDUCIBLE_POLYS, (2, 2), (1, 0, 1))
    with pytest.raises(ValueError, match=r"the modulus on file for GF\(2\^2\) is reducible"):
        ExtensionField(2, 2)


def sieve(bound):
    prime = [False, False] + [True] * (bound - 2)
    for i in range(2, math.isqrt(bound - 1) + 1):
        if prime[i]:
            prime[i * i :: i] = [False] * len(range(i * i, bound, i))
    return prime


def test_is_prime_agrees_with_a_sieve():
    """Below 50 000 the composites include 43² = 1849 and 43·47 = 2021, whose
    least factors are above every Miller-Rabin base, so only a witness round
    can refuse them."""
    prime = sieve(50_000)
    assert [n for n in range(50_000) if is_prime(n) != prime[n]] == []


@pytest.mark.parametrize(
    "n", [3215031751, 318665857834031151167461], ids=["spsp-to-2-3-5-7", "spsp-to-every-prime-base-up-to-37"]
)
def test_is_prime_refuses_strong_pseudoprimes(n):
    """3215031751 = 151·751·28351 passes bases 2, 3, 5 and 7, and
    318665857834031151167461 = 399165290221·798330580441 passes every prime
    base up to 37, so base 41 alone refuses it."""
    assert not is_prime(n)


def test_parse_large_moduli():
    q = 2**61 - 1
    assert make_ring(f"Z/{q * q}").q == q
    with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
        make_ring(f"Z/{(PRIMALITY_BOUND + 2) ** 2}")


def test_dual_numbers_bound():
    make_ring("GF(512)[x]/(x^2)")  # boundary accepted
    with pytest.raises(ValueError):
        make_ring("GF(1024)[x]/(x^2)")


def test_spec_arithmetic_examples():
    z4 = make_ring("Z/4")
    assert z4.mul(3, 3) == 1
    assert z4.mul(2, 2) == 0  # m^2 = 0
    g = make_ring("GF(2)[x]/(x^2)")
    one_plus_x = g.from_parts(1, 1)
    assert g.mul(one_plus_x, one_plus_x) == 1


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_zq2_exhaustive_against_naive(q):
    r = make_ring(f"Z/{q * q}")
    for x in range(r.order):
        for y in range(r.order):
            assert r.add(x, y) == naive_zq2_add(q, x, y)
            assert r.mul(x, y) == naive_zq2_mul(q, x, y)


def _pairs(order: int, bound: int):
    """All pairs of codes below order when order <= bound, else a seeded
    sample of 20000 pairs."""
    if order <= bound:
        return itertools.product(range(order), repeat=2)
    rng = random.Random(order)
    return [(rng.randrange(order), rng.randrange(order)) for _ in range(20000)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 32, 512])
def test_dual_exhaustive_against_naive(q):
    r = make_ring(f"GF({q})[x]/(x^2)")
    naive = NaiveDualRing(q)
    for x, y in _pairs(r.order, 256):
        assert r.add(x, y) == naive.add(x, y)
        assert r.mul(x, y) == naive.mul(x, y)


@pytest.mark.parametrize("q", sorted(p**e for p, e in IRREDUCIBLE_POLYS))
def test_residue_field_is_a_field(q):
    """Every tabulated field against the naive polynomial oracle: all pairs
    for q <= 64, a seeded sample above.  Field axioms on top certify the
    irreducibility of the modulus (a quotient by a reducible polynomial would
    have a non-invertible nonzero element)."""
    k = make_ring(f"GF({q})[x]/(x^2)").k
    naive = NaivePolyField(q)
    for x in range(q):
        assert k.add(x, 0) == x and k.mul(x, 1) == x
        assert naive.add(x, k.neg(x)) == 0
        if x != 0:
            assert naive.mul(x, k.inv(x)) == 1
    for x, y in _pairs(q, 64):
        assert k.add(x, y) == naive.add(x, y) == k.add(y, x)
        assert k.mul(x, y) == naive.mul(x, y) == k.mul(y, x)
    rng = random.Random(0)
    for _ in range(300):
        x, y, z = (rng.randrange(q) for _ in range(3))
        assert k.mul(x, k.mul(y, z)) == k.mul(k.mul(x, y), z)
        assert k.mul(x, k.add(y, z)) == k.add(k.mul(x, y), k.mul(x, z))


@pytest.mark.parametrize("spec", ["Z/4", "Z/9", "Z/25", "GF(2)[x]/(x^2)", "GF(4)[x]/(x^2)", "GF(8)[x]/(x^2)"])
def test_classify_trichotomy(spec):
    r = make_ring(spec)
    units = 0
    for x in range(r.order):
        kind, data = r.classify(x)
        if kind == "zero":
            assert x == 0
        elif kind == "unit":
            units += 1
            assert r.mul(x, data) == 1
        else:
            assert kind == "unit_times_p"
            assert r.is_unit(data)
            assert r.mul(data, r.p) == x
            assert x != 0
    # number of units = |R| - |m| = q^2 - q
    assert units == r.order - r.q


def test_classify_examples():
    assert make_ring("Z/4").classify(3) == ("unit", 3)
    assert make_ring("Z/9").classify(6) == ("unit_times_p", 2)
    assert make_ring("Z/4").classify(0) == ("zero", None)


@pytest.mark.parametrize("spec", ["Z/4", "Z/9", "GF(2)[x]/(x^2)", "GF(4)[x]/(x^2)", "GF(16)[x]/(x^2)"])
def test_unit_classes_exhaustive(spec):
    """u ~ v iff u*p = v*p, checked against a literal grouping of all units."""
    r = make_ring(spec)
    reps = r.unit_class_reps()
    assert len(reps) == r.q - 1
    classes: dict[int, list[int]] = {}
    for u in (x for x in range(r.order) if x % r.q != 0):
        classes.setdefault(r.mul(u, r.p), []).append(u)
    assert len(classes) == len(reps)
    for rep in reps:
        assert rep in classes[r.mul(rep, r.p)]
    # every pair inside one class has up = vp; across classes not
    for key, members in classes.items():
        for u in members:
            assert r.mul(u, r.p) == key


def test_unit_class_examples():
    assert make_ring("Z/4").unit_class_reps() == [1]
    assert make_ring("Z/9").unit_class_reps() == [1, 2]
    assert len(make_ring("GF(4)[x]/(x^2)").unit_class_reps()) == 3


def test_canonical_form_roundtrip():
    for spec in ["Z/9", "GF(4)[x]/(x^2)"]:
        r = make_ring(spec)
        for x in range(r.order):
            a, b = r.residue(x), r.p_part(x)
            assert r.from_parts(a, b) == x
            enc = r.encode_element(x)
            assert r.decode_element(enc) == x


def test_decode_rejects():
    r = make_ring("Z/4")
    with pytest.raises(ValueError):
        r.decode_element(4)
    with pytest.raises(ValueError):
        r.decode_element([1, 0])
    g = make_ring("GF(4)[x]/(x^2)")
    with pytest.raises(ValueError):
        g.decode_element(3)
    with pytest.raises(ValueError):
        g.decode_element([4, 0])


def test_require_unit_accepts_only_canonical_unit_codes():
    z4, g4 = make_ring("Z/4"), make_ring("GF(4)[x]/(x^2)")
    assert [z4.require_unit(u) for u in (1, 3)] == [1, 3]
    assert g4.require_unit(g4.from_parts(2, 3)) == g4.from_parts(2, 3)
    for ring, bad in [(z4, -3), (z4, 5), (z4, True), (z4, 1.0), (z4, "1"), (g4, 17), (g4, -1)]:
        with pytest.raises(ValueError, match="canonical element code"):
            ring.require_unit(bad)
    for ring, bad in [(z4, 0), (z4, 2), (g4, 0), (g4, g4.p), (g4, g4.from_parts(0, 3))]:
        with pytest.raises(ValueError, match="not a unit"):
            ring.require_unit(bad)


def test_two_p_zero_matches_definition():
    for spec in ["Z/4", "Z/9", "Z/25", "GF(2)[x]/(x^2)", "GF(3)[x]/(x^2)", "GF(4)[x]/(x^2)", "GF(9)[x]/(x^2)"]:
        r = make_ring(spec)
        assert r.two_p_zero == (r.add(r.p, r.p) == 0)
        # true iff residue characteristic two
        assert r.two_p_zero == (r.k.p == 2)
