"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line.  The
classification gate runs first (the file is executed top to bottom): the
membership criterion must agree with brute-force isomorphism search before
the counting and axiom criteria mean anything.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time

from nangle.algebraicity import algebraicity_verdict, null_homotopy_d, quotient_complex, alternating_witness
from nangle.angulation import classify, enumerate_angulations, is_exact, membership, run_axiom_suite
from nangle.homotopy import cone_iso_from_homotopy, contraction_of_cone_of_iso, find_homotopy
from nangle.matrices import KMatrix, RMatrix, kinv, krank, lift_p
from nangle.rings import make_ring
from nangle.sampling import random_homotopy_deformation, random_invertibles, random_member, random_morphism, trial_rng
from nangle.sequences import (
    NSequence,
    SeqMorphism,
    apply_iso,
    compose,
    is_candidate,
    mapping_cone,
    rotate_left,
    standard_angle,
)
from oracles import (
    brute_homotopy_exists,
    brute_open_chain_nullhomotopy_exists,
    exact_by_elements,
    oracle_membership,
    oracle_minimal_core_in_nu,
)

Z4 = make_ring("Z/4")
Z9 = make_ring("Z/9")
Z25 = make_ring("Z/25")
G2 = make_ring("GF(2)[x]/(x^2)")
G4 = make_ring("GF(4)[x]/(x^2)")


def announce(num, text, t0):
    print(f"\nACCEPTANCE {num}: PASS ({time.time() - t0:.1f}s) - {text}")


def invertible_k_matrices(ring, r):
    out = []
    for entries in itertools.product(range(ring.q), repeat=r * r):
        m = KMatrix(ring.k, r, r, entries)
        if krank(m) == r:
            out.append(m)
    return out


def core_from_residues(ring, residues):
    r = residues[0].rows
    return NSequence(ring, len(residues), (r,) * len(residues), tuple(lift_p(ring, b) for b in residues))


def gate_cell_exhaustive(ring, n, r):
    """Compare classify-membership with the isomorphism-search oracle on
    every minimal exact core of rank r."""
    glk = invertible_k_matrices(ring, r)
    reps = ring.unit_class_reps()
    checked = 0
    for combo in itertools.product(glk, repeat=n):
        core = core_from_residues(ring, list(combo))
        cert = classify(core)
        for u in reps:
            assert cert.member_of(ring, u) == oracle_minimal_core_in_nu(core, u)
        checked += 1
    return checked


def test_criterion_7_classification_gate():
    """Derived product-residue criterion vs brute-force isomorphism search on
    minimal exact cores of rank <= 2 over Z/4 and Z/9, n in {3, 4}.

    All cells are exhaustive except (Z/9, n=4, rank 2), whose 48^4 cores do
    not fit the runtime budget; that cell is covered by a seeded slice of the
    scalar-product cores (constructed independently, so the positive side of
    the criterion is stress-tested in every unit class) plus a seeded sample
    of general cores.  The same factor alphabet is swept exhaustively in the
    (Z/9, n=3, rank 2) cell.
    """
    t0 = time.time()
    counts = {}
    for ring in (Z4, Z9):
        for n in (3, 4):
            counts[(ring.spec, n, 1)] = gate_cell_exhaustive(ring, n, 1)
    counts[(Z4.spec, 3, 2)] = gate_cell_exhaustive(Z4, 3, 2)
    counts[(Z4.spec, 4, 2)] = gate_cell_exhaustive(Z4, 4, 2)
    counts[(Z9.spec, 3, 2)] = gate_cell_exhaustive(Z9, 3, 2)

    # (Z/9, n=4, rank 2): sampled positives (all scalar-product cores have
    # the shape (b1, b2, b3, u * (b3 b2 b1)^-1)) plus sampled general cores
    k = Z9.k
    glk = invertible_k_matrices(Z9, 2)
    reps = Z9.unit_class_reps()
    rng = random.Random(777)
    positives = 0
    for u in reps:
        u_res = Z9.residue(u)
        for i in range(2000):
            b1, b2, b3 = (glk[rng.randrange(len(glk))] for _ in range(3))
            scaled_inv = kinv(b3 @ (b2 @ b1))
            b4 = KMatrix(k, 2, 2, [k.mul(u_res, v) for v in scaled_inv.data])
            core = core_from_residues(Z9, [b1, b2, b3, b4])
            cert = classify(core)
            assert cert.verdict == "in_nu" and cert.u_class == u_res
            assert oracle_minimal_core_in_nu(core, u)
            positives += 1
    sampled = 0
    for _ in range(2000):
        combo = [glk[rng.randrange(len(glk))] for _ in range(4)]
        core = core_from_residues(Z9, combo)
        cert = classify(core)
        for u in reps:
            assert cert.member_of(Z9, u) == oracle_minimal_core_in_nu(core, u)
        sampled += 1
    counts[(Z9.spec, 4, 2)] = positives + sampled
    total = sum(counts.values())
    announce(7, f"classification gate: {total} minimal cores agree with isomorphism search", t0)


def test_criterion_1_angulation_counts():
    t0 = time.time()
    for n in range(3, 9):
        e = enumerate_angulations(Z4, n)
        assert e.status == "ok" and len(e.classes) == 1, (n, e.status)
    for n in (4, 6):
        e = enumerate_angulations(Z9, n)
        assert e.status == "ok" and len(e.classes) == 2
    e = enumerate_angulations(Z25, 4)
    assert e.status == "ok" and len(e.classes) == 4
    e = enumerate_angulations(G2, 3)
    assert e.status == "ok" and len(e.classes) == 1
    e = enumerate_angulations(G4, 3)
    assert e.status == "ok" and len(e.classes) == 3
    announce(1, "angulation counts: Z/4 (n=3..8) = 1, Z/9 (n=4,6) = 2, Z/25 (n=4) = 4, GF(2)x = 1, GF(4)x = 3", t0)


def test_criterion_2_none_exist_odd_n():
    """(Z/9, 3) and (Z/25, 5) admit no angulation; the witness shows each
    candidate N_u fails (N2) on the rotation of its own generator (p = -p
    fails), i.e. membership(rotate_left(standard_angle(u)), u) is false for
    every unit class.  (The rotation does land in N_{-u}, as the attached
    witness records, so the failure is inherently diagonal.)
    """
    t0 = time.time()
    for ring, n in [(Z9, 3), (Z25, 5)]:
        e = enumerate_angulations(ring, n)
        assert e.status == "none_exist"
        table = {(u, v): ok for (u, v, ok) in e.rotation_witness}
        assert len(table) == len(e.rotation_witness) == 2 * len(ring.unit_class_reps())
        for u in ring.unit_class_reps():
            rot = rotate_left(standard_angle(ring, n, u, 1))
            assert membership(rot, u) is False
            assert table[(u, u)] is False
            # every listed entry is the recomputed membership
            for v in ring.unit_class_reps():
                if (u, v) in table:
                    assert table[(u, v)] == membership(rot, v)
            # consistency with p = -p: the rotation lives exactly in N_{-u}
            minus_u = ring.from_residue(ring.residue(ring.neg(u)))
            assert table[(u, minus_u)] is True
            assert [v for v in ring.unit_class_reps() if membership(rot, v)] == [minus_u]
    announce(2, "no angulations for (Z/9, 3) and (Z/25, 5); rotation witness attached and diagonal-false", t0)


def test_criterion_3_axiom_suite():
    t0 = time.time()
    configs = [(Z4, 3), (Z4, 4), (Z4, 5), (Z9, 4), (G2, 3), (G2, 4)]
    for ring, n in configs:
        rep = run_axiom_suite(ring, n, u=1, max_rank=3, trials=500, seed=20240 + n)
        assert rep.passed, rep.failures[:1]
        total = sum(c["pass"] for c in rep.counts.values())
        assert all(c["fail"] == 0 for c in rep.counts.values())
        assert total >= 500 * 7
    announce(3, "axiom suite: 6 configs x 500 seeded trials at max_rank 3, all checks pass", t0)


def test_criterion_4_non_algebraicity():
    t0 = time.time()
    for n in (3, 5, 7, 9, 11):
        rep = algebraicity_verdict(Z4, n)
        assert rep.verdict == "not_algebraic" and rep.d == 2
    for n in (4, 6, 8, 10, 12):
        rep = algebraicity_verdict(Z4, n)
        assert rep.verdict == "inconclusive"
        expected = alternating_witness(Z4, n, 1)  # (1, 0, 1, ..., 0, 1)
        assert rep.witness == expected
        assert expected[0::2] == (1,) * len(expected[0::2]) and expected[1::2] == (0,) * len(expected[1::2])
    for n in (3, 4, 5):
        rep = algebraicity_verdict(G2, n)
        assert rep.verdict == "inconclusive" and rep.reason == "no-valid-d"
    announce(4, "Z/4 odd n in 3..11 NOT algebraic; even n in 4..12 inconclusive with witness (1,0,...,0,1); GF(2)x no valid d", t0)


def test_criterion_5_homotopy_lemmas():
    t0 = time.time()
    configs = [(Z4, 3), (Z4, 4), (Z9, 4), (G2, 3)]
    # 200 seeded homotopic pairs -> two-sided cone isomorphisms
    for i in range(200):
        ring, n = configs[i % len(configs)]
        rng = trial_rng(5150, i)
        x = random_member(ring, n, 1, 2, rng)
        y = random_member(ring, n, 1, 2, rng)
        phi = random_morphism(x, y, rng)
        h = random_homotopy_deformation(phi, rng)  # verified Homotopy
        fwd, bwd = cone_iso_from_homotopy(h)
        left, right = compose(bwd, fwd), compose(fwd, bwd)
        for comp in left.phis + right.phis:
            assert comp == RMatrix.identity(ring, comp.rows)
    # 200 seeded isomorphisms -> verified contractions; each contractible
    # cone is exact and a member of every N_u
    for i in range(200):
        ring, n = configs[i % len(configs)]
        rng = trial_rng(6160, i)
        x = random_member(ring, n, 1, 2, rng)
        psis = random_invertibles(ring, x.ranks, rng)
        y = apply_iso(x, psis)
        phi = SeqMorphism(x, y, tuple(psis))
        contraction = contraction_of_cone_of_iso(phi)  # validated on construction
        cone = mapping_cone(phi)
        assert contraction.phi.source == cone
        assert is_exact(cone)
        for u in ring.unit_class_reps():
            assert membership(cone, u)
    announce(5, "200 cone isomorphisms from homotopies + 200 contractions of cones of isomorphisms, all verified", t0)


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    # membership and exactness vs brute force: every 0/1-rank sequence (n=3)
    mem_checked = 0
    for ring in (Z4, G2):
        for ranks in itertools.product((0, 1), repeat=3):
            shapes = [(ranks[(i + 1) % 3], ranks[i]) for i in range(3)]
            pools = [list(itertools.product(range(ring.order), repeat=r * c)) for r, c in shapes]
            for datas in itertools.product(*pools):
                maps = tuple(RMatrix(ring, shapes[i][0], shapes[i][1], datas[i]) for i in range(3))
                x = NSequence(ring, 3, ranks, maps)
                if is_candidate(x):
                    assert is_exact(x) == exact_by_elements(x)
                assert membership(x, 1) == oracle_membership(x, 1)
                mem_checked += 1
    # sampled rank <= 2 instances over both rings, n in {3, 4}
    rng = random.Random(606)
    for ring in (Z4, G2):
        for n in (3, 4):
            for _ in range(25):
                if rng.randrange(2):
                    x = random_member(ring, n, 1, 1, rng)
                else:
                    residues = [KMatrix(ring.k, 1, 1, [rng.randrange(ring.q)]) for _ in range(n)]
                    x = core_from_residues(ring, residues)
                if max(x.ranks) > 2:
                    continue
                assert membership(x, 1) == oracle_membership(x, 1)
                if is_candidate(x):
                    assert is_exact(x) == exact_by_elements(x)
                mem_checked += 1
    # find_homotopy vs exhaustive enumeration (<= 6 unknowns over Z/4)
    hom_checked = 0
    for n in (3, 4, 5, 6):
        x = standard_angle(Z4, n, 1, 1)
        for j in range(5):
            rng2 = trial_rng(707, 10 * n + j)
            phi = random_morphism(x, x, rng2)
            psi = random_morphism(x, x, rng2)
            assert (find_homotopy(phi, psi) is not None) == brute_homotopy_exists(phi, psi)
            hom_checked += 1
    # null_homotopy_d vs exhaustive enumeration (|R| <= 9, n <= 7)
    nh_checked = 0
    for ring, d in [(Z4, 2), (Z9, 3)]:
        for n in range(3, 8):
            qc = quotient_complex(ring, n, d)
            assert (null_homotopy_d(ring, n, d) is not None) == brute_open_chain_nullhomotopy_exists(ring, n, qc.u)
            nh_checked += 1
    announce(
        6,
        f"oracle equivalence: membership/exactness on {mem_checked} sequences, "
        f"homotopy on {hom_checked} pairs, obstruction on {nh_checked} systems, 100% agreement",
        t0,
    )
