import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from nangle import angulation, cli
from nangle.algebraicity import algebraicity_verdict, quotient_complex
from nangle.angulation import (
    _is_split,
    SplitResult,
    classify,
    complete_morphism,
    complete_to_angle,
    core_to_standard_iso,
    enumerate_angulations,
    is_exact,
    membership,
    run_axiom_suite,
    split_trivials,
)
from nangle.homotopy import is_contractible
from nangle.matrices import RMatrix, lift_p, KMatrix, normal_form
from nangle.rings import MAX_N, MAX_RANK, make_ring
from nangle.sampling import random_commuting_square, random_invertibles, random_member, random_morphism
from nangle.serialize import decode_matrix, decode_sequence
from nangle.sequences import (
    NSequence,
    SeqMorphism,
    TrivialSpec,
    apply_iso,
    direct_sum,
    is_candidate,
    mapping_cone,
    rotate_left,
    rotate_right,
    standard_angle,
    trivial_sequence,
    zero_morphism,
)
from oracles import exact_by_elements, oracle_membership, oracle_minimal_core_in_nu
from test_matrices import PROPERTY_RINGS

Z4 = make_ring("Z/4")
Z9 = make_ring("Z/9")
G2 = make_ring("GF(2)[x]/(x^2)")


def minimal_core(ring, n, residues):
    """Sequence with maps p*B_i for the given residue matrices."""
    k = ring.k
    maps = []
    r = residues[0].rows
    for b in residues:
        maps.append(lift_p(ring, b))
    return NSequence(ring, n, (r,) * n, tuple(maps))


def test_split_trivials_examples():
    t = trivial_sequence(Z4, 3, TrivialSpec(1, 1))
    sp = split_trivials(t)
    assert sp.core.total_rank() == 0
    assert sp.trivials == (TrivialSpec(1, 1),)
    x = standard_angle(Z4, 3, 1, 1)
    sp = split_trivials(x)
    assert sp.core == x and sp.trivials == ()
    with pytest.raises(ValueError):
        split_trivials(NSequence(Z4, 3, (1, 1, 1), tuple(RMatrix(Z4, 1, 1, [1]) for _ in range(3))))


def test_split_trivials_reconstruction_random():
    rng = random.Random(31)
    for ring, n in [(Z4, 3), (Z4, 4), (Z9, 4), (G2, 3)]:
        for _ in range(8):
            x = random_member(ring, n, 1, 3, rng)
            sp = split_trivials(x)
            assert all(m.is_minimal() for m in sp.core.maps)
            recon = direct_sum(sp.core, *(trivial_sequence(ring, n, t) for t in sp.trivials)) if sp.trivials else sp.core
            assert apply_iso(x, sp.iso) == recon


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(PROPERTY_RINGS),
    st.integers(3, 6),
    st.integers(0, 3),
    st.integers(0, 2**32),
    st.sampled_from(["member", "foreign", "cone"]),
)
def test_split_trivials_property(ring, n, max_rank, seed, shape):
    """Members of N_u, members summed with a rank-one generator and
    conjugated again, and mapping cones of random morphisms between members
    split with an exact certificate."""
    rng = random.Random(seed)
    reps = ring.unit_class_reps()
    u = reps[rng.randrange(len(reps))]
    x = random_member(ring, n, u, max_rank, rng)
    if shape == "foreign":
        x = direct_sum(x, standard_angle(ring, n, reps[-1], 1))
        x = apply_iso(x, random_invertibles(ring, x.ranks, rng))
    elif shape == "cone":
        x = mapping_cone(random_morphism(x, random_member(ring, n, u, max_rank, rng), rng))
    sp = split_trivials(x)
    assert all(m.is_minimal() for m in sp.core.maps)
    assert all(t.rank == 1 for t in sp.trivials)
    assert x.total_rank() - sp.core.total_rank() == 2 * len(sp.trivials)
    recon = direct_sum(sp.core, *(trivial_sequence(ring, n, t) for t in sp.trivials))
    assert apply_iso(x, sp.iso) == recon


def _is_split_by_direct_sum(x, split):
    """The split check as a statement: every core map is minimal and the iso
    carries x to direct_sum(core, *trivials), built in full."""
    ring, n = x.ring, x.n
    beta = direct_sum(split.core, *(trivial_sequence(ring, n, t) for t in split.trivials))
    return all(m.is_minimal() for m in split.core.maps) and _is_isomorphism(x, beta, split.iso)


def _is_isomorphism(x, y, psis):
    """ψ: x → y is an isomorphism of sequences; the ValueError of a square
    that does not commute, or of a wrong shape, means it is not."""
    try:
        return SeqMorphism(x, y, tuple(psis)).is_isomorphism()
    except ValueError:
        return False


def _change_entry(m, rng, delta):
    data = list(m.data)
    e = rng.randrange(len(data))
    data[e] = m.ring.add(data[e], delta)
    return RMatrix(m.ring, m.rows, m.cols, data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(PROPERTY_RINGS),
    st.integers(3, 6),
    st.integers(0, 2**32),
    st.sampled_from(["member", "foreign", "cone"]),
    st.sampled_from(["none", "iso-entry", "core-entry", "trivial-position", "trivial-order", "iso-times-p"]),
)
def test_blockwise_split_check_agrees_with_the_direct_sum(ring, n, seed, shape, corruption):
    """The split's final check, which never builds core ⊕ trivials, agrees
    with the same statement written with direct_sum, on genuine splits and on
    splits with one entry of one ψ_i changed, one core entry changed (mostly
    within m, so that the squares decide), one trivial moved to another
    position or to another place in the order, or every ψ_i multiplied by p,
    which keeps every square and loses invertibility."""
    rng = random.Random(seed)
    reps = ring.unit_class_reps()
    u = reps[rng.randrange(len(reps))]
    x = random_member(ring, n, u, rng.randrange(4), rng)
    if shape == "foreign":
        x = direct_sum(x, standard_angle(ring, n, reps[-1], 1))
        x = apply_iso(x, random_invertibles(ring, x.ranks, rng))
    elif shape == "cone":
        x = mapping_cone(random_morphism(x, random_member(ring, n, u, 2, rng), rng))
    sp = split_trivials(x)
    assert _is_split(x, sp) and _is_split_by_direct_sum(x, sp)
    core, trivials, iso = sp.core, list(sp.trivials), list(sp.iso)
    nonzero = 1 + rng.randrange(ring.order - 1)
    if corruption == "iso-entry" and x.total_rank():
        i = rng.choice([i for i, m in enumerate(iso) if m.data])
        iso[i] = _change_entry(iso[i], rng, nonzero)
    elif corruption == "core-entry" and core.total_rank():  # the core has equal ranks
        i = rng.randrange(n)
        delta = nonzero if rng.randrange(4) == 0 else ring.from_parts(0, 1 + rng.randrange(ring.q - 1))
        maps = list(core.maps)
        maps[i] = _change_entry(maps[i], rng, delta)
        core = NSequence(ring, n, core.ranks, tuple(maps))
    elif corruption == "trivial-position" and trivials:
        t = rng.randrange(len(trivials))
        position = rng.choice([p for p in range(1, n + 1) if p != trivials[t].position])
        trivials[t] = TrivialSpec(rank=trivials[t].rank, position=position)
    elif corruption == "trivial-order" and len(trivials) > 1:
        trivials.insert(rng.randrange(len(trivials)), trivials.pop(rng.randrange(len(trivials))))
    elif corruption == "iso-times-p":
        iso = [m.scale(ring.p) for m in iso]
    bad = SplitResult(core=core, trivials=tuple(trivials), iso=tuple(iso))
    assert _is_split(x, bad) == _is_split_by_direct_sum(x, bad)


def test_split_roundtrip_with_completion():
    alpha = RMatrix.from_rows(Z4, [[2, 1], [0, 2]])
    seq = complete_to_angle(alpha, 1, 3)
    sp = split_trivials(seq)
    # normal form of alpha has (u0, v0) = (0, 1): one trivial pair splits per
    # unit, plus the padding trivials; the core keeps no p-block contribution
    assert all(m.is_minimal() for m in sp.core.maps)
    assert sp.core.total_rank() == 0  # u0 = 0 leaves an entirely contractible angle
    assert membership(seq, 1)


def test_membership_examples():
    x = standard_angle(Z4, 3, 1, 1)
    assert membership(x, 1) and membership(x, 3)  # 1*2 = 3*2
    rot9 = rotate_left(standard_angle(Z9, 3, 1, 1))
    cert = classify(rot9)
    assert cert.verdict == "in_nu" and cert.u_class == 2
    assert not membership(rot9, 1)
    assert membership(rot9, 2)


def test_unit_arguments_must_be_canonical_unit_codes():
    """Codes outside 0..|R|-1 and bools name no element of R; -3 and 5 over
    Z/4 were once taken as the unit 1."""
    g4 = make_ring("GF(4)[x]/(x^2)")
    x = standard_angle(Z4, 4, 1, 2)
    eye = RMatrix.identity(Z4, 2)
    calls = [
        lambda: membership(x, -3),
        lambda: membership(x, True),
        lambda: standard_angle(g4, 4, 17, 1),
        lambda: complete_to_angle(RMatrix(Z4, 1, 1, [2]), 5, 4),
        lambda: complete_morphism(x, x, 5, eye, eye),
        lambda: run_axiom_suite(Z4, 4, 5, 2, 1, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="canonical element code"):
            call()


def test_membership_rank2_product_not_scalar():
    k = Z9.k
    b = KMatrix(k, 2, 2, [1, 1, 0, 1])
    eye = KMatrix.identity(k, 2)
    core = minimal_core(Z9, 3, [eye, eye, b])
    cert = classify(core)
    assert cert.verdict == "not_in_any" and cert.reason == "product-not-scalar"
    # brute-force isomorphism search agrees there is no isomorphism to any F(u*p)
    for u in Z9.unit_class_reps():
        assert not oracle_minimal_core_in_nu(core, u)


def test_classify_reasons():
    assert classify(NSequence(Z4, 3, (1, 1, 1), tuple(RMatrix(Z4, 1, 1, [1]) for _ in range(3)))).reason == "not-candidate"
    z = RMatrix.zeros(Z4, 1, 1)
    p = RMatrix(Z4, 1, 1, [2])
    assert classify(NSequence(Z4, 3, (1, 1, 1), (z, p, p))).reason == "not-exact"
    t = trivial_sequence(Z4, 3, TrivialSpec(1, 1))
    ranks_unequal = direct_sum(t, standard_angle(Z4, 3, 1, 1))
    # after splitting the trivial, the core is the standard angle: still a member
    assert classify(ranks_unequal).verdict == "in_nu"
    # genuinely unequal minimal ranks
    z01 = RMatrix.zeros(Z4, 1, 2)
    z10 = RMatrix.zeros(Z4, 2, 1)
    pp = lift_p(Z4, KMatrix(Z4.k, 2, 2, [1, 0, 0, 1]))
    bad = NSequence(Z4, 3, (2, 2, 1), (pp, z01, z10))
    assert classify(bad).reason == "ranks-unequal"


def exact_by_lengths(x):
    """Exactness of a candidate by module lengths: at every object the image
    of the incoming map is as long as the kernel of the outgoing one.  A map
    with normal form diag(p·I_u, I_v, 0) has an image of length u + 2v and a
    kernel of length 2·cols - u - 2v."""
    if not is_candidate(x):
        return False
    im = [nf.u + 2 * nf.v for nf in map(normal_form, x.maps)]
    return all(im[i - 1] == 2 * x.ranks[i] - im[i] for i in range(x.n))


def _random_sequence(ring, n, rng, minimal):
    """Ranks 0..2, equal in half the draws; each map is drawn over R, or
    from m when ``minimal``."""
    ranks = [rng.randrange(3) for _ in range(n)] if rng.randrange(2) else [rng.randrange(3)] * n
    maps = []
    for i in range(n):
        rows, cols = ranks[(i + 1) % n], ranks[i]
        if minimal:
            maps.append(lift_p(ring, KMatrix(ring.k, rows, cols, [rng.randrange(ring.q) for _ in range(rows * cols)])))
        else:
            maps.append(RMatrix(ring, rows, cols, [rng.randrange(ring.order) for _ in range(rows * cols)]))
    return NSequence(ring, n, tuple(ranks), tuple(maps))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(PROPERTY_RINGS),
    st.integers(3, 6),
    st.integers(0, 2**32),
    st.sampled_from(["small", "changed", "minimal-summand", "cone", "foreign"]),
)
def test_split_decides_candidacy_and_exactness(ring, n, seed, shape):
    """classify finds no candidate exactly when is_candidate fails, and
    is_exact agrees with the length criterion and, where the modules are
    small enough to list, with element-level exactness.  The draws: random
    small sequences, members with one entry changed, members plus a random
    minimal summand, cones of random morphisms, and members plus a generator
    of another unit class."""
    rng = random.Random(seed)
    reps = ring.unit_class_reps()
    u = reps[rng.randrange(len(reps))]
    x = random_member(ring, n, u, 2, rng)
    if shape == "small":
        x = _random_sequence(ring, n, rng, minimal=rng.randrange(2) == 0)
    elif shape == "changed" and any(m.data for m in x.maps):
        i = rng.choice([i for i, m in enumerate(x.maps) if m.data])
        m = x.maps[i]
        data = list(m.data)
        e = rng.randrange(len(data))
        data[e] = (data[e] + 1 + rng.randrange(ring.order - 1)) % ring.order
        x = NSequence(ring, n, x.ranks, x.maps[:i] + (RMatrix(ring, m.rows, m.cols, data),) + x.maps[i + 1 :])
    elif shape == "minimal-summand":
        x = direct_sum(x, _random_sequence(ring, n, rng, minimal=True))
        x = apply_iso(x, random_invertibles(ring, x.ranks, rng))
    elif shape == "cone":
        x = mapping_cone(random_morphism(x, random_member(ring, n, u, 2, rng), rng))
    elif shape == "foreign":
        v = reps[(reps.index(u) + 1) % len(reps)]
        x = direct_sum(x, standard_angle(ring, n, v, 1))
        x = apply_iso(x, random_invertibles(ring, x.ranks, rng))
    cert = classify(x)
    assert (cert.reason == "not-candidate") == (not is_candidate(x))
    assert is_exact(x) == exact_by_lengths(x)
    if ring.order ** max(x.ranks) <= 729:
        assert is_exact(x) == exact_by_elements(x)


def test_complete_to_angle_examples():
    z = complete_to_angle(RMatrix.from_rows(Z4, [[2]]), 1, 3)
    assert z == standard_angle(Z4, 3, 1, 1)
    t = complete_to_angle(RMatrix.from_rows(Z4, [[1]]), 1, 3)
    cert = classify(t)
    assert cert.verdict == "contractible"
    z9 = complete_to_angle(RMatrix.from_rows(Z9, [[3]]), 2, 4)
    assert z9.maps[0].to_lists() == [[3]]
    assert membership(z9, 2)


def test_complete_to_angle_random_property():
    rng = random.Random(32)
    for ring, n in [(Z4, 3), (Z9, 4), (G2, 4)]:
        for _ in range(10):
            rows, cols = rng.randrange(4), rng.randrange(4)
            alpha = RMatrix(ring, rows, cols, [rng.randrange(ring.order) for _ in range(rows * cols)])
            for u in ring.unit_class_reps():
                z = complete_to_angle(alpha, u, n)
                assert z.maps[0] == alpha
                assert membership(z, u)


def test_core_to_standard_iso():
    rng = random.Random(33)
    k = Z9.k
    # random invertible residues with product forced to u * I
    for u in (1, 2):
        bs = []
        prod = KMatrix.identity(k, 2)
        for _ in range(3):
            while True:
                cand = KMatrix(k, 2, 2, [rng.randrange(3) for _ in range(4)])
                from nangle.matrices import krank

                if krank(cand) == 2:
                    break
            bs.append(cand)
            prod = cand @ prod
        from nangle.matrices import kinv

        fix = KMatrix(k, 2, 2, [k.mul(Z9.residue(u), v) for v in kinv(prod).data])
        bs.append(fix)  # now product = u * I
        core = minimal_core(Z9, 4, bs)
        assert classify(core).verdict == "in_nu"
        psis = core_to_standard_iso(core, u)
        assert apply_iso(core, psis) == standard_angle(Z9, 4, u, 2)


def test_core_to_standard_iso_rejects_bad_cores():
    """Input that is not a minimal core in N_u is refused with a ValueError
    that names the failed condition, before any standardization."""
    k = Z9.k
    one, two = KMatrix.identity(k, 1), KMatrix.scalar(k, 1, 2)
    core = standard_angle(Z9, 4, 1, 2)
    cases = [
        (core, 2, "residue product of the core is not u·I"),
        (direct_sum(core, trivial_sequence(Z9, 4, TrivialSpec(1, 2))), 1, "core ranks .* are not all equal"),
        (NSequence(Z9, 4, (1,) * 4, (RMatrix.identity(Z9, 1),) + standard_angle(Z9, 4, 1, 1).maps[1:]), 1, "core map 1 is not minimal"),
        (minimal_core(Z9, 4, [one, KMatrix.zeros(k, 1, 1), one, one]), 1, "core factor B_2 is not invertible"),
        (minimal_core(Z9, 4, [one, two, one, one]), 1, "residue product of the core is not u·I"),
        (minimal_core(Z9, 4, [one, one, one, KMatrix.zeros(k, 1, 1)]), 1, "residue product of the core is not u·I"),
        (core, 3, "not a unit"),
    ]
    for seq, u, message in cases:
        with pytest.raises(ValueError, match=message):
            core_to_standard_iso(seq, u)
    assert core_to_standard_iso(minimal_core(Z9, 4, [one, two, one, one]), 2)


def test_core_to_standard_iso_checks_its_answer(monkeypatch):
    """The final split check catches a wrong ψ: with two rows of ψ_2 swapped
    the square ψ_2·α_1 = β_1·ψ_1 fails, although every ψ_i stays invertible."""
    rng = random.Random(61)
    core = apply_iso(standard_angle(Z9, 4, 1, 2), random_invertibles(Z9, (2,) * 4, rng))
    assert len(core_to_standard_iso(core, 1)) == 4
    lift, calls = angulation.lift, []

    def swap_rows_of_second(ring, km):
        m = lift(ring, km)
        calls.append(m)
        return RMatrix.from_rows(ring, [m.row(1), m.row(0)]) if len(calls) == 2 else m

    monkeypatch.setattr(angulation, "lift", swap_rows_of_second)
    with pytest.raises(AssertionError, match="standardization of minimal core failed"):
        core_to_standard_iso(core, 1)


def _with_trivial(ring, n, position, rng):
    """A member of N_1 with a rank-one trivial at ``position``, conjugated by
    random invertibles."""
    base = direct_sum(standard_angle(ring, n, 1, 1), trivial_sequence(ring, n, TrivialSpec(1, position)))
    return apply_iso(base, random_invertibles(ring, base.ranks, rng))


def test_split_trivials_checks_its_answer(monkeypatch):
    """The final split check catches a wrong split: with every β_i·ψ_i read
    as zero the squares of a sequence with a trivial summand fail."""
    x = _with_trivial(Z9, 4, 2, random.Random(71))
    assert len(split_trivials(x).trivials) == 1
    monkeypatch.setattr(angulation, "_beta_times", lambda split, i, m: RMatrix.zeros(Z9, split.iso[(i + 1) % 4].rows, m.cols))
    with pytest.raises(AssertionError, match="split reconstruction failed"):
        split_trivials(x)


def test_complete_morphism_checks_the_given_components(monkeypatch):
    x = _with_trivial(Z9, 4, 3, random.Random(72))
    one = tuple(RMatrix.identity(Z9, r) for r in x.ranks[:2])
    assert complete_morphism(x, x, 1, *one).phis[:2] == one
    monkeypatch.setattr(angulation, "_split_morphism", lambda sx, sy, core_block, free: zero_morphism(x, x).phis)
    with pytest.raises(AssertionError, match="completion changed the given components"):
        complete_morphism(x, x, 1, *one)


@pytest.mark.parametrize(
    "source_position, target_position, solver",
    [(1, 2, "solve_matrix_right"), (4, 1, "solve_matrix")],
    ids=["row-at-object-3", "column-at-object-4"],
)
def test_complete_morphism_checks_each_division(monkeypatch, source_position, target_position, solver):
    """A trivial of the target at position 2 has its row at object 3, divided
    on the right out of the square at object 2; a trivial of the source at
    position n has its column at object n, divided on the left out of the
    square at object 1.  A solver that finds no quotient is caught."""
    rng = random.Random(73)
    x, y = _with_trivial(Z4, 4, source_position, rng), _with_trivial(Z4, 4, target_position, rng)
    phi1, phi2 = random_commuting_square(x, y, rng)
    assert complete_morphism(x, y, 1, phi1, phi2).phis[:2] == (phi1, phi2)
    monkeypatch.setattr(angulation, solver, lambda a, b: None)
    with pytest.raises(AssertionError, match="guaranteed factorization failed"):
        complete_morphism(x, y, 1, phi1, phi2)


def test_complete_morphism_spec_example():
    x = standard_angle(Z4, 4, 1, 1)
    comp = complete_morphism(x, x, 1, RMatrix.from_rows(Z4, [[1]]), RMatrix.from_rows(Z4, [[3]]))
    assert [p.to_lists() for p in comp.phis] == [[[1]], [[3]], [[3]], [[1]]]
    assert classify(mapping_cone(comp)).member_of(Z4, 1)


def test_complete_morphism_identity_gives_contractible_cone():
    x = standard_angle(Z4, 4, 1, 2)
    one = RMatrix.identity(Z4, 2)
    comp = complete_morphism(x, x, 1, one, one)
    cert = classify(mapping_cone(comp))
    assert cert.verdict == "contractible"


def test_complete_morphism_from_trivial_source():
    x = trivial_sequence(Z4, 3, TrivialSpec(1, 1))
    y = standard_angle(Z4, 3, 1, 1)
    phi1 = RMatrix.from_rows(Z4, [[1]])
    phi2 = y.maps[0] @ phi1  # the only way the first square commutes
    comp = complete_morphism(x, y, 1, phi1, phi2)
    assert comp.phis[2].is_zero()  # zero object forces zero beyond position 2
    assert classify(mapping_cone(comp)).member_of(Z4, 1)


TRIVIAL_BLOCK_CASES = [(spec, n) for spec in ("Z/4", "GF(4)[x]/(x^2)") for n in range(3, 7)]
TRIVIAL_BLOCK_CASES += [("Z/9", n) for n in (4, 6)]


@pytest.mark.parametrize("spec, n", TRIVIAL_BLOCK_CASES)
def test_complete_morphism_every_trivial_position_pair(spec, n):
    """Rank-1 core ⊕ trivial at js into rank-1 core ⊕ trivial at jt, for every
    (js, jt): the blocks out of the source trivial and into the target trivial
    take every branch of the trivial-block rule."""
    ring = make_ring(spec)
    rng = random.Random(f"{spec} {n}")
    core = standard_angle(ring, n, 1, 1)
    for js in range(1, n + 1):
        for jt in range(1, n + 1):
            x = direct_sum(core, trivial_sequence(ring, n, TrivialSpec(1, js)))
            y = direct_sum(core, trivial_sequence(ring, n, TrivialSpec(1, jt)))
            x = apply_iso(x, random_invertibles(ring, x.ranks, rng))
            y = apply_iso(y, random_invertibles(ring, y.ranks, rng))
            phi1, phi2 = random_commuting_square(x, y, rng)
            comp = complete_morphism(x, y, 1, phi1, phi2)
            assert comp.phis[0] == phi1 and comp.phis[1] == phi2, (js, jt)
            assert classify(mapping_cone(comp)).member_of(ring, 1), (js, jt)


# sha256 of every component that random_morphism draws and complete_morphism
# builds on the cases of _morphism_digest; a rewrite of the block writer behind
# both must keep these bytes
MORPHISM_PINS = {
    "Z/4 n=3": "0b4eca50839a42e4b8168e7c001f7e5a69a433019516ac04d5d436c7a738c7c3",
    "Z/4 n=4": "f35910cf3fdf586cff25335bc9d167356a4b2587d36d5cf6778a3a3e66ba5a42",
    "Z/4 n=5": "75943c37392fcff1cf90902b138dbdbff3cd35e7cfe8dd4754c4b23655a8a784",
    "Z/4 n=6": "6a86ce02fa16d932497e2d33cbc1f6d06079008d648f76ce6ff3da261341a2f1",
    "Z/9 n=3": "73af8c4054d8efc9937355dc02800dcaeb8308cc5d34a7f2d94951b5a0cb386b",
    "Z/9 n=4": "3ea1a858589eaade40e22681345e38b0359c1a70f320fb44b6d349873844deff",
    "Z/9 n=5": "8e135bde0c59d737fef60dcc5d6cac45cf1d7eb9b239729db45e681fd6fbd523",
    "Z/9 n=6": "0f4868e4f7e546059e761f666e87bd3357fc1114335c97da2ec95ae370ade8b5",
    "GF(4)[x]/(x^2) n=3": "2c5cc9acdacf3a24ecac1be8929e4ede42036f3fe9bce37e1e800c724671ed1f",
    "GF(4)[x]/(x^2) n=4": "80658f1a7f50e3897e988d29aeee68b5e8b35c9b3b97ba802d047abccf2ef465",
    "GF(4)[x]/(x^2) n=5": "e4ce75f07b6ab647d8ab092a32f25ec6c835df2c69a9b2c99c5af36ead136649",
    "GF(4)[x]/(x^2) n=6": "efd8a93f92aa49889016531b4584a34a0f366cd03a9c2dd698683500279de7ea",
}


def _morphism_digest(spec, n):
    """Seeded members with one trivial summand at each (source, target) pair of
    positions, then random members: for each pair hash the components of a
    random morphism and, where the parity allows N3, of the completion of its
    first square."""
    ring = make_ring(spec)
    rng = random.Random(f"morphism pin {spec} {n}")
    completes = n % 2 == 0 or ring.two_p_zero
    core = standard_angle(ring, n, 1, 1)
    pairs = [
        tuple(direct_sum(core, trivial_sequence(ring, n, TrivialSpec(1, j))) for j in js)
        for js in itertools.product(range(1, n + 1), repeat=2)
    ]
    pairs += [(random_member(ring, n, 1, 2, rng), random_member(ring, n, 1, 2, rng)) for _ in range(8)]
    digest = hashlib.sha256()
    for x, y in pairs:
        x = apply_iso(x, random_invertibles(ring, x.ranks, rng))
        y = apply_iso(y, random_invertibles(ring, y.ranks, rng))
        m = random_morphism(x, y, rng)
        morphisms = [m, complete_morphism(x, y, 1, m.phis[0], m.phis[1])] if completes else [m]
        for f in morphisms:
            digest.update(repr([c.data for c in f.phis]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("spec, n", [(spec, n) for spec in ("Z/4", "Z/9", "GF(4)[x]/(x^2)") for n in range(3, 7)])
def test_morphism_components_pinned(spec, n):
    assert _morphism_digest(spec, n) == MORPHISM_PINS[f"{spec} n={n}"]


@pytest.mark.parametrize("spec, n", TRIVIAL_BLOCK_CASES)
def test_trivial_block_builders_give_morphisms(spec, n):
    """The split block writer on the shapes the position-pair test misses: a
    contractible member (zero-rank core) as source or as target, and two
    trivials at one position on both sides."""
    ring = make_ring(spec)
    rng = random.Random(f"blocks {spec} {n}")
    core = standard_angle(ring, n, 1, 1)

    def t(j):
        return trivial_sequence(ring, n, TrivialSpec(1, j))

    for js, jt in itertools.product(range(1, n + 1), repeat=2):
        shapes = [
            (t(js), direct_sum(core, t(jt))),
            (direct_sum(core, t(js)), t(jt)),
            (direct_sum(core, t(js), t(js)), direct_sum(core, t(jt), t(jt))),
        ]
        for x, y in shapes:
            x = apply_iso(x, random_invertibles(ring, x.ranks, rng))
            y = apply_iso(y, random_invertibles(ring, y.ranks, rng))
            assert isinstance(random_morphism(x, y, rng), SeqMorphism)
            phi1, phi2 = random_commuting_square(x, y, rng)
            comp = complete_morphism(x, y, 1, phi1, phi2)
            assert comp.phis[0] == phi1 and comp.phis[1] == phi2, (js, jt)
            assert classify(mapping_cone(comp)).member_of(ring, 1), (js, jt)


def test_is_iso_checks_every_square_and_component():
    rng = random.Random(36)
    for ring, n in [(Z4, 3), (Z9, 4), (make_ring("GF(4)[x]/(x^2)"), 5)]:
        x = random_member(ring, n, 1, 2, rng)
        while x.total_rank() == 0:
            x = random_member(ring, n, 1, 2, rng)
        psis = random_invertibles(ring, x.ranks, rng)
        y = apply_iso(x, psis)
        assert _is_isomorphism(x, y, psis)
        for i in range(n):
            m = y.maps[i]
            if m.rows and m.cols:
                # one broken square: only square i sees the changed map
                broken = list(y.maps)
                broken[i] = m + RMatrix(ring, m.rows, m.cols, [1] * (m.rows * m.cols))
                assert not _is_isomorphism(x, NSequence(ring, n, y.ranks, tuple(broken)), psis)
        # zero maps make every square commute, so only invertibility can fail
        z = NSequence(ring, n, (1,) * n, tuple(RMatrix.zeros(ring, 1, 1) for _ in range(n)))
        for i in range(n):
            ones = [RMatrix.identity(ring, 1)] * n
            assert _is_isomorphism(z, z, ones)
            singular = list(ones)
            singular[i] = RMatrix.scalar(ring, 1, ring.p)
            assert not _is_isomorphism(z, z, singular)


def test_complete_morphism_refuses_bad_input():
    x4, y4 = standard_angle(Z9, 4, 1, 1), standard_angle(Z9, 4, 2, 1)
    one = RMatrix.identity(Z9, 1)
    with pytest.raises(ValueError, match="both sequences must belong to N_u"):
        complete_morphism(x4, y4, 1, one, one)
    with pytest.raises(ValueError, match="phi1/phi2 have wrong shapes"):
        complete_morphism(x4, x4, 1, RMatrix.zeros(Z9, 2, 1), one)
    with pytest.raises(ValueError, match="phi1/phi2 have wrong shapes"):
        complete_morphism(x4, x4, 1, one, RMatrix.zeros(Z9, 1, 2))
    with pytest.raises(ValueError, match="the first square does not commute"):
        complete_morphism(x4, x4, 1, one, RMatrix.zeros(Z9, 1, 1))


def test_random_morphism_refuses_a_non_candidate():
    bad = NSequence(Z4, 3, (1, 1, 1), (RMatrix.identity(Z4, 1),) * 3)
    x = standard_angle(Z4, 3, 1, 1)
    for src, tgt in ((bad, x), (x, bad)):
        with pytest.raises(ValueError, match="both sequences must be candidates in N_u"):
            random_morphism(src, tgt, random.Random(0))


def test_complete_morphism_parity_rejected():
    x = standard_angle(Z9, 3, 1, 1)
    with pytest.raises(ValueError):
        complete_morphism(x, x, 1, RMatrix.identity(Z9, 1), RMatrix.identity(Z9, 1))


def test_complete_morphism_random_squares():
    rng = random.Random(34)
    for ring, n in [(Z4, 3), (Z4, 4), (Z9, 4), (G2, 3)]:
        for _ in range(10):
            x = random_member(ring, n, 1, 2, rng)
            y = random_member(ring, n, 1, 2, rng)
            phi1, phi2 = random_commuting_square(x, y, rng)
            comp = complete_morphism(x, y, 1, phi1, phi2)
            assert comp.phis[0] == phi1 and comp.phis[1] == phi2
            assert classify(mapping_cone(comp)).member_of(ring, 1)


def test_membership_invariants_random():
    rng = random.Random(35)
    for ring, n in [(Z4, 3), (Z9, 4)]:
        for u in ring.unit_class_reps():
            x = random_member(ring, n, u, 2, rng)
            y = random_member(ring, n, u, 2, rng)
            assert membership(direct_sum(x, y), u)
            assert membership(apply_iso(x, random_invertibles(ring, x.ranks, rng)), u)
            assert membership(rotate_left(x), u)
            assert membership(rotate_right(x), u)
        # cross-class: a member of N_1 is not a member of N_2 unless classes merge
        if len(ring.unit_class_reps()) > 1:
            x1 = standard_angle(ring, n, 1, 1)
            assert not membership(x1, 2)


def test_contractible_member_of_every_class():
    rng = random.Random(36)
    for ring, n in [(Z4, 3), (Z9, 4)]:
        x = random_member(ring, n, 1, 2, rng)
        psis = random_invertibles(ring, x.ranks, rng)
        y = apply_iso(x, psis)
        cone = mapping_cone(SeqMorphism(x, y, tuple(psis)))
        assert is_contractible(cone) is not None or classify(cone).verdict == "contractible"
        for u in ring.unit_class_reps():
            assert membership(cone, u)


def test_standard_angle_membership_iff_up_equals_vp():
    for ring, n in [(Z9, 4), (make_ring("Z/25"), 4), (make_ring("GF(4)[x]/(x^2)"), 3)]:
        for v in ring.unit_class_reps():
            xv = standard_angle(ring, n, v, 1)
            for u in ring.unit_class_reps():
                assert membership(xv, u) == (ring.mul(u, ring.p) == ring.mul(v, ring.p))


def test_membership_against_iso_search_oracle_exhaustive_rank_one():
    """All 0/1-rank sequences, n = 3, over Z/4 and GF(2)[x]/(x^2): membership
    agrees with the brute-force isomorphism-search oracle."""
    for ring in (Z4, G2):
        u = 1
        for ranks in itertools.product((0, 1), repeat=3):
            shapes = [(ranks[(i + 1) % 3], ranks[i]) for i in range(3)]
            pools = [list(itertools.product(range(ring.order), repeat=r * c)) for r, c in shapes]
            for datas in itertools.product(*pools):
                maps = tuple(RMatrix(ring, shapes[i][0], shapes[i][1], datas[i]) for i in range(3))
                x = NSequence(ring, 3, ranks, maps)
                if not is_candidate(x):
                    assert not oracle_membership(x, u)
                    assert not membership(x, u)
                    continue
                assert membership(x, u) == oracle_membership(x, u)


def test_membership_against_iso_search_oracle_sampled():
    rng = random.Random(37)
    for ring in (Z4, G2):
        for n in (3, 4):
            cases = []
            for _ in range(12):
                cases.append(random_member(ring, n, 1, 1, rng))
            # minimal candidates with random residue factors (members and not)
            for _ in range(12):
                k = ring.k
                residues = [KMatrix(k, 1, 1, [rng.randrange(ring.q)]) for _ in range(n)]
                cases.append(minimal_core(ring, n, residues))
            for x in cases:
                if max(x.ranks) > 2:
                    continue
                assert membership(x, 1) == oracle_membership(x, 1)


def test_enumerate_angulations_checks_its_rotation_witness(monkeypatch):
    """Over Z/9 at n = 3 the left rotation of each generator leaves its N_u.
    A rotation that returns its argument keeps every generator in its own
    N_u, and the witness check refuses that."""
    assert enumerate_angulations(Z9, 3).status == "none_exist"
    monkeypatch.setattr(angulation, "rotate_left", lambda x: x)
    with pytest.raises(AssertionError, match="rotation witness inconsistent with parity analysis"):
        enumerate_angulations(Z9, 3)


def test_enumerate_angulations_counts():
    assert len(enumerate_angulations(Z4, 3).classes) == 1
    assert len(enumerate_angulations(Z9, 4).classes) == 2
    assert len(enumerate_angulations(make_ring("Z/25"), 4).classes) == 4
    assert len(enumerate_angulations(G2, 3).classes) == 1
    assert len(enumerate_angulations(make_ring("GF(4)[x]/(x^2)"), 3).classes) == 3
    with pytest.raises(ValueError):
        enumerate_angulations(Z4, 2)


def test_enumerate_angulations_none_exist():
    e = enumerate_angulations(Z9, 3)
    assert e.status == "none_exist"
    diag = {(u, v): ok for (u, v, ok) in e.rotation_witness}
    for u in Z9.unit_class_reps():
        assert diag[(u, u)] is False
    # the rotation lands in N_{-u}: over Z/9 the class of -1 is 2
    assert diag[(1, 2)] is True and diag[(2, 1)] is True


def test_rotation_witness_classifies_each_rotated_generator_once(monkeypatch):
    import nangle.angulation as angulation

    ring, n = make_ring("Z/49"), 5
    calls = []
    monkeypatch.setattr(angulation, "classify", lambda x: calls.append(x) or classify(x))
    e = enumerate_angulations(ring, n)
    reps = ring.unit_class_reps()
    assert len(calls) == len(reps) == 6
    minus = {u: ring.from_residue(ring.residue(ring.neg(u))) for u in reps}
    want = [t for u in reps for t in ((u, u, False), (u, minus[u], True))]
    assert list(e.rotation_witness) == want
    # the rotation of the generator of N_u lies in N_{-u} and nowhere else
    for u in reps:
        rot = rotate_left(standard_angle(ring, n, u, 1))
        assert [v for v in reps if membership(rot, v)] == [minus[u]]


def test_axiom_suite_trial_classifies_each_member_once(monkeypatch):
    """One Z/4 trial classifies its two members once each: the certificates
    serve both the drawn square and its completion.  The other seven calls
    decide the sum, the conjugate, the trivial, the completion of α, the two
    rotations and the mapping cone."""
    import nangle.angulation as angulation

    calls = []
    monkeypatch.setattr(angulation, "classify", lambda x: calls.append(x) or classify(x))
    rep = run_axiom_suite(Z4, 4, 1, 3, 1, 0)
    assert rep.passed and len(calls) == 9


def test_axiom_suite_short_runs():
    rep = run_axiom_suite(Z4, 3, 1, 2, 30, 99)
    assert rep.passed
    assert all(c["fail"] == 0 for c in rep.counts.values())
    rep9 = run_axiom_suite(Z9, 4, 2, 2, 20, 99)
    assert rep9.passed
    assert rep9.counts["n1a_summand_detects_nonmember"]["pass"] == 20
    with pytest.raises(ValueError):
        run_axiom_suite(Z9, 3, 1, 2, 5, 0)


def test_axiom_suite_reports_counterexamples(monkeypatch, capsys):
    """A failing check records a certificate that decodes back to the drawn
    objects, and ``nangle axioms --json`` then exits 1 with passed false.
    The first membership call, on x ⊕ y, is made to fail; completion is
    made to raise in one run and to change φ1 in the other."""
    membership, seen = angulation.membership, []

    def fail_first(x, u):
        seen.append(x)
        return membership(x, u) and len(seen) > 1

    def raise_on_completion(x, y, u, phi1, phi2, **kw):
        seen.append((x, y, phi1, phi2))
        raise ValueError("forced")

    def change_phi1(x, y, u, phi1, phi2, **kw):
        seen.append((x, y, phi1, phi2))
        return zero_morphism(x, y)

    monkeypatch.setattr(angulation, "membership", fail_first)
    for complete, error in ((raise_on_completion, "forced"), (change_phi1, None)):
        seen.clear()
        monkeypatch.setattr(angulation, "complete_morphism", complete)
        rep = run_axiom_suite(Z4, 4, 1, 2, 1, 5)
        assert not rep.passed
        assert [(f["trial"], f["check"]) for f in rep.failures] == [(0, "n1a_direct_sum"), (0, "n3n4_completion")]
        assert rep.counts["n1a_direct_sum"] == rep.counts["n3n4_completion"] == {"pass": 0, "fail": 1}
        xs = [decode_sequence(obj) for obj in rep.failures[0]["certificate"]]
        assert len(xs) == 2 and direct_sum(*xs) == seen[0]
        x, y, phi1, phi2 = seen[-1]
        assert not phi1.is_zero()  # so that the zero morphism changes it
        note = rep.failures[1]["certificate"]
        assert (decode_sequence(note["source"]), decode_sequence(note["target"])) == (x, y) == tuple(xs)
        assert (decode_matrix(Z4, note["phi1"]), decode_matrix(Z4, note["phi2"])) == (phi1, phi2)
        assert note.get("error") == error

    seen.clear()
    code = cli.main(["axioms", "--ring", "Z/4", "--n", "4", "--u", "1", "--rank", "2", "--trials", "1", "--seed", "5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["passed"] is False and len(payload["failures"]) == 2


def test_axiom_suite_bounds_the_rank():
    assert run_axiom_suite(Z4, 4, 1, MAX_RANK, 0, 0).passed
    for rank in (MAX_RANK + 1, -1):
        with pytest.raises(ValueError, match=f"outside 0..{MAX_RANK}"):
            run_axiom_suite(Z4, 4, 1, rank, 1, 0)


# Every entry point that takes n, called with n alone varied.
N_ENTRY_POINTS = {
    "NSequence": lambda n: NSequence(Z4, n, (0,) * n, (RMatrix.zeros(Z4, 0, 0),) * n),
    "complete_to_angle": lambda n: complete_to_angle(RMatrix.from_rows(Z4, [[2]]), 1, n),
    "enumerate_angulations": lambda n: enumerate_angulations(Z4, n),
    "run_axiom_suite": lambda n: run_axiom_suite(Z4, n, 1, 1, 1, 0),
    "quotient_complex": lambda n: quotient_complex(Z4, n, 2),
    "algebraicity_verdict": lambda n: algebraicity_verdict(Z4, n),
}


@pytest.mark.parametrize("name", sorted(N_ENTRY_POINTS))
def test_each_entry_point_bounds_n(name):
    call = N_ENTRY_POINTS[name]
    call(3)
    call(MAX_N)
    with pytest.raises(ValueError, match="n must be >= 3"):
        call(2)
    with pytest.raises(ValueError, match=f"n must be <= {MAX_N}"):
        call(MAX_N + 1)


def test_axiom_suite_on_a_large_ring_never_lists_the_unit_classes(monkeypatch):
    """The foreign unit class is drawn by its residue, so a ring with about
    10^12 unit classes runs as fast as Z/9."""
    ring = make_ring("Z/999999999978000000000121")

    def refuse(self):
        raise AssertionError("unit classes listed")

    monkeypatch.setattr(type(ring), "unit_class_reps", refuse)
    rep = run_axiom_suite(ring, 4, 1, 1, 3, 7)
    assert rep.passed
    assert rep.counts["n1a_summand_detects_nonmember"]["pass"] == 3


def test_axiom_suite_deterministic():
    a = run_axiom_suite(Z4, 4, 1, 2, 10, 5)
    b = run_axiom_suite(Z4, 4, 1, 2, 10, 5)
    assert a.counts == b.counts and a.failures == b.failures
