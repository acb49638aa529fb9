import itertools
import random

import pytest

from nangle.angulation import is_exact
from nangle.matrices import RMatrix
from nangle.rings import make_ring
from nangle.sequences import (
    NSequence,
    SeqMorphism,
    TrivialSpec,
    apply_iso,
    compose,
    direct_sum,
    identity_morphism,
    is_candidate,
    mapping_cone,
    rotate_left,
    rotate_right,
    standard_angle,
    trivial_sequence,
    zero_morphism,
    zero_sequence,
)
from nangle.sampling import random_invertibles, random_member
from oracles import exact_by_elements

Z4 = make_ring("Z/4")
Z9 = make_ring("Z/9")
G2 = make_ring("GF(2)[x]/(x^2)")


def seq_from_scalars(ring, scalars):
    n = len(scalars)
    maps = tuple(RMatrix(ring, 1, 1, [c]) for c in scalars)
    return NSequence(ring, n, (1,) * n, maps)


def test_candidate_examples():
    assert is_candidate(standard_angle(Z4, 3, 1, 1))
    assert is_candidate(trivial_sequence(Z4, 3, TrivialSpec(1, 1)))
    assert not is_candidate(seq_from_scalars(Z4, [1, 1, 1]))


def test_exactness_examples():
    assert is_exact(standard_angle(Z4, 4, 1, 2))
    # one zero map between rank-1 objects and p elsewhere: image 0 != kernel m
    assert not is_exact(seq_from_scalars(Z4, [0, 2, 2]))
    # contractible sums of trivials are exact
    t = direct_sum(trivial_sequence(Z4, 3, TrivialSpec(1, 1)), trivial_sequence(Z4, 3, TrivialSpec(1, 2)))
    assert is_candidate(t) and is_exact(t)


def test_exactness_against_element_oracle():
    """Length criterion == Hom(R, -) / element-level exactness on small
    sequences over both rings (total rank <= 2 per object)."""
    rng = random.Random(10)
    cases = []
    for ring in (Z4, G2):
        cases.append(standard_angle(ring, 3, 1, 1))
        cases.append(trivial_sequence(ring, 3, TrivialSpec(1, 2)))
        cases.append(seq_from_scalars(ring, [0, ring.p, ring.p]))
        cases.append(seq_from_scalars(ring, [0, 0, 0]))
        # minimal candidates: all maps p * (random residue)
        for _ in range(40):
            scalars = [ring.from_parts(0, rng.randrange(ring.q)) for _ in range(3)]
            cases.append(seq_from_scalars(ring, scalars))
        for _ in range(10):
            x = random_member(ring, 3, 1, 2, rng)
            if max(x.ranks) <= 2:
                cases.append(x)
    for x in cases:
        if is_candidate(x):
            assert is_exact(x) == exact_by_elements(x)


def test_rotation_spec_examples():
    x = standard_angle(Z9, 3, 1, 1)  # maps (3, 3, 3)
    rot = rotate_left(x)
    assert [m.to_lists() for m in rot.maps] == [[[3]], [[3]], [[6]]]
    y = standard_angle(Z4, 4, 1, 1)  # maps (2, 2, 2, 2); (-1)^4 = 1 and 2 = -2
    assert rotate_left(y) == y


def test_rotations_are_inverse():
    rng = random.Random(11)
    for ring in (Z4, Z9):
        for n in (3, 4, 5):
            x = random_member(ring, n, 1, 2, rng) if not (n % 2 and not ring.two_p_zero) else standard_angle(ring, n, 1, 2)
            assert rotate_right(rotate_left(x)) == x
            assert rotate_left(rotate_right(x)) == x


def test_n_fold_rotation():
    # even n: n-fold left rotation is the identity on the data
    x = standard_angle(Z9, 4, 2, 2)
    y = x
    for _ in range(4):
        y = rotate_left(y)
    assert y == x
    # odd n with 2p = 0 and all maps in m: also the identity
    z = standard_angle(Z4, 5, 1, 2)
    w = z
    for _ in range(5):
        w = rotate_left(w)
    assert w == z


def test_direct_sum_properties():
    x = standard_angle(Z4, 3, 1, 1)
    assert direct_sum(x, zero_sequence(Z4, 3)) == x
    assert direct_sum(x, x) == standard_angle(Z4, 3, 1, 2)
    t = direct_sum(trivial_sequence(Z4, 3, TrivialSpec(1, 1)), trivial_sequence(Z4, 3, TrivialSpec(1, 2)))
    assert is_candidate(t)
    with pytest.raises(ValueError):
        direct_sum(x, standard_angle(Z9, 3, 1, 1))


def test_standard_angle_examples():
    assert [m.to_lists() for m in standard_angle(Z4, 3, 1, 1).maps] == [[[2]], [[2]], [[2]]]
    assert [m.to_lists() for m in standard_angle(Z9, 4, 2, 1).maps] == [[[6]], [[3]], [[3]], [[3]]]
    with pytest.raises(ValueError):
        standard_angle(Z4, 3, 2, 1)  # 2 is not a unit


def test_trivial_positions():
    t = trivial_sequence(Z4, 4, TrivialSpec(1, 4))
    assert t.ranks == (1, 0, 0, 1)
    assert t.maps[3].to_lists() == [[1]]
    t2 = trivial_sequence(Z4, 4, TrivialSpec(2, 2))
    assert t2.ranks == (0, 2, 2, 0)
    assert is_candidate(t) and is_exact(t)
    with pytest.raises(ValueError):
        trivial_sequence(Z4, 3, TrivialSpec(1, 4))


def test_mapping_cone_shape_and_candidate():
    rng = random.Random(12)
    x = random_member(Z4, 4, 1, 2, rng)
    phi = identity_morphism(x)
    cone = mapping_cone(phi)
    for i in range(4):
        assert cone.ranks[i] == x.ranks[(i + 1) % 4] + x.ranks[i]
    assert is_candidate(cone)
    # cone of the zero morphism on R(p) is R(p) ⊕ sign-flipped R(p)
    r = standard_angle(Z4, 3, 1, 1)
    cz = mapping_cone(zero_morphism(r, r))
    assert cz.ranks == (2, 2, 2)
    assert is_candidate(cz)


def test_apply_iso_examples():
    x = standard_angle(Z9, 3, 1, 1)
    psis = [RMatrix(Z9, 1, 1, [2]), RMatrix.identity(Z9, 1), RMatrix.identity(Z9, 1)]
    y = apply_iso(x, psis)
    assert [m.to_lists() for m in y.maps] == [[[6]], [[3]], [[6]]]
    # identities leave the sequence unchanged
    assert apply_iso(x, [RMatrix.identity(Z9, 1)] * 3) == x
    # constant scalar conjugation cancels
    w = [RMatrix(Z9, 1, 1, [5])] * 3
    assert apply_iso(x, w) == x
    with pytest.raises(ValueError):
        apply_iso(x, [RMatrix(Z9, 1, 1, [3])] * 3)


def test_candidate_preserved_by_constructions():
    rng = random.Random(13)
    for ring, n in [(Z4, 3), (Z4, 4), (Z9, 4)]:
        x = random_member(ring, n, 1, 2, rng)
        y = random_member(ring, n, 1, 2, rng)
        assert is_candidate(rotate_left(x)) and is_candidate(rotate_right(x))
        assert is_candidate(direct_sum(x, y))
        assert is_candidate(apply_iso(x, random_invertibles(ring, x.ranks, rng)))
        assert is_candidate(mapping_cone(identity_morphism(x)))


def test_exactness_invariances():
    rng = random.Random(14)
    for ring, n in [(Z4, 3), (Z9, 4)]:
        for _ in range(10):
            x = random_member(ring, n, 1, 3, rng)
            y = random_member(ring, n, 1, 3, rng)
            assert is_exact(x)
            assert is_exact(apply_iso(x, random_invertibles(ring, x.ranks, rng)))
            assert is_exact(rotate_left(x))
            assert is_exact(direct_sum(x, y)) == (is_exact(x) and is_exact(y))
    # sum with a non-exact summand is not exact
    bad = seq_from_scalars(Z4, [0, 2, 2])
    good = standard_angle(Z4, 3, 1, 1)
    assert not is_exact(direct_sum(good, bad))


def test_morphism_validation():
    x = standard_angle(Z4, 3, 1, 1)
    SeqMorphism(x, x, tuple(RMatrix(Z4, 1, 1, [1]) for _ in range(3)))
    # components with unequal residues break a square (2*2 = 0 != 2 over Z/4)
    with pytest.raises(ValueError):
        SeqMorphism(x, x, tuple(RMatrix(Z4, 1, 1, [c]) for c in (1, 2, 1)))
    t = trivial_sequence(Z4, 3, TrivialSpec(1, 1))
    with pytest.raises(ValueError):
        SeqMorphism(x, t, tuple(RMatrix(Z4, t.ranks[i], x.ranks[i], [1] * (t.ranks[i] * x.ranks[i])) for i in range(3)))


def test_sequence_validation():
    with pytest.raises(ValueError):
        NSequence(Z4, 2, (1, 1), (RMatrix.identity(Z4, 1), RMatrix.identity(Z4, 1)))
    with pytest.raises(ValueError):
        NSequence(Z4, 3, (1, 1, 1), (RMatrix.identity(Z4, 1), RMatrix.identity(Z4, 1), RMatrix.zeros(Z4, 2, 1)))


def _refusals():
    x3, x4 = standard_angle(Z4, 3, 1, 1), standard_angle(Z4, 4, 1, 1)
    one, zero, ones = RMatrix.identity(Z4, 1), RMatrix.zeros(Z4, 1, 1), identity_morphism(x3).phis
    t = trivial_sequence(Z4, 3, TrivialSpec(1, 1))
    return {
        "ranks-short": (lambda: NSequence(Z4, 3, (1, 1), (one,) * 3), "need exactly n ranks and n maps"),
        "maps-short": (lambda: NSequence(Z4, 3, (1, 1, 1), (one,) * 2), "need exactly n ranks and n maps"),
        "rank-negative": (lambda: NSequence(Z4, 3, (1, -1, 1), (zero,) * 3), "ranks must be non-negative"),
        "map-other-ring": (lambda: NSequence(Z4, 3, (1, 1, 1), (one, one, RMatrix.identity(Z9, 1))), "map over wrong ring"),
        "trivial-rank-0": (lambda: TrivialSpec(rank=0, position=1), "trivial rank must be positive"),
        "trivial-position-0": (lambda: TrivialSpec(rank=1, position=0), "position is 1-based"),
        "standard-rank-negative": (lambda: standard_angle(Z4, 3, 1, -1), "rank must be non-negative"),
        "direct-sum-empty": (lambda: direct_sum(), "need at least one summand"),
        "morphism-across-rings": (
            lambda: SeqMorphism(x3, standard_angle(Z9, 3, 1, 1), ones),
            "source and target must share ring and n",
        ),
        "morphism-across-n": (lambda: SeqMorphism(x3, x4, ones), "source and target must share ring and n"),
        "morphism-n-1-components": (lambda: SeqMorphism(x3, x3, ones[:2]), "need n components"),
        "compose-mismatch": (lambda: compose(identity_morphism(x3), identity_morphism(t)), "morphisms not composable"),
        "apply-iso-n-1": (lambda: apply_iso(x3, ones[:2]), "need n transforms"),
        "apply-iso-wrong-size": (
            lambda: apply_iso(x3, (RMatrix.identity(Z4, 2),) + ones[1:]),
            "transform 0 has wrong shape",
        ),
    }


@pytest.mark.parametrize("case", sorted(_refusals()))
def test_refusals_name_their_reason(case):
    build, message = _refusals()[case]
    with pytest.raises(ValueError, match=message):
        build()


def test_all_rank_one_zero_one_candidates_exact_oracle():
    """Every 0/1-rank sequence over Z/4 and GF(2)[x]/(x^2) for n = 3:
    exactness criterion vs element enumeration, exhaustively."""
    for ring in (Z4, G2):
        for ranks in itertools.product((0, 1), repeat=3):
            shapes = [(ranks[(i + 1) % 3], ranks[i]) for i in range(3)]
            pools = [list(itertools.product(range(ring.order), repeat=r * c)) for r, c in shapes]
            for datas in itertools.product(*pools):
                maps = tuple(RMatrix(ring, shapes[i][0], shapes[i][1], datas[i]) for i in range(3))
                x = NSequence(ring, 3, ranks, maps)
                if is_candidate(x):
                    assert is_exact(x) == exact_by_elements(x)
