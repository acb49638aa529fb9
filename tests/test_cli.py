import hashlib
import json
import time

import pytest

from nangle.cli import main
from nangle.matrices import KMatrix, RMatrix, lift_p
from nangle.rings import make_ring
from nangle.sampling import random_homotopy_deformation, random_invertibles, random_member, random_morphism, trial_rng
from nangle.sequences import (
    NSequence,
    SeqMorphism,
    TrivialSpec,
    apply_iso,
    direct_sum,
    identity_morphism,
    mapping_cone,
    rotate_left,
    rotate_right,
    standard_angle,
    trivial_sequence,
    zero_morphism,
)
from nangle import serialize

Z4 = make_ring("Z/4")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sequence(tmp_path, seq, name="seq.json"):
    path = tmp_path / name
    path.write_text(json.dumps(serialize.encode_sequence(seq)))
    return str(path)


def test_ring_info(capsys):
    code, out, _ = run(capsys, "ring-info", "--ring", "Z/4")
    assert code == 0
    assert "2p = 0: True" in out and "[1]" in out
    code, out, _ = run(capsys, "ring-info", "--ring", "GF(4)[x]/(x^2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unit_classes"] == [[1, 0], [2, 0], [3, 0]]


def test_ring_info_bad_ring(capsys):
    code, _, err = run(capsys, "ring-info", "--ring", "Z/6")
    assert code == 2 and "square of a prime" in err


@pytest.mark.parametrize("spec", ["Z/1062961", "Z/999999999978000000000121"])
@pytest.mark.parametrize("argv", [("ring-info",), ("angulations", "--n", "3"), ("angulations", "--n", "4")], ids=" ".join)
def test_unit_class_listing_above_the_bound_exits_2(capsys, spec, argv):
    """Z/1062961 (q = 1031) has 1030 unit classes, just above MAX_UNIT_CLASSES =
    1024; the other spec has about 10^12."""
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], "--ring", spec, *argv[1:], "--json")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "unit classes, more than the 1024" in err


def test_unit_class_listing_at_the_bound(capsys):
    code, out, _ = run(capsys, "ring-info", "--ring", "Z/1042441", "--json")  # q = 1021
    classes = json.loads(out)["unit_classes"]
    assert code == 0 and classes == list(range(1, 1021))


def test_angle_check_and_classify(capsys, tmp_path):
    seq = standard_angle(Z4, 3, 1, 1)
    path = write_sequence(tmp_path, seq)
    code, out, _ = run(capsys, "angle-check", "--file", path)
    assert code == 0 and "candidate: True, exact: True" in out
    code, out, _ = run(capsys, "angle-classify", "--file", path, "--u", "1")
    assert code == 0 and "member of N_1: True" in out


def test_complete_and_rotate(capsys, tmp_path):
    alpha = {"rows": 1, "cols": 1, "entries": [2]}
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alpha))
    code, out, _ = run(capsys, "complete", "--ring", "Z/4", "--n", "3", "--u", "1", "--file", str(path), "--json")
    assert code == 0
    seq = serialize.decode_sequence(json.loads(out))
    assert seq == standard_angle(Z4, 3, 1, 1)

    spath = write_sequence(tmp_path, standard_angle(make_ring("Z/9"), 3, 1, 1))
    code, out, _ = run(capsys, "rotate", "--file", spath, "--json")
    assert code == 0
    rot = serialize.decode_sequence(json.loads(out))
    assert [m.to_lists() for m in rot.maps] == [[[3]], [[3]], [[6]]]
    code, out, _ = run(capsys, "rotate", "--file", spath, "--right", "--json")
    rot_r = serialize.decode_sequence(json.loads(out))
    assert [m.to_lists() for m in rot_r.maps] == [[[6]], [[3]], [[3]]]


def test_cone_and_homotopy(capsys, tmp_path):
    x = standard_angle(Z4, 4, 1, 1)
    phi = SeqMorphism(x, x, tuple(RMatrix(Z4, 1, 1, [1]) for _ in range(4)))
    psi = SeqMorphism(x, x, tuple(RMatrix(Z4, 1, 1, [3]) for _ in range(4)))
    mpath = tmp_path / "mor.json"
    mpath.write_text(json.dumps(serialize.encode_morphism(phi)))
    code, out, _ = run(capsys, "cone", "--file", str(mpath), "--json")
    assert code == 0
    cone = serialize.decode_sequence(json.loads(out))
    assert cone.ranks == (2, 2, 2, 2)

    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"phi": serialize.encode_morphism(phi), "psi": serialize.encode_morphism(psi)}))
    code, out, _ = run(capsys, "homotopy", "--file", str(pair), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["homotopic"] is True
    # the returned homotopy re-verifies via the library
    serialize.decode_homotopy(payload["homotopy"])


def test_angulations_human_format(capsys):
    code, out, _ = run(capsys, "angulations", "--ring", "Z/4", "--n", "3")
    assert code == 0 and out.strip() == "1 angulation: [u=1]"
    code, out, _ = run(capsys, "angulations", "--ring", "Z/9", "--n", "3")
    assert code == 0 and "no 3-angulations exist" in out
    code, out, _ = run(capsys, "angulations", "--ring", "Z/25", "--n", "4", "--json")
    payload = json.loads(out)
    assert payload["count"] == 4


def test_algebraicity_human_format(capsys):
    code, out, _ = run(capsys, "algebraicity", "--ring", "Z/4", "--n", "5")
    assert code == 0 and "NOT ALGEBRAIC (obstruction d=2)" in out
    code, out, _ = run(capsys, "algebraicity", "--ring", "Z/4", "--n", "6", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "inconclusive" and payload["witness"] == [1, 0, 1]
    code, out, _ = run(capsys, "algebraicity", "--ring", "GF(2)[x]/(x^2)", "--n", "5", "--json")
    assert json.loads(out)["reason"] == "no-valid-d"


def test_axioms_pass_and_parity(capsys):
    code, out, _ = run(capsys, "axioms", "--ring", "Z/4", "--n", "3", "--u", "1", "--trials", "5", "--seed", "1")
    assert code == 0 and "PASS" in out
    code, _, err = run(capsys, "axioms", "--ring", "Z/9", "--n", "3", "--u", "1", "--trials", "5", "--seed", "1")
    assert code == 2 and "parity" in err


def test_json_reports_byte_identical(capsys):
    code, out1, _ = run(capsys, "axioms", "--ring", "Z/4", "--n", "3", "--u", "1", "--trials", "5", "--seed", "1", "--json")
    code, out2, _ = run(capsys, "axioms", "--ring", "Z/4", "--n", "3", "--u", "1", "--trials", "5", "--seed", "1", "--json")
    assert code == 0 and out1 == out2
    code, out3, _ = run(capsys, "angulations", "--ring", "Z/9", "--n", "4", "--json")
    code, out4, _ = run(capsys, "angulations", "--ring", "Z/9", "--n", "4", "--json")
    assert out3 == out4


def test_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, err = run(capsys, "complete", "--ring", "Z/4", "--n", "3", "--u", "2", "--file", "/nonexistent")
    assert code == 2  # 2 is not a unit (and the file is missing)
    axioms = ("axioms", "--ring", "Z/4", "--n", "3", "--u", "1")
    for bad in (("--trials", "-5"), ("--trials", "0"), ("--rank", "-1")):
        code, out, err = run(capsys, *axioms, *bad)
        assert code == 2 and out == "" and bad[0] in err
    seq = serialize.encode_sequence(standard_angle(Z4, 3, 1, 1))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq))
    code, _, err = run(capsys, "rotate", "--file", str(path), "--times", "-1")
    assert code == 2 and "--times" in err
    bad_seqs = [
        dict(seq, n="3"),
        dict(seq, ranks="111"),
        dict(seq, maps=[dict(seq["maps"][0], rows="1")] + seq["maps"][1:]),
        dict(seq, maps=[dict(seq["maps"][0], cols=1.0)] + seq["maps"][1:]),
        dict(seq, maps=5),
        dict(seq, ring=5),
    ]
    for bad in bad_seqs:
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "angle-check", "--file", str(path))
        assert code == 2 and err.startswith("error:")
    x = standard_angle(Z4, 3, 1, 1)
    mor = serialize.encode_morphism(SeqMorphism(x, x, tuple(RMatrix(Z4, 1, 1, [1]) for _ in range(3))))
    bad_files = [
        ("homotopy", {"psi": mor}),
        ("homotopy", [mor, mor]),
        ("cone", dict(mor, phis=5)),
    ]
    for command, bad in bad_files:
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, command, "--file", str(path))
        assert code == 2 and err.startswith("error:")
    path.write_text("[" * 100_000 + "]" * 100_000)  # too deep for json.load
    for command in ("angle-check", "cone", "homotopy"):
        code, _, err = run(capsys, command, "--file", str(path))
        assert code == 2 and err.startswith("error: cannot read")
    code, _, err = run(capsys, *axioms[:-1], "[" * 5_000 + "]" * 5_000)
    assert code == 2 and err.startswith("error: cannot parse unit")
    for bad in ({"phi": mor, "psi": mor}, {"phi": mor, "psi": mor, "thetas": 5}, [mor]):
        with pytest.raises(ValueError):
            serialize.decode_homotopy(bad)


def test_element_json_roundtrip_through_files(capsys, tmp_path):
    g = make_ring("GF(4)[x]/(x^2)")
    seq = standard_angle(g, 3, g.from_parts(2, 0), 1)
    path = write_sequence(tmp_path, seq)
    code, out, _ = run(capsys, "angle-classify", "--file", path, "--u", "[2,0]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "in_nu" and payload["membership"] is True


# sha256 of the --json stdout for fixed inputs and seeds over extension rings,
# and of the not_algebraic reports over Z/4, which carry the unsolvability
# certificate of the obstruction system.  Verdicts and element codes are part
# of the output contract, so these only change when the output is meant to.
PINNED_JSON_DIGESTS = {
    "axioms --ring GF(4)[x]/(x^2) --n 3 --u [1,0] --trials 20 --seed 1": "143bc68ffcaefb161d51b1ffc1daafecabc996f32bb39a3237a5cefee4a2e261",
    "axioms --ring GF(8)[x]/(x^2) --n 5 --u [3,0] --trials 20 --seed 2": "c3fb2b7e706922d64cbec21b3806e011a426a301e5c9f58fa6e6f6a34dcd0ec6",
    "axioms --ring GF(9)[x]/(x^2) --n 4 --u [5,0] --trials 20 --seed 3": "9b19fe2079e801159895a39485b42d63fecc8a16b62ce13002400fb8e64b9a26",
    "angulations --ring GF(25)[x]/(x^2) --n 3": "2dc6a8ff11fd0f2274b6df9d1a093994e728432a0d09908792f4b7f0851faeda",
    "angulations --ring GF(27)[x]/(x^2) --n 4": "aeaadf510995b7fcc075ad3563b5a7a5f841e68b7f4fb39b7805b95f18036eb8",
    "algebraicity --ring GF(32)[x]/(x^2) --n 5": "14b91fd5c6d08e0a8305b3494ec9849a960fb00eb05981b7d46dd65d3c87b8b6",
    "algebraicity --ring Z/4 --n 5": "0a48b365f5776c73d18373aad0749f0ff5885fe9878feb0f3c0d7b6d824d60aa",
    "algebraicity --ring Z/4 --n 7": "6a4ac682b48fe7e6dc3feea99227291af27e964e7cc4a8af71c5f81cc8ecb5ed",
    "algebraicity --ring Z/4 --n 9": "d8336fc8995b48ca6e2a16271433415425da9efaabc29b011db02f5f81dcb7df",
}


@pytest.mark.parametrize("command", sorted(PINNED_JSON_DIGESTS))
def test_json_reports_match_pinned_digests(capsys, command):
    code, out, _ = run(capsys, *command.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_DIGESTS[command]


# sha256 of the --json stdout of angle-classify (whose certificate carries the
# split isomorphism) on seeded random members with trivial summands at two or
# more positions, and of complete on a fixed first map.  The split iso is fixed
# by the pivot order of the elimination, so it is pinned byte for byte.
PINNED_SPLIT_DIGESTS = {
    ("Z/4", 4, "1", 3, 24): "a44b4ddd38fee7fd655a65ad6a82c353262ed156070a36d5fe1b08e09d70ed28",
    ("Z/9", 4, "2", 3, 24): "572775347376aba3f4d87c320b2f5660d350629e322f43e5d0d28544a1365c9a",
    ("GF(4)[x]/(x^2)", 3, "[2,0]", 2, 16): "b34d20b50e789912694497aa9763900b1b820a1896c50053ad62bfb324663316",
    ("GF(512)[x]/(x^2)", 4, "[7,0]", 2, 16): "511cdc0827f8b12e31307472ae6f08616d6f5ff4c3ef075d16ab60e74e2e6196",
}

PINNED_COMPLETE_DIGESTS = {
    ("Z/4", 4, "1", "[[2,1,0],[0,2,3],[2,3,1]]"): "4e94a5590591e07ad5f929667606e11fcff76893873efc3e751e332b9765ff84",
    ("Z/9", 4, "2", "[[3,1,6],[0,3,2],[6,4,0]]"): "87c447097c1d650626938fe0d54c95fb5726215622d0c07c4baeb8cd36c7b15e",
    ("GF(4)[x]/(x^2)", 3, "[2,0]", "[[[0,1],[1,0],[0,0]],[[2,3],[0,2],[1,1]],[[0,0],[3,1],[0,3]]]"): "f5d38a9970db9f9287cabb2d1bef47fe63b170eb8327e60018cd43e188cb616a",
    ("GF(512)[x]/(x^2)", 4, "[7,0]", "[[[0,5],[9,0],[0,0]],[[300,2],[0,511],[1,1]],[[0,0],[42,17],[0,3]]]"): "cb09ca321c043a2fe24ae512eb3c34dc313bbfd4184e3dfa31599f30e5575f28",
}


@pytest.mark.parametrize("case", sorted(PINNED_SPLIT_DIGESTS), ids=str)
def test_split_certificates_match_pinned_digests(capsys, tmp_path, case):
    spec, n, u, max_rank, seed = case
    ring = make_ring(spec)
    x = random_member(ring, n, ring.decode_element(json.loads(u)), max_rank, trial_rng(seed, 0))
    path = write_sequence(tmp_path, x)
    code, out, _ = run(capsys, "angle-classify", "--file", path, "--u", u, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["membership"] is True and len({t["position"] for t in payload["split"]["trivials"]}) >= 2
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SPLIT_DIGESTS[case]


def _split_shape(ring, kind, rng):
    """A candidate whose split exercises one shape of the elimination:
    "trivial-at-n" puts a trivial at position n, so the step at the last map
    changes object 0; "cone" is the mapping cone of a random morphism;
    "product-not-scalar" hides a core whose residue product depends on its
    basis."""
    n, u = 4, ring.unit_class_reps()[-1]
    if kind == "cone":
        x, y = random_member(ring, n, u, 3, rng), random_member(ring, n, u, 3, rng)
        return mapping_cone(random_morphism(x, y, u, rng))
    if kind == "trivial-at-n":
        base = direct_sum(standard_angle(ring, n, u, 2), trivial_sequence(ring, n, TrivialSpec(1, n)))
    else:
        shear = lift_p(ring, KMatrix(ring.k, 2, 2, [1, 1, 0, 1]))
        core = NSequence(ring, n, (2,) * n, (shear,) + (RMatrix.scalar(ring, 2, ring.p),) * (n - 1))
        base = direct_sum(core, *(trivial_sequence(ring, n, TrivialSpec(1, j)) for j in (1, 3, n)))
    return apply_iso(base, random_invertibles(ring, base.ranks, rng))


# sha256 of angle-classify --json on the three split shapes above, recorded
# before the elimination of split_trivials was rewritten in place.
PINNED_SPLIT_SHAPE_DIGESTS = {
    ("Z/9", "cone", 41): "daa36ba9f5ade1e82c9c065ca79763231f31d4e19f0cf7549f50b04a39692387",
    ("Z/9", "product-not-scalar", 42): "f07a1be41b8380231ed7dfa4324ae1a73e689c3dd47f0b4c43631f64d6f7df93",
    ("Z/9", "trivial-at-n", 43): "69174df302f0c660e497563f9369d1deabe9dcbc55a923d749b61495637660a3",
    ("GF(4)[x]/(x^2)", "cone", 44): "927e08ff084dd8f0b5dd0bac9c94bfd00f059cdc022b8eefe0807fcb76b5f14a",
    ("GF(4)[x]/(x^2)", "product-not-scalar", 45): "0a39ba0392a9f95a792ba4fc135058e31cf1b9b8fec187029f2103ca3c1a570a",
    ("GF(4)[x]/(x^2)", "trivial-at-n", 46): "eae2b3f12ce24f96cc41124339f02b6b17e5c40ae2f6ba8e4751c0b19fe4a2d0",
}


@pytest.mark.parametrize("case", sorted(PINNED_SPLIT_SHAPE_DIGESTS), ids=str)
def test_split_shapes_match_pinned_digests(capsys, tmp_path, case):
    spec, kind, seed = case
    ring = make_ring(spec)
    x = _split_shape(ring, kind, trial_rng(seed, 0))
    u = json.dumps(ring.encode_element(ring.unit_class_reps()[-1]), separators=(",", ":"))
    code, out, _ = run(capsys, "angle-classify", "--file", write_sequence(tmp_path, x), "--u", u, "--json")
    assert code == 0
    split = json.loads(out)["split"]
    positions = [t["position"] for t in split["trivials"]]
    if kind == "cone":
        assert x.total_rank() >= 8 and len(positions) >= 3
    elif kind == "trivial-at-n":
        assert x.n in positions
    else:
        assert json.loads(out)["reason"] == "product-not-scalar"
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SPLIT_SHAPE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(PINNED_COMPLETE_DIGESTS), ids=str)
def test_completions_match_pinned_digests(capsys, tmp_path, case):
    spec, n, u, alpha = case
    rows = json.loads(alpha)
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"rows": len(rows), "cols": len(rows[0]), "entries": [e for row in rows for e in row]}))
    code, out, _ = run(capsys, "complete", "--ring", spec, "--n", str(n), "--u", u, "--file", str(path), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_COMPLETE_DIGESTS[case]


# sha256 of the --json stdout of homotopy on seeded pairs (φ, φ - (Θ∘α + β∘Θ))
# between random members, whose witness diagonals are read off the normal form
# of the homotopy system, and on one pair that is not homotopic: the identity
# and the zero map of a standard angle (seed None).
PINNED_HOMOTOPY_DIGESTS = {
    ("Z/4", 4, "1", 2, 31): "ecb83ab31616f621dae1331eb34fb23a9c1bf9d3584df1e33b43b00eef3103e1",
    ("Z/9", 4, "2", 2, 32): "33c803db4e96bc0638150aac2fe571efdd0e33a49cd4048a02cbb4bcd62f4f7b",
    ("Z/9", 4, "2", 2, None): "3b139315c123770537a4d1b1f6e9f9e1a0f65556820e9843c63aec95271a7db7",
    ("GF(4)[x]/(x^2)", 3, "[2,0]", 2, 33): "20be273b7e5d0bd1bf69a2195828b9deb6f30239c2a779cd6d7a68f962c05b0a",
    ("GF(512)[x]/(x^2)", 4, "[7,0]", 1, 34): "42e38cc65d1d1542525403e5c146bbe37b266aadcd6b465a0e4436d7943707ac",
}


@pytest.mark.parametrize("case", sorted(PINNED_HOMOTOPY_DIGESTS, key=str), ids=str)
def test_homotopies_match_pinned_digests(capsys, tmp_path, case):
    spec, n, u, max_rank, seed = case
    ring = make_ring(spec)
    unit = ring.decode_element(json.loads(u))
    if seed is None:
        x = standard_angle(ring, n, unit, max_rank)
        phi, psi = identity_morphism(x), zero_morphism(x, x)
    else:
        rng = trial_rng(seed, 0)
        x = random_member(ring, n, unit, max_rank, rng)
        y = random_member(ring, n, unit, max_rank, rng)
        h = random_homotopy_deformation(random_morphism(x, y, unit, rng), rng)
        phi, psi = h.phi, h.psi
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"phi": serialize.encode_morphism(phi), "psi": serialize.encode_morphism(psi)}))
    code, out, _ = run(capsys, "homotopy", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["homotopic"] is (seed is not None)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HOMOTOPY_DIGESTS[case]


def _member(ring, n, u, core_rank, positions, rng):
    """A member of N_u with a standard core of ``core_rank`` and one trivial
    of rank 1 or 2 at each position, conjugated by random invertibles."""
    parts = [standard_angle(ring, n, u, core_rank)]
    parts += [trivial_sequence(ring, n, TrivialSpec(1 + rng.randrange(2), j)) for j in positions]
    base = direct_sum(*parts)
    return apply_iso(base, random_invertibles(ring, base.ranks, rng))


# sha256 of the --json stdout of cone on seeded random morphisms between
# members with trivials at two or more positions, recorded before the block
# layout of direct_sum, mapping_cone and the split morphism writer was moved
# behind one function.  The last case of each ring has contractible members
# whose cone has an object of rank 0.
PINNED_CONE_DIGESTS = {
    ("Z/9", 4, "2", (1, (1, 3)), (1, (2, 4)), 61): "96595b8e22f14a6a195045bc516f42e0d8c853c0b0f3903863b4613a7a96f318",
    ("Z/9", 4, "1", (2, (4, 1, 1)), (0, (2, 3)), 62): "28da22d8460c450a31d23362f0e8ed0fc814eb97105d25812c396576fa800a4e",
    ("Z/9", 4, "2", (0, (1, 2)), (0, (4, 1)), 63): "b9c847f9c29ff1b40c1556babfc4b603842a0736d7f0d1cb8c7195cfa7657224",
    ("GF(4)[x]/(x^2)", 3, "[2,0]", (1, (1, 2)), (2, (3, 1)), 64): "c399f91fed956921b531729578ec522548cf884b5a06211030c4b7ca4a7c5001",
    ("GF(4)[x]/(x^2)", 5, "[3,0]", (1, (5, 2)), (1, (3, 3, 4)), 65): "17ca4eedeb9e95cf0b0e75f65eeb894debd6e30c37b1467d0f4cd3068a139168",
    ("GF(4)[x]/(x^2)", 4, "[2,0]", (0, (2, 3)), (0, (1, 2)), 66): "22b53fdc5536bf33483031fd0d2ab2e7c90296e666facf294bd2bd984b45f820",
}


@pytest.mark.parametrize("case", sorted(PINNED_CONE_DIGESTS, key=str), ids=str)
def test_cones_match_pinned_digests(capsys, tmp_path, case):
    spec, n, u, (rx, tx), (ry, ty), seed = case
    ring = make_ring(spec)
    unit, rng = ring.decode_element(json.loads(u)), trial_rng(seed, 0)
    x, y = _member(ring, n, unit, rx, tx, rng), _member(ring, n, unit, ry, ty, rng)
    path = tmp_path / "mor.json"
    path.write_text(json.dumps(serialize.encode_morphism(random_morphism(x, y, unit, rng))))
    code, out, _ = run(capsys, "cone", "--file", str(path), "--json")
    assert code == 0
    cone = serialize.decode_sequence(json.loads(out))
    assert cone.ranks == tuple(x.ranks[(i + 1) % n] + y.ranks[i] for i in range(n))
    assert (0 in cone.ranks) is (rx == ry == 0)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CONE_DIGESTS[case]


@pytest.mark.parametrize("spec, ranks",[("Z/9", (1, 2, 1)), ("Z/9", (2, 1, 1, 2)), ("GF(4)[x]/(x^2)", (1, 2, 2, 1, 1, 2))])
def test_rotate_many_times_reduces_mod_2n(capsys, tmp_path, spec, ranks):
    """n rotations scale every map by (-1)^n, so --times reduces mod 2n."""
    ring, n = make_ring(spec), len(ranks)
    rng = trial_rng(n, 0)
    maps = [RMatrix(ring, ranks[(i + 1) % n], ranks[i], [rng.randrange(ring.order) for _ in range(ranks[i] * ranks[(i + 1) % n])]) for i in range(n)]
    seq = NSequence(ring, n, ranks, tuple(maps))
    path = write_sequence(tmp_path, seq)
    for side, step in (((), rotate_left), (("--right",), rotate_right)):
        rotated = seq
        for k in range(2 * n + 1):
            code, few, _ = run(capsys, "rotate", "--file", path, *side, "--times", str(k), "--json")
            code_many, many, _ = run(capsys, "rotate", "--file", path, *side, "--times", str(2 * n * 10**11 + k), "--json")
            assert code == code_many == 0
            assert few == many == serialize.dumps(serialize.encode_sequence(rotated)) + "\n"
            rotated = step(rotated)
