"""Membership, completions, and enumeration for the collections N_u.

N_u consists of the sequences isomorphic to (contractible) ⊕ F(u*p)•, where
F(u*p)• is the standard generator with first map u*p and the rest p.  After
splitting off trivial summands, a candidate lies in N_u iff its minimal core
has equal ranks, residue-invertible factors B_i (each core map is p*B_i), and
residue product B_n ... B_1 equal to the scalar matrix u*I over k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrices import (
    KMatrix,
    RMatrix,
    from_blocks,
    inverse,
    is_invertible,
    kinv,
    krank,
    lift,
    normal_form,
    solve_matrix,
    solve_matrix_right,
)
from .rings import Ring
from .sequences import (
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
    zero_sequence,
)


@dataclass(frozen=True)
class SplitResult:
    """X ≅ core ⊕ trivials, realized by `iso`: apply_iso(X, iso) equals
    direct_sum(core, *trivials) exactly, and every core map is minimal."""

    core: NSequence
    trivials: tuple[TrivialSpec, ...]
    iso: tuple[RMatrix, ...]


def split_trivials(x: NSequence) -> SplitResult:
    """Split off rank-one trivial summands while some map contains a unit.

    One sweep over the maps: each unit found isolates a 1 in the last live
    coordinates of its two objects by elementary base changes there, and the
    candidate identities force the matching row and column of the
    neighbouring maps to vanish, so a trivial summand splits off.  A base
    change keeps minimal maps minimal, so the sweep never goes back.
    """
    if not is_candidate(x):
        raise ValueError("split_trivials needs a candidate sequence")
    return _split_trivials(x)


def _split_trivials(x: NSequence) -> SplitResult:
    """split_trivials for a sequence already known to be a candidate."""
    ring, n = x.ring, x.n
    add, mul, neg, axpy, is_unit = ring.add, ring.mul, ring.neg, ring.axpy, ring.is_unit
    # maps[j] sends object j to j+1 and keeps only live coordinates; psis[j]
    # keeps all rows, the live ones first and then the split trivials
    maps = [m.to_lists() for m in x.maps]
    psis = [[[1 if a == b else 0 for b in range(r)] for a in range(r)] for r in x.ranks]
    ranks = list(x.ranks)
    trivials: list[TrivialSpec] = []

    # base changes at object j act on the rows of maps[j-1], the columns of
    # maps[j] (by the inverse change) and the rows of psis[j]
    def swap(j, s, t):
        for rows in (maps[j - 1], psis[j]):
            rows[s], rows[t] = rows[t], rows[s]
        for row in maps[j]:
            row[s], row[t] = row[t], row[s]

    def add_to(j, t, c, s):
        """Coordinate t of object j becomes t + c·s."""
        for rows in (maps[j - 1], psis[j]):
            rows[t] = axpy(rows[t], c, rows[s])
        minus_c = neg(c)
        for row in maps[j]:
            if row[t]:
                row[s] = add(row[s], mul(minus_c, row[t]))

    idx = 0
    while idx < n:
        m = maps[idx]
        pivot = next(((i, j) for i, row in enumerate(m) for j, e in enumerate(row) if is_unit(e)), None)
        if pivot is None:
            idx += 1
            continue
        prv, nxt = idx - 1, (idx + 1) % n
        pr, pc = ranks[nxt] - 1, ranks[idx] - 1
        if pivot[0] != pr:
            swap(nxt, pivot[0], pr)
        if pivot[1] != pc:
            swap(idx, pivot[1], pc)
        # scale the pivot to 1, then clear its row from object idx and its
        # column from object nxt
        piv = m[pr][pc]
        c = ring.inv(piv)
        m[pr], psis[nxt][pr] = ring.scale(c, m[pr]), ring.scale(c, psis[nxt][pr])
        for row in maps[nxt]:
            row[pr] = mul(piv, row[pr])
        for jj, e in enumerate(list(m[pr])):
            if e and jj != pc:
                add_to(idx, pc, e, jj)
        for ii in range(pr):
            if m[ii][pc]:
                add_to(nxt, ii, neg(m[ii][pc]), pr)

        # candidate identities force the isolated coordinate to split off:
        # the matching row of maps[idx-1] and column of maps[idx+1] vanish
        if any(maps[prv][pc]):
            raise AssertionError("candidate violation while splitting (row)")
        if any(row[pr] for row in maps[nxt]):
            raise AssertionError("candidate violation while splitting (col)")
        maps[prv].pop()
        m.pop()
        for row in m + maps[nxt]:
            row.pop()
        ranks[idx] -= 1
        ranks[nxt] -= 1
        trivials.insert(0, TrivialSpec(rank=1, position=idx + 1))

    psis = tuple(RMatrix(ring, r, r, [e for row in psi for e in row]) for r, psi in zip(x.ranks, psis))
    if not trivials:  # already split; identity transform
        return SplitResult(core=x, trivials=(), iso=psis)
    core_maps = (RMatrix(ring, ranks[(i + 1) % n], ranks[i], [e for row in maps[i] for e in row]) for i in range(n))
    split = SplitResult(core=NSequence(ring, n, tuple(ranks), tuple(core_maps)), trivials=tuple(trivials), iso=psis)
    if not _is_iso(x, _recon(split), psis):
        raise AssertionError("split reconstruction failed")
    return split


def _recon(split: SplitResult) -> NSequence:
    """core ⊕ trivials: the sequence that the split's iso carries its source to."""
    core = split.core
    return direct_sum(core, *(trivial_sequence(core.ring, core.n, t) for t in split.trivials))


def _is_iso(x: NSequence, y: NSequence, psis) -> bool:
    """ψ: x → y is an isomorphism of sequences: every square
    ψ_{i+1}·α_i = β_i·ψ_i commutes and every ψ_i is invertible.  This is the
    statement apply_iso(x, ψ) == y, checked by products alone."""
    n = x.n
    return (
        x.ranks == y.ranks
        and all(psis[(i + 1) % n] @ x.maps[i] == y.maps[i] @ psis[i] for i in range(n))
        and all(is_invertible(m) for m in psis)
    )


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of classify: 'contractible' (in every N_u), 'in_nu' with the
    residue class of u, or 'not_in_any' with a reason."""

    verdict: str  # "contractible" | "in_nu" | "not_in_any"
    u_class: int | None = None  # residue-field code of the unit class
    reason: str | None = None  # for not_in_any
    split: SplitResult | None = None
    product_residue: KMatrix | None = None

    def member_of(self, ring: Ring, u: int) -> bool:
        ring.require_unit(u)
        if self.verdict == "contractible":
            return True
        if self.verdict == "in_nu":
            return self.u_class == ring.residue(u)
        return False


def classify(x: NSequence) -> MembershipCertificate:
    ring = x.ring
    if not is_candidate(x):
        return MembershipCertificate(verdict="not_in_any", reason="not-candidate")
    split = _split_trivials(x)
    core = split.core
    if core.total_rank() == 0:
        empty = KMatrix(ring.k, 0, 0, [])
        return MembershipCertificate(verdict="contractible", split=split, product_residue=empty)
    r = core.ranks[0]
    if any(rk != r for rk in core.ranks):
        return MembershipCertificate(verdict="not_in_any", reason="ranks-unequal", split=split)
    factors = [m.p_part() for m in core.maps]  # core map i equals p * B_i
    if any(krank(f) != r for f in factors):
        return MembershipCertificate(verdict="not_in_any", reason="not-exact", split=split)
    prod = factors[-1]
    for f in reversed(factors[:-1]):
        prod = prod @ f
    c = prod.scalar_value()
    if c is not None and c != 0:
        return MembershipCertificate(verdict="in_nu", u_class=c, split=split, product_residue=prod)
    return MembershipCertificate(
        verdict="not_in_any", reason="product-not-scalar", split=split, product_residue=prod
    )


def membership(x: NSequence, u: int) -> bool:
    return classify(x).member_of(x.ring, u)


def core_to_standard_iso(core: NSequence, u: int) -> tuple[RMatrix, ...]:
    """Invertible ψ_i with apply_iso(core, ψ) == standard_angle(ring, n, u, r),
    for a minimal core in N_u.  Residues are chained from ψ_1 = I; the wrap
    closes exactly because the residue product is scalar u."""
    ring, n = core.ring, core.n
    r = core.ranks[0]
    k = ring.k
    factors = [m.p_part() for m in core.maps]
    u_res = ring.residue(u)
    cs = [u_res] + [1] * (n - 1)
    psis_k = [KMatrix.identity(k, r)]
    for i in range(n - 1):
        scaled = KMatrix(k, r, r, k.scale(cs[i], psis_k[i].data))
        psis_k.append(scaled @ kinv(factors[i]))
    psis = tuple(lift(ring, pk) for pk in psis_k)
    if not _is_iso(core, standard_angle(ring, n, u, r), psis):
        raise AssertionError("standardization of minimal core failed")
    return psis


def complete_to_angle(alpha: RMatrix, u: int, n: int) -> NSequence:
    """Build a member of N_u with first map exactly `alpha` (axiom N1c).

    Via the normal form P α Q = diag(p I_u0, I_v0, 0): direct sum of a rank-u0
    minimal core (first map p*I, the unit absorbed into the last map), a
    trivial at position 1 of rank v0, a position-n trivial carrying the excess
    source ranks, and a position-2 trivial carrying the excess target ranks;
    then the base change (P⁻¹ at object 2, Q at object 1) is undone.  Since
    D = P·α·Q, that sets the first map to α and touches only the maps next to
    it: β_2 becomes β_2·P and β_n becomes Q·β_n.
    """
    ring = alpha.ring
    ring.require_unit(u)
    if n < 3:
        raise ValueError("n must be >= 3")
    nf = normal_form(alpha)
    u0, v0 = nf.u, nf.v
    h1 = alpha.cols - u0 - v0
    h2 = alpha.rows - u0 - v0

    parts: list[NSequence] = []
    if u0 > 0:
        up = ring.mul(u, ring.p)
        core_maps = [RMatrix.scalar(ring, u0, ring.p) for _ in range(n - 1)]
        core_maps.append(RMatrix.scalar(ring, u0, up))
        parts.append(NSequence(ring, n, (u0,) * n, tuple(core_maps)))
    if v0 > 0:
        parts.append(trivial_sequence(ring, n, TrivialSpec(rank=v0, position=1)))
    if h1 > 0:
        parts.append(trivial_sequence(ring, n, TrivialSpec(rank=h1, position=n)))
    if h2 > 0:
        parts.append(trivial_sequence(ring, n, TrivialSpec(rank=h2, position=2)))
    base = direct_sum(*parts) if parts else zero_sequence(ring, n)

    maps = list(base.maps)
    maps[0] = alpha
    maps[1] = maps[1] @ nf.P
    maps[-1] = nf.Q @ maps[-1]
    return NSequence(ring, n, base.ranks, tuple(maps))


def _complete_core_to_core(src: NSequence, tgt: NSequence, u: int, eta1: RMatrix, eta2: RMatrix) -> list[RMatrix]:
    """The constructive completion between minimal cores: standardize both,
    write ψ_i = ψ' + p θ_i against the canonical unit-part lift ψ', take
    ψ_3 = ψ_2 - p θ_1 and ψ_4 = ... = ψ_n = ψ', then transport back."""
    ring, n = src.ring, src.n
    gx = core_to_standard_iso(src, u)
    gy = core_to_standard_iso(tgt, u)
    e1 = gy[0] @ eta1 @ inverse(gx[0])
    e2 = gy[1] @ eta2 @ inverse(gx[1])
    if e1.residue() != e2.residue():
        raise AssertionError("commuting square must equalize residues on cores")
    psi_const = lift(ring, e1.residue())
    # e1 = psi_const + p*theta_1, so e2 - p*theta_1 = e2 - e1 + psi_const
    comps_std = [e1, e2, e2 - e1 + psi_const]
    for _ in range(n - 3):
        comps_std.append(psi_const)
    return [inverse(gy[i]) @ comps_std[i] @ gx[i] for i in range(n)]


def complete_morphism(x: NSequence, y: NSequence, u: int, phi1: RMatrix, phi2: RMatrix) -> SeqMorphism:
    """Axioms (N3)/(N4): complete a commuting first square between members of
    N_u to a morphism whose mapping cone again lies in N_u.

    Both members are split into minimal cores and trivials; each block of the
    given square is completed independently (core-core by the unit-part
    recipe, a trivial block from the one free component the square fixes) and
    the result is transported back along the recorded splittings.
    """
    ring, n = x.ring, x.n
    if n % 2 == 1 and not ring.two_p_zero:
        raise ValueError("parity violation: odd n needs 2p = 0 in R")
    ring.require_unit(u)
    cx, cy = classify(x), classify(y)
    if not cx.member_of(ring, u) or not cy.member_of(ring, u):
        raise ValueError("both sequences must belong to N_u")
    if phi1.rows != y.ranks[0] or phi1.cols != x.ranks[0] or phi2.rows != y.ranks[1] or phi2.cols != x.ranks[1]:
        raise ValueError("phi1/phi2 have wrong shapes")
    if phi2 @ x.maps[0] != y.maps[0] @ phi1:
        raise ValueError("the first square does not commute")

    sx, sy = cx.split, cy.split
    assert sx is not None and sy is not None
    fs = (sy.iso[0] @ phi1 @ inverse(sx.iso[0]), sy.iso[1] @ phi2 @ inverse(sx.iso[1]))

    def core_block() -> list[RMatrix]:
        etas = [f.submatrix(range(sy.core.ranks[i]), range(sx.core.ranks[i])) for i, f in enumerate(fs)]
        return _complete_core_to_core(sx.core, sy.core, u, *etas)

    def read_off(divide):
        # η is given where it sits at object 1 or 2, divided out of the square
        # where its image η·α or β·η sits there, and free, so zero, otherwise
        def free(e, o, at, m) -> RMatrix:
            if e < 2:
                return fs[e].submatrix(*at(e))
            if o >= 2:
                return RMatrix.zeros(ring, *map(len, at(e)))
            eta = divide(m, fs[o].submatrix(*at(o)))
            if eta is None:
                raise AssertionError("guaranteed factorization failed")
            return eta

        return free

    # ψ_y⁻¹·g·ψ_x keeps the given components iff g keeps f1 and f2
    comps = _split_morphism(sx, sy, ring, n, core_block, read_off(solve_matrix_right), read_off(solve_matrix))
    out = SeqMorphism(x, y, comps)
    if out.phis[0] != phi1 or out.phis[1] != phi2:
        raise AssertionError("completion changed the given components")
    return out


def _split_morphism(
    sx: SplitResult, sy: SplitResult, ring: Ring, n: int, core_block, row, column
) -> tuple[RMatrix, ...]:
    """Components ψ_y⁻¹·g·ψ_x of the morphism g between two splittings,
    written here block by block in split coordinates:

    - core to core: the n blocks of ``core_block()``, unless a core is zero;
    - a target trivial on objects a, b: the row η = row(b, a, at, α_a) at b
      over the source core, and η·α_a at a;
    - a source trivial on objects a, b: the column η = column(a, b, at, β_a)
      at a over every target coordinate, and β_a·η at b.

    α is the source core and β the target in split coordinates, so every
    square of g commutes.  A free part is asked for as free(e, o, at, m): the
    block η at object e whose image through m lies at object o, where at(i)
    gives the (rows, columns) of the block at object i.  The parts are asked
    for in (source summand, target summand) order: the core block, the rows,
    then the columns.
    """
    alpha, beta = sx.core, _recon(sy)
    blocks = [[] for _ in range(n)]  # the (row, column, block) of g at each object

    def put(i, at, block: RMatrix) -> None:
        rows, cols = at(i)
        blocks[i].append((rows.start, cols.start, block))

    def trivial_coords(split: SplitResult):
        """The objects a, b of each trivial and its coordinates at each."""
        offs = list(split.core.ranks)
        for t in split.trivials:
            a, b = t.position - 1, t.position % n
            yield a, b, {i: range(offs[i], offs[i] + t.rank) for i in (a, b)}
            offs[a] += t.rank
            offs[b] += t.rank

    if alpha.total_rank() and sy.core.total_rank():
        cores = lambda i: (range(sy.core.ranks[i]), range(alpha.ranks[i]))
        for i, block in enumerate(core_block()):
            put(i, cores, block)
    for a, b, rows in trivial_coords(sy):
        at = lambda i: (rows[i], range(alpha.ranks[i]))
        eta = row(b, a, at, alpha.maps[a])
        put(b, at, eta)
        put(a, at, eta @ alpha.maps[a])
    for a, b, cols in trivial_coords(sx):
        at = lambda i: (range(beta.ranks[i]), cols[i])
        eta = column(a, b, at, beta.maps[a])
        put(a, at, eta)
        put(b, at, beta.maps[a] @ eta)
    return tuple(
        inverse(sy.iso[i]) @ from_blocks(ring, beta.ranks[i], sx.iso[i].rows, blocks[i]) @ sx.iso[i]
        for i in range(n)
    )


@dataclass(frozen=True)
class AngulationClass:
    u_rep: int  # canonical unit representative (ring element code)
    generator: NSequence


@dataclass(frozen=True)
class AngulationEnumeration:
    """Result of enumerating the n-angulations of (C, Σ) for a ring.

    status 'ok' carries one class per unit class; 'none_exist' carries the
    rotation-failure witness (membership of each rotated generator in each
    N_v).
    """

    status: str  # "ok" | "none_exist"
    classes: tuple[AngulationClass, ...] = ()
    reason: str | None = None
    rotation_witness: tuple[tuple[int, int, bool], ...] = ()


def enumerate_angulations(ring: Ring, n: int) -> AngulationEnumeration:
    if n < 3:
        raise ValueError("n must be >= 3")
    reps = ring.unit_class_reps()
    if n % 2 == 1 and not ring.two_p_zero:
        # Derived: any angulation would equal some N_u, but the left rotation
        # of the generator of N_u never lies in N_u again (p = -p fails), so
        # every candidate collection breaks the rotation axiom (N2).
        witness = []
        for ur in reps:
            rot = classify(rotate_left(standard_angle(ring, n, ur, 1)))
            witness.extend((ur, vr, rot.member_of(ring, vr)) for vr in reps)
        if any(ok for (ur, vr, ok) in witness if ur == vr):
            raise AssertionError("rotation witness inconsistent with parity analysis")
        reason = (
            "derived: no n-angulation exists for odd n when 2p != 0; every "
            "candidate collection N_u fails the rotation axiom (N2) on the "
            "left rotation of its own generator"
        )
        return AngulationEnumeration(status="none_exist", reason=reason, rotation_witness=tuple(witness))
    classes = tuple(AngulationClass(u_rep=ur, generator=standard_angle(ring, n, ur, 1)) for ur in reps)
    return AngulationEnumeration(status="ok", classes=classes)


@dataclass
class AxiomSuiteReport:
    ring: str
    n: int
    u: int
    max_rank: int
    trials: int
    seed: int
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def run_axiom_suite(ring: Ring, n: int, u: int, max_rank: int, trials: int, seed: int) -> AxiomSuiteReport:
    """Seeded randomized verification of (N1)(a/b/c), (N2) both directions,
    and (N3)/(N4) on random members of N_u.  Each trial draws its own RNG from
    the seed and a counter, so trials are reproducible and order-independent."""
    from .sampling import random_commuting_square, random_invertibles, random_member, trial_rng

    if n < 3:
        raise ValueError("n must be >= 3")
    ring.require_unit(u)
    if n % 2 == 1 and not ring.two_p_zero:
        raise ValueError(
            f"parity violation: {ring.spec} has 2p != 0, so the collections N_u "
            f"are not {n}-angulations for odd n (rotation axiom fails)"
        )
    report = AxiomSuiteReport(ring=ring.spec, n=n, u=u, max_rank=max_rank, trials=trials, seed=seed)

    def record(name: str, ok: bool, certificate=None):
        c = report.counts.setdefault(name, {"pass": 0, "fail": 0})
        c["pass" if ok else "fail"] += 1
        if not ok:
            # certificates are built lazily: full object data, re-verifiable
            data = certificate() if callable(certificate) else certificate
            report.failures.append({"trial": t, "check": name, "certificate": data})

    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_member(ring, n, u, max_rank, rng)
        y = random_member(ring, n, u, max_rank, rng)

        record("n1a_direct_sum", membership(direct_sum(x, y), u), lambda: _seq_note(x, y))
        xi = apply_iso(x, random_invertibles(ring, x.ranks, rng))
        record("n1a_iso_closure", membership(xi, u), lambda: _seq_note(xi))
        if ring.q > 2:
            # one of the q - 2 unit classes other than u's, by its residue
            i = 1 + rng.randrange(ring.q - 2)
            v = ring.from_residue(i if i < ring.residue(u) else i + 1)
            bad = direct_sum(x, standard_angle(ring, n, v, 1))
            record("n1a_summand_detects_nonmember", not membership(bad, u), lambda: _seq_note(bad))
        spec = TrivialSpec(rank=1 + rng.randrange(2), position=1 + rng.randrange(n))
        record("n1b_trivial", membership(trivial_sequence(ring, n, spec), u))
        rows, cols = rng.randrange(max_rank + 1), rng.randrange(max_rank + 1)
        alpha = RMatrix(ring, rows, cols, [rng.randrange(ring.order) for _ in range(rows * cols)])
        z = complete_to_angle(alpha, u, n)
        record("n1c_completion", z.maps[0] == alpha and membership(z, u), lambda: _seq_note(z))
        record("n2_left", membership(rotate_left(x), u), lambda: _seq_note(x))
        record("n2_right", membership(rotate_right(y), u), lambda: _seq_note(y))

        phi1, phi2 = random_commuting_square(x, y, u, rng)
        try:
            comp = complete_morphism(x, y, u, phi1, phi2)
            cone_cert = classify(mapping_cone(comp))
            ok = comp.phis[0] == phi1 and comp.phis[1] == phi2 and cone_cert.member_of(ring, u)
            record("n3n4_completion", ok, lambda: _square_note(x, y, phi1, phi2))
        except (ValueError, AssertionError) as exc:  # a failure certificate, not a crash
            err = str(exc)
            record("n3n4_completion", False, lambda: dict(_square_note(x, y, phi1, phi2), error=err))
    return report


def _seq_note(*seqs: NSequence):
    # full sequence data so a failure certificate re-verifies via the library
    from .serialize import encode_sequence

    return [encode_sequence(s) for s in seqs]


def _square_note(x: NSequence, y: NSequence, phi1: RMatrix, phi2: RMatrix):
    from .serialize import encode_matrix, encode_sequence

    return {
        "source": encode_sequence(x),
        "target": encode_sequence(y),
        "phi1": encode_matrix(phi1),
        "phi2": encode_matrix(phi2),
    }
