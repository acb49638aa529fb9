"""The four benchmark workloads.

Each workload makes its inputs from a seed before anything is timed, builds
its ring in ``setup``, runs one user-visible decision per ``run`` call and
checks each result against what is known from how the input was built --
never against another answer of the library.

Op costs vary by input shape, so the shape of each op follows a fixed
ten-slot pattern and only the contents come from the seed.  Each pattern is
laid out so that the edges of the latency bands (the 25th, 75th and 90th
percentiles) fall inside a slot or a run of slots of one shape rather than on
the border between two shapes of different cost; otherwise which ops fall
into a band would change between seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import nangle
from nangle import cli
from nangle.sampling import random_homotopy_deformation, random_invertibles, random_matrix

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "axioms_z4_digests.json"

AXIOMS_ARGV = ["axioms", "--ring", "Z/4", "--n", "4", "--u", "1", "--rank", "3", "--trials", "1", "--seed", "{seed}", "--json"]

# Distinct inputs per pattern slot; a run cycles through the pool.
POOL_REPS = 8

# Fixed inputs for the set-up warm-up, so that set-up time does not depend on --seed.
WARMUP_SEED = 7


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    expect: object = None


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_axioms_cli(trial_seed: int) -> tuple[int, str]:
    argv = [a.replace("{seed}", str(trial_seed)) for a in AXIOMS_ARGV]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# Every check of one Z/4 trial; Z/4 has a single unit class, so the suite's
# non-member check has no other class to use and does not run.
Z4_SUITE_CHECKS = {"n1a_direct_sum", "n1a_iso_closure", "n1b_trivial", "n1c_completion", "n2_left", "n2_right", "n3n4_completion"}


class Workload:
    name = ""
    ring_spec = ""
    setup_reps: int  # set-ups per timed run
    trace_ops: int  # ops in one traced pass; fixed so that the counts repeat

    def inputs(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError

    def setup(self):
        """What a user pays before the first decision, with the warm-up op:
        building the ring.  Ops run on the ring their inputs were built over."""
        return nangle.make_ring(self.ring_spec)

    def input_ring(self):
        """The ring that pre-built inputs carry, if any, for the op counters."""
        return None

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError


class AxiomsZ4(Workload):
    """The README command, one trial per op, through the CLI in-process."""

    name = "axioms-z4"
    ring_spec = "Z/4"
    setup_reps = 15
    trace_ops = 60

    def __init__(self):
        table = json.loads(DIGESTS.read_text())
        if table["argv"] != AXIOMS_ARGV:
            raise ValueError(f"{DIGESTS.name} was recorded for another command")
        self.digests: list[str] = table["digests"]

    def _op(self, trial_seed: int) -> Op:
        return Op("cli_axioms", (trial_seed,), self.digests[trial_seed])

    def inputs(self, seed):
        count = len(self.digests)
        start = (seed * 2654435761) % count
        return [self._op((start + i) % count) for i in range(count)]

    def warmup(self):
        return self._op(WARMUP_SEED)

    def run(self, op):
        return run_axioms_cli(op.args[0])

    def check(self, op, result):
        rc, out = result
        if rc != 0 or stdout_digest(out) != op.expect:
            return False
        report = json.loads(out)
        counts = report["counts"]
        return (
            report["passed"] is True
            and set(counts) == Z4_SUITE_CHECKS
            and all(c == {"pass": 1, "fail": 0} for c in counts.values())
        )


def _member(ring, n: int, u: int, core_rank: int, trivials: int, rng: random.Random):
    """A conjugated member of N_u.  The trivials sit at fixed positions 1, 3,
    ..., because where they sit changes the op's cost by more than the
    conjugation does."""
    parts = [nangle.standard_angle(ring, n, u, core_rank)]
    for j in range(trivials):
        parts.append(nangle.trivial_sequence(ring, n, nangle.TrivialSpec(rank=1, position=1 + (2 * j) % n)))
    base = nangle.direct_sum(*parts)
    return nangle.apply_iso(base, random_invertibles(ring, base.ranks, rng))


def _homotopy_holds(h, phi, psi) -> bool:
    """Re-check φ_i - ψ_i = Θ_i α_i + β_{i-1} Θ_{i-1} on the returned diagonals."""
    if h is None or h.phi != phi or h.psi != psi:
        return False
    x, y, n = phi.source, phi.target, phi.source.n
    for i in range(n):
        rhs = h.thetas[i] @ x.maps[i] + y.maps[(i - 1) % n] @ h.thetas[(i - 1) % n]
        if phi.phis[i] - psi.phis[i] != rhs:
            return False
    return True


class _GeneratedInputs(Workload):
    """Inputs built over a ring that is made once, untimed, before set-up."""

    pattern: tuple = ()

    def __init__(self):
        self._ring = None

    def input_ring(self):
        if self._ring is None:
            self._ring = nangle.make_ring(self.ring_spec)
        return self._ring

    def make_op(self, shape, rng: random.Random) -> Op:
        raise NotImplementedError

    def inputs(self, seed):
        ops = []
        for rep in range(POOL_REPS):
            for slot, shape in enumerate(self.pattern):
                ops.append(self.make_op(shape, random.Random(f"{self.name}:{seed}:{rep}:{slot}")))
        return ops

    def warmup(self):
        return self.make_op(self.warmup_shape, random.Random(f"{self.name}:warmup"))


class HomotopyZ9(_GeneratedInputs):
    """Homotopy decisions over Z/9 (2p != 0): each op is one dense solve."""

    name = "homotopy-z9"
    ring_spec = "Z/9"
    setup_reps = 15
    trace_ops = 20
    u = 1
    # (call, n, rank): find = deformation pair, core = member with nonzero
    # core, triv = conjugated sum of trivials of this rank at every position.
    # Sorted by cost: the middle half runs from core (4, 3) to find (4, 4),
    # and the slowest tenth is find (6, 4).  Shapes whose cost varies widely
    # with contents, such as find (6, 3), are left out: near a band edge they
    # move it.
    pattern = (
        ("triv", 6, 1),
        ("find", 4, 2),
        ("core", 4, 3),
        ("find", 4, 3),
        ("triv", 4, 2),
        ("triv", 4, 2),
        ("triv", 4, 2),
        ("find", 4, 4),
        ("find", 6, 4),
        ("find", 6, 4),
    )
    warmup_shape = ("find", 4, 3)

    def make_op(self, shape, rng):
        ring = self.input_ring()
        call, n, rank = shape
        if call == "find":
            x = _member(ring, n, self.u, rank, 0, rng)
            iso = tuple(random_invertibles(ring, x.ranks, rng))
            phi = nangle.SeqMorphism(x, nangle.apply_iso(x, iso), iso)
            pair = random_homotopy_deformation(phi, rng)
            return Op("find", (phi, pair.psi), True)
        if call == "core":
            return Op("contractible", (_member(ring, n, self.u, rank, 0, rng),), False)
        specs = [nangle.TrivialSpec(rank=rank, position=p) for p in range(1, n + 1)]
        base = nangle.direct_sum(*(nangle.trivial_sequence(ring, n, s) for s in specs))
        x = nangle.apply_iso(base, random_invertibles(ring, base.ranks, rng))
        return Op("contractible", (x,), True)

    def run(self, op):
        if op.kind == "find":
            return nangle.find_homotopy(*op.args)
        return nangle.is_contractible(op.args[0])

    def check(self, op, result):
        if op.kind == "find":
            return _homotopy_holds(result, *op.args)
        if not op.expect:
            return result is None
        x = op.args[0]
        return _homotopy_holds(result, nangle.identity_morphism(x), nangle.zero_morphism(x, x))


class _ExtRing(_GeneratedInputs):
    """Membership and completion over an extension ring GF(q)[x]/(x^2)."""

    setup_reps = 5
    trace_ops = 40
    n = 4
    u = 1
    # (call, core rank and trivials | rows and cols of alpha).  Sorted by
    # cost: the middle half runs from complete (2, 3) to nonmember (3, 1),
    # and the slowest tenth is member (3, 2).
    pattern = (
        ("member", 1, 0),
        ("nonmember", 2, 0),
        ("complete", 2, 3),
        ("complete", 3, 3),
        ("member", 2, 1),
        ("member", 2, 1),
        ("member", 2, 1),
        ("nonmember", 3, 1),
        ("member", 3, 2),
        ("member", 3, 2),
    )
    warmup_shape = ("member", 2, 1)

    def make_op(self, shape, rng):
        ring = self.input_ring()
        call, a, b = shape
        if call == "complete":
            return Op("complete", (random_matrix(ring, a, b, rng), self.u, self.n))
        x = _member(ring, self.n, self.u, a, b, rng)
        if call == "member":
            return Op("classify", (x,), True)
        # the generator of another unit class as a summand: not in N_u
        v = ring.from_residue(2 + rng.randrange(ring.q - 2))
        return Op("classify", (nangle.direct_sum(x, nangle.standard_angle(ring, self.n, v, 1)),), False)

    def run(self, op):
        if op.kind == "complete":
            return nangle.complete_to_angle(*op.args)
        return nangle.classify(op.args[0])

    def check(self, op, result):
        if op.kind == "complete":
            alpha, _, n = op.args
            return result.n == n and result.maps[0] == alpha
        ring = op.args[0].ring
        if op.expect:
            return result.verdict == "in_nu" and result.u_class == ring.residue(self.u) and result.member_of(ring, self.u)
        return not result.member_of(ring, self.u)


class ExtGF512(_ExtRing):
    """Above the op-table bound: every ring op runs through residue-field digits."""

    name = "ext-gf512"
    ring_spec = "GF(512)[x]/(x^2)"


class ExtGF16(_ExtRing):
    """The same calls on a ring whose op tables set-up builds through digit
    arithmetic, so its ring cost is paid before the first answer.  It stands
    in for GF(32), the largest ring with tables, whose set-up alone takes
    over 30 s."""

    name = "ext-gf16"
    ring_spec = "GF(16)[x]/(x^2)"
    trace_ops = 60
    # Table lookups make ops a sixth of their cost on GF(512), and with the
    # ext-gf512 pattern the middle of the latencies fell on 4 ms ops and moved
    # by a third between runs.  So the middle half lies within six slots of
    # member (3, 2), whose cost varies by about 10% with its contents here,
    # and the slowest tenth within two of member (3, 3).  On GF(512), member
    # (3, 2) takes anywhere from 85 to 145 ms, so ext-gf512 keeps its own
    # pattern.
    pattern = (
        ("complete", 4, 4),
        ("nonmember", 2, 2),
        ("member", 3, 2),
        ("member", 3, 2),
        ("member", 3, 2),
        ("member", 3, 2),
        ("member", 3, 2),
        ("member", 3, 2),
        ("member", 3, 3),
        ("member", 3, 3),
    )
    warmup_shape = ("member", 3, 2)


WORKLOADS = {w.name: w for w in (AxiomsZ4, HomotopyZ9, ExtGF512, ExtGF16)}
