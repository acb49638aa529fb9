"""Command-line surface.

Exit codes: 0 success/decided, 1 property violation or counterexample found,
2 usage error.  Identical inputs and seeds produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .algebraicity import algebraicity_verdict
from .angulation import classify, complete_to_angle, enumerate_angulations, is_exact, membership, run_axiom_suite
from .homotopy import find_homotopy
from .rings import Ring, make_ring
from .sequences import is_candidate, mapping_cone, rotate_left, rotate_right


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"cannot read {path}: {exc}") from None


def _unit(ring: Ring, text: str) -> int:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        raise ValueError(f"cannot parse unit {text!r}") from None
    return ring.require_unit(ring.decode_element(obj))


def _at_least(least: int):
    """argparse type: an int no smaller than ``least``."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return count


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(serialize.dumps(payload))
    else:
        print(human)


def cmd_ring_info(args) -> int:
    ring = make_ring(args.ring)
    reps = ring.unit_class_reps()
    payload = {
        "ring": ring.spec,
        "family": ring.family,
        "q": ring.q,
        "order": ring.order,
        "p": ring.encode_element(ring.p),
        "two_p_zero": ring.two_p_zero,
        "unit_count": ring.order - ring.q,
        "unit_classes": [ring.encode_element(r) for r in reps],
    }
    human = (
        f"{ring.spec}: |R| = {ring.order}, residue field of order {ring.q}, "
        f"p = {ring.format_element(ring.p)}, 2p = 0: {ring.two_p_zero}\n"
        f"units: {ring.order - ring.q}, unit classes (u ~ v iff up = vp): "
        f"[{', '.join(ring.format_element(r) for r in reps)}]"
    )
    _emit(args, payload, human)
    return 0


def cmd_angle_check(args) -> int:
    seq = serialize.decode_sequence(_load_json(args.file))
    cand, exact = is_candidate(seq), is_exact(seq)
    payload = {"candidate": cand, "exact": exact}
    _emit(args, payload, f"candidate: {cand}, exact: {exact}")
    return 0


def cmd_angle_classify(args) -> int:
    seq = serialize.decode_sequence(_load_json(args.file))
    ring = seq.ring
    cert = classify(seq)
    payload = serialize.encode_certificate(ring, cert)
    if args.u is not None:
        u = _unit(ring, args.u)
        payload["membership"] = cert.member_of(ring, u)
    if cert.verdict == "contractible":
        human = "contractible (member of every N_u)"
    elif cert.verdict == "in_nu":
        human = f"member of N_{cert.u_class} (unit class mod m)"
    else:
        human = f"not a member of any N_u: {cert.reason}"
    if args.u is not None:
        human += f"; member of N_{args.u}: {payload['membership']}"
    _emit(args, payload, human)
    return 0


def cmd_complete(args) -> int:
    ring = make_ring(args.ring)
    u = _unit(ring, args.u)
    alpha = serialize.decode_matrix(ring, _load_json(args.file))
    seq = complete_to_angle(alpha, u, args.n)
    _emit(args, serialize.encode_sequence(seq), _pretty_sequence(seq))
    return 0


def cmd_rotate(args) -> int:
    seq = serialize.decode_sequence(_load_json(args.file))
    # n rotations scale every map by (-1)^n, so 2n rotations are the identity
    for _ in range(args.times % (2 * seq.n)):
        seq = rotate_right(seq) if args.right else rotate_left(seq)
    _emit(args, serialize.encode_sequence(seq), _pretty_sequence(seq))
    return 0


def cmd_cone(args) -> int:
    mor = serialize.decode_morphism(_load_json(args.file))
    cone = mapping_cone(mor)
    _emit(args, serialize.encode_sequence(cone), _pretty_sequence(cone))
    return 0


def cmd_homotopy(args) -> int:
    obj = _load_json(args.file)
    if not isinstance(obj, dict) or not {"phi", "psi"} <= obj.keys():
        raise ValueError("homotopy JSON needs phi and psi")
    phi = serialize.decode_morphism(obj["phi"])
    psi = serialize.decode_morphism(obj["psi"])
    h = find_homotopy(phi, psi)
    if h is None:
        _emit(args, {"homotopic": False}, "not homotopic (the linear system is unsolvable)")
    else:
        payload = {"homotopic": True, "homotopy": serialize.encode_homotopy(h)}
        _emit(args, payload, "homotopic; witness diagonals found")
    return 0


def cmd_angulations(args) -> int:
    ring = make_ring(args.ring)
    result = enumerate_angulations(ring, args.n)
    payload = serialize.encode_enumeration(ring, result)
    if result.status == "ok":
        reps = ", ".join(f"u={ring.format_element(c.u_rep)}" for c in result.classes)
        noun = "angulation" if len(result.classes) == 1 else "angulations"
        human = f"{len(result.classes)} {noun}: [{reps}]"
    else:
        human = f"no {args.n}-angulations exist: {result.reason}"
    _emit(args, payload, human)
    return 0


def cmd_axioms(args) -> int:
    ring = make_ring(args.ring)
    u = _unit(ring, args.u)
    report = run_axiom_suite(ring, args.n, u, args.rank, args.trials, args.seed)
    payload = serialize.encode_suite_report(report)
    lines = [f"axiom suite for {ring.spec}, n={args.n}, u={args.u}, max_rank={args.rank}, trials={args.trials}, seed={args.seed}"]
    for name in sorted(report.counts):
        c = report.counts[name]
        lines.append(f"  {name}: {c['pass']} pass, {c['fail']} fail")
    lines.append("PASS" if report.passed else f"FAIL ({len(report.failures)} counterexamples)")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.passed else 1


def cmd_algebraicity(args) -> int:
    ring = make_ring(args.ring)
    report = algebraicity_verdict(ring, args.n)
    payload = serialize.encode_obstruction(ring, report)
    if report.verdict == "not_algebraic":
        human = f"NOT ALGEBRAIC (obstruction d={report.d})"
    elif report.witness is not None:
        w = ", ".join(ring.format_element(x) for x in report.witness)
        human = f"inconclusive: null-homotopy witness ({w}) exists for d={report.d}"
    else:
        human = f"inconclusive: {report.reason}"
    _emit(args, payload, human)
    return 0


def _pretty_sequence(seq) -> str:
    lines = [f"ring {seq.ring.spec}, n = {seq.n}, ranks {list(seq.ranks)}"]
    for i, m in enumerate(seq.maps):
        shown = [[seq.ring.format_element(x) for x in row] for row in m.to_lists()]
        lines.append(f"  map {i + 1}: {shown}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nangle", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, ring=False, n=False, u=False, file=False):
        if ring:
            p.add_argument("--ring", required=True, help="ring spec, e.g. Z/4 or GF(2)[x]/(x^2)")
        if n:
            p.add_argument("--n", type=int, required=True, help="length of the sequences (n >= 3)")
        if u:
            p.add_argument("--u", required=True, help="unit as element JSON, e.g. 3 or [1,0]")
        if file:
            p.add_argument("--file", required=True, help="input JSON file")
        p.add_argument("--json", action="store_true", help="emit a deterministic JSON report")

    p = sub.add_parser("ring-info", help="describe a ring and its unit classes")
    common(p, ring=True)
    p.set_defaults(func=cmd_ring_info)

    p = sub.add_parser("angle-check", help="candidate / exactness check for a sequence file")
    common(p, file=True)
    p.set_defaults(func=cmd_angle_check)

    p = sub.add_parser("angle-classify", help="classify a sequence against the collections N_u")
    common(p, file=True)
    p.add_argument("--u", help="also decide membership in N_u for this unit")
    p.set_defaults(func=cmd_angle_classify)

    p = sub.add_parser("complete", help="complete a first map to an n-angle in N_u")
    common(p, ring=True, n=True, u=True, file=True)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("rotate", help="rotate a sequence (left by default)")
    common(p, file=True)
    p.add_argument("--right", action="store_true")
    p.add_argument("--times", type=_at_least(0), default=1)
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("cone", help="mapping cone of a morphism file")
    common(p, file=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("homotopy", help="decide homotopy of two morphisms ({'phi':..., 'psi':...})")
    common(p, file=True)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("angulations", help="enumerate the n-angulations of the suspended category")
    common(p, ring=True, n=True)
    p.set_defaults(func=cmd_angulations)

    p = sub.add_parser("axioms", help="seeded randomized axiom suite for N_u")
    common(p, ring=True, n=True, u=True)
    p.add_argument("--rank", type=_at_least(0), default=3, help="max core rank of random members")
    p.add_argument("--trials", type=_at_least(1), default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("algebraicity", help="non-algebraicity obstruction verdict")
    common(p, ring=True, n=True)
    p.set_defaults(func=cmd_algebraicity)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
