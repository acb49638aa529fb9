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
    payload = serialize.encode_certificate(cert)
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
    shared = {
        "ring": dict(required=True, help="ring spec, e.g. Z/4 or GF(2)[x]/(x^2)"),
        "n": dict(type=int, required=True, help="length of the sequences (n >= 3)"),
        "u": dict(required=True, help="unit as element JSON, e.g. 3 or [1,0]"),
        "file": dict(required=True, help="input JSON file"),
    }
    # (name, handler, help, shared options, own options); built per call, so a
    # cmd_* rebound in this module's namespace is the handler that runs
    commands = (
        ("ring-info", cmd_ring_info, "describe a ring and its unit classes", "ring", ()),
        ("angle-check", cmd_angle_check, "candidate / exactness check for a sequence file", "file", ()),
        ("angle-classify", cmd_angle_classify, "classify a sequence against the collections N_u", "file",
         (("--u", dict(help="also decide membership in N_u for this unit")),)),
        ("complete", cmd_complete, "complete a first map to an n-angle in N_u", "ring n u file", ()),
        ("rotate", cmd_rotate, "rotate a sequence (left by default)", "file",
         (("--right", dict(action="store_true")), ("--times", dict(type=_at_least(0), default=1)))),
        ("cone", cmd_cone, "mapping cone of a morphism file", "file", ()),
        ("homotopy", cmd_homotopy, "decide homotopy of two morphisms ({'phi':..., 'psi':...})", "file", ()),
        ("angulations", cmd_angulations, "enumerate the n-angulations of the suspended category", "ring n", ()),
        ("axioms", cmd_axioms, "seeded randomized axiom suite for N_u", "ring n u", (
            ("--rank", dict(type=_at_least(0), default=3, help="max core rank of random members")),
            ("--trials", dict(type=_at_least(1), default=500)),
            ("--seed", dict(type=int, default=0)),
        )),
        ("algebraicity", cmd_algebraicity, "non-algebraicity obstruction verdict", "ring n", ()),
    )
    for name, func, text, common, own in commands:
        p = sub.add_parser(name, help=text)
        for option in common.split():
            p.add_argument(f"--{option}", **shared[option])
        p.add_argument("--json", action="store_true", help="emit a deterministic JSON report")
        for option, kwargs in own:
            p.add_argument(option, **kwargs)
        p.set_defaults(func=func)
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
