"""JSON encodings for the wire formats.

Elements: plain integer 0..q^2-1 for Z/q^2, ``[a, b]`` with field codes in
0..q-1 for GF(q)[x]/(x^2).  Matrices: {"rows", "cols", "entries"} row-major.
Sequences: {"ring", "n", "ranks", "maps"}; morphisms add "phis" plus source
and target; homotopies carry "thetas" (theta_i maps object i+1 of the source
to object i of the target, wrapping at n).
"""

from __future__ import annotations

import json
from typing import Any

from .algebraicity import ObstructionReport
from .angulation import (
    AngulationEnumeration,
    AxiomSuiteReport,
    MembershipCertificate,
    SplitResult,
)
from .homotopy import Homotopy
from .matrices import RMatrix, UnsolvableCertificate
from .rings import MAX_DIM, Ring, make_ring
from .sequences import NSequence, SeqMorphism


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list_field(obj: dict, key: str, what: str) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise ValueError(f"{what} {key} must be a list")
    return value


def encode_matrix(m: RMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [m.ring.encode_element(x) for x in m.data]}


def decode_matrix(ring: Ring, obj: Any) -> RMatrix:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= obj.keys():
        raise ValueError("matrix JSON needs rows, cols, entries")
    rows, cols = obj["rows"], obj["cols"]
    if not _is_int(rows) or not _is_int(cols):
        raise ValueError("matrix rows and cols must be integers")
    if not (0 <= rows <= MAX_DIM and 0 <= cols <= MAX_DIM):
        raise ValueError(f"matrix is {rows}x{cols}; rows and cols must lie in 0..{MAX_DIM}")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError("matrix entries length mismatch")
    return RMatrix(ring, rows, cols, [ring.decode_element(e) for e in entries])


def encode_sequence(x: NSequence) -> dict:
    return {
        "ring": x.ring.spec,
        "n": x.n,
        "ranks": list(x.ranks),
        "maps": [encode_matrix(m) for m in x.maps],
    }


def decode_sequence(obj: Any) -> NSequence:
    if not isinstance(obj, dict) or not {"ring", "n", "ranks", "maps"} <= obj.keys():
        raise ValueError("sequence JSON needs ring, n, ranks, maps")
    if not isinstance(obj["ring"], str):
        raise ValueError("sequence ring must be a spec string")
    ring = make_ring(obj["ring"])
    n, ranks = obj["n"], obj["ranks"]
    if not _is_int(n):
        raise ValueError("sequence n must be an integer")
    if not isinstance(ranks, list) or not all(_is_int(r) for r in ranks):
        raise ValueError("sequence ranks must be a list of integers")
    maps = tuple(decode_matrix(ring, m) for m in _list_field(obj, "maps", "sequence"))
    return NSequence(ring, n, tuple(ranks), maps)


def encode_morphism(f: SeqMorphism) -> dict:
    return {
        "source": encode_sequence(f.source),
        "target": encode_sequence(f.target),
        "phis": [encode_matrix(m) for m in f.phis],
    }


def decode_morphism(obj: Any) -> SeqMorphism:
    if not isinstance(obj, dict) or not {"source", "target", "phis"} <= obj.keys():
        raise ValueError("morphism JSON needs source, target, phis")
    src = decode_sequence(obj["source"])
    tgt = decode_sequence(obj["target"])
    phis = tuple(decode_matrix(src.ring, m) for m in _list_field(obj, "phis", "morphism"))
    return SeqMorphism(src, tgt, phis)


def encode_homotopy(h: Homotopy) -> dict:
    return {
        "phi": encode_morphism(h.phi),
        "psi": encode_morphism(h.psi),
        "thetas": [encode_matrix(m) for m in h.thetas],
    }


def decode_homotopy(obj: Any) -> Homotopy:
    if not isinstance(obj, dict) or not {"phi", "psi", "thetas"} <= obj.keys():
        raise ValueError("homotopy JSON needs phi, psi, thetas")
    phi = decode_morphism(obj["phi"])
    psi = decode_morphism(obj["psi"])
    thetas = tuple(decode_matrix(phi.source.ring, m) for m in _list_field(obj, "thetas", "homotopy"))
    return Homotopy(phi=phi, psi=psi, thetas=thetas)


def encode_split(s: SplitResult) -> dict:
    return {
        "core": encode_sequence(s.core),
        "trivials": [{"rank": t.rank, "position": t.position} for t in s.trivials],
        "iso": [encode_matrix(m) for m in s.iso],
    }


def encode_certificate(c: MembershipCertificate) -> dict:
    out: dict[str, Any] = {"verdict": c.verdict}
    if c.u_class is not None:
        out["u_class"] = c.u_class
    if c.reason is not None:
        out["reason"] = c.reason
    if c.split is not None:
        out["split"] = encode_split(c.split)
    if c.product_residue is not None:
        out["product_residue"] = {
            "rows": c.product_residue.rows,
            "cols": c.product_residue.cols,
            "entries": list(c.product_residue.data),
        }
    return out


def encode_enumeration(ring: Ring, e: AngulationEnumeration) -> dict:
    out: dict[str, Any] = {"ring": ring.spec, "status": e.status}
    if e.status == "ok":
        out["count"] = len(e.classes)
        out["classes"] = [
            {"u": ring.encode_element(c.u_rep), "generator": encode_sequence(c.generator)} for c in e.classes
        ]
    if e.reason is not None:
        out["reason"] = e.reason
    if e.rotation_witness:
        out["rotation_witness"] = [
            {"u": ring.encode_element(u), "v": ring.encode_element(v), "member": ok}
            for (u, v, ok) in e.rotation_witness
        ]
    return out


def encode_unsolvable(ring: Ring, c: UnsolvableCertificate) -> dict:
    return {
        "row": c.row,
        "value": ring.encode_element(c.value),
        "constraint": c.constraint,
        "block_sizes": {"u": c.normal.u, "v": c.normal.v},
    }


def encode_obstruction(ring: Ring, r: ObstructionReport) -> dict:
    out: dict[str, Any] = {"verdict": r.verdict}
    if r.d is not None:
        out["d"] = r.d
    if r.witness is not None:
        out["witness"] = [ring.encode_element(w) for w in r.witness]
    if r.reason is not None:
        out["reason"] = r.reason
    if r.certificate is not None:
        out["certificate"] = encode_unsolvable(ring, r.certificate)
    return out


def encode_suite_report(r: AxiomSuiteReport) -> dict:
    return {
        "ring": r.ring,
        "n": r.n,
        "u": r.u,
        "max_rank": r.max_rank,
        "trials": r.trials,
        "seed": r.seed,
        "counts": r.counts,
        "failures": r.failures,
        "passed": r.passed,
    }


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no incidental whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
