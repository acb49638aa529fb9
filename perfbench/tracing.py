"""Per-layer spans and counters installed from outside the nangle package.

The package has no instrumentation of its own, so a traced run wraps the
public functions of each module.  Modules import functions by name, so every
module binding of a function is replaced (``inverse`` alone is bound in
``matrices``, ``sequences``, ``angulation``, ``sampling`` and ``homotopy``).
Method wrappers go on ``RMatrix.__matmul__``, ``KMatrix.__matmul__`` and the
two matrix constructors; ring and residue-field op counters go on the ring and
field instances.  ``Tracer.remove`` restores every binding it replaced.

A span records calls and self time: its duration minus the part covered by
its child spans.  Ring and field ops are counted, never spanned, because a
span per ring op would cost more than the op itself.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

_MISSING = object()

# ``sub`` is left out: every ring and field computes it as ``add`` plus ``neg``,
# which are counted, so one count is one arithmetic step.
RING_OPS = ("add", "mul", "neg", "inv")

# span key -> reported layer.  Keys that share a layer are summed.
LAYER_OF = {
    "rings.make_ring": "rings.make_ring",
    "matrices.normal_form": "matrices.normal_form",
    "matrices.inverse": "matrices.inverse",
    "matrices.matmul": "matrices.matmul",
    "matrices.krank": "matrices.kmatrix",
    "matrices.kinv": "matrices.kmatrix",
    "matrices.kmatmul": "matrices.kmatrix",
    "matrices.solve_linear": "matrices.solve",
    "matrices.solve_linear_explained": "matrices.solve",
    "matrices.solve_matrix": "matrices.solve",
    "matrices.solve_matrix_right": "matrices.solve",
    "sequences.apply_iso": "sequences.apply_iso",
    "sequences.is_candidate": "sequences.is_candidate",
    "sequences.direct_sum": "sequences.direct_sum",
    "sequences.mapping_cone": "sequences.mapping_cone",
    "angulation.split_trivials": "angulation.split_trivials",
    "angulation.classify": "angulation.classify",
    "angulation.complete_morphism": "angulation.complete_morphism",
    "angulation.core_to_standard_iso": "angulation.core_to_standard_iso",
    "angulation.complete_to_angle": "angulation.complete_to_angle",
    "angulation.run_axiom_suite": "angulation.run_axiom_suite",
    "homotopy.find_homotopy": "homotopy.find_homotopy",
    "homotopy.is_contractible": "homotopy.is_contractible",
}

SAMPLING_FUNCS = (
    "random_matrix",
    "random_invertible",
    "random_invertibles",
    "random_member",
    "random_morphism",
    "random_commuting_square",
    "random_homotopy_deformation",
)

# layer name, unit, better -- the per-layer metrics every traced run prints.
SPAN_LAYERS = sorted(set(LAYER_OF.values()) | {"sampling", "serialize", "cli"})
COUNTERS = (
    ("rings.ops", "count", "lower"),
    ("rings.kops", "count", "lower"),
    ("matrices.normal_form.cells", "count", "lower"),
    ("matrices.normal_form.max_cells", "count", "lower"),
    ("matrices.matmul.mults", "count", "lower"),
    ("matrices.entries_validated", "count", "lower"),
    ("angulation.split_trivials.steps", "count", "lower"),
    ("homotopy.unknowns", "count", "lower"),
    ("homotopy.max_unknowns", "count", "lower"),
    ("sampling.invertible_draws", "count", "lower"),
    ("sampling.invertible_accepted", "count", "lower"),
)


def metric_specs():
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = []
    for layer in SPAN_LAYERS:
        if layer == "rings.make_ring":
            specs.append(("rings.make_ring.calls", "count", "lower"))
            specs.append(("rings.make_ring.s", "s", "lower"))
        else:
            specs.append((f"{layer}.calls", "count", "lower"))
            specs.append((f"{layer}.self_s", "s", "lower"))
    specs.extend(COUNTERS)
    specs += [
        ("rings.op_ns", "ns", "lower"),
        ("rings.est_s", "s", "lower"),
        ("sampling.invertible_accept_ratio", "ratio", "higher"),
        ("trace.ops", "count", "higher"),
        ("trace.op_wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


def count_names() -> list[str]:
    """Per-layer metrics that must repeat exactly for a fixed seed."""
    return [name for name, _, _ in COUNTERS] + [f"{layer}.calls" for layer in SPAN_LAYERS] + ["trace.ops"]


class Tracer:
    """Spans and counters for one traced pass.  ``install`` patches the
    nangle modules in place; ``remove`` puts every original back."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._ring_ops = [0]
        self._field_ops = [0]
        self._keys: list[str] = []
        self._child: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def span(self, key: str, fn, before=None, after=None):
        tracer = self
        keys, child = self._keys, self._child
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            keys.append(key)
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                keys.pop()
                covered = child.pop()
                tracer.calls[key] += 1
                tracer.self_s[key] += dt - covered
                if child:
                    child[-1] += dt
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def count_ring(self, ring) -> None:
        """Count add/mul/neg/inv calls on a ring and on its residue field."""
        for obj, cell in ((ring, self._ring_ops), (ring.k, self._field_ops)):
            for name in RING_OPS:
                self._set(obj, name, _counting(getattr(obj, name), cell))

    def install(self, ring=None) -> None:
        """Wrap the package; also count ops on ``ring``, which was made
        before tracing began, so the ``make_ring`` wrapper never saw it."""
        import nangle
        from nangle import angulation, cli, homotopy, matrices, rings as rings_mod, sampling, sequences, serialize

        mods = [nangle, angulation, cli, homotopy, matrices, rings_mod, sampling, sequences, serialize]
        counts = self.counts

        if ring is not None:
            self.count_ring(ring)

        def wrap(mod, name, key, before=None, after=None):
            original = getattr(mod, name)
            self._rebind(mods, original, self.span(key, original, before, after))

        wrap(rings_mod, "make_ring", "rings.make_ring", after=lambda ring, *a, **k: self.count_ring(ring))

        def nf_cells(m):
            cells = m.rows * m.cols
            counts["matrices.normal_form.cells"] += cells
            if cells > counts["matrices.normal_form.max_cells"]:
                counts["matrices.normal_form.max_cells"] = cells

        wrap(matrices, "normal_form", "matrices.normal_form", before=nf_cells)
        wrap(matrices, "inverse", "matrices.inverse")
        wrap(matrices, "krank", "matrices.krank")
        wrap(matrices, "kinv", "matrices.kinv")
        for name in ("solve_linear", "solve_linear_explained", "solve_matrix", "solve_matrix_right"):
            wrap(matrices, name, f"matrices.{name}")

        def mults(a, b):
            counts["matrices.matmul.mults"] += a.rows * a.cols * b.cols

        self._set(matrices.RMatrix, "__matmul__", self.span("matrices.matmul", matrices.RMatrix.__matmul__, before=mults))
        self._set(matrices.KMatrix, "__matmul__", self.span("matrices.kmatmul", matrices.KMatrix.__matmul__))
        for cls in (matrices.RMatrix, matrices.KMatrix):
            self._set(cls, "__init__", _counting_init(cls.__init__, counts))

        for name in ("apply_iso", "is_candidate", "direct_sum", "mapping_cone"):
            wrap(sequences, name, f"sequences.{name}")

        def steps(result, *a, **k):
            counts["angulation.split_trivials.steps"] += len(result.trivials)

        wrap(angulation, "split_trivials", "angulation.split_trivials", after=steps)
        for name in ("classify", "complete_morphism", "core_to_standard_iso", "complete_to_angle", "run_axiom_suite"):
            wrap(angulation, name, f"angulation.{name}")

        def unknowns(phi, psi):
            x, y = phi.source, phi.target
            total = sum(y.ranks[i] * x.ranks[(i + 1) % x.n] for i in range(x.n))
            counts["homotopy.unknowns"] += total
            if total > counts["homotopy.max_unknowns"]:
                counts["homotopy.max_unknowns"] = total

        wrap(homotopy, "find_homotopy", "homotopy.find_homotopy", before=unknowns)
        wrap(homotopy, "is_contractible", "homotopy.is_contractible")

        keys = self._keys

        def draw(*a, **k):
            if keys and keys[-1] == "sampling.random_invertible":
                counts["sampling.invertible_draws"] += 1

        def accepted(result, ring, size, *rest):
            if size:
                counts["sampling.invertible_accepted"] += 1

        for name in SAMPLING_FUNCS:
            hooks = {}
            if name == "random_matrix":
                hooks["before"] = draw
            elif name == "random_invertible":
                hooks["after"] = accepted
            wrap(sampling, name, f"sampling.{name}", **hooks)

        for name, value in sorted(vars(serialize).items()):
            if callable(value) and getattr(value, "__module__", None) == serialize.__name__ and not isinstance(value, type):
                wrap(serialize, name, f"serialize.{name}")
        for name in sorted(vars(cli)):
            if name == "main" or name.startswith("cmd_"):
                wrap(cli, name, f"cli.{name}")

    # -- reporting ------------------------------------------------------

    def layer_totals(self) -> tuple[dict, dict]:
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for key in set(self.calls) | set(self.self_s):
            layer = LAYER_OF.get(key) or key.split(".", 1)[0]
            calls[layer] += self.calls[key]
            self_s[layer] += self.self_s[key]
        return calls, self_s

    def metrics(self, op_wall_s: float, untraced_wall_s: float, traced_wall_s: float, op_ns: float, ops: int) -> dict:
        calls, self_s = self.layer_totals()
        out: dict[str, float] = {}
        for layer in SPAN_LAYERS:
            if layer == "rings.make_ring":
                out["rings.make_ring.calls"] = calls[layer]
                out["rings.make_ring.s"] = self_s[layer]
            else:
                out[f"{layer}.calls"] = calls[layer]
                out[f"{layer}.self_s"] = self_s[layer]
        counts = dict(self.counts)
        counts["rings.ops"] = self._ring_ops[0]
        counts["rings.kops"] = self._field_ops[0]
        for name, _, _ in COUNTERS:
            out[name] = counts.get(name, 0)
        out["rings.op_ns"] = op_ns
        out["rings.est_s"] = counts["rings.ops"] * op_ns * 1e-9
        draws = counts.get("sampling.invertible_draws", 0)
        out["sampling.invertible_accept_ratio"] = counts.get("sampling.invertible_accepted", 0) / draws if draws else 0.0
        out["trace.ops"] = ops
        out["trace.op_wall_s"] = op_wall_s
        out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
        return out

    def self_sum_s(self) -> float:
        return sum(self.self_s.values())


def _counting(fn, cell):
    def counted(*args):
        cell[0] += 1
        return fn(*args)

    return counted


def _counting_init(init, counts):
    @functools.wraps(init)
    def counted(self, owner, rows, cols, data):
        init(self, owner, rows, cols, data)
        counts["matrices.entries_validated"] += rows * cols

    return counted
