"""Self-tests of the benchmark: python -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
from pathlib import Path

import pytest

import run

run.load_nangle()

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_counts_repeat_for_a_seed(name):
    wl = workloads.WORKLOADS[name]()
    first = run.trace_run(wl, seed=3, trace_ops=3)
    second = run.trace_run(wl, seed=3, trace_ops=3)
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["counts"] == second["counts"]
    assert first["metrics"]["trace.ops"] == 4
    # every op is one wrapped outer call, so the self times cover the op time
    assert first["self_sum_s"] / first["metrics"]["trace.op_wall_s"] > 0.99


def test_tracer_restores_every_binding():
    from nangle import angulation, matrices

    def bindings():
        return (matrices.inverse, angulation.inverse, vars(matrices.RMatrix)["__matmul__"], vars(matrices.RMatrix)["__init__"])

    wl = workloads.WORKLOADS["homotopy-z9"]()
    ring = wl.input_ring()
    before, ring_attrs, field_attrs = bindings(), dict(vars(ring)), dict(vars(ring.k))
    run.trace_run(wl, seed=1, trace_ops=1)
    assert bindings() == before
    assert vars(ring) == ring_attrs and vars(ring.k) == field_attrs


def test_checks_reject_wrong_answers():
    z4 = workloads.WORKLOADS["axioms-z4"]()
    op = z4.warmup()
    rc, out = z4.run(op)
    assert z4.check(op, (rc, out))
    assert not z4.check(op, (rc, out.replace("true", "false")))

    z9 = workloads.WORKLOADS["homotopy-z9"]()
    find = z9.warmup()
    assert z9.check(find, z9.run(find))
    assert not z9.check(find, None)

    gf = workloads.WORKLOADS["ext-gf512"]()
    member = gf.warmup()
    cert = gf.run(member)
    assert gf.check(member, cert)
    assert not gf.check(dataclasses.replace(member, expect=False), cert)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "axioms-z4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
