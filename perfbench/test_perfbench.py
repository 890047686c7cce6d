"""Self-tests of the benchmark harness.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

They check that a seed fixes the op list and the outputs, that the layer
tracer changes no result and puts every binding back, that another seed
draws other inputs, and that the harness refuses to run without the
source tree.  Only cheap op kinds run here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import blocktau as bt  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

CHEAP = {
    "tau_values": ("tau_cov_M32", "tau_rat_M32"),
    "graded_series": ("kdv_rat_Q8", "stability_cov_N2", "wave_Q6"),
    "identities": ("wh_rat", "table_N20", "cli_converge", "spectral"),
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # the CLI ops read configs/*.ini


def _cheap_ops(seed: int) -> list:
    """First op of each cheap kind in the seed's first cycle."""
    out = []
    for workload, kinds in CHEAP.items():
        cycle = run.make_pool(workload, seed, cycles=1)[0]
        out += [next(op for op in cycle if op.kind == k) for k in kinds]
    return out


def _plain(op):
    out, _, ok, detail = run.execute(bt, op)
    assert ok, f"{op.kind}: {detail}"
    return run.fingerprint(out)


def test_same_seed_same_ops_and_outputs():
    for workload in ops.WORKLOADS:
        assert run.make_pool(workload, 7, 3) == run.make_pool(workload, 7, 3)
    first, second = _cheap_ops(7), _cheap_ops(7)
    assert first == second
    assert [_plain(op) for op in first] == [_plain(op) for op in second]


def test_other_seed_changes_inputs():
    for a, b in zip(_cheap_ops(7), _cheap_ops(8)):
        assert a.kind == b.kind and a.params != b.params
    for workload in ops.WORKLOADS:
        assert run.make_pool(workload, 7, 1) != run.make_pool(workload, 8, 1)


def test_traced_outputs_equal_plain_and_bindings_restored():
    originals = {
        "tau": bt.tau.tau_stable_report,
        "alias": bt.tau.gp_det,
        "mul": bt.gradedpoly.GradedPoly.__mul__,
        "rmul": bt.gradedpoly.GradedPoly.__rmul__,
    }
    tr = tracer.Tracer()
    for i, op in enumerate(_cheap_ops(7)):
        want = _plain(op)
        out, _, ok, detail = run.execute(bt, op, call=run.traced_call(tr, bt, i))
        assert ok, detail
        assert run.fingerprint(out) == want, op.kind
    assert bt.tau.tau_stable_report is originals["tau"]
    assert bt.tau.gp_det is originals["alias"]
    assert bt.gradedpoly.GradedPoly.__mul__ is originals["mul"]
    assert bt.gradedpoly.GradedPoly.__rmul__ is originals["rmul"]

    m = tr.metrics()
    for name in ("tau.tau_stable_report", "gradedpoly.mul", "factorization.wiener_hopf", "cli.main"):
        assert m[f"{name}.calls"][0] >= 1, name
    assert m["toeplitz.fredholm_det.M_used"][0] == 32  # both tau ops are M_used=32 kinds
    assert m["gradedpoly.mul.term_pairs"][0] > 0
    # layer self times and the ops' own time partition the traced op time
    op_s = sum(t1 - t0 for fid, t0, t1, parent, _ in tr.spans if tr.names[fid] == tracer.OP_ROOT)
    layers = sum(v for k, (v, _) in m.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert layers + m["trace.unattributed_s"][0] == pytest.approx(op_s, rel=1e-9)


def test_aliases_are_rebound():
    tr = tracer.Tracer()
    tr.install(bt)
    try:
        # `from .gradedpoly import gp_det` in tau and `from .laurent import
        # lm_mul` in symbols are traced like the defining module's binding
        assert bt.tau.gp_det is bt.gradedpoly.gp_det
        assert hasattr(bt.tau.gp_det, "__wrapped__")
        assert bt.symbols.lm_mul is bt.laurent.lm_mul
        assert hasattr(bt.symbols.lm_mul, "__wrapped__")
    finally:
        tr.uninstall()
    assert not hasattr(bt.tau.gp_det, "__wrapped__")


def test_every_per_layer_metric_is_reported():
    names = set(tracer.Tracer().metrics())
    for layer, fns in tracer.LAYERS.items():
        assert f"{layer}.self_s" in names
        for fn in fns:
            assert {f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"} <= names


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_trace_run_reports_the_declared_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    proc = _bench("--workload", "tau_values", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    m = result["metrics"]
    parts = m["trace.layers_self_s"]["value"] + m["trace.unattributed_s"]["value"]
    assert parts == pytest.approx(m["trace.op_s"]["value"], rel=1e-9)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _bench("--workload", "tau_values", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
