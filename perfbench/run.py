"""blocktau benchmark: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload tau_values --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs a fixed op list twice per op (once plain, once under the layer
tracer, alternating which goes first) and reports the per-layer metrics.
Every op's output is checked against its oracle in both modes, and in
trace mode the traced output must equal the plain one bit for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record (machine, load average, failures, defect probe).  Spans
and the CLI ops' files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import resource
import statistics
import struct
import sys
import time

# One BLAS thread: the machine's two cores are shared, and the section sizes
# some ops settle on depend on the BLAS reduction order.  Set before numpy
# is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import machine  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402

CLI_THREADS = 1       # the op list is one closed loop; no op uses --threads
SETUP_REPEATS = 3     # setup_s is the median of this many full set-ups
POOL_CYCLES = 400     # cycles drawn up front; a run stops earlier by time
MIN_OPS = 110         # at least 10 ops lie beyond the 90th percentile

# Seconds one plain + one traced pass over a cycle takes at the parent
# commit; the trace run uses round(seconds / this) cycles, a fixed op list
# for a given --seconds, so that calls and counts repeat exactly.
TRACE_CYCLE_S = {"tau_values": 2.5, "graded_series": 9.0, "identities": 9.0}

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def _canon(obj, out: list) -> None:
    """Append a canonical byte form of an op output (for bitwise equality)."""
    if obj is None or isinstance(obj, (bool, str)):
        out.append(repr(obj).encode())
    elif isinstance(obj, (int, np.integer)):
        out.append(b"i" + str(int(obj)).encode())
    elif isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        c = complex(obj)
        out.append(b"c" + struct.pack("<dd", c.real, c.imag))
    elif isinstance(obj, np.ndarray):
        out.append(f"a{obj.dtype}{obj.shape}".encode() + np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        out.append(b"[%d" % len(obj))
        for item in obj:
            _canon(item, out)
    elif isinstance(obj, dict):
        out.append(b"{%d" % len(obj))
        for key in sorted(obj, key=repr):
            _canon(key, out)
            _canon(obj[key], out)
    elif callable(obj):
        out.append(b"f")
    elif hasattr(obj, "__dict__"):
        out.append(type(obj).__name__.encode())
        _canon(vars(obj), out)
    else:
        out.append(repr(obj).encode())


def fingerprint(obj) -> str:
    parts: list = []
    _canon(obj, parts)
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


def import_fresh_blocktau():
    """Import blocktau after dropping any loaded copy (a cold set-up)."""
    for name in [k for k in sys.modules if k == "blocktau" or k.startswith("blocktau.")]:
        del sys.modules[name]
    return importlib.import_module("blocktau")


def make_pool(workload: str, seed: int, cycles: int = POOL_CYCLES) -> list:
    rng = np.random.default_rng([seed, 0])
    return [ops.make_cycle(workload, rng) for _ in range(cycles)]


def execute(bt, op, call=None):
    """Run one op; returns (output, seconds, ok, detail).  A raise is a failure."""
    ops.prepare(op, OUT_DIR)

    def run():
        return ops.run_op(bt, op, OUT_DIR)

    try:
        if call is None:
            t0 = time.perf_counter()
            out = run()
            dt = time.perf_counter() - t0
        else:
            out, dt = call(run)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, float("nan"), False, f"raised {type(exc).__name__}: {exc}"
    ok, detail = ops.check_op(bt, op, out)
    return out, dt, ok, detail


def setup(workload: str, seed: int):
    """Import, draw the inputs, warm up one op of each kind; SETUP_REPEATS times.

    Returns blocktau, the op pool, the median set-up time, the mean speed
    probe around the set-ups, and the warm-up failures.
    """
    times, probes, failures = [], [], []
    for _ in range(SETUP_REPEATS):
        probes += [speed_probe() for _ in range(10)]
        t0 = time.perf_counter()
        bt = import_fresh_blocktau()
        pool = make_pool(workload, seed)
        for op in ops.warmup_ops(workload, np.random.default_rng([seed, 1])):
            _, _, ok, detail = execute(bt, op)
            if not ok:
                failures.append(f"warm-up {op.kind}: {detail}")
        times.append(time.perf_counter() - t0)
    probes += [speed_probe() for _ in range(10)]
    return bt, pool, statistics.median(times), statistics.mean(probes), failures


# The shared 2-core host runs in two speed states that alternate every few
# tens of ms, and their mix drifts over minutes: a fixed loop takes ~1.6 ms
# in one and ~2.8 ms in the other.  speed_probe runs before every op and after the
# last; end-to-end times are reported at the reference speed REF_PROBE_S.
# An op of length d is scaled by REF_PROBE_S / p with
# p = w * (probe before + probe after) / 2 + (1 - w) * (run's mean probe),
# w = exp(-d / STATE_S): a short op ran in the state its neighbouring probes
# saw, a long one saw the run's mix.  Raw values stay in the run record.
REF_PROBE_S = 2.0e-3
STATE_S = 0.1


_PROBE_KEYS = [k + (0, 0) for k in itertools.product(range(3), repeat=4)][:20]


def speed_probe() -> float:
    """Seconds for a fixed mix of the three kinds of work blocktau does:
    dict-of-tuples polynomial products, a strided einsum, and dense LU + FFT
    (about a third of the time each)."""
    poly = {k: complex(i + 1, 1) for i, k in enumerate(_PROBE_KEYS)}
    blocks = np.exp(1j * np.arange(12 * 12 * 4).reshape(12, 12, 2, 2))
    dense = np.exp(1j * np.arange(96 * 96).reshape(96, 96)) + 3 * np.eye(96)
    t0 = time.perf_counter()
    acc: dict = {}
    for ea, ca in poly.items():
        for eb, cb in poly.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0.0) + ca * cb
    np.einsum("rkab,ckbd->rcad", blocks, blocks)
    np.linalg.det(dense)
    np.fft.fft(dense, axis=0)
    return time.perf_counter() - t0


def timed_run(bt, pool, seconds: float):
    """Whole cycles until both `seconds` of op time and MIN_OPS are reached.

    Returns per-op latency, kind and speed probe, and the failures.
    """
    lat, kinds, probes, failures = [], [], [], []
    start = time.perf_counter()
    for cycle in pool:
        for op in cycle:
            probes.append(speed_probe())
            _, dt, ok, detail = execute(bt, op)
            lat.append(dt)
            kinds.append(op.kind)
            if not ok:
                failures.append(f"{op.kind} {op.params}: {detail}")
        if time.perf_counter() - start >= seconds and len(lat) >= MIN_OPS:
            break
    probes.append(speed_probe())
    return lat, kinds, probes, failures


def probe_defect(bt, seed: int) -> dict:
    rows = []
    for op in ops.defect_probe_ops(np.random.default_rng([seed, 2])):
        out, _, ok, detail = execute(bt, op)
        rows.append({
            "t": op.p["t"],
            "ok": ok,
            "detail": detail,
            "M_used": getattr(out, "M_used", None),
            "est_error": getattr(out, "est_error", None),
        })
    return {"attempted": len(rows), "failed": sum(not r["ok"] for r in rows), "points": rows}


def end_to_end(bt, args, pool, setup_s, record):
    lat, kinds, probes, failures = timed_run(bt, pool, args.seconds)
    with open(os.path.join(OUT_DIR, f"ops-{args.workload}-seed{args.seed}.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write("op\tkind\tseconds\tprobe_before_s\tprobe_after_s\n")
        for i, (k, dt) in enumerate(zip(kinds, lat)):
            fh.write(f"{i}\t{k}\t{dt:.9f}\t{probes[i]:.9f}\t{probes[i + 1]:.9f}\n")
    lat, probes = np.array(lat), np.array(probes)
    fin = np.isfinite(lat)
    w = np.exp(-lat[fin] / STATE_S)
    local = (probes[:-1] + probes[1:])[fin] / 2
    good = lat[fin] * REF_PROBE_S / (w * local + (1 - w) * probes.mean())
    p50, p90 = np.percentile(good, [50, 90])
    raw50, raw90 = np.percentile(lat[fin], [50, 90])
    record["raw"] = {"ops_per_s": int(fin.sum()) / float(lat[fin].sum()),
                     "op_p50_ms": 1e3 * raw50, "op_p90_ms": 1e3 * raw90}
    record["probe_ms"] = {"mean": 1e3 * float(probes.mean()),
                          "p10": 1e3 * float(np.percentile(probes, 10)),
                          "p90": 1e3 * float(np.percentile(probes, 90))}
    record["beyond_p90"] = int(np.sum(good > p90))
    record["kind_median_ms"] = {
        k: round(1e3 * float(np.median(lat[[j == k for j in kinds]])), 3)
        for k in sorted(set(kinds))
    }
    if args.workload == "tau_values":
        record["defect_probe"] = probe_defect(bt, args.seed)
    metrics = {
        "ops_per_s": (len(good) / float(good.sum()), "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return len(lat), failures, metrics


def traced_call(tr, bt, op_id: int):
    """A `call` for execute(): the op runs under the tracer, its check does not."""

    def call(run):
        tr.install(bt)
        try:
            return tr.run_op(op_id, run)
        finally:
            tr.uninstall()

    return call


def traced(bt, args, pool, record):
    """Each op plain and traced, alternating order; per-layer metrics."""
    n_cycles = max(1, round(args.seconds / TRACE_CYCLE_S[args.workload]))
    op_list = [op for cycle in pool[:n_cycles] for op in cycle]
    tr = tracer.Tracer()
    t_origin = time.perf_counter()
    plain_s, traced_s, failures = [], [], []

    def run_traced(i, op):
        return execute(bt, op, call=traced_call(tr, bt, i))

    for i, op in enumerate(op_list):
        if i % 2 == 0:
            a = execute(bt, op)
            b = run_traced(i, op)
        else:
            b = run_traced(i, op)
            a = execute(bt, op)
        plain_s.append(a[1])
        traced_s.append(b[1])
        if not (a[2] and b[2]):
            failures.append(f"{op.kind} {op.params}: {a[3] if not a[2] else b[3]}")
        elif fingerprint(a[0]) != fingerprint(b[0]):
            failures.append(f"{op.kind} {op.params}: traced output differs from plain")
    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
    tr.write_spans(span_path, t_origin)
    record["spans_file"] = os.path.relpath(span_path)
    record["trace_cycles"] = n_cycles

    metrics = tr.metrics()
    n, op_s, plain = len(op_list), sum(traced_s), sum(plain_s)
    layers = sum(v for k, (v, _) in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
    metrics.update({
        "trace.op_s": (op_s, "s"),
        "trace.plain_op_s": (plain, "s"),
        "trace.layers_self_s": (layers, "s"),
        "trace.overhead_s": (op_s - plain, "s"),
        "trace.overhead_ops_per_s": (n / op_s - n / plain, "1/s"),
    })
    return n, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_CYCLE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "blocktau", "__init__.py")):
        print("perfbench: src/blocktau not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "load_before": os.getloadavg()}
    bt, pool, setup_s, setup_probe, warm_failures = setup(args.workload, args.seed)
    record["raw_setup_s"] = setup_s
    setup_s *= REF_PROBE_S / setup_probe
    record["machine"] = machine.record(BLAS_THREADS, CLI_THREADS)
    if args.trace:
        attempted, failures, metrics = traced(bt, args, pool, record)
    else:
        attempted, failures, metrics = end_to_end(bt, args, pool, setup_s, record)
    record["load_after"] = os.getloadavg()
    record["failures"] = warm_failures + failures
    for line in record["failures"]:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
