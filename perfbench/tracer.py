"""Outside-in layer tracer for blocktau.

The tracer rebinds the public functions named in ``LAYERS`` to timing
wrappers, at every binding the package holds: the defining module, every
``from .x import name`` alias in the other blocktau modules, and the
``GradedPoly`` ring methods.  Nothing under ``src/`` changes; ``uninstall``
puts every original object back.

Each call becomes a span ``(function, start, end, parent span, op id)``
kept in memory.  Self time (a span's duration minus the time its direct
child spans cover) and the computed work counts are derived from the spans
when the run ends.  Flop and byte counts are computed from argument sizes,
not measured.
"""

from __future__ import annotations

import functools
import time
import types

import numpy as np

LAYERS: dict[str, tuple[str, ...]] = {
    "gradedpoly": (
        "mul", "add", "derivative", "invert", "gp_det", "jacobi_trudi",
        "sato_shift", "hirota_kdv_residual",
    ),
    "symbols": ("gd_symbol", "exp_xi_lambda", "gd_symbol_values", "gd_symbol_graded"),
    "laurent": (
        "sample_function", "transform", "inverse_transform", "invert_symbol",
        "lm_invert", "lm_mul",
    ),
    "toeplitz": (
        "build_TN", "det_DN", "hankel_product_matrix", "plemelj_fourier",
        "plemelj_quadrature", "fredholm_det", "szego_widom", "borodin_okounkov",
    ),
    "tau": (
        "tau_stable_report", "tau_graded", "character_expansion", "f_family",
        "wronskian_tau", "stability_check", "wave_function",
    ),
    "factorization": (
        "wiener_hopf", "two_sided_factorization", "wave_matrix", "tau_ratio_check",
        "bo_consistency_check",
    ),
    "algebro": ("spectral_check", "branch_series", "bc_matrices", "reconstruct_W"),
    "cli": ("main",),
}

# Ring operations are GradedPoly methods; both operand orders count as one.
METHODS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "derivative": ("derivative",),
    "invert": ("invert",),
}


def _term_pairs(args, kwargs, res):
    a, b = args[0], args[1]
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _det_flops(args, kwargs, res):
    m = args[0].matrix.shape[0]
    return 8.0 * m**3 / 3.0  # complex LU: m^3/3 complex multiply-adds


def _hankel_flops(args, kwargs, res):
    u, v, rows, cols = args[:4]
    rows, cols = list(rows), list(cols)
    if not rows or not cols:
        return 0.0
    kmax = min(u.hi - min(rows), -v.lo - min(cols))
    return 8.0 * len(rows) * len(cols) * max(kmax, 0) * u.n**3


def _quadrature_bytes(args, kwargs, res):
    x, x_inv = args[0], args[1]
    return 16.0 * x.M * x_inv.M * x.n**2  # complex (M_out, M_in, n, n) tensor


def _sections(args, kwargs, res):
    return float(np.log2(res.M_used / args[0].M)) + 1.0


def _field(name):
    return lambda args, kwargs, res: float(getattr(res, name))


# (function, count name) -> (how to compute it, "sum" or "mean" over calls)
COUNTS = {
    ("gradedpoly.mul", "term_pairs"): (_term_pairs, "sum"),
    ("toeplitz.det_DN", "flops"): (_det_flops, "sum"),
    ("toeplitz.hankel_product_matrix", "flops"): (_hankel_flops, "sum"),
    ("toeplitz.plemelj_quadrature", "tensor_bytes"): (_quadrature_bytes, "sum"),
    ("toeplitz.fredholm_det", "M_used"): (_field("M_used"), "mean"),
    ("toeplitz.fredholm_det", "sections"): (_sections, "sum"),
    ("toeplitz.szego_widom", "N_used"): (_field("N_used"), "mean"),
    ("toeplitz.borodin_okounkov", "window_used"): (_field("window_used"), "mean"),
    ("factorization.wiener_hopf", "B_used"): (_field("B_used"), "mean"),
    ("factorization.tau_ratio_check", "window"): (_field("window"), "mean"),
}
COUNT_UNITS = {"term_pairs": "count", "flops": "flop", "tensor_bytes": "B"}

FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
OP_ROOT = "op"  # the benchmark's own span around one op


class Tracer:
    """Span recorder for one process; install() before use, uninstall() after."""

    def __init__(self) -> None:
        self.names = FUNCTIONS + [OP_ROOT]
        self._fid = {name: i for i, name in enumerate(self.names)}
        self.spans: list = []  # (fid, start, end, parent, op)
        self.counts: dict = {}  # span index -> {count name: value}
        self._stack: list = []
        self._op = -1
        self._patched: list = []  # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self, bt) -> None:
        modules = [bt] + [
            m for m in vars(bt).values()
            if isinstance(m, types.ModuleType) and m.__name__.startswith(bt.__name__ + ".")
        ]
        for layer, fns in LAYERS.items():
            mod = getattr(bt, layer)
            for fn in fns:
                name = f"{layer}.{fn}"
                if layer == "gradedpoly" and fn in METHODS:
                    cls = mod.GradedPoly
                    for attr in METHODS[fn]:
                        self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
                    continue
                orig = getattr(mod, fn)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        fid = self._fid[name]
        extras = [(cname, f) for (fname, cname), (f, _) in COUNTS.items() if fname == name]
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self._op)
            if extras:
                counts[idx] = {c: f(args, kwargs, res) for c, f in extras}
            return res

        return wrapper

    # -- op spans ------------------------------------------------------------

    def run_op(self, op_id: int, call):
        """Run call() inside a root span for one op; returns (result, seconds)."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            res = call()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (self._fid[OP_ROOT], t0, t1, -1, op_id)
            self._op = -1
        return res, t1 - t0

    # -- derivation ----------------------------------------------------------

    def self_times(self):
        """Per-span (fid array, self seconds array)."""
        if not self.spans:
            return np.zeros(0, dtype=int), np.zeros(0)
        arr = np.array([s[:4] for s in self.spans], dtype=float)
        fid = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return fid, dur - covered

    def metrics(self) -> dict:
        """Per-layer metrics: calls, self time, layer totals and counts."""
        fid, self_s = self.self_times()
        calls = np.bincount(fid, minlength=len(self.names))
        by_fn = np.bincount(fid, weights=self_s, minlength=len(self.names))
        out: dict = {}
        for layer, fns in LAYERS.items():
            total = 0.0
            for fn in fns:
                i = self._fid[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.calls"] = (int(calls[i]), "count")
                out[f"{layer}.{fn}.self_s"] = (float(by_fn[i]), "s")
                total += float(by_fn[i])
            out[f"{layer}.self_s"] = (total, "s")
        for (name, cname), (_, how) in COUNTS.items():
            vals = [c[cname] for i, c in self.counts.items() if self.names[self.spans[i][0]] == name]
            value = float(np.sum(vals)) if how == "sum" else (float(np.mean(vals)) if vals else 0.0)
            out[f"{name}.{cname}"] = (value, COUNT_UNITS.get(cname, "count"))
        root = self._fid[OP_ROOT]
        out["trace.unattributed_s"] = (float(by_fn[root]), "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path: str, t_origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i, (fid, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(
                    f"{i}\t{op}\t{parent}\t{self.names[fid]}\t"
                    f"{t0 - t_origin:.9f}\t{t1 - t_origin:.9f}\n"
                )
