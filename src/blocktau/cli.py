"""Command-line front end: config parsing, experiment runs, CSV/report output.

Commands
    verify     print the pass/fail table of the check registry (blocktau.checks)
    tau        sweep a time grid, emit the stable tau values as CSV
    converge   emit the determinant-ratio convergence table as CSV
    factorize  factor the deformed symbol at random times, dump the factors
    spectral   run the spectral-curve round trip, dump C and its certificates

Configs are flat INI files (section headers, key = value); unknown sections
or keys are rejected.  Exit codes: 0 all checks in tolerance, 1 a check
failed, 2 configuration error.  Every run writes its artifacts (CSV files
and report.txt) into the output directory; re-running a command with the
same config reproduces the CSV byte for byte.  Numbers are written with 17
significant digits, '.' decimal point, no locale.  The output directory can
also be set through the environment variable BLOCKTAU_OUT; the --out flag
wins over both it and the config file.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import algebro, checks, factorization, laurent, symbols, tau, toeplitz
from .errors import BlocktauError, FactorizationError

# -- number formatting -------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_c(v: complex) -> str:
    """Real column entry when the value is real to roundoff, else a+bj."""
    v = complex(v)
    if abs(v.imag) <= 1e-13 * max(1.0, abs(v.real)):
        return _fmt(v.real)
    sign = "+" if v.imag >= 0 else "-"
    return f"{_fmt(v.real)}{sign}{_fmt(abs(v.imag))}j"


# -- configuration -----------------------------------------------------------


class ConfigError(Exception):
    """Raised for malformed configs; mapped to exit code 2."""


_SCHEMA = {
    "spec": {"family", "params", "n"},
    "times": {"values", "gd_reduced"},
    "tau": {"tol"},          # plus any grid_t<index> key
    "converge": {"n_max", "tol"},
    "factorize": {"band", "draws", "seed", "scale", "tol"},
    "spectral": {"j"},
    "verify": {"seed"},
    "output": {"dir"},
}

_DEFAULTS = {
    "family": "rational",
    "params": (0.3 + 0j, 0.6 + 0j),
    "n": None,
    "values": (0.2 + 0j, 0.0j, -0.15 + 0j, 0.0j, 0.08 + 0j),
    "gd_reduced": True,
    "grids": {1: "-0.5:0.5:5", 3: "-0.5:0.5:5"},
    "tau_tol": 1e-8,
    "n_max": 20,
    "converge_tol": 1e-6,
    "band": 40,
    "draws": 3,
    "seed": 0,
    "scale": 0.3,
    "factorize_tol": 1e-8,
    "j": 96,
    "verify_seed": 7,
    "dir": "out",
}


@dataclass
class RunConfig:
    """Validated run parameters for every command."""

    spec: symbols.SymbolSpec
    times: symbols.TimeVector
    tau_grids: dict            # time index -> numpy array of values
    tau_tol: float
    converge_n_max: int
    converge_tol: float
    factorize_band: int
    factorize_draws: int
    factorize_seed: int
    factorize_scale: float
    factorize_tol: float
    spectral_j: int
    verify_seed: int
    outdir: str


def _parse_complex_list(text: str, what: str) -> tuple:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(complex(piece))
        except ValueError as exc:
            raise ConfigError(f"bad {what} entry {piece!r}: {exc}") from exc
    for v in out:
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise ConfigError(f"non-finite {what} entry {v}")
    return tuple(out)


def _parse_bool(text: str, what: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean for {what}: {text!r}")


def _parse_int(text: str, what: str, least: int) -> int:
    try:
        v = int(text)
    except ValueError as exc:
        raise ConfigError(f"bad integer for {what}: {text!r}") from exc
    if v < least:
        raise ConfigError(f"{what} must be >= {least}, got {v}")
    return v


def _parse_tol(text: str, what: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad tolerance for {what}: {text!r}") from exc
    if not (v > 0 and np.isfinite(v)):
        raise ConfigError(f"{what} must be positive, got {text!r}")
    return v


def _parse_grid(text: str, what: str) -> np.ndarray:
    """A grid literal: either one number or start:stop:count."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad grid for {what}: {text!r} (want start:stop:count)")
        try:
            start, stop = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad grid bound in {what}: {exc}") from exc
        count = _parse_int(parts[2], f"{what} count", 1)
        return np.linspace(start, stop, count)
    try:
        return np.array([float(text)])
    except ValueError as exc:
        raise ConfigError(f"bad grid for {what}: {text!r}") from exc


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a config file (or use built-in defaults)."""
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key in _SCHEMA[section]:
                continue
            if section == "tau" and key.startswith("grid_t"):
                tail = key[len("grid_t") :]
                if tail.isdigit() and int(tail) >= 1:
                    continue
                raise ConfigError(f"bad grid key [tau] {key}")
            raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section: str, key: str, default=None):
        if cp.has_section(section) and key in cp[section]:
            return cp[section][key]
        return default

    family = (get("spec", "family") or _DEFAULTS["family"]).strip().lower()
    params_text = get("spec", "params")
    params = (
        _parse_complex_list(params_text, "spec params")
        if params_text is not None
        else _DEFAULTS["params"]
    )
    n_text = get("spec", "n")
    try:
        if family == "rational":
            if n_text is not None:
                raise ConfigError("key 'n' only applies to the covering family")
            spec = symbols.rational_spec(params)
        elif family == "covering":
            if n_text is None:
                raise ConfigError("the covering family needs key 'n'")
            spec = symbols.covering_spec(params, _parse_int(n_text, "spec n", 2))
        else:
            raise ConfigError(f"unknown family {family!r} (rational or covering)")
    except BlocktauError as exc:
        raise ConfigError(f"bad spec: {exc}") from exc

    values_text = get("times", "values")
    values = (
        _parse_complex_list(values_text, "times")
        if values_text is not None
        else _DEFAULTS["values"]
    )
    gd_reduced = (
        _parse_bool(get("times", "gd_reduced"), "gd_reduced")
        if get("times", "gd_reduced") is not None
        else _DEFAULTS["gd_reduced"]
    )
    try:
        times = symbols.time_vector(values, gd_reduced)
    except BlocktauError as exc:
        raise ConfigError(f"bad times: {exc}") from exc

    grids: dict[int, np.ndarray] = {}
    if cp.has_section("tau"):
        for key in cp["tau"]:
            if key.startswith("grid_t"):
                grids[int(key[len("grid_t") :])] = _parse_grid(
                    cp["tau"][key], f"[tau] {key}"
                )
    if not grids:
        grids = {
            i: _parse_grid(text, f"default grid_t{i}")
            for i, text in _DEFAULTS["grids"].items()
        }

    outdir = get("output", "dir") or _DEFAULTS["dir"]

    return RunConfig(
        spec=spec,
        times=times,
        tau_grids=grids,
        tau_tol=_parse_tol(get("tau", "tol", str(_DEFAULTS["tau_tol"])), "[tau] tol"),
        converge_n_max=_parse_int(
            get("converge", "n_max", str(_DEFAULTS["n_max"])), "[converge] n_max", 2
        ),
        converge_tol=_parse_tol(
            get("converge", "tol", str(_DEFAULTS["converge_tol"])), "[converge] tol"
        ),
        factorize_band=_parse_int(
            get("factorize", "band", str(_DEFAULTS["band"])), "[factorize] band", 4
        ),
        factorize_draws=_parse_int(
            get("factorize", "draws", str(_DEFAULTS["draws"])), "[factorize] draws", 1
        ),
        factorize_seed=_parse_int(
            get("factorize", "seed", str(_DEFAULTS["seed"])), "[factorize] seed", 0
        ),
        factorize_scale=_parse_tol(
            get("factorize", "scale", str(_DEFAULTS["scale"])), "[factorize] scale"
        ),
        factorize_tol=_parse_tol(
            get("factorize", "tol", str(_DEFAULTS["factorize_tol"])), "[factorize] tol"
        ),
        spectral_j=_parse_int(get("spectral", "j", str(_DEFAULTS["j"])), "[spectral] j", 8),
        verify_seed=_parse_int(
            get("verify", "seed", str(_DEFAULTS["verify_seed"])), "[verify] seed", 0
        ),
        outdir=outdir,
    )


def _ensure_outdir(cfg: RunConfig, override: str | None) -> str:
    out = override or os.environ.get("BLOCKTAU_OUT") or cfg.outdir
    os.makedirs(out, exist_ok=True)
    return out


def _write_lines(path: str, lines: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# -- tau sweep ---------------------------------------------------------------


def _grid_points(cfg: RunConfig) -> tuple[list, list]:
    """Cartesian product of the configured time grids, in index order."""
    idxs = sorted(cfg.tau_grids)
    base = list(cfg.times.values)
    K = max([len(base)] + [i for i in idxs])
    points = [tuple()]
    for i in idxs:
        points = [p + (v,) for p in points for v in cfg.tau_grids[i]]
    rows = []
    for p in points:
        vals = list(base) + [0.0] * (K - len(base))
        for i, v in zip(idxs, p):
            vals[i - 1] = v
        rows.append((p, symbols.time_vector(vals, cfg.times.gd_reduced)))
    return idxs, rows


def cmd_tau(cfg: RunConfig, out: str, tol: float | None, threads: int) -> int:
    idxs, points = _grid_points(cfg)
    use_tol = tol if tol is not None else cfg.tau_tol

    def one(item):
        _p, tv = item
        return tau.tau_stable_report(cfg.spec, tv, tol=use_tol)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, points))
    else:
        results = [one(item) for item in points]

    header = ",".join([f"t{i}" for i in idxs] + ["N", "tau", "est_error"])
    lines = [header]
    worst = 0.0
    for (p, _tv), res in zip(points, results):
        cells = [_fmt(v) for v in p]
        cells += [str(res.M_used), _fmt_c(res.value), _fmt(res.est_error)]
        lines.append(",".join(cells))
        worst = max(worst, res.est_error)
    _write_lines(os.path.join(out, "tau.csv"), lines)
    _write_lines(
        os.path.join(out, "report.txt"),
        [
            "command: tau",
            f"points: {len(points)}",
            f"grid indices: {idxs}",
            f"tolerance: {_fmt(use_tol)}",
            f"worst est_error: {_fmt(worst)}",
        ],
    )
    if worst > use_tol:
        print(f"FAIL tau est_error {worst:.3e} > {use_tol:g}", file=sys.stderr)
        return 1
    return 0


# -- convergence table -------------------------------------------------------


def cmd_converge(cfg: RunConfig, out: str, tol: float | None) -> int:
    spec, tv = cfg.spec, cfg.times
    n_max = cfg.converge_n_max
    x = factorization.deformed_symbol_samples(spec, tv, 1024)
    G = laurent.geometric_mean(x)
    lm = symbols.gd_symbol(spec, tv, (-n_max, n_max), exact_only=True)
    lines = ["N,D_N,G^N,ratio,delta"]
    prev = 1.0 + 0.0j
    deltas = []
    for N in range(1, n_max + 1):
        d = toeplitz.det_DN(toeplitz.build_TN(lm, N))
        gn = G**N
        ratio = d / gn
        delta = abs(ratio - prev)
        deltas.append(delta)
        lines.append(
            ",".join([str(N), _fmt_c(d), _fmt_c(gn), _fmt_c(ratio), _fmt(delta)])
        )
        prev = ratio
    _write_lines(os.path.join(out, "converge.csv"), lines)
    fit = toeplitz.fit_decay(deltas)
    use_tol = tol if tol is not None else cfg.converge_tol
    settled = deltas[-1] <= use_tol
    _write_lines(
        os.path.join(out, "report.txt"),
        [
            "command: converge",
            f"N max: {n_max}",
            f"geometric mean: {_fmt_c(G)}",
            f"fitted decay ratio: {_fmt(fit)}",
            f"final delta: {_fmt(deltas[-1])}",
            f"settled below {_fmt(use_tol)}: {settled}",
        ],
    )
    if not settled or not (fit < 1.0):
        print(
            f"FAIL converge delta {deltas[-1]:.3e} fit {fit:.3f}", file=sys.stderr
        )
        return 1
    return 0


# -- factorization dumps -----------------------------------------------------


def cmd_factorize(cfg: RunConfig, out: str, tol: float | None, seed: int | None) -> int:
    spec = cfg.spec
    use_tol = tol if tol is not None else cfg.factorize_tol
    rng = np.random.default_rng(seed if seed is not None else cfg.factorize_seed)
    B = cfg.factorize_band
    report = ["command: factorize", f"band: {B}", f"draws: {cfg.factorize_draws}"]
    failures = []
    for d in range(cfg.factorize_draws):
        tv = symbols.random_times(spec, rng, cfg.factorize_scale)
        M = max(1024, 8 * B)
        x = factorization.deformed_symbol_samples(spec, tv, M)
        try:
            fact = factorization.wiener_hopf(x, B=B, tol=max(use_tol, 1e-10))
        except (FactorizationError, BlocktauError) as exc:
            failures.append(f"draw {d}: {exc}")
            report.append(f"draw {d}: FAILED {exc}")
            continue
        laurent.write_csv(fact.T_minus, os.path.join(out, f"T_minus_{d}.csv"))
        laurent.write_csv(fact.T_plus, os.path.join(out, f"T_plus_{d}.csv"))
        report += [
            f"draw {d}: times {[_fmt_c(v) for v in tv.values]}",
            "  certificate {",
            f"    residual: {_fmt(fact.residual)}",
            f"    leakage: {_fmt(fact.leakage)}",
            f"    cond: {_fmt(fact.cond)}",
            f"    det_plus_dev: {_fmt(fact.det_plus_dev)}",
            f"    B_used: {fact.B_used}",
            "  }",
        ]
        if fact.residual > use_tol or fact.det_plus_dev > use_tol:
            failures.append(
                f"draw {d}: residual {fact.residual:.3e} "
                f"det_plus_dev {fact.det_plus_dev:.3e} > {use_tol:g}"
            )
    _write_lines(os.path.join(out, "report.txt"), report)
    for f in failures:
        print(f"FAIL factorize {f}", file=sys.stderr)
    return 1 if failures else 0


# -- spectral report ---------------------------------------------------------


def cmd_spectral(cfg: RunConfig, out: str) -> int:
    spec = cfg.spec
    if spec.family != "covering":
        raise ConfigError("the spectral command needs a covering spec")
    J = cfg.spectral_j
    cp = algebro.curve_from_covering(spec)
    bs = algebro.branch_series(cp, J)
    bc = algebro.bc_matrices(spec, bs, cp=cp)
    rep = algebro.spectral_check(spec, J, cp=cp)
    laurent.write_csv(bc.C, os.path.join(out, "C.csv"))
    lines = ["command: spectral", f"sheets: {spec.n}", f"branch terms: {J}", ""]
    lines.append("curve lambda^n = P(z), P coefficients (ascending):")
    lines.append("  " + ", ".join(_fmt_c(-c) for c in cp.c(spec.n)))
    lines.append("")
    lines.append("entry degree table (row, col, degree):")
    for i in range(spec.n):
        for j in range(spec.n):
            deg = max(
                (q for q in range(bc.C.lo, bc.C.hi + 1)
                 if abs(bc.C.block(q)[i, j]) > 1e-9),
                default=None,
            )
            lines.append(f"  {i} {j} {'-' if deg is None else deg}")
    lines.append("")
    lines += rep.lines()
    lines.append("")
    lines.append(f"passed: {rep.passed}")
    _write_lines(os.path.join(out, "report.txt"), lines)
    if not rep.passed:
        print("FAIL spectral certificates out of tolerance", file=sys.stderr)
        return 1
    return 0


# -- the verify table --------------------------------------------------------


def cmd_verify(cfg: RunConfig, out: str, seed: int | None) -> int:
    ctx = checks.Context(seed if seed is not None else cfg.verify_seed, cfg, out)
    lines = [f"{'module':<14}{'check':<26}{'value':<12}{'tol':<10}status"]
    failures = []
    infos = 0
    for module, name, tol, fn, _criterion in checks.CHECKS:
        try:
            value, ok, detail = fn(ctx, tol)
        except Exception as exc:  # an erroring check is a failing check
            value, ok, detail = float("nan"), False, f"error: {exc!r:.120s}"
        if ok is None:
            status = "INFO"
            infos += 1
        elif ok:
            status = "PASS"
        else:
            status = "FAIL"
            failures.append((module, name, value, tol, detail))
        tol_text = "-" if tol is None else f"{tol:.0e}"
        lines.append(
            f"{module:<14}{name:<26}{value:<12.3e}{tol_text:<10}{status}  {detail}"
        )
    passed = len(checks.CHECKS) - len(failures) - infos
    lines.append("")
    lines.append(f"VERIFY: {passed} passed, {len(failures)} failed, {infos} info")
    print("\n".join(lines))
    _write_lines(os.path.join(out, "report.txt"), lines)
    for module, name, value, tol, detail in failures:
        print(
            f"FAIL {module}.{name} value={value:.6e} tol={tol} {detail}",
            file=sys.stderr,
        )
    return 1 if failures else 0


# -- entry point -------------------------------------------------------------


def cmd(name: str, cfg: RunConfig, **kw) -> int:
    """Run one command against a validated config; returns the exit code."""
    tol = kw.get("tol")
    if name == "verify" and tol is not None:
        raise ConfigError("--tol does not apply to verify: its tolerances are the contract")
    out = _ensure_outdir(cfg, kw.get("out"))
    seed = kw.get("seed")
    threads = kw.get("threads", 1)
    if name == "verify":
        return cmd_verify(cfg, out, seed)
    if name == "tau":
        return cmd_tau(cfg, out, tol, threads)
    if name == "converge":
        return cmd_converge(cfg, out, tol)
    if name == "factorize":
        return cmd_factorize(cfg, out, tol, seed)
    if name == "spectral":
        return cmd_spectral(cfg, out)
    raise ConfigError(f"unknown command {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocktau",
        description="Block Toeplitz tau functions: experiments and checks.",
    )
    parser.add_argument(
        "command", choices=["verify", "tau", "converge", "factorize", "spectral"]
    )
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override (tau, converge, factorize)")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for grids")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized draws")
    args = parser.parse_args(argv)
    try:
        if args.tol is not None and not (args.tol > 0):
            raise ConfigError("--tol must be positive")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg = load_config(args.config)
        return cmd(
            args.command,
            cfg,
            out=args.out,
            tol=args.tol,
            threads=args.threads,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlocktauError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
