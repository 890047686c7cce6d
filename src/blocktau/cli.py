"""Command-line front end: config parsing, experiment runs, CSV/report output.

Run as ``blocktau <command>`` or ``python -m blocktau <command>``.

Commands
    verify     print the pass/fail table of the check registry (blocktau.checks)
    tau        sweep a time grid, emit the stable tau values as CSV
    converge   emit the determinant-ratio convergence table as CSV
    factorize  factor the deformed symbol at random times, dump the factors
    spectral   run the spectral-curve round trip, dump C and its certificates

Configs are flat INI files (section headers, key = value); unknown sections
or keys are rejected.  Exit codes: 0 all checks in tolerance, 1 a check
failed, 2 configuration error.  Every run writes its artifacts (CSV files
and report.txt) into the output directory, which is made at the first
artifact, so a run refused before it writes leaves no directory behind;
re-running a command with the same config reproduces the CSV byte for
byte.  Numbers are written with 17 significant digits, '.' decimal point,
no locale.  The output directory can
also be set through the environment variable BLOCKTAU_OUT; the --out flag
wins over both it and the config file.  --tol and --seed override the
command's own [<command>] tol or seed key and are parsed as that key; a
command without such a key rejects the flag (exit 2, nothing written), and
spectral on a spec that is not a covering one exits 2 the same way.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import algebro, checks, factorization, laurent, symbols, tau, toeplitz
from .errors import BlocktauError

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


@dataclass
class RunConfig:
    """Validated run parameters for every command."""

    spec: symbols.SymbolSpec
    times: symbols.TimeVector
    tau_grids: dict            # time index -> numpy array of values
    tau_tol: float
    converge_n_max: int
    converge_tol: float
    factorize_draws: int
    factorize_seed: int
    factorize_scale: float
    factorize_tol: float
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


def _parse_positive(text: str, what: str, kind: str = "tolerance") -> float:
    """A positive finite number; kind names what the key holds in the error."""
    try:
        v = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} for {what}: {text!r}") from exc
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


# (section, key) -> (RunConfig field, parser, default): every scalar key, once.
_KEYS = {
    ("tau", "tol"): ("tau_tol", _parse_positive, 1e-8),
    ("converge", "n_max"): ("converge_n_max", partial(_parse_int, least=2), 20),
    ("converge", "tol"): ("converge_tol", _parse_positive, 1e-6),
    ("factorize", "draws"): ("factorize_draws", partial(_parse_int, least=1), 3),
    ("factorize", "seed"): ("factorize_seed", partial(_parse_int, least=0), 0),
    ("factorize", "scale"): (
        "factorize_scale", partial(_parse_positive, kind="positive number"), 0.3
    ),
    ("factorize", "tol"): ("factorize_tol", _parse_positive, 1e-8),
    ("verify", "seed"): ("verify_seed", partial(_parse_int, least=0), 7),
}
# --<key> on command c overrides the key (c, key); main rejects it if c has none
_FLAGS = ("tol", "seed")

# the scalar keys plus those read apart in load_config ([tau] also takes grid_t<i>)
_SCHEMA = {"spec": {"family", "params", "n"}, "times": {"values", "gd_reduced"}, "output": {"dir"}}
_SCHEMA |= {section: {k for s, k in _KEYS if s == section} for section, _ in _KEYS}


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

    get = partial(cp.get, fallback=None)

    family = (get("spec", "family") or "rational").strip().lower()
    params_text = get("spec", "params")
    params = (
        _parse_complex_list(params_text, "spec params")
        if params_text is not None
        else (0.3 + 0j, 0.6 + 0j)
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
        else (0.2 + 0j, 0.0j, -0.15 + 0j, 0.0j, 0.08 + 0j)
    )
    reduced_text = get("times", "gd_reduced")
    gd_reduced = _parse_bool(reduced_text, "gd_reduced") if reduced_text is not None else True
    try:
        times = symbols.time_vector(values, gd_reduced)
    except BlocktauError as exc:
        raise ConfigError(f"bad times: {exc}") from exc

    grids = {
        int(key[len("grid_t") :]): _parse_grid(text, f"[tau] {key}")
        for key, text in (cp["tau"].items() if cp.has_section("tau") else ())
        if key.startswith("grid_t")
    } or {1: np.linspace(-0.5, 0.5, 5), 3: np.linspace(-0.5, 0.5, 5)}

    scalars = {}
    for (section, key), (name, parse, default) in _KEYS.items():
        text = get(section, key)
        scalars[name] = parse(text, f"[{section}] {key}") if text is not None else default
    return RunConfig(
        spec=spec,
        times=times,
        tau_grids=grids,
        outdir=get("output", "dir") or "out",
        **scalars,
    )


def _artifact(out: str, name: str) -> str:
    """Path of artifact name in out; out is made on the first write, so a
    command that fails before it writes leaves no directory behind."""
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


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


def cmd_tau(cfg: RunConfig, out: str) -> int:
    idxs, points = _grid_points(cfg)
    tol = cfg.tau_tol
    results = [tau.tau_stable_report(cfg.spec, tv) for _p, tv in points]

    header = ",".join([f"t{i}" for i in idxs] + ["N", "tau", "est_error"])
    lines = [header]
    worst = 0.0
    for (p, _tv), res in zip(points, results):
        cells = [_fmt(v) for v in p]
        cells += [str(res.M_used), _fmt_c(res.value), _fmt(res.est_error)]
        lines.append(",".join(cells))
        worst = max(worst, res.est_error)
    _write_lines(_artifact(out, "tau.csv"), lines)
    _write_lines(
        _artifact(out, "report.txt"),
        [
            "command: tau",
            f"points: {len(points)}",
            f"grid indices: {idxs}",
            f"tolerance: {_fmt(tol)}",
            f"worst est_error: {_fmt(worst)}",
            "routes: " + ", ".join(
                f"{route} {sum(r.route == route for r in results)}"
                for route in ("finite_rank", "fredholm")
            ),
        ],
    )
    if worst > tol:
        print(f"FAIL tau est_error {worst:.3e} > {tol:g}", file=sys.stderr)
        return 1
    return 0


# -- convergence table -------------------------------------------------------


def cmd_converge(cfg: RunConfig, out: str) -> int:
    spec, tv = cfg.spec, cfg.times
    n_max = cfg.converge_n_max
    x = factorization.deformed_symbol_samples(spec, tv, 1024)
    G = laurent.geometric_mean(x)
    lm = symbols.gd_symbol(spec, tv, (-n_max, n_max), exact_only=True)
    lines = ["N,D_N,G^N,ratio,delta"]
    prev = 1.0 + 0.0j
    deltas = []
    for N, d in zip(range(1, n_max + 1), toeplitz.truncation_dets(lm)):
        gn = G**N
        ratio = d / gn
        delta = abs(ratio - prev)
        deltas.append(delta)
        lines.append(
            ",".join([str(N), _fmt_c(d), _fmt_c(gn), _fmt_c(ratio), _fmt(delta)])
        )
        prev = ratio
    _write_lines(_artifact(out, "converge.csv"), lines)
    # deltas at round-off (criterion 3's 1e-14, on the scale of the ratio) carry no decay
    fit = toeplitz.fit_decay(deltas, floor=1e-14 * abs(ratio))
    tol = cfg.converge_tol
    settled = deltas[-1] <= tol
    _write_lines(
        _artifact(out, "report.txt"),
        [
            "command: converge",
            f"N max: {n_max}",
            f"geometric mean: {_fmt_c(G)}",
            f"fitted decay ratio: {_fmt(fit)}",
            f"final delta: {_fmt(deltas[-1])}",
            f"settled below {_fmt(tol)}: {settled}",
        ],
    )
    if not settled or not (fit < 1.0):
        print(
            f"FAIL converge delta {deltas[-1]:.3e} fit {fit:.3f}", file=sys.stderr
        )
        return 1
    return 0


# -- factorization dumps -----------------------------------------------------


def cmd_factorize(cfg: RunConfig, out: str) -> int:
    spec = cfg.spec
    tol = cfg.factorize_tol
    rng = np.random.default_rng(cfg.factorize_seed)
    report = ["command: factorize", f"draws: {cfg.factorize_draws}"]
    failures = []
    for d in range(cfg.factorize_draws):
        tv = symbols.random_times(spec, rng, cfg.factorize_scale)
        x = factorization.deformed_symbol_samples(spec, tv, 1024)
        try:
            fact = factorization.wiener_hopf(x, tol=max(tol, 1e-10))
        except BlocktauError as exc:
            failures.append(f"draw {d}: {exc}")
            report.append(f"draw {d}: FAILED {exc}")
            continue
        laurent.write_csv(fact.T_minus, _artifact(out, f"T_minus_{d}.csv"))
        laurent.write_csv(fact.T_plus, _artifact(out, f"T_plus_{d}.csv"))
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
        if fact.residual > tol or fact.det_plus_dev > tol:
            failures.append(
                f"draw {d}: residual {fact.residual:.3e} "
                f"det_plus_dev {fact.det_plus_dev:.3e} > {tol:g}"
            )
    _write_lines(_artifact(out, "report.txt"), report)
    for f in failures:
        print(f"FAIL factorize {f}", file=sys.stderr)
    return 1 if failures else 0


# -- spectral report ---------------------------------------------------------


def cmd_spectral(cfg: RunConfig, out: str) -> int:
    spec = cfg.spec
    cp = algebro.curve_from_covering(spec)
    rep = algebro.spectral_check(spec)
    laurent.write_csv(rep.C, _artifact(out, "C.csv"))
    lines = ["command: spectral", f"sheets: {spec.n}", ""]
    lines.append("curve lambda^n = P(z), P coefficients (ascending):")
    lines.append("  " + ", ".join(_fmt_c(-c) for c in cp.c(spec.n)))
    lines.append("")
    lines.append("entry degree table (row, col, degree):")
    for i in range(spec.n):
        for j in range(spec.n):
            deg = max(
                (q for q in range(rep.C.lo, rep.C.hi + 1)
                 if abs(rep.C.block(q)[i, j]) > 1e-9),
                default=None,
            )
            lines.append(f"  {i} {j} {'-' if deg is None else deg}")
    lines.append("")
    lines += rep.lines()
    lines.append("")
    lines.append(f"passed: {rep.passed}")
    _write_lines(_artifact(out, "report.txt"), lines)
    if not rep.passed:
        print("FAIL spectral certificates out of tolerance", file=sys.stderr)
        return 1
    return 0


# -- the verify table --------------------------------------------------------


def cmd_verify(cfg: RunConfig, out: str) -> int:
    ctx = checks.Context(cfg, out)
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
    _write_lines(_artifact(out, "report.txt"), lines)
    for module, name, value, tol, detail in failures:
        print(
            f"FAIL {module}.{name} value={value:.6e} tol={tol} {detail}",
            file=sys.stderr,
        )
    return 1 if failures else 0


# -- entry point -------------------------------------------------------------


_COMMANDS = {
    "verify": cmd_verify,
    "tau": cmd_tau,
    "converge": cmd_converge,
    "factorize": cmd_factorize,
    "spectral": cmd_spectral,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocktau",
        description="Block Toeplitz tau functions: experiments and checks.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory")
    for key in _FLAGS:
        commands = ", ".join(c for c, k in _KEYS if k == key)
        parser.add_argument(f"--{key}", help=f"override the command's {key} key ({commands})")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for key in _FLAGS:
            text = getattr(args, key)
            if text is None:
                continue
            if (args.command, key) not in _KEYS:
                raise ConfigError(f"--{key} does not apply to {args.command}: it has no {key} key")
            name, parse, _default = _KEYS[args.command, key]
            cfg = replace(cfg, **{name: parse(text, f"--{key} ([{args.command}] {key})")})
        if args.command == "spectral" and cfg.spec.family != "covering":
            raise ConfigError("the spectral command needs a covering spec")
        out = args.out or os.environ.get("BLOCKTAU_OUT") or cfg.outdir
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlocktauError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
