"""Command-line interface: config validation, artifacts, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blocktau import checks, cli, factorization, symbols
from oracles import read_csv

RATIONAL_INI = """\
[spec]
family = rational
params = 0.3, 0.6

[times]
values = 0.2, 0.0, -0.15
gd_reduced = true

[tau]
grid_t1 = -0.2:0.2:2
grid_t3 = 0.1
tol = 1e-8

[converge]
n_max = 12
tol = 1e-6

[factorize]
draws = 1
seed = 3
scale = 0.25
tol = 1e-8
"""

COVERING_INI = """\
[spec]
family = covering
params = 0.3, -0.25, 0.35j
n = 2

[times]
values = 0.1, 0.0, 0.05
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- config validation --------------------------------------------------------


def test_unknown_key_rejected(tmp_path, capsys):
    bad = RATIONAL_INI.replace("tol = 1e-8\n\n[converge]", "shiny = 1\n\n[converge]")
    path = _write(tmp_path, bad)
    assert cli.main(["tau", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, RATIONAL_INI + "\n[mystery]\nx = 1\n")
    assert cli.main(["tau", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_malformed_number_rejected(tmp_path):
    bad = RATIONAL_INI.replace("params = 0.3, 0.6", "params = 0.3, zebra")
    path = _write(tmp_path, bad)
    assert cli.main(["tau", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_covering_requires_sheet_count(tmp_path):
    bad = COVERING_INI.replace("n = 2\n", "")
    path = _write(tmp_path, bad)
    assert cli.main(["spectral", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_spectral_rejects_rational_family(tmp_path, capsys):
    path = _write(tmp_path, RATIONAL_INI)
    assert cli.main(["spectral", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "needs a covering spec" in capsys.readouterr().err


def test_spectral_on_shipped_rational_config_writes_nothing(tmp_path):
    out = tmp_path / "o"
    rational = Path(__file__).resolve().parents[1] / "configs" / "rational.ini"
    assert cli.main(["spectral", "--config", str(rational), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("text", ["big", "0", "-0.5", "inf", "nan"])
def test_scale_is_a_positive_number(text, tmp_path, capsys):
    path = _write(tmp_path, RATIONAL_INI.replace("scale = 0.25", f"scale = {text}"))
    assert cli.main(["factorize", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "tolerance" not in err
    if text == "big":
        assert "bad positive number for [factorize] scale: 'big'" in err
    else:
        assert f"[factorize] scale must be positive, got '{text}'" in err


def test_missing_config_file(tmp_path):
    assert cli.main(["tau", "--config", str(tmp_path / "nope.ini")]) == 2


def test_nonpositive_tol_flag_rejected(tmp_path):
    path = _write(tmp_path, RATIONAL_INI)
    assert cli.main(["tau", "--config", path, "--tol", "-1"]) == 2


# (section, key) -> (text, value) off the default, for every scalar key
NON_DEFAULT = {
    ("tau", "tol"): ("3e-9", 3e-9),
    ("converge", "n_max"): ("5", 5),
    ("converge", "tol"): ("2e-5", 2e-5),
    ("factorize", "draws"): ("2", 2),
    ("factorize", "seed"): ("11", 11),
    ("factorize", "scale"): ("0.125", 0.125),
    ("factorize", "tol"): ("4e-9", 4e-9),
    ("verify", "seed"): ("12", 12),
}

DEFAULTS = {
    "tau_tol": 1e-8,
    "converge_n_max": 20,
    "converge_tol": 1e-6,
    "factorize_draws": 3,
    "factorize_seed": 0,
    "factorize_scale": 0.3,
    "factorize_tol": 1e-8,
    "verify_seed": 7,
}


def test_every_scalar_key_lands_in_its_field(tmp_path):
    assert set(cli._KEYS) == set(NON_DEFAULT)
    assert {name: getattr(cli.load_config(None), name) for name in DEFAULTS} == DEFAULTS
    for (section, key), (text, value) in NON_DEFAULT.items():
        name = cli._KEYS[section, key][0]
        cfg = cli.load_config(_write(tmp_path, f"[{section}]\n{key} = {text}\n"))
        assert getattr(cfg, name) == value
        assert {n: getattr(cfg, n) for n in DEFAULTS if n != name} == {
            n: v for n, v in DEFAULTS.items() if n != name
        }


@pytest.mark.parametrize("command", ["verify", "factorize"])
def test_bad_seed_flag_exits_2_and_writes_nothing(command, tmp_path, capsys):
    out = tmp_path / "o"
    path = _write(tmp_path, RATIONAL_INI)
    assert cli.main([command, "--config", path, "--out", str(out), "--seed", "-1"]) == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, ini",
    [
        ("spectral", ["--tol", "1e-3"], COVERING_INI),
        ("spectral", ["--seed", "1"], COVERING_INI),
        ("tau", ["--seed", "1"], RATIONAL_INI),
        ("converge", ["--seed", "1"], RATIONAL_INI),
    ],
    ids=["spectral-tol", "spectral-seed", "tau-seed", "converge-seed"],
)
def test_flag_rejected_where_the_command_has_no_such_key(command, flag, ini, tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, ini), "--out", str(out), *flag]) == 2
    assert f"{flag[0]} does not apply to {command}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "inf", "nan", "zebra"])
def test_tol_flag_parsed_as_the_key(tol, tmp_path, capsys):
    out = tmp_path / "o"
    path = _write(tmp_path, RATIONAL_INI)
    assert cli.main(["converge", "--config", path, "--out", str(out), "--tol", tol]) == 2
    assert "--tol ([converge] tol)" in capsys.readouterr().err
    assert not out.exists()


def test_flag_overrides_its_own_command_key(tmp_path, monkeypatch):
    seen = []

    def capture(cfg, out):
        seen.append(cfg)
        return 0

    for command in ("tau", "converge", "factorize", "verify"):
        monkeypatch.setitem(cli._COMMANDS, command, capture)
    path = _write(tmp_path, RATIONAL_INI)
    base = cli.load_config(path)
    for command, flag, name, value in (
        ("tau", "--tol", "tau_tol", 2e-9),
        ("converge", "--tol", "converge_tol", 3e-7),
        ("factorize", "--tol", "factorize_tol", 5e-9),
        ("factorize", "--seed", "factorize_seed", 9),
        ("verify", "--seed", "verify_seed", 4),
    ):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o"), flag, repr(value)]) == 0
        cfg = seen.pop()
        assert getattr(cfg, name) == value
        assert all(getattr(cfg, n) == getattr(base, n) for n in DEFAULTS if n != name)


# -- tau sweep ----------------------------------------------------------------


def test_tau_grid_runs_and_is_deterministic(tmp_path):
    path = _write(tmp_path, RATIONAL_INI)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["tau", "--config", path, "--out", str(out)]) == 0
        outs.append((out / "tau.csv").read_bytes())
    assert outs[0] == outs[1]

    text = outs[0].decode()
    lines = text.strip().splitlines()
    assert lines[0] == "t1,t3,N,tau,est_error"
    assert len(lines) == 1 + 2 * 1  # 2-point grid on t1, single t3
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 5
        assert float(cells[4]) <= 1e-8  # est_error column within tolerance
    report = (tmp_path / "a" / "report.txt").read_text()
    assert "worst est_error" in report


def test_tau_report_counts_each_route(tmp_path):
    for name, text, routes in (
        ("rat", RATIONAL_INI, "finite_rank 2, fredholm 0"),
        ("cov", COVERING_INI + "\n[tau]\ngrid_t1 = 0.1\n", "finite_rank 0, fredholm 1"),
    ):
        out = tmp_path / name
        assert cli.main(["tau", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        assert f"routes: {routes}" in (out / "report.txt").read_text().splitlines()


def test_refused_tau_sweep_leaves_no_directory(tmp_path, capsys):
    # the Wiener-norm gate refuses the covering symbol at t = (8, 0, 4, 0, 2)
    text = COVERING_INI.replace("0.1, 0.0, 0.05", "8, 0, 4, 0, 2") + "\n[tau]\ngrid_t1 = 8\n"
    out = tmp_path / "o"
    assert cli.main(["tau", "--config", _write(tmp_path, text), "--out", str(out)]) == 1
    assert "Wiener-norm condition bound" in capsys.readouterr().err
    assert not out.exists()


def test_output_dir_precedence(tmp_path, monkeypatch):
    path = _write(tmp_path, RATIONAL_INI)
    envdir = tmp_path / "from_env"
    flagdir = tmp_path / "from_flag"
    monkeypatch.setenv("BLOCKTAU_OUT", str(envdir))
    assert cli.main(["tau", "--config", path]) == 0
    assert (envdir / "tau.csv").exists()
    assert cli.main(["tau", "--config", path, "--out", str(flagdir)]) == 0
    assert (flagdir / "tau.csv").exists()


# -- convergence table --------------------------------------------------------


def test_converge_table(tmp_path):
    path = _write(tmp_path, RATIONAL_INI)
    out = tmp_path / "conv"
    assert cli.main(["converge", "--config", path, "--out", str(out)]) == 0
    lines = (out / "converge.csv").read_text().strip().splitlines()
    assert lines[0] == "N,D_N,G^N,ratio,delta"
    assert len(lines) == 1 + 12
    final_delta = float(lines[-1].split(",")[-1])
    assert final_delta <= 1e-6
    report = (out / "report.txt").read_text()
    assert "fitted decay ratio" in report


def test_converge_unreachable_tolerance_fails(tmp_path, capsys):
    path = _write(tmp_path, RATIONAL_INI)
    out = tmp_path / "convfail"
    assert cli.main(["converge", "--config", path, "--out", str(out), "--tol", "1e-30"]) == 1
    assert "FAIL converge" in capsys.readouterr().err


def test_converge_fit_ignores_roundoff_tail(tmp_path, monkeypatch):
    # covering.ini settles by N ~ 10; its later deltas are round-off (~3e-16)
    path = str(Path(__file__).parents[1] / "configs" / "covering.ini")

    def fitted(out):
        assert cli.main(["converge", "--config", path, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text().splitlines()
        csv = (out / "converge.csv").read_text().strip().splitlines()[1:]
        deltas = [float(line.split(",")[-1]) for line in csv]
        return next(r for r in report if r.startswith("fitted decay ratio")), deltas

    plain, plain_deltas = fitted(tmp_path / "plain")
    real = cli.toeplitz.truncation_dets

    def nudged(lm):
        # one-ulp-scale relative perturbations of D_N past N = 10
        for N, d in enumerate(real(lm), start=1):
            yield d * (1.0 + (N > 10) * (-1) ** N * 4e-16)

    monkeypatch.setattr(cli.toeplitz, "truncation_dets", nudged)
    moved, moved_deltas = fitted(tmp_path / "nudged")
    assert moved_deltas[:10] == plain_deltas[:10]
    assert moved_deltas[10:] != plain_deltas[10:]
    assert max(moved_deltas[11:]) < 1e-14
    assert moved == plain


# -- factorization dumps ------------------------------------------------------


def test_factorize_artifacts_roundtrip(tmp_path):
    path = _write(tmp_path, RATIONAL_INI)
    out = tmp_path / "fact"
    assert cli.main(["factorize", "--config", path, "--out", str(out)]) == 0

    tm = read_csv(str(out / "T_minus_0.csv"))
    tp = read_csv(str(out / "T_plus_0.csv"))
    assert tm.hi <= 0 and tp.lo >= 0

    # replay the seeded draw and check the factors rebuild the symbol
    spec = symbols.rational_spec([0.3, 0.6])
    tv = symbols.random_times(spec, np.random.default_rng(3), 0.25)
    M = 256
    z = np.exp(2j * np.pi * np.arange(M) / M)
    want = factorization.deformed_symbol_samples(spec, tv, M).values
    got = tm(z) @ tp(z)
    assert float(np.max(np.abs(got - want))) < 1e-8

    report = (out / "report.txt").read_text()
    assert "certificate" in report and "det_plus_dev" in report


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_factorizes(path, tmp_path):
    # a key dropped from the schema but left in a shipped config fails here
    assert cli.main(["factorize", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "B_used" in (tmp_path / "report.txt").read_text()


SHIPPED_RUNS = [(c, p) for c in ("converge", "tau") for p in SHIPPED_CONFIGS] + [
    ("spectral", p) for p in SHIPPED_CONFIGS if p.name == "covering.ini"
]


@pytest.mark.parametrize(
    "command, path", SHIPPED_RUNS, ids=[f"{c}-{p.name}" for c, p in SHIPPED_RUNS]
)
def test_shipped_config_runs(command, path, tmp_path):
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0


# -- spectral report ----------------------------------------------------------


def test_spectral_report_and_matrix_dump(tmp_path):
    path = _write(tmp_path, COVERING_INI)
    out = tmp_path / "spec"
    assert cli.main(["spectral", "--config", path, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "passed: True" in report
    assert "entry degree table" in report
    C = read_csv(str(out / "C.csv"))
    assert C.lo >= 0 and C.hi <= 2


# -- verify table -------------------------------------------------------------


def _stub(ok):
    def fn(ctx, tol):
        if ok == "raise":
            raise RuntimeError("stub broke")
        return 0.5, ok, "stub detail"

    return fn


def test_verify_prints_registry_rows(tmp_path, capsys, monkeypatch):
    stubs = [
        checks.Check("stub", "passes", 1.0, _stub(True)),
        checks.Check("stub", "informs", None, _stub(None)),
        checks.Check("stub", "fails", 0.1, _stub(False)),
        checks.Check("stub", "raises", 0.1, _stub("raise")),
    ]
    monkeypatch.setattr(checks, "CHECKS", stubs)
    out = tmp_path / "fail"
    assert cli.main(["verify", "--out", str(out)]) == 1
    printed, err = capsys.readouterr()
    assert [line.split()[1:5] for line in printed.splitlines()[1:5]] == [
        ["passes", "5.000e-01", "1e+00", "PASS"],
        ["informs", "5.000e-01", "-", "INFO"],
        ["fails", "5.000e-01", "1e-01", "FAIL"],
        ["raises", "nan", "1e-01", "FAIL"],
    ]
    assert "error: RuntimeError('stub broke')" in printed
    assert printed.splitlines()[-1] == "VERIFY: 1 passed, 2 failed, 1 info"
    assert "FAIL stub.fails" in err and "FAIL stub.raises" in err
    assert (out / "report.txt").read_text().splitlines() == printed.splitlines()

    monkeypatch.setattr(checks, "CHECKS", stubs[:2])
    assert cli.main(["verify", "--out", str(tmp_path / "ok")]) == 0
    assert "VERIFY: 1 passed, 0 failed, 1 info" in capsys.readouterr().out


def test_verify_rejects_tol_override(tmp_path, capsys):
    out = tmp_path / "verify"
    assert cli.main(["verify", "--out", str(out), "--tol", "1e-3"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_registry_names_unique_and_criteria_complete():
    names = [(c.module, c.name) for c in checks.CHECKS]
    assert len(set(names)) == len(names)
    criteria = sorted(c.criterion for c in checks.CHECKS if c.criterion is not None)
    assert criteria == list(range(1, 12))


def test_module_entry_point_runs_without_warnings():
    # `python -m blocktau` must not re-execute an already imported module
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "blocktau", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "verify" in proc.stdout
