"""Command-line interface: config validation, artifacts, exit codes."""

import os

import numpy as np
import pytest

from blocktau import checks, cli, factorization, laurent, symbols

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
band = 32
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

[spectral]
j = 96
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


def test_spectral_rejects_rational_family(tmp_path):
    path = _write(tmp_path, RATIONAL_INI)
    assert cli.main(["spectral", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["tau", "--config", str(tmp_path / "nope.ini")]) == 2


def test_nonpositive_tol_flag_rejected(tmp_path):
    path = _write(tmp_path, RATIONAL_INI)
    assert cli.main(["tau", "--config", path, "--tol", "-1"]) == 2
    assert cli.main(["tau", "--config", path, "--threads", "0"]) == 2


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


def test_tau_threads_match_serial(tmp_path):
    path = _write(tmp_path, RATIONAL_INI)
    a, b = tmp_path / "serial", tmp_path / "pool"
    assert cli.main(["tau", "--config", path, "--out", str(a)]) == 0
    assert cli.main(["tau", "--config", path, "--out", str(b), "--threads", "3"]) == 0
    assert (a / "tau.csv").read_bytes() == (b / "tau.csv").read_bytes()


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


# -- factorization dumps ------------------------------------------------------


def test_factorize_artifacts_roundtrip(tmp_path):
    path = _write(tmp_path, RATIONAL_INI)
    out = tmp_path / "fact"
    assert cli.main(["factorize", "--config", path, "--out", str(out)]) == 0

    tm = laurent.read_csv(str(out / "T_minus_0.csv"))
    tp = laurent.read_csv(str(out / "T_plus_0.csv"))
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


# -- spectral report ----------------------------------------------------------


def test_spectral_report_and_matrix_dump(tmp_path):
    path = _write(tmp_path, COVERING_INI)
    out = tmp_path / "spec"
    assert cli.main(["spectral", "--config", path, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "passed: True" in report
    assert "entry degree table" in report
    C = laurent.read_csv(str(out / "C.csv"))
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
