"""Acceptance suite: every entry of the check registry, one test each.

The checks and their contract tolerances live in ``blocktau.checks``; this
file only runs them, on the context ``blocktau verify`` builds from the
default config.  Entries that prove one of the eleven headline criteria
print a single ``[criterion NN] PASS/FAIL`` line with the measured value
and its tolerance (visible with ``pytest -s``).  INFO entries report a
value without judging it.
"""

import dataclasses

import pytest

from blocktau import checks, cli, laurent, tau

# Criterion entries keep the test names the criteria have always had, so
# one criterion's result can be followed from run to run; the other
# entries are named after their module and check.
CRITERION_TESTS = {
    1: "two_soliton_grid_matches_closed_form",
    2: "plemelj_routes_agree_at_random_times",
    3: "truncations_converge_to_fredholm_determinant",
    4: "finite_section_correction_identity",
    5: "graded_coefficients_stabilize",
    6: "three_series_routes_coincide",
    7: "kernel_and_recursion_residuals",
    8: "stable_tau_satisfies_bilinear_form",
    9: "factorization_certificates_at_random_times",
    10: "conjugated_matrix_is_polynomial",
    11: "ratio_identity_small_determinant",
}


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    cfg = cli.load_config(None)
    return checks.Context(cfg, str(tmp_path_factory.mktemp("verify")))


def _entry_test(entry):
    def test(ctx):
        value, ok, detail = entry.fn(ctx, entry.tol)
        tol = "-" if entry.tol is None else f"{entry.tol:.0e}"
        label = f"{entry.module}.{entry.name}: {value:.3e} (tol {tol}) {detail}"
        if entry.criterion is not None:
            status = "PASS" if ok else "FAIL"
            print(f"[criterion {entry.criterion:02d}] {status} {label}")
        assert (ok is None) == (entry.tol is None), label
        assert ok is None or ok, label

    return test


for _entry in checks.CHECKS:
    if _entry.criterion is None:
        _name = f"test_{_entry.module}_{_entry.name}"
    else:
        _name = f"test_criterion_{_entry.criterion:02d}_{CRITERION_TESTS[_entry.criterion]}"
    globals()[_name] = _entry_test(_entry)


@pytest.mark.parametrize("name", ["rspec", "cspec", "_cache"])
def test_context_refuses_the_fields_it_sets_itself(name, tmp_path):
    # the checks run on the fixed specs of the registry; a spec passed in
    # would be overwritten without a word, so it is refused instead
    with pytest.raises(TypeError):
        checks.Context(cli.load_config(None), str(tmp_path), **{name: None})


def test_covering_stable_value_row_sees_a_planted_error(ctx, monkeypatch):
    # the covering branch of tau_stable_report off by 1e-9, relative
    det = tau.fredholm_det

    def planted(p):
        fr = det(p)
        return dataclasses.replace(fr, value=fr.value * (1 + 1e-9))

    monkeypatch.setattr(tau, "fredholm_det", planted)
    row = next(c for c in checks.CHECKS if c.name == "covering_stable_value")
    value, ok, _ = row.fn(ctx, row.tol)
    assert not ok and value > 1e-10


@pytest.mark.parametrize("layout", ["component-major", "lowest-mode-plus-one"])
def test_generator_interleaving_row_sees_a_planted_layout_error(ctx, monkeypatch, layout):
    # generator_modes reading W's coefficient array in the wrong order, or
    # from one mode too high
    base = tau.base_symbol

    def planted(spec):
        w = base(spec)
        if layout == "component-major":
            coeffs = w.coeffs.transpose(1, 0, 2).reshape(w.coeffs.shape)
            return laurent.LaurentMatrix(w.n, w.lo, w.hi, coeffs)
        return laurent.LaurentMatrix(w.n, w.lo + 1, w.hi + 1, w.coeffs)

    monkeypatch.setattr(tau, "base_symbol", planted)
    row = next(c for c in checks.CHECKS if c.name == "generator_interleaving")
    value, ok, _ = row.fn(ctx, row.tol)
    assert not ok and value > 1.0
