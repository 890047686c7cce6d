"""Acceptance suite: every entry of the check registry, one test each.

The checks and their contract tolerances live in ``blocktau.checks``; this
file only runs them, on the context ``blocktau verify`` builds from the
default config.  Entries that prove one of the eleven headline criteria
print a single ``[criterion NN] PASS/FAIL`` line with the measured value
and its tolerance (visible with ``pytest -s``).  INFO entries report a
value without judging it.
"""

import pytest

from blocktau import checks, cli

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
        assert ok is None or ok, label

    return test


for _entry in checks.CHECKS:
    if _entry.criterion is None:
        _name = f"test_{_entry.module}_{_entry.name}"
    else:
        _name = f"test_criterion_{_entry.criterion:02d}_{CRITERION_TESTS[_entry.criterion]}"
    globals()[_name] = _entry_test(_entry)
