"""Acceptance gates: every structural claim the library stands on, at full
sample counts, each inside a stated wall-clock budget.

Each criterion runs one named check from the selftest registry at full
counts and contributes a single PASS/FAIL line to the terminal summary.
Tolerances live inside the checks; budgets are asserted here.
"""

import time

from charvar import selftest


def _run(acceptance_lines, number, title, check, budget_s):
    start = time.perf_counter()
    result = check(selftest.FULL_COUNTS, seed=0)
    elapsed = time.perf_counter() - start
    verdict = "PASS" if result.ok and elapsed < budget_s else "FAIL"
    acceptance_lines.append(
        f"criterion {number:2d} ({title}): {verdict} [{elapsed:.3f}s / {budget_s:g}s] {result.detail}"
    )
    assert result.ok, result.detail
    assert elapsed < budget_s, f"{title} took {elapsed:.3f}s, budget {budget_s:g}s"


def test_criterion_01_abelian_census(acceptance_lines):
    # 2^(2n-2) abelian classes for n = 2..6, all distinct, exact counts
    _run(acceptance_lines, 1, "abelian census", selftest.check_abelian_census, 1.0)


def test_criterion_02_cover_roundtrip(acceptance_lines):
    # pushforward after extend is the identity, residual <= 1e-9,
    # 1000 surface reps, both signs
    _run(acceptance_lines, 2, "cover round trip", selftest.check_cover_roundtrip, 10.0)


def test_criterion_03_two_fold_fiber(acceptance_lines):
    # 500 generic fibers = {rho, alpha* rho} at tol 1e-6; 200 binary
    # dihedral fibers = one class
    _run(acceptance_lines, 3, "two-fold fiber", selftest.check_fiber_two_fold, 10.0)


def test_criterion_04_case_ladder(acceptance_lines):
    # 10^4 valid inputs, six residuals <= 1e-10, every branch >= 100 times
    _run(acceptance_lines, 4, "case-ladder solver", selftest.check_lemma52_branches, 10.0)


def test_criterion_05_hessian_exact(acceptance_lines):
    # n = 2..12: det(A) odd, Pf(A)^2 = det(A), B^2 = I over F2, exact
    _run(acceptance_lines, 5, "Hessian exact suite", selftest.check_hessian_exact, 1.0)


def test_criterion_06_hessian_numeric(acceptance_lines):
    # finite differences match (-1)^(n-1) [[0,A],[A.T,0]] within 1e-6 at
    # step 1e-4; eigenvalue counts (2n-2, 2n-2); n = 2..8
    _run(acceptance_lines, 6, "Hessian numeric suite", selftest.check_hessian_numeric, 5.0)


def test_criterion_07_small_k_rigidity(acceptance_lines):
    # 100 samples at k = 3 fingerprint-equal to [i, j, -k] (tol 1e-9);
    # 1000 samples at k = 4 abelian or binary dihedral
    _run(acceptance_lines, 7, "small-k rigidity", selftest.check_small_k_rigidity, 5.0)


def test_criterion_08_submersion(acceptance_lines):
    # 1000 non-abelian samples at k in {4,6,8}: |derivative| > 1e-8,
    # finite-difference agreement <= 1e-6, local dimension 2k-6
    _run(acceptance_lines, 8, "submersion certificates", selftest.check_submersion, 10.0)


def test_criterion_09_chart_symmetries(acceptance_lines):
    # conjugation anti-equivariance and circle invariance <= 1e-12 on
    # 10^3 points, n = 2..6
    _run(acceptance_lines, 9, "chart symmetries", selftest.check_chart_symmetries, 5.0)


def test_criterion_10_bd_torus(acceptance_lines):
    # torus coordinates round-trip to +-identity on 10^3 draws, n = 2..5,
    # tol 1e-9; dihedral pushforwards have commuting generators
    _run(acceptance_lines, 10, "binary dihedral torus", selftest.check_bd_torus, 5.0)
