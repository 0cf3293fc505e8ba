"""Acceptance gate: twelve identity/property criteria at pinned tolerances.

Each test prints one summary line (even when passing) and asserts the
corresponding checks from the shared verification suites.
"""

import pytest

from szegosew.verify import run_suite

_CACHE: dict = {}


def _suite(name: str) -> dict:
    if name not in _CACHE:
        _CACHE[name] = run_suite(name)
    return _CACHE[name]


def _find(report: dict, fragment: str) -> dict:
    for check in report["checks"]:
        if fragment in check["name"]:
            return check
    raise AssertionError(f"no check matching {fragment!r} in "
                         f"{[c['name'] for c in report['checks']]}")


def _announce(capsys, num: int, title: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
              f"{title}: {detail}")


def test_criterion_01_sphere_sewing_oracle(capsys):
    check = _find(_suite("degeneration"), "sphere-sewn torus kernel")
    ok = check["passed"] and check["seconds"] < 5.0
    _announce(capsys, 1, "sphere-sewing oracle", ok,
              f"max rel err {check['residual']:.2e} < 1e-09, "
              f"{check['seconds']:.2f} s < 5 s")
    assert check["passed"], check
    assert check["seconds"] < 5.0, check


def test_criterion_02_sphere_determinant_product(capsys):
    check = _find(_suite("det-identity"), "sphere determinant")
    ok = check["passed"] and check["seconds"] < 1.0
    _announce(capsys, 2, "sphere determinant product", ok,
              f"max abs err {check['residual']:.2e} < 1e-12, "
              f"{check['seconds']:.3f} s < 1 s")
    assert check["passed"], check
    assert check["seconds"] < 1.0, check


def test_criterion_03_block_determinant_identity(capsys):
    check = _find(_suite("det-identity"), "block determinant")
    _announce(capsys, 3, "two-tori determinant identity", check["passed"],
              f"abs err {check['residual']:.2e} < 1e-12")
    assert check["passed"], check


def test_criterion_04_degeneration_slopes(capsys):
    same = _find(_suite("degeneration"), "same-torus deviation")
    cross = _find(_suite("degeneration"), "cross-torus values")
    ok = same["passed"] and cross["passed"]
    _announce(capsys, 4, "degeneration slopes", ok,
              f"same-torus slope {same['slope']:.3f} >= 0.95, "
              f"cross slope {cross['slope']:.3f} >= 0.45")
    assert same["passed"], same
    assert cross["passed"], cross


def test_criterion_05_skew_symmetry(capsys):
    report = _suite("skew")
    worst = max(c["residual"] for c in report["checks"])
    _announce(capsys, 5, "skew-symmetry in all three schemes",
              report["passed"], f"max residual {worst:.2e} < 1e-10")
    assert report["passed"], report


def test_criterion_06_dehn_twist_parity(capsys):
    report = _suite("dehn")
    worst = max(c["residual"] for c in report["checks"])
    _announce(capsys, 6, "branch-flip invariance and parity",
              report["passed"], f"max residual {worst:.2e} < 1e-13")
    assert report["passed"], report


def test_criterion_07_modular_invariance_two_tori(capsys):
    report = _suite("modular-eps")
    worst = max(c["residual"] for c in report["checks"])
    _announce(capsys, 7, "two-tori modular invariance", report["passed"],
              f"max residual {worst:.2e} (kernel < 1e-08, det < 1e-09)")
    assert report["passed"], report


def test_criterion_08_modular_invariance_self_sewn(capsys):
    report = _suite("modular-rho")
    worst = max(c["residual"] for c in report["checks"])
    _announce(capsys, 8, "self-sewn torus modular invariance",
              report["passed"], f"max residual {worst:.2e} < 1e-07")
    assert report["passed"], report


def test_criterion_09_integral_equations(capsys):
    eps = _find(_suite("integral-eq"), "two-tori contour")
    rho = _find(_suite("integral-eq"), "self-sewn torus contour")
    ok = eps["passed"] and rho["passed"]
    _announce(capsys, 9, "contour integral equations", ok,
              f"residuals {eps['residual']:.2e} / {rho['residual']:.2e} "
              "< 1e-07")
    assert eps["passed"], eps
    assert rho["passed"], rho


def test_criterion_10_laurent_eisenstein(capsys):
    laurent = _find(_suite("integral-eq"), "Laurent")
    odd = _find(_suite("integral-eq"), "odd untwisted")
    ok = laurent["passed"] and odd["passed"]
    _announce(capsys, 10, "Laurent/Eisenstein consistency", ok,
              f"coefficients {laurent['residual']:.2e} < 1e-08, "
              f"odd series {odd['residual']:.2e} < 1e-12")
    assert laurent["passed"], laurent
    assert odd["passed"], odd


def test_criterion_11_radius_independence(capsys):
    check = _find(_suite("convergence"), "radius-independent")
    _announce(capsys, 11, "moment-contour radius independence",
              check["passed"], f"max entry change {check['residual']:.2e} "
              "< 1e-09 at +-20%")
    assert check["passed"], check


def test_criterion_12_quadrature_truncation_convergence(capsys):
    quad = _find(_suite("convergence"), "quadrature refinement")
    rho_tail = _find(_suite("convergence"), "self-sewn torus truncation")
    eps_tail = _find(_suite("convergence"), "two-tori truncation")
    ok = quad["passed"] and rho_tail["passed"] and eps_tail["passed"]
    _announce(capsys, 12, "quadrature and truncation convergence", ok,
              f"M-refinement {quad['residual']:.2e} < 1e-09, tail rates "
              f"{rho_tail['rate']:.2f}/{eps_tail['rate']:.2f} < 0.7")
    assert quad["passed"], quad
    assert rho_tail["passed"], rho_tail
    assert eps_tail["passed"], eps_tail


def test_truncation_checks_fit_a_rate():
    # a rate of 0.0 means too few steps above tail_estimate's floor, and
    # the check could not fail
    for name in ("self-sewn torus truncation", "two-tori truncation"):
        check = _find(_suite("convergence"), name)
        assert 0.0 < check["rate"] < 0.7, check
