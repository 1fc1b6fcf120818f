from __future__ import annotations

import pytest

from mgonal import (
    GuyForm,
    guy_form,
    guy_report_csv,
    lower_bound_witness,
    verify_guy,
    verify_guy_grid,
)


def test_guy_form_coefficient_pattern():
    gf = guy_form(10, 5)
    assert gf.form.coeffs == (1, 1, 1, 1) + (6,) * 10 + (11,)
    assert gf.form.n == 15
    assert gf.form.m == 10


def test_guy_form_validation():
    with pytest.raises(ValueError):
        guy_form(5, 1)
    with pytest.raises(ValueError):
        guy_form(10, 0)
    with pytest.raises(ValueError):
        guy_form(10, 7)  # ell may be at most m - 4


def test_verify_guy_misses_exactly_the_designed_gap():
    report = verify_guy(guy_form(10, 5), 2000)
    assert report.passed
    assert report.missing == (5,)
    assert report.bound == 2000


def test_verify_guy_reports_failure_for_a_mismatched_claim():
    gf = guy_form(10, 5)
    mislabeled = GuyForm(10, 4, gf.form)
    report = verify_guy(mislabeled, 500)
    assert not report.passed
    assert report.missing == (5,)


def test_lower_bound_witness_small_grid():
    for m in range(6, 13):
        for ell in range(1, m - 3):
            assert lower_bound_witness(m, ell)
    with pytest.raises(ValueError):
        lower_bound_witness(5, 1)
    with pytest.raises(ValueError):
        lower_bound_witness(10, 7)


def test_grid_runs_serially_by_default():
    reports = verify_guy_grid(6, 8, 500)
    assert len(reports) == 2 + 3 + 4
    assert all(r.passed for r in reports)
    assert [(r.m, r.ell) for r in reports[:3]] == [(6, 1), (6, 2), (7, 1)]


@pytest.mark.parametrize("m_lo,m_hi", [(6, 7.5), (6.0, 8), ("6", 8), (6, None), (True, 8)])
def test_grid_rejects_non_integer_m_range(m_lo, m_hi):
    with pytest.raises(ValueError, match="must be an integer"):
        verify_guy_grid(m_lo, m_hi, 100)


def test_guy_report_csv_golden():
    reports = [verify_guy(guy_form(6, 1), 50), verify_guy(guy_form(6, 2), 50)]
    text = guy_report_csv(reports)
    lines = text.splitlines()
    assert lines[0] == "m,ell,bound,missing,pass"
    assert lines[1] == "6,1,50,1,true"
    assert lines[2] == "6,2,50,2,true"
