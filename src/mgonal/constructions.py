"""Explicit families with a single prescribed gap, and the lower bounds
they witness.

For 1 <= ell <= m - 4 (m >= 6) the coefficient multiset

    [1 x (ell-1), (ell+1) x m, 2*ell+1]

represents every nonnegative integer except ell: sums of the ell-1 unit
coefficients and the single 2*ell+1 coefficient realize every residue mod
ell+1 without ever totalling ell, and the m middle coefficients mop up the
remaining multiple of ell+1.  The gap at ell is forced because nonzero
contributions are either 1 (at most ell-1 of them) or already above ell.

The same gap argument shows ell-1 unit coefficients cannot represent ell,
so any universal list of unit-coefficient sums needs length beyond ell-1;
these are the classic lower-bound witnesses for gamma.
"""

from __future__ import annotations

from .polygonal import (
    PolygonalForm,
    _check_int,
    _Frozen,
    represented_set,
)

DEFAULT_GUY_BOUND = 5000


class GuyForm(_Frozen):
    """The single-gap form for (m, ell).  Frozen and hashable; equal to a
    GuyForm with equal fields."""

    __match_args__ = _fields = ("m", "ell", "form")

    def __init__(self, m: int, ell: int, form: PolygonalForm) -> None:
        self.__dict__.update(m=m, ell=ell, form=form)


class GuyReport(_Frozen):
    """The values a GuyForm misses in [0, bound], and whether they are
    exactly {ell}.  Frozen and hashable; equal to a report with equal
    fields."""

    __match_args__ = _fields = ("m", "ell", "bound", "missing", "passed")

    def __init__(
        self, m: int, ell: int, bound: int, missing: tuple[int, ...], passed: bool
    ) -> None:
        self.__dict__.update(m=m, ell=ell, bound=bound, missing=missing, passed=passed)


def _check_gap(m: int, ell: int) -> None:
    """Refuse an (m, ell) outside the grid 1 <= ell <= m - 4, m >= 6."""
    _check_int(m, "m", 6)
    _check_int(ell, "ell")
    if not 1 <= ell <= m - 4:
        raise ValueError(f"need 1 <= ell <= m - 4, got ell={ell} for m={m}")


def guy_form(m: int, ell: int) -> GuyForm:
    """The almost-universal form with its designed gap at ell."""
    _check_gap(m, ell)
    coeffs = sorted([1] * (ell - 1) + [ell + 1] * m + [2 * ell + 1])
    return GuyForm(m, ell, PolygonalForm(m, tuple(coeffs)))


def verify_guy(gf: GuyForm, bound: int = DEFAULT_GUY_BOUND) -> GuyReport:
    """Check the represented set on [0, bound] misses exactly {ell}; a
    bound below ell could not see the gap, and is refused."""
    _check_int(bound, "bound")
    if bound < gf.ell:
        raise ValueError("bound must be at least ell")
    rep = represented_set(gf.form, bound)
    missing = tuple(rep.missing())
    return GuyReport(gf.m, gf.ell, bound, missing, missing == (gf.ell,))


def lower_bound_witness(m: int, ell: int) -> bool:
    """True iff ell-1 unit coefficients fail to represent ell (they always
    do for ell <= m - 4: available sums below m - 3 top out at ell - 1)."""
    _check_gap(m, ell)
    form = PolygonalForm(m, (1,) * (ell - 1))
    return ell not in represented_set(form, ell)


def verify_guy_grid(
    m_lo: int, m_hi: int, bound: int = DEFAULT_GUY_BOUND
) -> list[GuyReport]:
    """Verify the whole (m, ell) grid for m in [m_lo, m_hi], in grid order."""
    _check_int(m_lo, "m_lo")
    _check_int(m_hi, "m_hi")
    return [
        verify_guy(guy_form(m, ell), bound)
        for m in range(m_lo, m_hi + 1)
        for ell in range(1, m - 3)
    ]


def guy_report_csv(reports: list[GuyReport]) -> str:
    """CSV with columns m, ell, bound, missing (space-joined), pass."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["m", "ell", "bound", "missing", "pass"])
    for r in reports:
        writer.writerow(
            [r.m, r.ell, r.bound, " ".join(map(str, r.missing)),
             "true" if r.passed else "false"]
        )
    return out.getvalue()
