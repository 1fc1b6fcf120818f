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
    _refuse_assignment,
    _refuse_deletion,
    represented_set,
)

DEFAULT_GUY_BOUND = 5000


class GuyForm:
    """The single-gap form for (m, ell).  Frozen and hashable; equal to a
    GuyForm with equal fields."""

    __match_args__ = ("m", "ell", "form")
    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __init__(self, m: int, ell: int, form: PolygonalForm) -> None:
        self.__dict__.update(m=m, ell=ell, form=form)

    def __repr__(self) -> str:
        return f"GuyForm(m={self.m!r}, ell={self.ell!r}, form={self.form!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.ell, self.form) == (other.m, other.ell, other.form)

    def __hash__(self) -> int:
        return hash((self.m, self.ell, self.form))


class GuyReport:
    """The values a GuyForm misses in [0, bound], and whether they are
    exactly {ell}.  Frozen and hashable; equal to a report with equal
    fields."""

    __match_args__ = ("m", "ell", "bound", "missing", "passed")
    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __init__(
        self, m: int, ell: int, bound: int, missing: tuple[int, ...], passed: bool
    ) -> None:
        self.__dict__.update(m=m, ell=ell, bound=bound, missing=missing, passed=passed)

    def __repr__(self) -> str:
        return (
            f"GuyReport(m={self.m!r}, ell={self.ell!r}, bound={self.bound!r}, "
            f"missing={self.missing!r}, passed={self.passed!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.ell, self.bound, self.missing, self.passed) == (
            other.m, other.ell, other.bound, other.missing, other.passed
        )

    def __hash__(self) -> int:
        return hash((self.m, self.ell, self.bound, self.missing, self.passed))


def guy_form(m: int, ell: int) -> GuyForm:
    """The almost-universal form with its designed gap at ell."""
    _check_int(m, "m")
    _check_int(ell, "ell")
    if m < 6:
        raise ValueError("construction needs m >= 6")
    if not 1 <= ell <= m - 4:
        raise ValueError(f"need 1 <= ell <= m - 4, got ell={ell} for m={m}")
    coeffs = sorted([1] * (ell - 1) + [ell + 1] * m + [2 * ell + 1])
    return GuyForm(m, ell, PolygonalForm(m, tuple(coeffs)))


def verify_guy(gf: GuyForm, bound: int = DEFAULT_GUY_BOUND) -> GuyReport:
    """Check the represented set on [0, bound] misses exactly {ell}."""
    _check_int(bound, "bound")
    rep = represented_set(gf.form, bound)
    missing = tuple(rep.missing())
    return GuyReport(gf.m, gf.ell, bound, missing, missing == (gf.ell,))


def lower_bound_witness(m: int, ell: int) -> bool:
    """True iff ell-1 unit coefficients fail to represent ell (they always
    do for ell <= m - 4: available sums below m - 3 top out at ell - 1)."""
    _check_int(m, "m")
    _check_int(ell, "ell")
    if m < 6:
        raise ValueError("witnesses are stated for m >= 6")
    if not 1 <= ell <= m - 4:
        raise ValueError(f"need 1 <= ell <= m - 4, got ell={ell} for m={m}")
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
