"""Validity conditions and analytic strength formulas as dimensionless ratios.

Every adiabaticity condition of the scheme is evaluated as a named
nonnegative ratio with a pass/warn threshold (0.15 for the "much smaller
than one" conditions, 0.1 for the spectral-separation one, both
configurable).  A ratio that involves the cavity is taken at the worst of
the modes ``models.mode_couplings`` names.  Ratios that need the Raman pair
when it is absent are marked ``not_evaluated`` rather than failed: the
eliminated-tier scenarios never use them.  A report (``check``) is a plain
dict, the one a JSON report holds; ``warned`` reads the ratios that warn.
"""
from __future__ import annotations

import math
import numbers

from .errors import ValidationError
from .models import SchemeParams, mode_couplings

DEFAULT_THRESHOLD = 0.15
SEPARATION_THRESHOLD = 0.1
RATIO_NAMES = ("dispersive_cavity", "dispersive_laser", "separation",
               "second_dispersive", "rot_condition", "footnote_ratio")


def enhanced_strength(p: SchemeParams) -> dict:
    """The atom-number-boosted nonlinearity at theta chosen so
    (g^2/2 delta1)/theta = N^{-1/4}, keyed as in a report's ``strengths``.

    ``enhanced_exact`` is the literal N (g^2/2 D1)^2 / theta_choice =
    N^{3/4} g^2/(2 D1); ``enhanced_simple_estimate`` is the
    order-of-magnitude form (sqrt(N) g / D1) N^{1/4} g, which carries an
    extra factor 2.  Both are reported so the bookkeeping difference stays
    visible.  The N^{3/4} holds at fixed delta1.  On a family with
    delta1 = 10 sqrt(N) g the single-atom Stark rate x = g^2/(2 delta1)
    falls as N^{-1/2}: the N^{3/4} is then in units of x, and the absolute
    frequency grows as N^{1/4}.
    """
    n = p.n_atoms
    x = p.stark
    theta_choice = n**0.25 * x
    return {"theta_choice": theta_choice,
            "enhanced_exact": n * x**2 / theta_choice,   # N^{3/4} g^2/(2 D1)
            "enhanced_simple_estimate":
                (math.sqrt(n) * p.g / p.delta1) * n**0.25 * p.g}


def warned(report: dict) -> list:
    """The names of the ratios that warn in a ``check`` report."""
    return [name for name, r in report["ratios"].items()
            if r["status"] == "warn"]


def check_thresholds(thresholds, where: str = "thresholds") -> None:
    """Reject by name a threshold map that ``check`` cannot apply: a name
    that is neither a ratio nor ``default``, or a value that is not a
    finite non-negative real number (``where`` prefixes the message)."""
    if thresholds is None:
        return
    if not isinstance(thresholds, dict):
        raise ValidationError(
            f"{where}: expected an object of ratio thresholds, "
            f"got {thresholds!r}")
    for name, value in thresholds.items():
        if name not in RATIO_NAMES and name != "default":
            raise ValidationError(
                f"{where}: unknown ratio {name!r} (known: default, "
                f"{', '.join(RATIO_NAMES)})")
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value) or value < 0):
            raise ValidationError(
                f"{where}.{name}: expected a finite number >= 0, "
                f"got {value!r}")


def check(p: SchemeParams, thresholds: dict | None = None) -> dict:
    """Evaluate every validity ratio and strength for a parameter set,
    under the default thresholds updated by ``thresholds``; a cavity ratio
    is the largest over the set's modes.

    The report is the plain dict a JSON report holds: ``ratios`` maps each
    of ``RATIO_NAMES`` to its ``value`` (None when not evaluated),
    ``threshold`` and ``status``; ``strengths`` holds kappa, the rotated
    strength and ``enhanced_strength``'s three entries; ``notes`` is a list
    of strings.  A Raman detuning equal to a cavity detuning is a
    ``ValidationError``.
    """
    check_thresholds(thresholds)
    th = {"default": DEFAULT_THRESHOLD, "separation": SEPARATION_THRESHOLD}
    th.update(thresholds or {})
    sqrt_n = math.sqrt(p.n_atoms)
    theta = abs(p.theta)
    modes = [(abs(g), detuning) for g, detuning, _, _ in mode_couplings(p)]
    x = max(g**2 / (2 * abs(d)) for g, d in modes)

    values: dict = {
        "dispersive_cavity": max(sqrt_n * g / abs(d) for g, d in modes),
        "second_dispersive": sqrt_n * x / theta,
        "rot_condition": (x / theta) ** 3 * sqrt_n,
    }
    if p.lam is not None:
        if p.delta2 == p.delta1:
            raise ValidationError(
                f"delta2 = delta1 = {p.delta1:g}: the Raman pair's detuning "
                "must differ from the cavity detuning")
        if any(p.delta2 == d for _, d in modes):
            raise ValidationError(
                f"delta2 = {p.delta2:g} is a cavity mode's detuning: the "
                "Raman pair's detuning must differ from it")
        lam, d2 = abs(p.lam), abs(p.delta2)
        values["dispersive_laser"] = sqrt_n * lam / d2
        values["separation"] = max(max(sqrt_n * g, sqrt_n * lam)
                                   / abs(p.delta2 - d) for g, d in modes)
        values["footnote_ratio"] = max((lam**3 / d2**2) / (g**2 / abs(d))
                                       for g, d in modes)

    ratios = {}
    for name in RATIO_NAMES:
        v = values.get(name)        # the laser ratios need (lam, delta2)
        tol = float(th.get(name, th["default"]))
        status = ("not_evaluated" if v is None
                  else "pass" if v <= tol else "warn")
        ratios[name] = {"value": None if v is None else float(v),
                        "threshold": tol, "status": status}

    strengths = {"kappa": p.kappa,
                 "rot_strength": p.n_atoms * p.stark**2 / p.theta,
                 **enhanced_strength(p)}
    notes = [
        "enhanced_exact is N (g^2/2 delta1)^2 / theta_choice; "
        "enhanced_simple_estimate is (sqrt(N) g/delta1) N^(1/4) g, "
        "a factor 2 larger -- both reported on purpose.",
    ]
    if p.lam is None:
        notes.append("laser ratios not evaluated: no (lam, delta2) supplied.")
    return {"ratios": ratios, "strengths": strengths, "notes": notes}
