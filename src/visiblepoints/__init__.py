"""Exact counting of visible (coprime-coordinate) lattice points on level
curves of bivariate polynomials modulo primes.

The package provides:

* integer utilities (Moebius sieve, segmented prime sieve);
* exact bivariate polynomials over Z and their reductions mod p;
* prime and extension fields with univariate root finding and an exact
  absolute-irreducibility test for bivariate polynomials;
* two independent visible-point counting routes (direct gcd filter and
  Moebius inclusion-exclusion) plus a per-level histogram, by one grid
  sweep or, for f = g(U) + h(V), by Moebius-weighted convolutions;
* experiment harnesses measuring averaged discrepancies against the
  6/pi^2 density heuristic, with stable CSV/JSON output and a CLI.

The public names below load their submodule on first access (PEP 562), so
``import visiblepoints`` imports no submodule and no numpy.  Of the
submodules, ``counting`` and ``experiments`` import numpy, and ``arith``'s
sieves load it when first called; ``errors``, ``fields``, ``factor``,
``poly`` and ``output`` do not.  In the CLI, ``count``, ``visible``,
``zeros``, ``exp-a``, ``exp-p`` and ``sweep`` load numpy; ``irred``,
``badset``, ``--help`` and the usage errors caught before a handler runs
do not.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it defines
_SUBMODULE_NAMES = {
    "arith": ("MobiusTable", "is_prime", "mobius_sieve", "primes_in_range",
              "zeta2_inverse_partial"),
    "counting": ("COPRIME_DENSITY", "CountBox", "LevelCurveSpec", "VisibleHistogram",
                 "count_divisible", "count_level_points", "count_visible_by_prime",
                 "count_visible_direct", "count_visible_mobius", "expected_visible",
                 "visible_histogram"),
    "errors": ("BoxTooLarge", "ConstantPolynomial", "DegenerateReduction", "GridOverflow",
               "HypothesisViolated", "IdenticallyZero", "NonFiniteParameter",
               "PolynomialParseError", "UsageError", "VisiblePointsError"),
    "experiments": ("DEFAULT_DELTAS", "ConcentrationProfile", "CountDeviation",
                    "DiscrepancyRecord", "ZeroSetReport", "concentration_profiles",
                    "count_deviation", "integer_zero_set", "level_sweep", "prime_sweep"),
    "factor": ("IrreducibilityVerdict", "bad_level_values", "is_absolutely_irreducible",
               "is_irreducible_bivariate"),
    "fields": ("ExtensionField", "PrimeField", "univariate_roots"),
    "output": ("read_csv", "records_to_csv", "records_to_json", "zero_reports_to_csv",
               "zero_reports_to_json"),
    "poly": ("IntBivariatePoly", "ModBivariatePoly", "parse_poly", "reduce_mod"),
}
_SUBMODULE = {name: mod for mod, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        mod = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE))
