"""Exact counting of visible (coprime-coordinate) lattice points on level
curves of bivariate polynomials modulo primes.

The package provides:

* integer utilities (Moebius sieve, segmented prime sieve);
* exact bivariate polynomials over Z and their reductions mod p;
* prime and extension fields with univariate root finding and an exact
  absolute-irreducibility test for bivariate polynomials;
* two independent visible-point counting routes (direct gcd filter and
  Moebius inclusion-exclusion) plus a one-sweep per-level histogram;
* experiment harnesses measuring averaged discrepancies against the
  6/pi^2 density heuristic, with stable CSV/JSON output and a CLI.
"""

from .arith import (
    MobiusTable,
    is_prime,
    mobius_sieve,
    primes_in_range,
    zeta2_inverse_partial,
)
from .counting import (
    COPRIME_DENSITY,
    CountBox,
    LevelCurveSpec,
    VisibleHistogram,
    count_divisible,
    count_level_points,
    count_visible_by_prime,
    count_visible_direct,
    count_visible_mobius,
    expected_visible,
    visible_histogram,
)
from .errors import (
    BoxTooLarge,
    ConstantPolynomial,
    DegenerateReduction,
    EmptyPlan,
    GridOverflow,
    HypothesisViolated,
    IdenticallyZero,
    NonFiniteParameter,
    PolynomialParseError,
    UsageError,
    VisiblePointsError,
)
from .experiments import (
    DEFAULT_DELTAS,
    ConcentrationProfile,
    CountDeviation,
    DiscrepancyRecord,
    SweepFailure,
    SweepPoint,
    ZeroSetReport,
    concentration_profile,
    concentration_profiles,
    count_deviation,
    integer_zero_set,
    level_sweep,
    prime_sweep,
    run_sweep_series,
)
from .factor import (
    IrreducibilityVerdict,
    bad_level_values,
    is_absolutely_irreducible,
    is_irreducible_bivariate,
)
from .fields import (
    ExtensionField,
    PrimeField,
    univariate_roots,
)
from .output import (
    read_csv,
    records_to_csv,
    records_to_json,
    zero_reports_to_csv,
    zero_reports_to_json,
)
from .poly import IntBivariatePoly, ModBivariatePoly, parse_poly, reduce_mod

__version__ = "0.1.0"

__all__ = [
    "COPRIME_DENSITY",
    "DEFAULT_DELTAS",
    "BoxTooLarge",
    "ConcentrationProfile",
    "ConstantPolynomial",
    "CountBox",
    "CountDeviation",
    "DegenerateReduction",
    "DiscrepancyRecord",
    "EmptyPlan",
    "ExtensionField",
    "GridOverflow",
    "HypothesisViolated",
    "IdenticallyZero",
    "IntBivariatePoly",
    "IrreducibilityVerdict",
    "LevelCurveSpec",
    "MobiusTable",
    "ModBivariatePoly",
    "NonFiniteParameter",
    "PolynomialParseError",
    "PrimeField",
    "SweepFailure",
    "SweepPoint",
    "UsageError",
    "VisibleHistogram",
    "VisiblePointsError",
    "ZeroSetReport",
    "bad_level_values",
    "concentration_profile",
    "concentration_profiles",
    "count_deviation",
    "count_divisible",
    "count_level_points",
    "count_visible_by_prime",
    "count_visible_direct",
    "count_visible_mobius",
    "expected_visible",
    "integer_zero_set",
    "is_absolutely_irreducible",
    "is_irreducible_bivariate",
    "is_prime",
    "level_sweep",
    "mobius_sieve",
    "parse_poly",
    "prime_sweep",
    "primes_in_range",
    "read_csv",
    "records_to_csv",
    "records_to_json",
    "reduce_mod",
    "run_sweep_series",
    "univariate_roots",
    "visible_histogram",
    "zero_reports_to_csv",
    "zero_reports_to_json",
    "zeta2_inverse_partial",
]
