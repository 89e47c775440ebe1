"""Exact computation of quadric degeneracy-locus classes and the divisor
classes and slopes they induce on moduli spaces."""

from .algebra import (
    DenominatorSurvives,
    DivisionNotExact,
    ExponentOverflow,
    NotSymmetric,
    Polynomial,
    QQ,
    RationalFunction,
    sum_fractions,
    symmetric_reduce,
)
from .symfunc import a_const, b_const, schur, sym_degeneracy_class
from .loci import (
    NotDivisorial,
    PreconditionViolated,
    ScalarConditionViolated,
    ScalarData,
    closed_divisor_class,
    divisorial_combination,
    divisorial_f,
    fixed_point_restriction,
    localization_class,
    pencil_class_quot,
    pencil_class_sub,
    projectivize,
    residue_class,
    residue_divisor_class,
)
from .grr import (
    FiberRuleTable,
    MissingRule,
    TautClass,
    curve_rules,
    grr_c1,
    hurwitz_sheaf_chern,
    jet_porteous_d3,
    k3_rules,
    line_bundle_ch,
    lm_lambda_relation,
)
from .moduli import (
    ModuliDivisor,
    SeriesParams,
    dp12_slope,
    fit_calibration,
    hurwitz_report,
    k3_rank4_class,
    known_divisor,
    kosz_class,
    pelda_slope,
    petri_class,
    petri_decomposition_report,
    series_params,
    virtual_slope_from_pushforward,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
