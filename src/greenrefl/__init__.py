"""Exact computation of character tables, Hall-Littlewood functions, Kostka
matrices and Green functions for the complex reflection groups G(e,p,n) and
their twisted cosets.

Everything is computed over Q(zeta_e) and over rational functions in the
deformation parameter t, with no floating point anywhere; the golden tables
of the theory are reproduced exactly (see tests/test_acceptance.py).
"""

from .combinatorics import (
    CharParam,
    ClassParam,
    GroupParams,
    SimilarityPartition,
    Symbol,
    a_value,
    alpha_divide,
    alpha_truncate,
    delta,
    enumerate_char_params,
    enumerate_class_params,
    enumerate_epartitions,
    ep_str,
    f_invariant,
    make_symbol,
    orbit_data,
    similarity_order,
    theta,
)
from .exact_arith import (
    CycField,
    CycNum,
    TPoly,
    TRat,
    cyc_make,
    cyclotomic_polynomial,
)
from .gepn import (
    CosetTable,
    GreenSuite,
    ZCoset,
    clear_caches,
    coset_algebra,
    coset_char_table,
    fake_degrees,
    green_suite,
    kostka,
    kostka_gepn,
    z_coset,
)
from .symfunc import Level, level_for
from .wreath import (
    CharTable,
    LabeledMatrix,
    char_table,
    hl_data,
    z_series,
)

# the brute-force oracle (``oracle``) serves only ``verify`` and the tests,
# so its names are imported on first use (PEP 562), not with the package
_ORACLE_NAMES = ("BruteForceGroup", "GroupReport", "brute_force_oracle")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BruteForceGroup", "CharParam", "CharTable", "ClassParam", "CosetTable",
    "CycField", "CycNum", "GreenSuite", "GroupParams", "GroupReport",
    "LabeledMatrix", "Level", "SimilarityPartition", "Symbol",
    "TPoly", "TRat", "ZCoset", "a_value", "alpha_divide",
    "alpha_truncate", "brute_force_oracle", "char_table", "clear_caches",
    "coset_algebra", "coset_char_table", "cyc_make",
    "cyclotomic_polynomial", "delta", "enumerate_char_params",
    "enumerate_class_params", "enumerate_epartitions", "ep_str",
    "f_invariant", "fake_degrees", "green_suite",
    "hl_data", "kostka", "kostka_gepn", "level_for", "make_symbol",
    "orbit_data", "similarity_order", "theta", "z_coset", "z_series",
]
