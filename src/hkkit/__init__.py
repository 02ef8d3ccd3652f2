"""Hilbert-Kunz functions of k[[x,y]]/(x^n - y^n), exactly.

The closed form HK(e) = n*p^e - b(n-b), with b = p^e mod n, drives tables
and period analysis; an independent Groebner-basis oracle recomputes the
same numbers as colengths so the two routes can be checked against each
other.  A constructive search produces rings with any prescribed period.
The `hkkit` console script exposes all of it.
"""

from .closed_form import (
    HKRecord,
    InvalidRingError,
    RingSpec,
    hk_table,
    hk_value,
    phi_value,
    residue_b,
    _lazy,
)
from .groebner import (
    BasisCheck,
    Monomial,
    PairBudgetExceededError,
    Q_CAP_DEFAULT,
    QCapExceededError,
    count_under_staircase,
    hk_brute,
    verify_closed_form_basis,
)
from .numtheory import (
    NoPrimesInClassError,
    NotAUnitError,
    find_prime_in_class,
    is_prime,
    multiplicative_order,
)
from .period import (
    Branch,
    PeriodReport,
    period_of,
)
from .realize import (
    RealizationResult,
    SearchExhausted,
    SearchStats,
    realize,
)

__version__ = "0.1.0"

# library-only code, which no command runs, is imported on first use
__getattr__ = _lazy(__name__, {
    "groebner_general": "CharacteristicMismatchError FpPoly GroebnerBasis buchberger "
                        "frobenius_power_generators s_polynomial",
    "period_verify": "PeriodCheck verify_minimal_period",
    "realize_census": "enumerate_realizations",
})

__all__ = [
    "BasisCheck",
    "Branch",
    "CharacteristicMismatchError",
    "FpPoly",
    "GroebnerBasis",
    "HKRecord",
    "InvalidRingError",
    "Monomial",
    "NoPrimesInClassError",
    "NotAUnitError",
    "PairBudgetExceededError",
    "PeriodCheck",
    "PeriodReport",
    "Q_CAP_DEFAULT",
    "QCapExceededError",
    "RealizationResult",
    "RingSpec",
    "SearchExhausted",
    "SearchStats",
    "buchberger",
    "count_under_staircase",
    "enumerate_realizations",
    "find_prime_in_class",
    "frobenius_power_generators",
    "hk_brute",
    "hk_table",
    "hk_value",
    "is_prime",
    "multiplicative_order",
    "period_of",
    "phi_value",
    "realize",
    "residue_b",
    "s_polynomial",
    "verify_closed_form_basis",
    "verify_minimal_period",
]
