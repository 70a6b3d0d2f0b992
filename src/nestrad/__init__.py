"""Certified evaluation of nested and transfinite square-root radicals.

The package computes two-sided enclosures for radicals
sqrt(a_1 + sqrt(a_2 + ...)), including sequences that carry one coefficient
past every finite index (transfinite radicals), with explicit width bounds
driven by golden-ratio tail caps.  On top of the enclosure engine sit the
special function U(r) with its bracketed inverse, a tail-supremum estimator
that converts convergence moduli into certified intervals, and a generic
continued-function evaluator with iterated-ceiling error bounds.
"""

from .caps import SupQuery, sup_enclosure
from .contfn import ContinuedSpec, cf_error_bound, cf_eval, cf_limit
from .kappa import (
    DEFAULT_DEPTH_CAP,
    PHI,
    KappaResult,
    kappa_enclosure,
    kappa_limit,
)
from .nested import (
    ARCTAN,
    Enclosure,
    OuterFunction,
    nested_eval,
    sqrt_nested_scaled,
)
from .seqspec import (
    RAMANUJAN_SUP_BOUND,
    CapTableTail,
    ConstantNormalizedTail,
    ConstantRawTail,
    OmegaTail,
    RamanujanTail,
    SequenceSpec,
    SpecError,
    TailModel,
    ZeroTail,
    constant_normalized,
    constant_raw,
    explicit,
    golden,
    load_cap_table,
    make_family,
    parse_spec,
    power_tower,
    ramanujan,
)
from .ufunc import u_eval, u_inverse, u_spec, u_table

__version__ = "0.1.0"

__all__ = [
    "ARCTAN",
    "CapTableTail",
    "ConstantNormalizedTail",
    "ConstantRawTail",
    "ContinuedSpec",
    "DEFAULT_DEPTH_CAP",
    "Enclosure",
    "KappaResult",
    "OmegaTail",
    "OuterFunction",
    "PHI",
    "RAMANUJAN_SUP_BOUND",
    "RamanujanTail",
    "SequenceSpec",
    "SpecError",
    "SupQuery",
    "TailModel",
    "ZeroTail",
    "cf_error_bound",
    "cf_eval",
    "cf_limit",
    "constant_normalized",
    "constant_raw",
    "explicit",
    "golden",
    "kappa_enclosure",
    "kappa_limit",
    "load_cap_table",
    "make_family",
    "nested_eval",
    "parse_spec",
    "power_tower",
    "ramanujan",
    "sqrt_nested_scaled",
    "sup_enclosure",
    "u_eval",
    "u_inverse",
    "u_spec",
    "u_table",
]
