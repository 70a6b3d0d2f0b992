"""Certified evaluation of nested and transfinite square-root radicals.

The package computes two-sided enclosures for radicals
sqrt(a_1 + sqrt(a_2 + ...)), including sequences that carry one coefficient
past every finite index (transfinite radicals), with explicit width bounds
driven by golden-ratio tail caps.  On top of the enclosure engine sit the
special function U(r) with its bracketed inverse, a tail-supremum estimator
that converts convergence moduli into certified intervals, and a generic
continued-function evaluator that encloses the limit between two tail seeds.
"""

from . import caps, contfn, kappa, nested, seqspec, ufunc
from .caps import *
from .contfn import *
from .kappa import *
from .nested import *
from .seqspec import *
from .ufunc import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (caps, contfn, kappa, nested, seqspec, ufunc) for name in module.__all__)
