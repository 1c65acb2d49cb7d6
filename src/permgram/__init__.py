"""Exact workbench for a context-free-grammar calculus on permutation
statistics: a formal-derivative engine over Laurent polynomials, a
statistic oracle built from the definitions, exact rational series for
every closed form that admits one, and floating-point parabolic-cylinder
evaluation for the two that do not."""

from .algebra import AlgebraError, LaurentPoly, parse_poly
from .grammar import (Grammar, GrammarError, builtin, builtin_names, gen_coeffs,
                      gen_product, load_grammar, parse_grammar, resolve_grammar)
from .perms import (WALK_CAP, EnumerationCapError, Labeling, StatVector,
                    consecutive_count, enumerate_poly, insertion_children,
                    involution_count, label_exterior, label_peak, specialized_poly,
                    stats, triangle)
from .series import Series, exp_poly, hyp1f1_ct2, trig_sqrt
from .specialfn import pcf_d, rgamma
from .checks import Report, run_check, run_many

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "LaurentPoly", "parse_poly",
    "Grammar", "GrammarError", "builtin", "builtin_names",
    "gen_coeffs", "gen_product", "load_grammar", "parse_grammar", "resolve_grammar",
    "WALK_CAP", "EnumerationCapError", "Labeling", "StatVector",
    "consecutive_count", "enumerate_poly", "insertion_children", "involution_count",
    "label_exterior", "label_peak", "specialized_poly", "stats", "triangle",
    "Series", "exp_poly", "hyp1f1_ct2", "trig_sqrt",
    "pcf_d", "rgamma",
    "Report", "run_check", "run_many",
    "__version__",
]
