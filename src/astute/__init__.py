"""Factors of de Bruijn-like graphs: exact counting and extremal search.

G(n, k) is the tensor product of the order-n de Bruijn graph over a
b-symbol alphabet with a directed k-cycle.  This package enumerates the
factors generated by affine succession rules, counts their cycles by
four mutually checking routes, verifies the supporting transform and
ideal identities, and finds true extremal factors by exhaustive search
at small sizes.
"""

from .algebra import ModPoly, divisor_phis, poly_gcd, u_poly, x_pow_minus_one
from .counting import (CountReport, base_divisor, closed_form_icr,
                       closed_form_pcr, closed_form_xor, count_burnside_direct,
                       count_enumeration, count_theorem2)
from .errors import (AstuteError, BudgetExceeded, Inconclusive,
                     LeadingNotInvertible, NonIntegerResult, NotInvertible,
                     NotPcrOrbit, PreconditionViolated)
from .extremal import (ExtremalityReport, SearchBudget, SearchResult,
                       search_extremal, verify_theorem1)
from .graph import (Cycle, Factor, GraphParams, Vertex, factor_from_doc,
                    factor_json, successor_table, to_dot, validate_factor)
from .ideals import ideal_quotient_size, order_of_x
from .rules import (AffineRule, enumerate_factor, fix_count_bruteforce, icr,
                    parse_rule_spec, pcr, successor_array, xor_rule)
from .snf import smith_normal_form
from .spectral import (covering_check, cycle_sum_check, distinguished_code,
                       is_real_exact, rotation_identity_holds, transform)

__version__ = "0.1.0"
