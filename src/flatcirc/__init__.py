"""Exact-arithmetic workbench for products on formal neighborhoods.

Everything is computed over the rationals on truncated multivariate power
series with explicit trustworthy-degree bookkeeping; there is no floating
point anywhere in a residual check.
"""

__version__ = "0.1.0"

from .series import (DimensionMismatchError, NonUnitError, NotClosedError,
                     TruncatedSeries, exp_series, primitive_of_closed_family)
from .geometry import (EndField, FlatnessError, HiggsField, VectorField,
                       Verdict, covariant_derivative, judge, lie_bracket,
                       pencil_curvature_split, torsion)
from .fmanifold import (find_identity, five_term_residual, l_membership,
                        nabla_e_e_mode, potential_to_structure)
from .euler import (EulerField, certify_euler,
                    e_equation_residual, euler_residual, flat_compat,
                    full_flatness_residual, geometric_inverse, h_from_e)
from .duality import (DualityPair, circ_inverse, dual_structure,
                      duality_verify, flat_section_solve, primitive_section)
from .permutofan import (Cone, FanReport, OrderedPartition, concat_product,
                         cone_of_partition, enumerate_partitions,
                         fubini_number, good_family, locate_point, sn_action,
                         verify_fan)
from .correlators import (CorrelatorFamily, b_from_correlators,
                          correlators_from_b, master_equation_residual,
                          structure_from_b)
from .expr import ExprError, parse_series
from .models import ModelDocument, ModelInstance, load_model
from .checks import CheckResult, SuiteReport, run_check_suite

__all__ = [name for name in dir() if not name.startswith("_")]
