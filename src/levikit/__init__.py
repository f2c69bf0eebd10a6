"""levikit: desk-scale pseudoconvexity classification for domains in C^n.

Symbolic Wirtinger calculus on expression trees, Levi-form eigenanalysis at
boundary points, plurisubharmonicity probes, logarithmic convexity of
Reinhardt domains, holomorphic disc continuity probes, and hull membership
with re-checkable certificates.
"""

from .calculus import (TaylorParts, complex_gradient, levi_matrix, levi_polynomial,
                       tangent_basis, taylor_decompose)
from .classify import (classify_domain, classify_point, log_distance_probe,
                       psh_test_circle_average, psh_test_spectral)
from .discs import (AffineDisc, continuity_probe, disc_max_principle_check,
                    hartogs_family)
from .domains import (Ball, Intersection, Polydisc, ReinhardtUnion, Sublevel,
                      WholeSpace, boundary_sample, contains,
                      distance_to_boundary, distances_to_boundary,
                      hartogs_figure, interior_sample, signed_distance)
from .errors import (ConfigError, DegenerateGradient, EvalDomainError,
                     ExprSyntaxError, FamilyLeavesDomain, LevikitError,
                     PointOutsideDomain, SamplingExhausted)
from .exhaustion import build_exhaustion, exhaustion_blowup_check, make_probe
from .expr import Expr, evaluate, parse, to_text, wirtinger
from .hulls import (affine_hull_membership, convex_hull_2d, hull_boundedness_check,
                    polynomial_hull_membership)
from .reinhardt import log_convexity_test, log_image_membership

__version__ = "0.1.0"
