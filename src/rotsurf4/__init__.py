"""rotsurf4: curvature invariants of two-plane rotational surfaces in 4-space.

The package computes the metric and curvature data of surfaces swept by a
plane meridian rotating with two independent speeds in two orthogonal
coordinate planes of R^4, cross-validates the closed forms against a
generic finite-difference pipeline, and generates the minimal
super-conformal members of the family (power-law meridians).
"""

from .expr import (Binary, Constant, EvalDomainError, Expr, ExprSyntaxError,
                   Interval, Profile, Unary, UnknownIdentifierError, Variable,
                   differentiate, evaluate, parse, unparse)
from .forms import (Christoffel, CircleReport, FirstForm, FrameError,
                    InvariantRecord, NonFiniteInvariantError, PointType,
                    SecondForm, SecondTensor,
                    christoffel, classify, ellipse_samples, first_form,
                    gauss_curvature, generic_at, generic_invariants,
                    invariants, is_circle, is_minimal, is_principal_params,
                    is_superconformal, lmn, mean_curvature_vector,
                    second_form_value, second_tensor, superconformal_residuals,
                    superconformal_verdict)
from .geometry import (DegenerateMetricError, GeometryError, Jet2,
                       RegularityError, Vec4, analytic_jet2, cross4, det4,
                       dot, fd_jet2, gram_schmidt_normals, norm)
from .msc import (MscParams, identity_profile, msc_invariants, msc_profile,
                  msc_profile_text, msc_residual, msc_surface,
                  power_law_invariants, scaled_msc_residual)
from .octet import (FrenetOctet, NonPrincipalParamsError, TotallyGeodesicError,
                    gauge_flip, invariants_from_octet, octet_generic)
from .rotational import (ClosedFormRangeError, CurveCurvatures,
                         DegenerateCurveError, RotationalSurface,
                         closed_forms_at,
                         closed_invariants_at, closed_octet_at,
                         curve_frenet_oracle, frames_at, meridian_curvature,
                         vline_curvatures, vline_derivatives)

__version__ = "0.1.0"
