"""Numerical laboratory for constant-angle convex billiards.

Submodules:
    support_geometry  -- supporting functions, constant-angle tables, roots
    billiard2d        -- planar billiard map, generating function, rigidity
    billiard_nd       -- ellipsoid billiards in R^d, gradient contract, twist
    geodesic_chords   -- geodesics on a quadric, Frenet data, chord curves
    cli               -- command-line front end
    csvtext           -- the CLI's CSV text, '%.17g' per field
"""

from .errors import GutkinError
from .support_geometry import (SupportCurve, TrigPolynomial, build_gutkin_table,
                               check_constant_width, circle, solve_gutkin_angles,
                               support_from_radius)
from .billiard2d import (OrientedLine2D, Strip, reflect_geometric,
                         reflect_variational, rigidity_integral,
                         rigidity_integral_closed, verify_constant_angle)
from .billiard_nd import Quadric, gradient_contract_residual, sphere_quadric
from .geodesic_chords import (chord_correspondence, frenet_apparatus,
                              integrate_geodesic)

__all__ = [
    "GutkinError", "SupportCurve", "TrigPolynomial",
    "build_gutkin_table", "check_constant_width", "circle",
    "solve_gutkin_angles", "support_from_radius",
    "OrientedLine2D", "Strip", "reflect_geometric", "reflect_variational",
    "rigidity_integral", "rigidity_integral_closed", "verify_constant_angle",
    "Quadric", "gradient_contract_residual", "sphere_quadric",
    "chord_correspondence", "frenet_apparatus", "integrate_geodesic",
]

__version__ = "0.1.0"
