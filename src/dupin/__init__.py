"""Computational toolkit for Dupin surfaces across the space-form, Moebius,
and Lie sphere geometries: canonical isoparametric surfaces, numerically
verified moving-frame computations, coset-orbit surfaces, and mesh export."""

from . import metrics, spaceforms, surfaces, frames, moebius, liesphere, export, verify
from .metrics import (
    Metric,
    ProjectivePoint,
    SubalgebraBasis,
    inner,
    change_basis,
    group_residual,
    algebra_residual,
    mat_exp,
    subalgebra_from_constraints,
)
from .spaceforms import (
    stereo,
    stereo_inv,
    hyp_stereo,
    hyp_stereo_inv,
    poincare_factor,
    embed_moebius,
    group_embed,
)
from .surfaces import (
    ParamDomain,
    ParametricSurface,
    Jet,
    CurvatureData,
    torus,
    hyperboloid,
    cylinder,
    pushforward,
    fundamental_forms,
    principal_curvatures,
    classify,
    euclidean_best_frame,
    dupin_pde_residual,
)
from .frames import (
    FrameField,
    MCForm,
    pullback_mc,
    structure_residual,
    congruence_test,
    integrate_mc,
)
from .moebius import (
    OrientedSphere,
    sphere_to_vec,
    vec_to_sphere,
    tangent_sphere,
    curvature_sphere_params,
    sphere_map_dupin_test,
    canonical_best_frame,
    frame_order_check,
    hc_basis,
    hc_orbit,
)
from .liesphere import (
    PencilLine,
    LegendreMap,
    make_line,
    include_sphere,
    include_point,
    spherical_projection,
    legendre_lift,
    contact_residual,
    example_lambda,
    legendre_dupin_test,
    h_basis,
    boost,
    coset_orbit,
    fig7_pipeline,
    best_lie_frame_check,
)

__version__ = "0.1.0"
