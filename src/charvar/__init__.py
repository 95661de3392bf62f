"""Traceless SU(2) character varieties of punctured spheres.

Unit-quaternion arithmetic (`quat`), representation classes and conjugacy
fingerprints (`rep`), sampling and local structure of the varieties
(`variety`), the 2-fold branched cover between the 6-punctured sphere and
the genus-2 surface varieties (`cover`), and the exact local analysis at
the abelian singular points (`morse`).
"""

from . import cli, cover, morse, quat, rep, selftest, variety
from .cover import (
    FiberReport,
    extend,
    fiber,
    lemma52_detailed,
    pushforward,
    surface_sample,
)
from .errors import (
    AbelianInput,
    ConstraintViolated,
    NotBinaryDihedral,
    NotTraceless,
    ProductNotIdentity,
    RelationViolated,
)
from .morse import (
    HessianReport,
    certify_hessian_combinatorics,
    certify_hessian_numeric,
    eval_chart_g,
    matrix_A,
    sample_link,
)
from .rep import (
    Fingerprint,
    PuncturedSphereRep,
    SurfaceRep,
    TorusCoords,
    alpha_star,
    bd_from_torus,
    complete_rep,
    fingerprint,
    make_rep,
    make_surface_rep,
    torus_from_bd,
)
from .variety import (
    LocusLabel,
    SubmersionCertificate,
    classify_locus,
    conjugator_search,
    enumerate_abelian,
    eval_f,
    local_dimension,
    sample_point,
    sign_transport,
    submersion_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianInput",
    "ConstraintViolated",
    "FiberReport",
    "Fingerprint",
    "HessianReport",
    "LocusLabel",
    "NotBinaryDihedral",
    "NotTraceless",
    "ProductNotIdentity",
    "PuncturedSphereRep",
    "RelationViolated",
    "SubmersionCertificate",
    "SurfaceRep",
    "TorusCoords",
    "alpha_star",
    "bd_from_torus",
    "certify_hessian_combinatorics",
    "certify_hessian_numeric",
    "classify_locus",
    "cli",
    "complete_rep",
    "conjugator_search",
    "cover",
    "enumerate_abelian",
    "eval_chart_g",
    "eval_f",
    "extend",
    "fiber",
    "fingerprint",
    "lemma52_detailed",
    "local_dimension",
    "make_rep",
    "make_surface_rep",
    "matrix_A",
    "morse",
    "pushforward",
    "quat",
    "rep",
    "sample_link",
    "sample_point",
    "selftest",
    "sign_transport",
    "submersion_certificate",
    "surface_sample",
    "torus_from_bd",
    "variety",
]
