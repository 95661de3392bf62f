"""Traceless SU(2) character varieties of punctured spheres.

Unit-quaternion arithmetic (`quat`), representation classes and conjugacy
fingerprints (`rep`), sampling and local structure of the varieties
(`variety`), the 2-fold branched cover between the 6-punctured sphere and
the genus-2 surface varieties (`cover`), the exact local analysis at
the abelian singular points (`morse`), and keyed campaigns (`campaign`).
"""

from . import campaign, cli, cover, morse, quat, rep, selftest, variety
from .cover import (
    FiberReport,
    extend,
    fiber,
    fibers,
    lemma52_detailed,
    lifts,
    pushforward,
    pushforwards,
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
    link_samples,
    matrix_A,
    sample_link,
)
from .rep import (
    Fingerprint,
    PuncturedSphereRep,
    SurfaceRep,
    complete_rep,
    fingerprint,
    make_rep,
    make_reps,
    make_surface_rep,
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
    sample_points,
    sign_transport,
    submersion_certificate,
    submersion_certificates,
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
    "campaign",
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
    "fibers",
    "fingerprint",
    "lemma52_detailed",
    "lifts",
    "link_samples",
    "local_dimension",
    "make_rep",
    "make_reps",
    "make_surface_rep",
    "matrix_A",
    "morse",
    "pushforward",
    "pushforwards",
    "quat",
    "rep",
    "sample_link",
    "sample_point",
    "sample_points",
    "selftest",
    "sign_transport",
    "submersion_certificate",
    "submersion_certificates",
    "variety",
]
