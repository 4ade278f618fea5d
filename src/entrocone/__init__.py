"""Constrained entropy inequalities: exact witnesses, cone certificates,
and numerical search over quantum states."""

__version__ = "0.1.0"

from .setfn import (
    GroundSet,
    SetFunction,
    cmi,
    complement_transform,
    is_monotone,
    is_submodular,
    is_weakly_monotone,
    monotone_repair,
)
from .inequalities import (
    InequalityTemplate,
    Instance,
    LinearFunctional,
    builtin,
    enumerate_instances,
    instantiate,
    satisfies,
)

from .witness import (
    closed_form_value,
    counterexample_table,
    make_witness_f,
    make_witness_g,
    verify_counterexample,
    verify_witness,
    witness_params,
)
from .certify import (
    Certificate,
    Feasible,
    Infeasible,
    cone_membership,
    independence_problem,
    purified_basic_problem,
    verify_certificate,
)
from .quantum import (
    FamilyDims,
    MultipartyState,
    check_theorem,
    constrained_family_sample,
    entropy_vector,
    lw05_family_sample,
    measure_and_register,
    partial_trace,
    purify,
    von_neumann_entropy,
)
from .search import SearchConfig, local_refine, random_scan


__all__ = [
    "GroundSet",
    "SetFunction",
    "cmi",
    "complement_transform",
    "is_monotone",
    "is_submodular",
    "is_weakly_monotone",
    "monotone_repair",
    "InequalityTemplate",
    "Instance",
    "LinearFunctional",
    "builtin",
    "enumerate_instances",
    "instantiate",
    "satisfies",
    "closed_form_value",
    "counterexample_table",
    "make_witness_f",
    "make_witness_g",
    "verify_counterexample",
    "verify_witness",
    "witness_params",
    "Certificate",
    "Feasible",
    "Infeasible",
    "cone_membership",
    "independence_problem",
    "purified_basic_problem",
    "verify_certificate",
    "FamilyDims",
    "MultipartyState",
    "check_theorem",
    "constrained_family_sample",
    "entropy_vector",
    "lw05_family_sample",
    "measure_and_register",
    "partial_trace",
    "purify",
    "von_neumann_entropy",
    "SearchConfig",
    "local_refine",
    "random_scan",
    "__version__",
]
