"""Monte-Carlo and series evaluators for hypergeometric functions of
matrix argument, with the root-system geometry behind their bounds.

scipy.special is imported inside the few functions that call it, so
importing the package does not load scipy."""

from .algebra import field_dim
from .bessel import bessel_index, bessel_phi_tilde, bessel_series, jack_C
from .experiments import (boundedness_sweep, contraction_experiment,
                          moment_decay_experiment, rate_p_experiment)
from .hyper_bc import (McEstimate, PoleError, c_function, eval_phi_bc,
                       eval_phi_bc_quadrature_q1, eval_ho_polynomial,
                       eval_psi, multiplicity_bc, rho_a, rho_bc, rho_k)
from .sampling import kappa
from .weyl import (OrbitPolytope, RootSystemSpec, chamber_project,
                   eps0_estimate, hull_membership, lemma44_check, orbit,
                   polytope_contains, polytope_vertices_K, prop65_check)

__version__ = "0.1.0"

__all__ = [
    "field_dim",
    "bessel_index", "bessel_phi_tilde", "bessel_series", "jack_C",
    "boundedness_sweep", "contraction_experiment",
    "moment_decay_experiment", "rate_p_experiment",
    "McEstimate", "PoleError", "c_function", "eval_phi_bc",
    "eval_phi_bc_quadrature_q1", "eval_ho_polynomial", "multiplicity_bc",
    "rho_bc", "rho_k",
    "kappa",
    "eval_psi", "rho_a",
    "OrbitPolytope", "RootSystemSpec", "chamber_project", "eps0_estimate",
    "hull_membership", "lemma44_check", "orbit", "polytope_contains",
    "polytope_vertices_K", "prop65_check",
]
