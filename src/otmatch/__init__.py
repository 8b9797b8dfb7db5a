"""Entropic optimal transport solvers built on semi-dual marginal matching.

The package solves discrete entropic transport problems by ascending the
semi-dual objective with a family of marginal-matching updates (classical
Sinkhorn, plain and kernel-smoothed gradient ascent, chi-square rescaled
ascent), sign-based steepest ascent with anchoring, and projected ascent
with optional momentum acceleration.  Supporting modules expose the
coupling-space projection/mirror views of the same updates, per-theorem
bound checkers, an accelerated mirror-flow integrator, and a 1-D diffusion
bridge demonstration.
"""

from .measures import (
    DiscreteMeasure,
    Instance,
    InstanceError,
    cost_matrix,
    load_instance,
    make_grid_measure,
)
from .semidual import (
    Coupling,
    coupling,
    first_variation,
    marginal_y,
    plus_transform,
    semidual_value,
)
from .kernels import Gram, KernelSpec, gram
from .solvers import (
    RunResult,
    SolverConfig,
    Trace,
    default_bound,
    lambda_bound,
    oracle_solve,
    run,
    t_next,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteMeasure",
    "Instance",
    "InstanceError",
    "cost_matrix",
    "load_instance",
    "make_grid_measure",
    "Coupling",
    "coupling",
    "first_variation",
    "marginal_y",
    "plus_transform",
    "semidual_value",
    "Gram",
    "KernelSpec",
    "gram",
    "RunResult",
    "SolverConfig",
    "Trace",
    "default_bound",
    "lambda_bound",
    "oracle_solve",
    "run",
    "t_next",
    "__version__",
]
