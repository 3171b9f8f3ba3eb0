"""Monte Carlo machinery for sub-Laplacian diffusions on CR manifolds.

The package simulates the horizontal diffusion on the unitary frame
bundle of a strictly pseudoconvex CR manifold and post-processes the
paths into heat-semigroup averages, heat-kernel density estimates,
stochastic line integrals, bracket-generation diagnostics, and exit-time
solutions of the Dirichlet problem.  The Heisenberg group ships as the
exactly solvable reference model.
"""

from .models import (
    ChartBoundsError,
    ModelDescriptor,
    ValidationReport,
    gauge_rotated_model,
    heisenberg_model,
    phase_rotated_heisenberg,
    validate_model,
)
from .frame_bundle import FrameState, reunitarize
from .sde import (
    Ensemble,
    Path,
    SimConfig,
    simulate_ensemble,
    simulate_path,
    step,
)
from .observables import (
    CharFn,
    DensityEstimate,
    OneForm,
    SemigroupAverage,
    char_function,
    coordinate_form,
    estimate_density,
    form_dt,
    form_du,
    form_dv,
    ks_distance,
    line_integral,
    line_integral_ensemble,
    semigroup_average,
    theta_form,
)
from .brackets import (
    BracketTable,
    apply_generator,
    lie_bracket,
    phi_functional,
    smoothness_condition,
    span_rank,
)
from .dirichlet import (
    Domain,
    ExitRecord,
    exit_sample,
    koranyi_ball,
    mean_exit_time,
    regularity_probe,
    sample_exits,
    solve_dirichlet,
)

__version__ = "0.1.0"
