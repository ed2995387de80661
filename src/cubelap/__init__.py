"""cubelap: certified spectral solving of a sixth-order nonlocal model.

The equation evolves a density u(x, t) on the line under sixth-order
diffusion, drift, linear growth and a nonlocal reaction term (a convolution
kernel applied to a pointwise reaction rate). The package provides

  * the periodic spectral discretization and the norms of the analysis
    (``grid``),
  * the kernel / nonlinearity catalogs with their structural checks
    (``model``),
  * the quantitative contraction certificate and window scheduling
    (``certify``),
  * the mild-solution map, Picard fixed-point solver, independent
    cross-validation marcher and windowed global solve (``evolve``),
  * a declarative batch runner with auditable artifacts (``runner``).
"""

from .certify import (
    Certificate,
    NoAdmissibleWindow,
    WindowSchedule,
    certificate_report,
    contraction_constant,
    max_window,
    window_schedule,
)
from .evolve import (
    CertificateRefusedError,
    ContractionRatioError,
    MarchWindowError,
    PicardConvergenceError,
    PicardTrace,
    ReferenceInstabilityError,
    SolveReport,
    SolverError,
    build_symbol,
    duhamel_map,
    etd_reference_solve,
    global_march,
    phi1,
    phi2,
    picard_solve,
    propagate,
    time_derivative,
)
from .grid import (
    CORE_FRACTION,
    Field,
    RepresentationError,
    SpacetimeField,
    SpectralGrid,
    TAIL_TOL,
    field_from_function,
    forward_transform,
    h6_norm,
    inverse_transform,
    l1_norm,
    l2_norm,
    make_grid,
    spacetime_sobolev_norm,
    spectral_derivative,
    tail_mass_fraction,
    to_physical,
    to_spectral,
    transform_linf_bound,
)
from .model import (
    AssumptionViolation,
    KernelAssumptionError,
    KernelSpec,
    KernelValidationReport,
    LipschitzDeclarationError,
    ModelEvaluationError,
    NonlinearitySpec,
    ProblemSpec,
    apply_nonlinearity,
    bandlimited_kernel,
    check_lipschitz_sampling,
    gaussian_kernel,
    kernel_strength,
    linear_plus_source,
    logistic_clip,
    nontriviality_overlap,
    saturating,
    sech_kernel,
    source_bandlimited,
    source_gaussian,
    source_zero,
    tabulated_kernel,
    tabulated_kernel_from_csv,
    validate_kernel,
)
from .runner import (
    ConfigError,
    RunArtifacts,
    RunConfig,
    build_problem,
    emit_plot_data,
    parse_config,
    run,
)
from .storage import dump_spacetime_field, load_spacetime_field

__version__ = "0.1.0"
