"""Multi-sample permutation and pooled-bootstrap resampling of empirical
processes, survival-analysis functionals with Hadamard derivative
operators, closed-form limit covariance kernels, and a Monte Carlo
verification harness for the conditional limit theorems."""

from .errors import (
    ContractError,
    DataError,
    DomainError,
    PermbootError,
    SingularityError,
)
from .stepfn import LEFT, RIGHT, Convention, StepFn, affine_combine, integral_curve, ls_integral
from .empirical import (
    LambdaVector,
    Mode,
    MultiSampleData,
    PooledData,
    at_risk_process,
    ecdf,
    group_ecdfs,
    pooled_ecdf,
    read_csv,
    uncensored_subdist,
    write_csv,
)
from .resampling import (
    ResampleDraw,
    ResampleKind,
    SeedSpec,
    all_permutations,
    centered_process,
    draw_bootstrap,
    draw_permutation,
    resampled_group_fns,
)
from .functionals import (
    HazardBundle,
    QuantileProblem,
    kaplan_meier,
    km_derivative,
    na_derivative,
    nelson_aalen,
    prodint_derivative,
    product_integral,
    quantile,
    quantile_derivative,
    restrict,
    rmst,
    wilcoxon,
    wilcoxon_curve,
    wilcoxon_derivative,
)
from .limits import (
    AnalyticSurvivalPopulation,
    EmpiricalSurvivalPopulation,
    KernelKind,
    PlainPopulation,
    assemble_kernel_matrix,
    bb_cov,
    boot_coeff,
    coeff_matrix,
    exponential_survival_population,
    indicator_kernel,
    km_kernel,
    na_kernel,
    perm_coeff,
    survival_cross_kernel,
)
from .verify import (
    ExperimentConfig,
    Law,
    LinearizationConfig,
    PiecewiseLinear,
    Scenario,
    ToleranceSpec,
    VerifyReport,
    conditional_cov_experiment,
    hadamard_ratio_check,
    increment_condition_probe,
    inverse_counterexample,
    linearization_residual_experiment,
    prodint_ratio_sequences,
    simulate_grid_gaussian,
    wilcoxon_ratio_sequences,
)

__version__ = "0.1.0"
