"""Hyperinterpolation on S^2 with quadrature rules that need not be exact."""

from .harmonics import (
    SPHERE_AREA,
    basis_indices,
    eval_basis_block,
    flat_index,
    kernel_dot,
    lb_eigenvalue,
)
from .pointsets import (
    QuadratureRule,
    bundled_tdesign_rule,
    bundled_tdesigns,
    equal_area,
    equal_weight_rule,
    load_pointset,
    product_gauss_rule,
    random_uniform,
    source_points,
    source_rule,
)
from .quadrature import (
    ExactnessReport,
    MZReport,
    apply,
    discrete_gram,
    exactness_degree,
    mz_constant,
    sample_values,
)
from .hyperinterp import (
    Hyperinterpolant,
    audited_fit,
    evaluate_block,
    evaluate_kernel,
    fit,
    project_reference,
    read_coeffs,
    write_coeffs,
)
from .testfuncs import FUNCTION_IDS, by_name, f1, f2, f3, f4, wendland_delta, wendland_phi
from .analysis import (
    RateFit,
    banach_algebra_diagnostic,
    fit_rate,
    l2_error,
    reference_rule_for,
    sobolev_norm,
    uniform_norm_estimate,
    uniform_norm_refined,
)
from .experiments import SCHEDULES, CellResult, SweepConfig, cell_seed, run_sweep

__version__ = "0.1.0"
