"""Numerical laboratory for weighted flow averages on tracial matrix algebras.

The package models a direct sum of matrix blocks with a weighted trace,
semigroups of absolute contractions acting on it, time averages of the flow
with almost-periodic weights, and the projection-certificate machinery that
turns uniform compressed-norm statements into checkable artifacts.
"""

from .algebra import (
    AlgebraMismatchError,
    Operator,
    Projection,
    SpectralResolution,
    TracialAlgebra,
    abs_value,
    meet_all,
    min_eig,
    operator_from_dict,
    operator_to_dict,
    pnorm,
    proj_meet,
    random_operator,
    random_positive,
    random_projection,
    random_self_adjoint,
    spectral_projection,
    spectral_resolution,
    trace,
)
from .averaging import (
    BesicovitchWeight,
    QuadratureError,
    TrigTerm,
    besicovitch_error,
    cesaro_average,
    dense_approximant,
    sandwich_check,
    substitution_bound_check,
    trig_average,
    weighted_average,
)
from .banach import (
    ApproximationScheme,
    AssemblyCertificate,
    AssemblyError,
    ConditionOneOracle,
    MapFamily,
    assemble_certificate,
    cesaro_map_family,
    make_dense_certifier,
    make_maximal_oracle,
    scheme_from_semigroup,
)
from .bau import (
    MaximalParams,
    ProjectionCertificate,
    bau_cauchy_certify,
    double_average_certificate,
    lp_limit_check,
    maximal_projection,
    perturbation_transfer,
)
from .experiments import ExperimentConfig, RunReport, emit_plot_data, run
from .semigroups import (
    GeneratorExp,
    Identity,
    ScalarDecay,
    SchurDecay,
    Semigroup,
    UnitaryFlow,
    continuity_modulus,
    lindblad_generator,
    semigroup_from_config,
    semigroup_law_residual,
    validate_absolute_contraction,
)

__version__ = "0.1.0"
