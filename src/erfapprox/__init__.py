"""Error-function based neural network approximation operators and a
verification harness for their quantitative error bounds."""

from .bounds import BoundReport, GridPolicy, fit_rate, verify
from .errors import ErfApproxError
from .fractional import FractionalSpec, caputo, gamma_fn
from .funcs import ComplexFunctionSpec, FunctionSpec
from .harness import ExperimentConfig, run_partition_check, run_verify
from .modulus import ModulusQuery, evaluate_modulus, omega1
from .operators import OperatorConfig, QuadratureWeights, apply_operator
from .partition import chi_integral, partition_sum, tail_bound, tail_core, tail_sum
from .special_functions import CHI_AT_ONE, CHI_AT_ZERO, INV_CHI_AT_ONE, chi, erf

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "GridPolicy", "fit_rate", "verify",
    "ErfApproxError",
    "FractionalSpec", "caputo", "gamma_fn",
    "ComplexFunctionSpec", "FunctionSpec",
    "ExperimentConfig", "run_partition_check", "run_verify",
    "ModulusQuery", "evaluate_modulus", "omega1",
    "OperatorConfig", "QuadratureWeights", "apply_operator",
    "chi_integral", "partition_sum", "tail_bound", "tail_core", "tail_sum",
    "CHI_AT_ONE", "CHI_AT_ZERO", "INV_CHI_AT_ONE", "chi", "erf",
    "__version__",
]
