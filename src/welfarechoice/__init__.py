"""Discrete choice models through welfare functions.

The central object is a welfare function w over deterministic utilities
whose gradient is the vector of choice probabilities. The package provides
closed-form models, representative-agent (regularized simplex) solvers,
numerical conversions among the equivalent representations, random-utility
simulation with consistency tests, substitutability analysis, model
composition operators, and a CLI.
"""

__version__ = "0.1.0"

from .core import (BracketError, NumericError, QuadratureError,
                   as_probability, as_utility, bisect_increasing,
                   finite_diff_gradient, integrate_1d, mixed_partial,
                   normal_quantile)
from .duality import (AnchorDistribution, ConvergenceError, anchor_family,
                      conjugate_V, invert_choice, semiparametric_sup,
                      simplex_grid, tabulated_welfare)
from .ram import (DegenerateRegularizerError, Marginal, Regularizer,
                  SolveResult, cmm_regularizer, custom_marginal,
                  entropy_regularizer, exponential_marginal,
                  log_barrier_regularizer, logistic_marginal, mdm_regularizer,
                  mmm_regularizer, normal_marginal, quadratic_regularizer,
                  ram_welfare, solve_ram, uniform_marginal, verify_kkt)
from .rum import (BinaryRUMConstruction, InvalidBinaryWelfareError,
                  NoiseSampler, SignTestReport, binary_rum_from_welfare,
                  degenerate_sampler, gumbel_sampler, logistic_sampler,
                  mc_choice_probs, mc_welfare, mc_welfare_model,
                  normal_sampler, rum_sign_test)
from .substitution import (COMPLEMENTARY, INDETERMINATE, SUBSTITUTABLE,
                           ModularityReport, PairClassification,
                           QuadraticCriterionReport, ReducedRegularizer,
                           SubstitutionReport, check_modularity, classify_pair,
                           corner_simplex_sampler, quadratic_criterion,
                           reduced_regularizer, scan_line,
                           substitutable_model_check, substitution_report,
                           utility_box_sampler)
from .transforms import MixtureComponent, cross, mix, scale
from .welfare import (AxiomReport, GEVGenerator, GeneratorInvalidError,
                      WelfareModel, check_axioms, check_generator_signs,
                      check_superlinear, gev_welfare, log_sum_welfare,
                      logsumexp, mnl_welfare, model_bounds,
                      nested_logit_welfare, pointwise, softmax)

__all__ = [name for name in dir() if not name.startswith("_")]
