"""Distributed Nash equilibrium computation for two-subnetwork zero-sum
games over switching directed graphs."""

from .catalog import CATALOG, subnet1_objectives, subnet2_objectives
from .digraph import (GeometricRateBound, GraphSequenceSpec, LimitVector,
                      build_cycle_matrix, check_jointly_bipartite, check_ujsc,
                      disagreement_span, ergodicity_coefficient,
                      geometric_rate_bound, is_weight_balanced,
                      limiting_stochastic_vector, perron_vector,
                      transition_product, validate_weight_rule)
from .engine import Scenario, Trace, make_identical_scenario, run
from .errors import (NashnetError, NumericError, ParseError, ResourceError,
                     ValidationError)
from .exprs import (Abs, Affine, BoxSet, Const, Expr, Neg, Pow, Prod, Scale,
                    Sum, Var, compile_objective, evaluate, format_expr,
                    lipschitz_bound, parse_expr, project, sample_convexity,
                    subgradient_x, subgradient_y, x_var, y_var)
from .metrics import MetricsSeries, compute_metrics
from .saddle import (SaddleReport, WeightedObjective, centralized_saddle,
                     grid_minimax, unit_weighted, verify_saddle)
from .scenario_io import (bundled_scenario, load_scenario, loads_scenario,
                          metrics_to_csv, plotdata_to_csv, save_scenario,
                          trace_to_csv)
from .stepsizes import (AdaptiveCommonEigvec, AdaptivePeriodic, GammaSchedule,
                        Homogeneous, OracleHeterogeneous, learner_readouts,
                        oracle_heterogeneous_build, validate_schedule)

__version__ = "1.0.0"
