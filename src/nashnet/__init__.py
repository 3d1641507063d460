"""Distributed Nash equilibrium computation for two-subnetwork zero-sum
games over switching directed graphs."""

from .digraph import (GeometricRateBound, GraphSequenceSpec, build_cycle_matrix,
                      check_jointly_bipartite, check_ujsc,
                      geometric_rate_bound, is_weight_balanced,
                      limiting_stochastic_vector, perron_vector,
                      transition_product, validate_weight_rule)
from .engine import Scenario, Trace, run
from .errors import (NashnetError, NumericError, ParseError, ResourceError,
                     ValidationError)
from .exprs import (Abs, BoxSet, Const, Expr, Pow, Prod, Sum, Var,
                    compile_objective, format_expr, parse_expr, sample_convexity)
from .metrics import MetricsSeries, compute_metrics
from .saddle import SaddleReport, WeightedObjective, grid_minimax, unit_weighted
from .scenario_io import (bundled_scenario, load_scenario, loads_scenario,
                          metrics_to_csv, plotdata_to_csv, save_scenario,
                          trace_to_csv)
from .stepsizes import (GammaSchedule, StepsizeRule, learner_readouts,
                        oracle_heterogeneous_build)

__version__ = "1.0.0"
