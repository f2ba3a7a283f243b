"""Exact solver for the lifted disjoint paths problem.

Find minimum-cost node-disjoint source-to-sink paths in a DAG where, on top
of ordinary edge and node costs, *lifted* edges price whether two nodes end
up connected along the same path.  The solver is a cutting-plane loop around
a small exact binary-program core; around it live a brute-force oracle,
polynomial reductions from satisfiability and multicommodity flow, an
LP-bound analysis tool, and a multi-object tracking pipeline.
"""

from .bounds import ALL_FAMILIES, BudgetError, enumerate_family, lp_bound
from .constraints import (
    PathWitness,
    SolutionValues,
    build_flow_conservation,
    build_lifted_flow_inequalities,
    build_lifted_path_induced_cut,
    build_lifted_path_inequality,
    build_multicut_path_inequality,
    build_symmetric_cut,
    check_violation,
    witness_from_base_path,
)
from .driver import RoundStats, SolveResult, SolverConfig, certify, solve
from .instance import (
    SINK,
    SOURCE,
    FlowSolution,
    Instance,
    InstanceError,
    InstanceFormatError,
    InstanceValidationError,
    Reachability,
    active_st_paths,
    evaluate_objective,
    format_solution,
    lifted_labels_from_flow,
    parse_instance,
    parse_solution,
    serialize_instance,
    solution_from_paths,
)
from .milp import LinearConstraint, MilpError, VariableHandle, solve_binary, solve_lp
from .oracle import (
    EnumerationResult,
    OracleLimitError,
    all_st_paths,
    brute_force_optimum,
    enumerate_feasible,
)
from .reductions import (
    DecisionLimitError,
    McfProblem,
    McfReduction,
    ReductionError,
    SatReduction,
    decide_mcf,
    decide_sat,
    parse_dimacs,
    parse_mcf,
    reduce_mcf,
    reduce_sat,
)
from .separation import (
    SeparationReport,
    separate_lifted_cut,
    separate_lifted_path,
)
from .tracking import (
    CostTable,
    TrackingConfig,
    TrackingMetrics,
    TrackingResult,
    detection_objective,
    evaluate_tracking,
    format_tracks,
    parse_costs,
    parse_tracks,
    run_tracking,
    split_track,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # instance model
    "SOURCE",
    "SINK",
    "Instance",
    "InstanceError",
    "InstanceFormatError",
    "InstanceValidationError",
    "Reachability",
    "FlowSolution",
    "evaluate_objective",
    "active_st_paths",
    "lifted_labels_from_flow",
    "solution_from_paths",
    "parse_instance",
    "serialize_instance",
    "format_solution",
    "parse_solution",
    # binary-program core
    "VariableHandle",
    "LinearConstraint",
    "MilpError",
    "solve_lp",
    "solve_binary",
    # inequality builders
    "PathWitness",
    "SolutionValues",
    "witness_from_base_path",
    "check_violation",
    "build_flow_conservation",
    "build_multicut_path_inequality",
    "build_lifted_path_inequality",
    "build_lifted_path_induced_cut",
    "build_symmetric_cut",
    "build_lifted_flow_inequalities",
    # separation
    "SeparationReport",
    "separate_lifted_path",
    "separate_lifted_cut",
    # solver
    "SolverConfig",
    "RoundStats",
    "SolveResult",
    "solve",
    "certify",
    # oracle
    "OracleLimitError",
    "EnumerationResult",
    "all_st_paths",
    "enumerate_feasible",
    "brute_force_optimum",
    # reductions
    "ReductionError",
    "DecisionLimitError",
    "SatReduction",
    "reduce_sat",
    "decide_sat",
    "parse_dimacs",
    "McfProblem",
    "McfReduction",
    "parse_mcf",
    "reduce_mcf",
    "decide_mcf",
    # bounds
    "ALL_FAMILIES",
    "BudgetError",
    "enumerate_family",
    "lp_bound",
    # tracking
    "CostTable",
    "parse_costs",
    "TrackingConfig",
    "TrackingResult",
    "run_tracking",
    "detection_objective",
    "split_track",
    "format_tracks",
    "parse_tracks",
    "TrackingMetrics",
    "evaluate_tracking",
]
