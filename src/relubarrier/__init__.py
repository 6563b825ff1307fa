"""Verification and falsification of rectifier-network barrier certificates.

The package takes a small feedforward network with rectifier activations
whose scalar output h defines a candidate invariant set {h >= 0} for a
continuous-time system x' = f(x), enumerates the linear regions crossed by
the zero level set, and decides — per region, from the patch's vertices
and rays or by interval branch-and-bound — whether the certificate
conditions hold, producing witnesses or exportable
SMT-LIB queries when they do not.
"""

__version__ = "0.1.0"

from .config import DEFAULT_CONFIG, VerifierConfig
from .errors import (CombinatorialBlowup, DimensionMismatch,
                     ExpressionError, ExpressionSyntaxError,
                     InfeasiblePolyhedron, MalformedProblem, MissingField,
                     NoRegions, NumericalFailure, OracleTooLarge,
                     ProblemFormatError, RelubarrierError, SearchExhausted,
                     UnknownIdentifier, UnsupportedDimension, VariableOutOfRange)
from .linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcome, lp_solve
from .expressions import DynamicsSystem, evaluate, interval_evaluate, parse_expression
from .network import ActivationIndicator, ReluNetwork, load_network, network_from_json
from .geometry import (Polyhedron, bounding_box, implicit_equalities, inscribed_ball,
                       remove_redundant)
from .regions import (EnumerationResult, ValidRegion, boundary_propagation,
                      brute_force_valid_regions, build_valid_region,
                      enumerate_level_set, find_initial_region, valid_test)
from .conditions import (FALSIFIED, UNKNOWN, VERIFIED, CertificateVerdict,
                         ConditionResult, RegionVerdict, check_initial_condition,
                         check_invariance, check_unsafe_condition,
                         verify_certificate)
from .smtlib import (SmtQuery, export_invariance, export_set_condition,
                     expr_to_smt, format_number)
from .problem import (EXIT_FAILURE, EXIT_FALSIFIED, EXIT_UNKNOWN,
                      EXIT_VERIFIED, LoadedProblem, ProblemSpec, build_report,
                      exit_code, load_problem, report_bytes_without_timings,
                      write_report)

__all__ = [
    "__version__",
    "VerifierConfig", "DEFAULT_CONFIG",
    "RelubarrierError", "MalformedProblem", "NumericalFailure",
    "DimensionMismatch", "CombinatorialBlowup", "InfeasiblePolyhedron",
    "OracleTooLarge", "SearchExhausted", "NoRegions",
    "ExpressionError", "ExpressionSyntaxError", "UnknownIdentifier",
    "VariableOutOfRange", "ProblemFormatError", "MissingField",
    "UnsupportedDimension",
    "LpOutcome", "lp_solve",
    "OPTIMAL", "INFEASIBLE", "UNBOUNDED",
    "parse_expression", "evaluate", "interval_evaluate",
    "DynamicsSystem",
    "ReluNetwork", "ActivationIndicator", "network_from_json", "load_network",
    "Polyhedron", "inscribed_ball",
    "implicit_equalities", "remove_redundant", "bounding_box",
    "valid_test", "build_valid_region", "ValidRegion",
    "EnumerationResult", "enumerate_level_set", "find_initial_region",
    "boundary_propagation", "brute_force_valid_regions",
    "VERIFIED", "FALSIFIED", "UNKNOWN", "RegionVerdict", "ConditionResult",
    "CertificateVerdict", "check_invariance", "check_initial_condition",
    "check_unsafe_condition", "verify_certificate",
    "SmtQuery", "export_invariance", "export_set_condition",
    "expr_to_smt",
    "format_number",
    "ProblemSpec", "LoadedProblem", "load_problem", "build_report",
    "exit_code", "report_bytes_without_timings", "write_report",
    "EXIT_VERIFIED", "EXIT_FALSIFIED", "EXIT_UNKNOWN", "EXIT_FAILURE",
]
