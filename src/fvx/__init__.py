"""Optimization over polytope vertex sets with forbidden points.

Solvers for the forbidden-vertices / forbidden-vectors problems, k-best and
all-different built on top of them, compact extended formulations of the
remaining hulls, and an exact rational LP engine that verifies every
formulation against brute-force ground truth.
"""

from .core import (
    BinaryPoint,
    CubeFace,
    HPolytope,
    LatticeBox,
    LatticePoint,
    Objective,
    cube_hrep,
    format_rational,
    hamming_independent,
    no_good_cut,
    parse_rational,
)
from .alldiff import (
    AlldiffInstance,
    AlldiffResult,
    CandidateGraph,
    build_candidates,
    min_weight_R_matching,
    solve_alldiff,
)
from .exactlp import LpResult, solve_lp
from .extension import (
    IntervalCode,
    conv_K,
    disjunctive_hull,
    face_formulation,
    facet_intersection_formulation,
    intersect_systems,
    interval_formulation,
    recursive_formulation,
)
from .integral import (
    forbI_formulation,
    remove_facet_tu,
    tu_check,
)
from .linsys import LinearSystem
from .lp_format import parse_lp, write_lp
from .oracles import (
    BinaryOracle,
    CountingOracle,
    IntegralOracle,
    OracleOutcome,
    brute_force_oracle,
    cardinality_oracle,
    cube_oracle,
    hrep_binary_oracle,
    lattice_box_oracle,
    spanning_tree_oracle,
)
from .separation import (
    kbest,
    separating_faces,
    solve_forbidden,
)
from .verify import VerificationReport, in_convex_hull, verify_formulation

__version__ = "0.1.0"
