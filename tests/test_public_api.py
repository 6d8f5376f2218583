"""The public surface of the `fvx` package: adding or deleting a name is a
deliberate edit of this list."""

import types

import fvx

PUBLIC = {
    # core
    "BinaryPoint", "CubeFace", "HPolytope", "LatticeBox", "LatticePoint", "Objective",
    "cube_hrep", "format_rational", "hamming_independent", "no_good_cut", "parse_rational",
    # alldiff
    "AlldiffInstance", "AlldiffResult", "CandidateGraph", "build_candidates",
    "min_weight_R_matching", "solve_alldiff",
    # exactlp
    "LpResult", "solve_lp",
    # extension
    "IntervalCode", "conv_K", "disjunctive_hull", "face_formulation",
    "facet_intersection_formulation", "intersect_systems", "interval_formulation",
    "recursive_formulation",
    # integral
    "forbI_formulation", "remove_facet_tu", "tu_check",
    # linsys, lp_format
    "LinearSystem", "parse_lp", "write_lp",
    # oracles
    "BinaryOracle", "CountingOracle", "IntegralOracle", "OracleOutcome",
    "brute_force_oracle", "cardinality_oracle", "cube_oracle", "hrep_binary_oracle",
    "lattice_box_oracle", "spanning_tree_oracle",
    # separation
    "kbest", "separating_faces", "solve_forbidden",
    # verify
    "VerificationReport", "in_convex_hull", "verify_formulation",
}


def test_exported_names():
    exported = {name for name, value in vars(fvx).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_each_name_comes_from_an_fvx_module():
    for name in PUBLIC:
        assert getattr(fvx, name).__module__.startswith("fvx."), name
