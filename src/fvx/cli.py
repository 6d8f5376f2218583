"""Command-line interface: solve, kbest, alldiff, compile, verify, enumerate.

Problem files are JSON documents (see README for the schema).  All numeric
output is exact ("p/q" strings); every command is deterministic given the
file, flags, and seed.  Exit codes: 0 success / verification pass, 1 usage or
input error, 2 infeasible, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from .alldiff import AlldiffInstance, solve_alldiff
from .core import (
    BinaryPoint,
    HPolytope,
    LatticeBox,
    LatticePoint,
    Objective,
    cube_hrep,
    format_rational,
)
from .errors import FvxError, GuardExceeded, IncompatibleMethod
from .extension import (
    face_formulation,
    facet_intersection_formulation,
    interval_formulation,
    recursive_formulation,
)
from .integral import forbI_formulation
from .lp_format import parse_lp, write_lp
from .oracles import (
    _DSU,
    CountingOracle,
    cardinality_oracle,
    cube_oracle,
    hrep_binary_oracle,
    lattice_box_oracle,
    spanning_tree_oracle,
)
from .separation import kbest, solve_forbidden
from .verify import ENUM_GUARD_DIM, ENUM_GUARD_POINTS, MAX_TRIALS, verify_formulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

#: Largest k that `kbest` takes.  A split queries up to n pieces per answer,
#: so the work grows with k; at n=64, k = 5,000 took 1.3-4.7 s and at most
#: 90 MB on cube, cardinality and spanning-tree files (2 vCPU, Python 3.11).
KBEST_GUARD = 5_000

BINARY_METHODS = ("interval", "recursive", "faces", "facet-intersection")
ALL_METHODS = BINARY_METHODS + ("boxes",)


class InputError(FvxError):
    """Problem-file validation failure; the message names the field."""


def _fail(field: str, message: str):
    raise InputError(f"field '{field}': {message}")


def _require(doc: dict, field: str):
    if field not in doc:
        raise InputError(f"missing field '{field}'")
    return doc[field]


def _int_field(value, field: str, positive: bool = False) -> int:
    """`value` if it is a JSON integer; booleans are rejected, not read as 0/1."""
    if isinstance(value, bool) or not isinstance(value, int) or (positive and value < 1):
        _fail(field, "expected a positive integer" if positive else "expected an integer")
    return value


def _int_list(value, n: int, field: str) -> list:
    """`value` itself if it is a list of n JSON integers."""
    if not isinstance(value, list) or len(value) != n:
        _fail(field, f"expected {n} integers")
    for j, v in enumerate(value):
        if type(v) is not int:
            _int_field(v, f"{field}[{j}]")
    return value


def _box_of(n: int, spec: dict, field: str) -> LatticeBox:
    l = _int_list(spec.get("l"), n, f"{field}.l")
    u = _int_list(spec.get("u"), n, f"{field}.u")
    try:
        return LatticeBox.of(l, u)
    except FvxError as exc:
        _fail(field, str(exc))


def _parse_hrep(n: int, spec: dict, field: str) -> HPolytope:
    rows_doc = spec.get("rows")
    if not isinstance(rows_doc, list) or not rows_doc:
        _fail(f"{field}.rows", "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(rows_doc):
        if not isinstance(row, dict):
            _fail(f"{field}.rows[{i}]", "expected an object with 'a', 'rel', 'b'")
        a = row.get("a")
        if not isinstance(a, list) or len(a) != n:
            _fail(f"{field}.rows[{i}].a", f"expected {n} coefficients")
        rel = row.get("rel")
        if rel not in ("<=", "=", ">="):
            _fail(f"{field}.rows[{i}].rel", "expected one of '<=', '=', '>='")
        rows.append((a, rel, row.get("b")))
    try:
        return HPolytope(n, tuple(rows))
    except FvxError:
        # name the first row refused; each row is checked on its own
        for i, row in enumerate(rows):
            try:
                HPolytope(n, (row,))
            except FvxError as exc:
                _fail(f"{field}.rows[{i}]", str(exc))
        raise


# -- polytope types -------------------------------------------------------------

class PolytopeEntry(NamedTuple):
    """One validated `polytope` object.

    `oracle` (a builder, or None) and the vertex test `member` serve problems
    of `kind` only; `hpolytope` builds the explicit H-description, or is None
    when the type has none.
    """

    kind: str
    oracle: Optional[Callable[[], object]]
    hpolytope: Optional[Callable[[], HPolytope]]
    member: Callable[[object], bool]


def _cube(kind: str, n: int, spec: dict, field: str) -> PolytopeEntry:
    return PolytopeEntry("binary", lambda: cube_oracle(n), lambda: cube_hrep(n),
                         lambda p: True)


def _cardinality(kind: str, n: int, spec: dict, field: str) -> PolytopeEntry:
    s = _int_field(spec.get("s"), f"{field}.s")
    if not 0 <= s <= n:
        _fail(f"{field}.s", f"expected a target sum in 0..{n}")

    def hpolytope():
        return HPolytope(n, cube_hrep(n).rows + (((1,) * n, "=", s),))

    return PolytopeEntry("binary", lambda: cardinality_oracle(n, s), hpolytope,
                         lambda p: p.bits.bit_count() == s)


def _spanning_tree(kind: str, n: int, spec: dict, field: str) -> PolytopeEntry:
    nodes = _int_field(spec.get("nodes"), f"{field}.nodes", positive=True)
    edges = spec.get("edges")
    if not isinstance(edges, list) or len(edges) != n:
        _fail(f"{field}.edges", f"expected {n} edges (the dimension)")
    for i, edge in enumerate(edges):
        if not isinstance(edge, list) or len(edge) != 2 or not all(
                _int_field(v, f"{field}.edges[{i}]") in range(nodes) for v in edge):
            _fail(f"{field}.edges[{i}]", f"expected a pair [u, v] of node indices "
                                         f"in 0..{nodes - 1}")

    def member(p: BinaryPoint) -> bool:
        if p.bits.bit_count() != nodes - 1:
            return False
        dsu = _DSU(nodes)
        return all(dsu.union(*edges[e]) for e in range(n) if (p.bits >> e) & 1)

    return PolytopeEntry("binary",
                         lambda: spanning_tree_oracle(nodes, [tuple(e) for e in edges]),
                         None, member)


def _hrep(kind: str, n: int, spec: dict, field: str) -> PolytopeEntry:
    poly = _parse_hrep(n, spec, field)
    oracle = (lambda: hrep_binary_oracle(poly)) if kind == "binary" else None
    return PolytopeEntry(kind, oracle, lambda: poly, poly.satisfies)


def _lattice_box(kind: str, n: int, spec: dict, field: str) -> PolytopeEntry:
    box = _box_of(n, spec, field)

    def hpolytope():
        rows = []
        for i in range(n):
            a = tuple(int(j == i) for j in range(n))
            rows.append((a, ">=", box.l.coords[i]))
            rows.append((a, "<=", box.u.coords[i]))
        return HPolytope(n, tuple(rows))

    return PolytopeEntry("integral", lambda: lattice_box_oracle(box.l.coords, box.u.coords),
                         hpolytope, box.contains)


#: `polytope.type` -> validator building its entry from (kind, n, spec, field).
POLYTOPE_TYPES = {
    "cube": _cube,
    "cardinality": _cardinality,
    "spanning-tree": _spanning_tree,
    "hrep": _hrep,
    "lattice-box": _lattice_box,
}


class Problem:
    """A validated problem file."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise InputError("problem file must be a JSON object")
        self.kind = _require(doc, "kind")
        if self.kind not in ("binary", "integral"):
            _fail("kind", "expected 'binary' or 'integral'")
        self.n = _int_field(_require(doc, "n"), "n", positive=True)
        self.slots = doc.get("slots")
        if self.slots is not None:
            if not isinstance(self.slots, list) or not self.slots:
                _fail("slots", "expected a nonempty list")
            for i, slot in enumerate(self.slots):
                if not isinstance(slot, dict) or "polytope" not in slot:
                    _fail(f"slots[{i}]", "expected an object with 'polytope'")
        self.polytope = doc.get("polytope")
        if self.slots is None and self.polytope is None:
            raise InputError("missing field 'polytope'")
        self.entry = None if self.polytope is None else \
            self._polytope_entry(self.polytope, "polytope")
        self.facets = None if self.polytope is None else \
            self._parse_facets(self.polytope.get("facets"))
        self.slot_entries = [self._polytope_entry(slot["polytope"], f"slots[{i}].polytope")
                             for i, slot in enumerate(self.slots or ())]
        self.objective = None
        if "objective" in doc:
            self.objective = self._parse_objective(doc["objective"], "objective")
        self.forbidden = self._parse_forbidden(doc.get("forbidden", []))
        self.ambient = self._parse_ambient(doc.get("ambient"))
        self.k = doc.get("k")
        if self.k is not None:
            self.k = _int_field(self.k, "k", positive=True)

    def _polytope_entry(self, spec, field: str) -> PolytopeEntry:
        if not isinstance(spec, dict):
            _fail(field, "expected an object with 'type'")
        name = spec.get("type")
        build = POLYTOPE_TYPES.get(name) if isinstance(name, str) else None
        if build is None:
            _fail(f"{field}.type", f"unsupported polytope type {name!r}")
        return build(self.kind, self.n, spec, field)

    @staticmethod
    def _parse_facets(raw) -> Optional[list]:
        if raw is None:
            return None
        if not isinstance(raw, list):
            _fail("polytope.facets", "expected a list of row indices")
        return [_int_field(v, f"polytope.facets[{i}]") for i, v in enumerate(raw)]

    def _parse_objective(self, raw, field: str) -> Objective:
        if not isinstance(raw, list) or len(raw) != self.n:
            _fail(field, f"expected {self.n} rational entries")
        try:
            return Objective.of(raw)
        except FvxError as exc:
            _fail(field, str(exc))

    def _parse_forbidden(self, raw) -> list:
        if not isinstance(raw, list):
            _fail("forbidden", "expected a list")
        out = []
        for i, item in enumerate(raw):
            if self.kind == "integral":
                out.append(LatticePoint.unchecked(
                    tuple(_int_list(item, self.n, f"forbidden[{i}]"))))
                continue
            # a character other than 0 or 1 survives the strip; int(..., 2)
            # alone would also take "0_1", " 01" or a full-width digit
            if not isinstance(item, str) or len(item) != self.n or item.strip("01"):
                _fail(f"forbidden[{i}]", f"expected a bitstring of length {self.n}")
            out.append(BinaryPoint(self.n, int(item[::-1], 2)))
        return out

    def _parse_ambient(self, raw) -> Optional[LatticeBox]:
        if raw is None:
            if self.kind == "integral" and self.polytope \
                    and self.polytope.get("type") == "lattice-box":
                return _box_of(self.n, self.polytope, "polytope")
            return None
        if not isinstance(raw, dict):
            _fail("ambient", "expected an object with 'l' and 'u'")
        return _box_of(self.n, raw, "ambient")

    # -- oracle / polytope assembly -------------------------------------------

    def _entry(self, slot: Optional[int] = None, part: Optional[str] = None) -> PolytopeEntry:
        """The entry of the polytope or of slot `slot`, which must serve this
        problem's kind with `part` ("oracle" or "member") when one is named."""
        entry = self.entry if slot is None else self.slot_entries[slot]
        if entry is None:
            raise InputError("missing field 'polytope'")
        if part is not None and (entry.kind != self.kind or getattr(entry, part) is None):
            spec = self.polytope if slot is None else self.slots[slot]["polytope"]
            field = "polytope" if slot is None else f"slots[{slot}].polytope"
            _fail(f"{field}.type", f"type {spec['type']!r} has no {self.kind} {part}")
        return entry

    def oracle(self, slot: Optional[int] = None):
        """The optimization oracle of the polytope, or of slot `slot`."""
        return self._entry(slot, "oracle").oracle()

    def hpolytope(self) -> HPolytope:
        entry = self._entry()
        if entry.hpolytope is None:
            raise IncompatibleMethod(
                f"polytope type {self.polytope['type']!r} has no explicit H-description")
        return entry.hpolytope()

    # -- ground truth -----------------------------------------------------------

    def enumerate_allowed(self) -> list:
        """All allowed vertices (sorted lexicographically); guarded."""
        entry = self._entry(part="member")
        if self.kind == "binary":
            if self.n > ENUM_GUARD_DIM:
                raise GuardExceeded(
                    f"dimension {self.n} exceeds the enumeration guard {ENUM_GUARD_DIM}")
            candidates = (BinaryPoint(self.n, bits) for bits in range(1 << self.n))
        else:
            if self.ambient is None:
                _fail("ambient", "required to enumerate an integral problem")
            if self.ambient.lattice_count() > ENUM_GUARD_POINTS:
                raise GuardExceeded(
                    f"{self.ambient.lattice_count()} lattice points exceed the "
                    f"guard {ENUM_GUARD_POINTS}")
            candidates = self.ambient.iter_points()
        forbidden = set(self.forbidden)
        return sorted(p for p in candidates if p not in forbidden and entry.member(p))


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError, or an integer literal longer than the
        # interpreter converts; RecursionError: nesting deeper than the
        # decoder's recursion limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return Problem(doc)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _vertex_out(problem: Problem, vertex) -> object:
    if problem.kind == "binary":
        return vertex.to_string()
    return list(vertex.coords)


# -- commands -----------------------------------------------------------------

def cmd_solve(args) -> int:
    problem = load_problem(args.file)
    if problem.objective is None:
        raise InputError("missing field 'objective'")
    oracle = CountingOracle(problem.oracle())
    outcome = solve_forbidden(oracle, problem.forbidden, problem.objective,
                              problem.ambient)
    if not outcome.feasible:
        _emit({"status": "infeasible", "oracle_calls": oracle.calls})
        return EXIT_INFEASIBLE
    _emit({"status": "optimal",
           "value": format_rational(outcome.value),
           "vertex": _vertex_out(problem, outcome.vertex),
           "oracle_calls": oracle.calls})
    return EXIT_OK


def cmd_kbest(args) -> int:
    problem = load_problem(args.file)
    if problem.objective is None:
        raise InputError("missing field 'objective'")
    k = args.k if args.k is not None else problem.k
    if k is None:
        raise InputError("missing 'k' (flag -k or file field)")
    if k > KBEST_GUARD:
        raise GuardExceeded(f"k = {k} exceeds the kbest guard KBEST_GUARD = {KBEST_GUARD}")
    oracle = CountingOracle(problem.oracle())
    vertices, exhausted = kbest(oracle, problem.objective, k,
                                exclude=problem.forbidden, ambient=problem.ambient)
    _emit({"status": "ok",
           "vertices": [_vertex_out(problem, v) for v in vertices],
           "values": [format_rational(problem.objective.dot(v)) for v in vertices],
           "exhausted": exhausted,
           "oracle_calls": oracle.calls})
    return EXIT_OK


def cmd_alldiff(args) -> int:
    problem = load_problem(args.file)
    if problem.slots is None:
        raise InputError("missing field 'slots' (alldiff needs one entry per slot)")
    oracles = []
    objectives = []
    for i, slot in enumerate(problem.slots):
        oracles.append(problem.oracle(i))
        if "objective" not in slot:
            _fail(f"slots[{i}].objective", "missing")
        objectives.append(problem._parse_objective(slot["objective"],
                                                   f"slots[{i}].objective"))
    instance = AlldiffInstance(tuple(oracles), tuple(objectives),
                               ambient=problem.ambient)
    result = solve_alldiff(instance)
    if not result.feasible:
        _emit({"status": "infeasible"})
        return EXIT_INFEASIBLE
    _emit({"status": "optimal",
           "assignment": [_vertex_out(problem, v) for v in result.assignment],
           "values": [format_rational(c.dot(v))
                      for c, v in zip(objectives, result.assignment)],
           "total": format_rational(result.total)})
    return EXIT_OK


def compile_system(problem: Problem, method: str):
    if method not in ALL_METHODS:
        raise IncompatibleMethod(f"unknown method {method!r}")
    if problem.polytope is None:
        raise InputError("missing field 'polytope'")
    if method == "boxes":
        if problem.kind != "integral":
            raise IncompatibleMethod("method 'boxes' requires kind 'integral'")
        if problem.ambient is None:
            _fail("ambient", "required for method 'boxes'")
        return forbI_formulation(problem.hpolytope(), problem.forbidden,
                                 problem.ambient)
    if problem.kind != "binary":
        raise IncompatibleMethod(f"method '{method}' requires kind 'binary'")
    if method in ("interval", "recursive"):
        if problem.polytope.get("type") != "cube":
            raise IncompatibleMethod(
                f"method '{method}' requires the cube ambient polytope")
        builder = interval_formulation if method == "interval" else recursive_formulation
        return builder(problem.forbidden, problem.n)
    poly = problem.hpolytope()
    if method == "faces":
        return face_formulation(poly, problem.forbidden)
    facets = problem.facets
    if facets is None:  # the inequality rows: a vertex meets every equality row
        facets = [i for i, (_, rel, _) in enumerate(poly.rows) if rel != "="]
    return facet_intersection_formulation(poly, facets, problem.forbidden)


def cmd_compile(args) -> int:
    problem = load_problem(args.file)
    text = write_lp(compile_system(problem, args.method))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be nonnegative, got {args.trials}")
    if args.trials > MAX_TRIALS:  # before the --lp file is read or any compile
        raise GuardExceeded(f"--trials {args.trials} exceeds the trials guard "
                            f"MAX_TRIALS = {MAX_TRIALS}")
    problem = load_problem(args.file)
    truth = problem.enumerate_allowed()  # the guards refuse before any compile
    if problem.n > ENUM_GUARD_DIM:  # integral problems are enumerated by count alone
        raise GuardExceeded(
            f"dimension {problem.n} exceeds the enumeration guard {ENUM_GUARD_DIM}")
    if args.lp:
        try:
            with open(args.lp, "r", encoding="utf-8") as handle:
                system = parse_lp(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.lp}: {exc}") from exc
        if system.n_original != problem.n:
            raise InputError(f"{args.lp} has n_original={system.n_original}, "
                             f"but the problem has n={problem.n}")
    elif args.method:
        system = compile_system(problem, args.method)
    else:
        raise InputError("need --lp FILE or --method NAME to know what to verify")
    report = verify_formulation(system, truth, problem.forbidden,
                                trials=args.trials, seed=args.seed)
    _emit(report.to_dict())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_enumerate(args) -> int:
    problem = load_problem(args.file)
    allowed = problem.enumerate_allowed()
    _emit({"status": "ok",
           "count": len(allowed),
           "vertices": [_vertex_out(problem, v) for v in allowed]})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvx",
        description="Optimize over polytope vertices with forbidden points; "
                    "compile and verify extended formulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimize the objective over allowed vertices")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kbest", help="enumerate the k best vertices")
    p.add_argument("file")
    p.add_argument("-k", type=int, default=None, help="how many vertices")
    p.set_defaults(func=cmd_kbest)

    p = sub.add_parser("alldiff", help="one distinct vertex per slot, min total")
    p.add_argument("file")
    p.set_defaults(func=cmd_alldiff)

    p = sub.add_parser("compile", help="emit an extended formulation as an LP file")
    p.add_argument("file")
    p.add_argument("--method", required=True, choices=ALL_METHODS)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="check a formulation against ground truth")
    p.add_argument("file")
    p.add_argument("--lp", default=None, help="LP file to verify (else compile in-memory)")
    p.add_argument("--method", default=None, choices=ALL_METHODS)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="list all allowed vertices")
    p.add_argument("file")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FvxError as exc:
        _emit({"status": "error", "message": str(exc)})
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
