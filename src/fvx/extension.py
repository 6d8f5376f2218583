"""Explicit extended formulations for vertex sets with forbidden points.

Every builder returns a LinearSystem whose projection onto x1..xn is the
convex hull of the intended vertex set.  Size certificates are recorded in
meta["certified"] using the inequality-counting convention of
`LinearSystem.counted_inequalities`, and meta["counted"] always satisfies
counted <= certified.

The workhorse is the disjunctive (union) hull: per block it introduces one
copy of every block variable plus one multiplier, couples x to the sum of
the copies, and scales each block constraint by its multiplier.  Multiplier
upper bounds are implied by the convexity row and are deliberately not
stored, which keeps the certificates at one inequality per block.  Every
formulation, the box one of `fvx.integral` included, ends in
`union_formulation` over its (block, counted inequalities) pairs, so each
block is counted once and only the result is checked and counted again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .core import BinaryPoint, HPolytope
from .errors import (
    AllForbidden,
    CardinalityCap,
    DomainError,
    EmptyInterval,
    EmptyUnion,
    GuardExceeded,
    NoFaceExcludes,
)
from .exactlp import solve_lp
from .linsys import LinearSystem, intersect_bounds
from .separation import _Faces, separating_faces

#: Most certified inequalities `face_formulation` builds, |family| (counted(P)+1),
#: checked on the family's size before any face or block is built: an n=64
#: cube with 3,000 random forbidden points has about 155,000 faces (0.4 s to
#: count, 1.0 s to build), and its blocks ran out of memory after 51 s.
FACES_GUARD = 1_000_000


def disjunctive_hull(blocks: Sequence[LinearSystem]) -> LinearSystem:
    """Union hull of nonempty blocks over shared original variables x1..xn.

    Emptiness of blocks is the caller's responsibility; every internal caller
    constructs or probes blocks to be nonempty.  The certificate is the sum
    over blocks of (counted inequalities + 1).  A nonzero bound q of a block
    variable becomes the int row q.denominator copy - q.numerator lam, so
    every row is built in ints, in one pass over the blocks.
    """
    if not blocks:
        raise EmptyUnion("no blocks to take a union over")
    n = blocks[0].n_original
    if any(b.n_original != n for b in blocks):
        raise DomainError("blocks disagree on the original dimension")
    hull = _hull(blocks, [b.counted_inequalities() for b in blocks])
    return _finalize(hull, hull.meta)


def _hull(blocks: Sequence[LinearSystem], counts: Sequence[int]) -> LinearSystem:
    """`disjunctive_hull` of blocks over x1..xn with these counted inequalities,
    neither checked nor counted: each block row keeps its relation, each block
    bound becomes one row or bound of the same count, and each lam >= 0 adds
    one, so meta["counted"] is the certificate."""
    n = blocks[0].n_original
    variables: List[str] = [f"x{i + 1}" for i in range(n)]
    bounds = {}
    rows = []
    coupling = [{f"x{i + 1}": 1} for i in range(n)]  # x_i minus the sum of its copies

    for j, block in enumerate(blocks, start=1):
        lam = f"lam{j}"
        names = [f"b{j}_y{t + 1}" for t in range(len(block.variables))]
        variables.extend(names)
        variables.append(lam)
        bounds[lam] = (0, None)
        rename = dict(zip(block.variables, names))
        for coeffs, rel, rhs in block.rows:
            row = {rename[v]: a for v, a in coeffs.items() if a}
            if rhs:
                row[lam] = -rhs
            rows.append((row, rel, 0))
        for v in block.variables:
            lo, hi = block.bound(v)
            copy = rename[v]
            clo = chi = None
            if lo is not None and lo == hi:
                if not lo:
                    clo = chi = 0
                else:
                    rows.append(({copy: lo.denominator, lam: -lo.numerator}, "=", 0))
            else:
                if lo is not None:
                    if not lo:
                        clo = 0
                    else:
                        rows.append(({copy: lo.denominator, lam: -lo.numerator}, ">=", 0))
                if hi is not None:
                    if not hi:
                        chi = 0
                    else:
                        rows.append(({copy: hi.denominator, lam: -hi.numerator}, "<=", 0))
            if clo is not None or chi is not None:
                bounds[copy] = (clo, chi)
        for i, row in enumerate(coupling):
            row[names[i]] = -1

    rows.extend((row, "=", 0) for row in coupling)
    rows.append(({f"lam{j}": 1 for j in range(1, len(blocks) + 1)}, "=", 1))

    certified = sum(counts) + len(blocks)
    return LinearSystem._trusted(tuple(variables), n, tuple(rows), bounds,
                                 {"method": "disjunctive-hull", "blocks": len(blocks),
                                  "certified": certified,
                                  "formula": "sum over blocks of (counted+1)",
                                  "counted": certified, "raw_rows": len(rows)})


def union_formulation(pairs: Sequence[tuple], meta: dict, empty: str) -> LinearSystem:
    """The formulation of the union of the (block, counted inequalities)
    `pairs`, audited against `meta`.

    No block at all raises AllForbidden(`empty`); one block stays as it is,
    more are joined by `_hull`, and the result carries `meta` plus its
    counted inequalities and rows.
    """
    if not pairs:
        raise AllForbidden(empty)
    return _finalize(_nested(pairs)[0], meta)


def _nested(pairs: Sequence[tuple]) -> tuple:
    """(the union of the (block, count) pairs, its count): one block as it
    is, more joined by their unchecked `_hull`."""
    if len(pairs) == 1:
        return pairs[0]
    hull = _hull(*zip(*pairs))
    return hull, hull.meta["counted"]


def feasible_blocks(blocks: Iterable[LinearSystem]) -> Tuple[list, int]:
    """((block, counted inequalities) of each LP-feasible block in order, the
    number of infeasible blocks dropped)."""
    kept = []
    dropped = 0
    for block in blocks:
        if solve_lp(block, [0] * block.n_original).is_optimal:
            kept.append((block, block.counted_inequalities()))
        else:
            dropped += 1
    return kept, dropped


def _finalize(system: LinearSystem, meta: dict) -> LinearSystem:
    """`system` with `meta` plus its counted inequalities and rows, counted
    once, audited against meta["certified"] and built through the checking
    constructor."""
    meta = dict(meta)
    meta["counted"] = system.counted_inequalities()
    meta["raw_rows"] = len(system.rows)
    if meta["counted"] > meta.get("certified", meta["counted"]):
        raise AssertionError(
            f"size certificate violated: {meta['counted']} > {meta['certified']}")
    return LinearSystem(system.variables, system.n_original, system.rows, system.bounds, meta)


@dataclass(frozen=True)
class IntervalCode:
    """An inclusive interval [a, b] of positional codes in dimension n."""

    a: int
    b: int
    n: int

    @property
    def empty(self) -> bool:
        return self.b < self.a


def conv_K(code: IntervalCode) -> LinearSystem:
    """Hull of the binary points whose code lies in [a, b], in x-variables only.

    Uses the two O(n) facet families over the supports of the endpoint
    expansions, plus the cube bounds; no auxiliary variables.
    """
    n = code.n
    if code.empty:
        raise EmptyInterval(f"interval [{code.a}, {code.b}] is empty")
    if not (0 <= code.a and code.b < (1 << n)):
        raise DomainError(f"interval [{code.a}, {code.b}] out of range for n={n}")
    sup_a = {i for i in range(1, n + 1) if (code.a >> (i - 1)) & 1}
    sup_b = {i for i in range(1, n + 1) if (code.b >> (i - 1)) & 1}
    rows = []
    for i in sorted(sup_a):
        row = {f"x{i}": 1}
        for j in range(i + 1, n + 1):
            if j not in sup_a:
                row[f"x{j}"] = 1
        rows.append((row, ">=", 1))
    for i in range(1, n + 1):
        if i in sup_b:
            continue
        later = [j for j in sorted(sup_b) if j > i]
        row = {f"x{i}": 1}
        for j in later:
            row[f"x{j}"] = 1
        rows.append((row, "<=", len(later)))
    bounds = {f"x{i}": (0, 1) for i in range(1, n + 1)}
    meta = {"method": "conv-K", "a": code.a, "b": code.b, "certified": 4 * n, "formula": "4n"}
    return _finalize(LinearSystem._trusted(tuple(bounds), n, tuple(rows), bounds, meta), meta)


def interval_certificate(X: Iterable[BinaryPoint], n: int) -> int:
    """`interval_formulation`'s certificate (|X|+1)(4n+3), |X| counting
    distinct points, with no block built."""
    return (len(_Faces(n).codes(X)) + 1) * (4 * n + 3)


def interval_formulation(X: Iterable[BinaryPoint], n: int) -> LinearSystem:
    """Union-of-code-intervals formulation of the cube minus X.

    Sorts the forbidden codes, hulls the at most |X|+1 nonempty code
    intervals between them; certificate (|X|+1)(4n+3).
    """
    X = list(X)
    codes = sorted(_Faces(n).codes(X))
    boundaries = [-1] + codes + [1 << n]
    intervals = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if lo + 1 <= hi - 1:
            intervals.append(IntervalCode(lo + 1, hi - 1, n))
    meta = {"method": "interval", "n": n, "forbidden": len(codes),
            "intervals": [(c.a, c.b) for c in intervals],
            "certified": interval_certificate(X, n), "formula": "(|X|+1)(4n+3)"}
    blocks = [conv_K(code) for code in intervals]
    return union_formulation([(b, b.meta["counted"]) for b in blocks], meta,
                             "every binary point is forbidden")


def _point_system(code: int, n: int) -> LinearSystem:
    bounds = {f"x{i}": ((code >> (i - 1)) & 1,) * 2 for i in range(1, n + 1)}
    return LinearSystem(tuple(bounds), n, (), bounds, {"method": "point", "code": code})


def _extend_cube_coordinate(system: LinearSystem, k: int) -> LinearSystem:
    """Append x_k with bounds [0,1]: the formulation of (previous set) x {0,1};
    the rows are shared and not checked again."""
    variables = (system.variables[: k - 1] + (f"x{k}",) + system.variables[k - 1:])
    bounds = dict(system.bounds)
    bounds[f"x{k}"] = (0, 1)
    return system._derive(variables=variables, n_original=k, bounds=bounds)


def recursive_certificate(X: Iterable[BinaryPoint], n: int) -> int:
    """`recursive_formulation`'s certificate n(|X|+4), |X| counting distinct
    points, with no block built."""
    return n * (len(_Faces(n).codes(X)) + 4)


def recursive_formulation(X: Iterable[BinaryPoint], n: int) -> LinearSystem:
    """Dimension recursion: hull of [formulation(X') x {0,1}] and the flip set.

    X' is the projection dropping the last coordinate and the flip set
    collects the points whose last-coordinate flip is forbidden while they
    are not; each such point enters the hull as its own one-point block.
    Certificate n(|X|+4).  Each block's count is carried up the recursion
    (a point fixes every coordinate, x_k in [0,1] adds two, a hull counts
    its certificate), so the result alone is counted and checked.
    """
    X = list(X)
    codes = _Faces(n).codes(X)

    def blocks(bits: set, k: int) -> list:
        """(block, its counted inequalities) pairs whose union is {0,1}^k
        minus `bits`; none when that is empty."""
        if k == 1:
            allowed = sorted({0, 1} - bits)
            if not allowed:
                return []
            bound = (allowed[0], allowed[-1])
            return [(LinearSystem(("x1",), 1, (), {"x1": bound}, {"method": "recursive-base"}),
                     2 * (len(allowed) - 1))]
        top = 1 << (k - 1)
        proj = {b & (top - 1) for b in bits}
        flipped = {b ^ top for b in bits}
        out = []
        if len(proj) < top:
            inner, counted = _nested(blocks(proj, k - 1))
            out.append((_extend_cube_coordinate(inner, k), counted + 2))
        out.extend((_point_system(v, k), 0) for v in sorted(flipped - bits))
        return out

    meta = {"method": "recursive", "n": n, "forbidden": len(codes),
            "certified": recursive_certificate(X, n), "formula": "n(|X|+4)"}
    return union_formulation(blocks(codes, n), meta, "every binary point is forbidden")


def face_certificate(P: HPolytope, X: Iterable[BinaryPoint]) -> int:
    """`face_formulation`'s certificate |family| (counted(P)+1), counted(P)
    the inequality rows of P, with no face or block built."""
    return _Faces(P.n).count(X) * (sum(rel != "=" for _, rel, _ in P.rows) + 1)


def face_formulation(P: HPolytope, X: Iterable[BinaryPoint]) -> LinearSystem:
    """Hull of P restricted to each separating face of the forbidden set.

    One block per face: P's rows plus the face's coordinate fixings.  Sound
    for any bounded P with 0/1 vertices; empty face blocks contribute nothing
    because a bounded system has a trivial recession cone.  More than
    `FACES_GUARD` certified inequalities raise GuardExceeded before any
    face or block is built.
    """
    n = P.n
    pts = list(X)
    certified = face_certificate(P, pts)  # checks the points' dimension
    base = LinearSystem.from_hpolytope(P)
    counted = base.counted_inequalities()  # so does every block: a fixing counts zero
    if certified > FACES_GUARD:
        raise GuardExceeded(f"the faces formulation would certify {certified} inequalities "
                            f"({certified // (counted + 1)} faces), above the guard "
                            f"FACES_GUARD = {FACES_GUARD}")
    family = separating_faces(pts, n)
    blocks = []
    for face in family:
        overrides = {f"x{i}": (v, v) for i, v in face.fixed}
        blocks.append((base.with_bounds(overrides) if overrides else base, counted))
    meta = {"method": "faces", "n": n, "forbidden": len(pts),
            "family": len(family), "certified": certified,
            "formula": "|family| (counted(P)+1)"}
    return union_formulation(blocks, meta, "every binary point is forbidden")


#: the builders whose certificate has a closed form -> that form, which
#: takes the builder's own arguments
CERTIFICATES = {interval_formulation: interval_certificate,
                recursive_formulation: recursive_certificate,
                face_formulation: face_certificate}


def facet_intersection_formulation(P: HPolytope, facets: Sequence[int],
                                   X: Sequence[BinaryPoint]) -> LinearSystem:
    """Hull over intersections of facets that each exclude one removed vertex.

    For every removed vertex v_i, candidate facets are the listed rows v_i
    does not satisfy with equality; each tuple choosing one candidate per
    vertex is tightened to equalities, probed for feasibility, and the
    surviving faces are hulled.  Desk-scale cap |X| <= 2.
    """
    n = P.n
    pts = list(X)
    _Faces(n).codes(pts)  # checks the points' dimension
    if len(pts) > 2:
        raise CardinalityCap(f"facet-intersection supports |X| <= 2, got {len(pts)}")
    for idx in facets:
        if not 0 <= idx < len(P.rows):
            raise DomainError(f"facet index {idx} out of range")
        if P.rows[idx][1] == "=":
            raise DomainError(f"row {idx} is an equality; facets must be inequalities")

    excluding = []
    for v in pts:
        coords = v.coords()
        slack_rows = []
        for idx in facets:
            a, _, b = P.rows[idx]
            if sum(ai * vi for ai, vi in zip(a, coords) if vi) != b:
                slack_rows.append(idx)
        if not slack_rows:
            raise NoFaceExcludes(f"vertex {v.to_string()} lies on every listed facet")
        excluding.append(slack_rows)

    seen = set()
    faces = []
    for combo in itertools.product(*excluding):
        key = frozenset(combo)
        if key not in seen:
            seen.add(key)
            faces.append(sorted(key))
    candidates = len(faces)

    base = LinearSystem.from_hpolytope(P)

    def tightened(tight: list) -> LinearSystem:
        rows = tuple((coeffs, "=" if i in tight else rel, rhs)
                     for i, (coeffs, rel, rhs) in enumerate(base.rows))
        return LinearSystem(base.variables, n, rows, base.bounds,
                            {"method": "facet-face", "tight": tuple(tight)})

    blocks, dropped = feasible_blocks(tightened(tight) for tight in faces)
    meta = {"method": "facet-intersection", "n": n, "forbidden": len(pts),
            "candidate_faces": candidates, "kept_blocks": len(blocks),
            "dropped_blocks": dropped,
            "block_cap": len(facets) ** len(pts),
            "certified": sum(counted + 1 for _, counted in blocks),
            "formula": "sum over kept blocks of (counted+1)"}
    return union_formulation(blocks, meta,
                             "no facet intersection is feasible; nothing remains")


def intersect_systems(systems: Sequence[LinearSystem]) -> LinearSystem:
    """Conjunction of systems sharing x1..xn (auxiliaries kept disjoint).

    The projection is the intersection of the projections; used to check the
    independent-part intersection identity.
    """
    if not systems:
        raise DomainError("nothing to intersect")
    n = systems[0].n_original
    if any(s.n_original != n for s in systems):
        raise DomainError("systems disagree on the original dimension")
    variables = [f"x{i + 1}" for i in range(n)]
    originals = set(variables)
    rows = []
    bounds = {}
    for j, sys_j in enumerate(systems, start=1):
        rename = {}
        for v in sys_j.variables:
            rename[v] = v if v in originals else f"i{j}_{v}"
        for v in sys_j.variables[n:]:
            variables.append(rename[v])
        for coeffs, rel, rhs in sys_j.rows:
            rows.append(({rename[v]: a for v, a in coeffs.items() if a}, rel, rhs))
        for v, bound in sys_j.bounds.items():
            bounds[rename[v]] = intersect_bounds(bound, bounds.get(rename[v], (None, None)))
    return LinearSystem(tuple(variables), n, tuple(rows), bounds,
                        {"method": "intersection", "parts": len(systems)})
