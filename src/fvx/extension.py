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
stored, which keeps the certificates at one inequality per block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence

from .core import BinaryPoint, HPolytope
from .errors import (
    AllForbidden,
    CardinalityCap,
    DomainError,
    EmptyInterval,
    EmptyUnion,
    NoFaceExcludes,
)
from .exactlp import feasible_with_fixings
from .linsys import LinearSystem, intersect_bounds
from .separation import separating_faces


def disjunctive_hull(blocks: Sequence[LinearSystem]) -> LinearSystem:
    """Union hull of nonempty blocks over shared original variables x1..xn.

    Emptiness of blocks is the caller's responsibility; every internal caller
    constructs or probes blocks to be nonempty.  The certificate is the sum
    over blocks of (counted inequalities + 1).
    """
    if not blocks:
        raise EmptyUnion("no blocks to take a union over")
    n = blocks[0].n_original
    if any(b.n_original != n for b in blocks):
        raise DomainError("blocks disagree on the original dimension")

    variables: List[str] = [f"x{i + 1}" for i in range(n)]
    bounds = {}
    rows = []
    copy_names = []  # per block: list of copy variable names aligned with block vars

    for j, block in enumerate(blocks, start=1):
        names = [f"b{j}_y{t + 1}" for t in range(len(block.variables))]
        copy_names.append(names)
        variables.extend(names)
        variables.append(f"lam{j}")
        bounds[f"lam{j}"] = (Fraction(0), None)

    for j, block in enumerate(blocks, start=1):
        lam = f"lam{j}"
        rename = dict(zip(block.variables, copy_names[j - 1]))
        for coeffs, rel, rhs in block.rows:
            row = {rename[v]: a for v, a in coeffs.items()}
            if rhs:
                row[lam] = row.get(lam, 0) - rhs
            rows.append((row, rel, 0))
        for v in block.variables:
            lo, hi = block.bound(v)
            copy = rename[v]
            clo = chi = None
            if lo is not None and lo == hi:
                if lo == 0:
                    clo = chi = Fraction(0)
                else:
                    rows.append(({copy: 1, lam: -lo}, "=", 0))
            else:
                if lo is not None:
                    if lo == 0:
                        clo = Fraction(0)
                    else:
                        rows.append(({copy: 1, lam: -lo}, ">=", 0))
                if hi is not None:
                    if hi == 0:
                        chi = Fraction(0)
                    else:
                        rows.append(({copy: 1, lam: -hi}, "<=", 0))
            if clo is not None or chi is not None:
                bounds[copy] = (clo, chi)

    for i in range(1, n + 1):
        row = {f"x{i}": 1}
        for j in range(1, len(blocks) + 1):
            row[copy_names[j - 1][i - 1]] = -1
        rows.append((row, "=", 0))
    rows.append(({f"lam{j}": 1 for j in range(1, len(blocks) + 1)}, "=", 1))

    certified = sum(b.counted_inequalities() + 1 for b in blocks)
    system = LinearSystem.build(
        n, tuple(variables[n:]), rows, bounds,
        meta={"method": "disjunctive-hull", "blocks": len(blocks),
              "certified": certified,
              "formula": "sum over blocks of (counted+1)"},
    )
    return system.with_meta({**system.meta, "counted": system.counted_inequalities(),
                             "raw_rows": len(system.rows)})


def _finalize(system: LinearSystem, meta: dict) -> LinearSystem:
    meta = dict(meta)
    meta["counted"] = system.counted_inequalities()
    meta["raw_rows"] = len(system.rows)
    if meta["counted"] > meta.get("certified", meta["counted"]):
        raise AssertionError(
            f"size certificate violated: {meta['counted']} > {meta['certified']}")
    return system.with_meta(meta)


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
    bounds = {f"x{i}": (Fraction(0), Fraction(1)) for i in range(1, n + 1)}
    system = LinearSystem.build(n, (), rows, bounds,
                                meta={"method": "conv-K", "a": code.a, "b": code.b,
                                      "certified": 4 * n, "formula": "4n"})
    return _finalize(system, system.meta)


def interval_formulation(X: Iterable[BinaryPoint], n: int) -> LinearSystem:
    """Union-of-code-intervals formulation of the cube minus X.

    Sorts the forbidden codes, hulls the at most |X|+1 nonempty code
    intervals between them; certificate (|X|+1)(4n+3).
    """
    codes = sorted({p.bits for p in _check_points(X, n)})
    if len(codes) == 1 << n:
        raise AllForbidden("every binary point is forbidden")
    boundaries = [-1] + codes + [1 << n]
    intervals = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if lo + 1 <= hi - 1:
            intervals.append(IntervalCode(lo + 1, hi - 1, n))
    blocks = [conv_K(code) for code in intervals]
    system = blocks[0] if len(blocks) == 1 else disjunctive_hull(blocks)
    meta = {"method": "interval", "n": n, "forbidden": len(codes),
            "intervals": [(c.a, c.b) for c in intervals],
            "certified": (len(codes) + 1) * (4 * n + 3),
            "formula": "(|X|+1)(4n+3)"}
    return _finalize(system, meta)


def _check_points(X: Iterable[BinaryPoint], n: int) -> List[BinaryPoint]:
    pts = list(X)
    for p in pts:
        if p.n != n:
            raise DomainError(f"point of dimension {p.n} in dimension-{n} problem")
    return pts


def _point_system(code: int, n: int) -> LinearSystem:
    bounds = {f"x{i}": (Fraction((code >> (i - 1)) & 1),) * 2 for i in range(1, n + 1)}
    return LinearSystem.build(n, (), (), bounds, meta={"method": "point", "code": code})


def _extend_cube_coordinate(system: LinearSystem, k: int) -> LinearSystem:
    """Append x_k with bounds [0,1]: the formulation of (previous set) x {0,1}."""
    variables = (system.variables[: k - 1] + (f"x{k}",) + system.variables[k - 1:])
    bounds = dict(system.bounds)
    bounds[f"x{k}"] = (Fraction(0), Fraction(1))
    return LinearSystem(variables, k, system.rows, bounds, dict(system.meta))


def recursive_formulation(X: Iterable[BinaryPoint], n: int) -> LinearSystem:
    """Dimension recursion: hull of [formulation(X') x {0,1}] and the flip set.

    X' is the projection dropping the last coordinate and the flip set
    collects the points whose last-coordinate flip is forbidden while they
    are not; each such point enters the hull as its own one-point block.
    Certificate n(|X|+4).
    """
    codes = {p.bits for p in _check_points(X, n)}
    if len(codes) == 1 << n:
        raise AllForbidden("every binary point is forbidden")

    def recurse(bits: set, k: int) -> LinearSystem:
        if k == 1:
            if not bits:
                return LinearSystem.build(1, (), (), {"x1": (Fraction(0), Fraction(1))},
                                          meta={"method": "recursive-base"})
            (fixed,) = ({0, 1} - bits)
            return LinearSystem.build(1, (), (), {"x1": (Fraction(fixed),) * 2},
                                      meta={"method": "recursive-base"})
        top = 1 << (k - 1)
        proj = {b & (top - 1) for b in bits}
        flipped = {b ^ top for b in bits}
        hat = sorted(flipped - bits)
        blocks = []
        if len(proj) < top:
            blocks.append(_extend_cube_coordinate(recurse(proj, k - 1), k))
        blocks.extend(_point_system(v, k) for v in hat)
        if len(blocks) == 1:
            return blocks[0]
        return disjunctive_hull(blocks)

    system = recurse(codes, n)
    meta = {"method": "recursive", "n": n, "forbidden": len(codes),
            "certified": n * (len(codes) + 4), "formula": "n(|X|+4)"}
    return _finalize(system, meta)


def face_formulation(P: HPolytope, X: Iterable[BinaryPoint]) -> LinearSystem:
    """Hull of P restricted to each separating face of the forbidden set.

    One block per face: P's rows plus the face's coordinate fixings.  Sound
    for any bounded P with 0/1 vertices; empty face blocks contribute nothing
    because a bounded system has a trivial recession cone.
    """
    n = P.n
    pts = _check_points(X, n)
    family = separating_faces(pts, n)
    if not family.faces:
        raise AllForbidden("every binary point is forbidden")
    base = LinearSystem.from_hpolytope(P)
    blocks = []
    for face in family.faces:
        overrides = {f"x{i}": (Fraction(v), Fraction(v)) for i, v in face.fixed}
        blocks.append(base.with_bounds(overrides) if overrides else base)
    system = blocks[0] if len(blocks) == 1 else disjunctive_hull(blocks)
    base_count = base.counted_inequalities()
    meta = {"method": "faces", "n": n, "forbidden": len(pts),
            "family": len(family.faces),
            "certified": len(family.faces) * (base_count + 1),
            "formula": "|family| (counted(P)+1)"}
    return _finalize(system, meta)


def facet_intersection_formulation(P: HPolytope, facets: Sequence[int],
                                   X: Sequence[BinaryPoint]) -> LinearSystem:
    """Hull over intersections of facets that each exclude one removed vertex.

    For every removed vertex v_i, candidate facets are the listed rows v_i
    does not satisfy with equality; each tuple choosing one candidate per
    vertex is tightened to equalities, probed for feasibility, and the
    surviving faces are hulled.  Desk-scale cap |X| <= 2.
    """
    n = P.n
    pts = _check_points(X, n)
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
            a, rel, b = P.rows[idx]
            lhs = sum((ai * vi for ai, vi in zip(a, coords) if vi), start=Fraction(0))
            if lhs != b:
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
    blocks = []
    dropped = 0
    for tight in faces:
        rows = tuple(
            (coeffs, "=" if i in tight else rel, rhs)
            for i, (coeffs, rel, rhs) in enumerate(base.rows)
        )
        block = LinearSystem(base.variables, n, rows, base.bounds,
                             {"method": "facet-face", "tight": tuple(tight)})
        if feasible_with_fixings(block, {}):
            blocks.append(block)
        else:
            dropped += 1
    if not blocks:
        raise AllForbidden("no facet intersection is feasible; nothing remains")
    system = blocks[0] if len(blocks) == 1 else disjunctive_hull(blocks)
    meta = {"method": "facet-intersection", "n": n, "forbidden": len(pts),
            "candidate_faces": candidates, "kept_blocks": len(blocks),
            "dropped_blocks": dropped,
            "block_cap": len(facets) ** len(pts),
            "certified": sum(b.counted_inequalities() + 1 for b in blocks),
            "formula": "sum over kept blocks of (counted+1)"}
    return _finalize(system, meta)


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
            rows.append(({rename[v]: a for v, a in coeffs.items()}, rel, rhs))
        for v, bound in sys_j.bounds.items():
            bounds[rename[v]] = intersect_bounds(bound, bounds.get(rename[v], (None, None)))
    system = LinearSystem.build(n, tuple(variables[n:]), rows, bounds,
                                meta={"method": "intersection",
                                      "parts": len(systems)})
    return system
