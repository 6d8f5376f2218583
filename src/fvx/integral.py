"""Integral polytopes: box decomposition, removal of lattice points, TU rules.

The complement of a forbidden set X inside an integer lattice
{0..r1-1} x ... x {0..rn-1} decomposes into at most 2n|X| disjoint boxes:
for each prefix level, the prefixes of X extend into maximal allowed
last-coordinate intervals, padded with the full range behind.  The family is
the prefix decomposition of `fvx.separation`, which also drives the oracle
solver and k-best for integral oracles (`solve_forbidden(..., ambient=)`,
`kbest(..., ambient=)`); here it drives the block formulation.

For H-polytopes with a totally unimodular matrix and integral rhs, the
vertex set of one facet is removed by decrementing that row's rhs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, List, Sequence, Union

from .core import HPolytope, LatticeBox
from .errors import AllForbidden, DomainError, NonIntegralRhs, NotTU, SizeCap
from .exactlp import feasible_with_fixings
from .extension import disjunctive_hull, _finalize
from .linsys import LinearSystem
from .separation import BoxFamily, box_family


def _normalize_ranges(r: Union[int, Sequence[int]], n: int) -> tuple:
    ranges = tuple([int(r)] * n) if isinstance(r, int) else tuple(int(v) for v in r)
    if len(ranges) != n:
        raise DomainError(f"expected {n} range sizes, got {len(ranges)}")
    if any(v < 1 for v in ranges):
        raise DomainError("range sizes must be positive")
    return ranges


def box_decomposition(X: Iterable, r: Union[int, Sequence[int]], n: int) -> BoxFamily:
    """Split {0..r-1}^n minus X into at most 2n|X| disjoint boxes.

    X may hold LatticePoints or coordinate tuples inside the lattice.  An
    empty X yields the single full box; a fully forbidden lattice yields the
    empty family.
    """
    ranges = _normalize_ranges(r, n)
    return box_family(X, LatticeBox.of((0,) * n, tuple(v - 1 for v in ranges)))


def forbI_formulation(P: HPolytope, X: Iterable, ambient: LatticeBox,
                      r: Union[int, Sequence[int], None] = None) -> LinearSystem:
    """Hull of P restricted to each box of the complement decomposition.

    P is trusted to be box-integral; one block per box (P's rows plus the box
    bounds), LP-infeasible blocks dropped.  `r` optionally asserts the
    ambient range sizes.
    """
    if P.n != ambient.n:
        raise DomainError("ambient box dimension mismatch")
    pts = list(X)
    family = box_family(pts, ambient)
    if r is not None:
        expect = _normalize_ranges(r, P.n)
        if expect != family.ranges:
            raise DomainError(f"ambient box has ranges {family.ranges}, caller claimed {expect}")
    base = LinearSystem.from_hpolytope(P)
    blocks = []
    dropped = 0
    for box in family.boxes:
        overrides = {
            f"x{i + 1}": (Fraction(lo), Fraction(hi))
            for i, (lo, hi) in enumerate(zip(box.l.coords, box.u.coords))
        }
        block = base.with_bounds(overrides)
        if feasible_with_fixings(block, {}):
            blocks.append(block)
        else:
            dropped += 1
    if not blocks:
        raise AllForbidden("P misses every box of the decomposition")
    system = blocks[0] if len(blocks) == 1 else disjunctive_hull(blocks)
    meta = {"method": "boxes", "n": P.n, "forbidden": len(pts),
            "boxes": len(family.boxes), "kept_blocks": len(blocks),
            "dropped_blocks": dropped,
            "box_cap": 2 * P.n * len(pts) if pts else 1,
            "certified": sum(b.counted_inequalities() + 1 for b in blocks),
            "formula": "sum over kept blocks of (counted+1)"}
    return _finalize(system, meta)


# -- totally unimodular facet removal ----------------------------------------

_TU_CAP = 8


def _det_bareiss(mat: List[List[int]]) -> int:
    """Exact determinant of a small integer matrix (fraction-free elimination)."""
    m = [row[:] for row in mat]
    k = len(m)
    sign = 1
    prev = 1
    for i in range(k - 1):
        if m[i][i] == 0:
            for t in range(i + 1, k):
                if m[t][i]:
                    m[i], m[t] = m[t], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for t in range(i + 1, k):
            for j in range(i + 1, k):
                m[t][j] = (m[t][j] * m[i][i] - m[t][i] * m[i][j]) // prev
            m[t][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def tu_check(matrix: Sequence[Sequence[int]]) -> bool:
    """True iff every square submatrix has determinant in {-1, 0, 1}.

    Brute-force over all minors; capped at 8x8 (SizeCap beyond).  Entries
    outside {-1, 0, 1} reject immediately.
    """
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        raise DomainError("matrix must be nonempty")
    nr, nc = len(rows), len(rows[0])
    if any(len(row) != nc for row in rows):
        raise DomainError("ragged matrix")
    if nr > _TU_CAP or nc > _TU_CAP:
        raise SizeCap(f"TU check capped at {_TU_CAP}x{_TU_CAP}, got {nr}x{nc}")
    for row in rows:
        for v in row:
            if v not in (-1, 0, 1):
                return False
    for k in range(2, min(nr, nc) + 1):
        for ri in itertools.combinations(range(nr), k):
            sub = [rows[i] for i in ri]
            for ci in itertools.combinations(range(nc), k):
                minor = [[sub[a][b] for b in ci] for a in range(k)]
                if _det_bareiss(minor) not in (-1, 0, 1):
                    return False
    return True


def remove_facet_tu(P: HPolytope, facet_row: int) -> HPolytope:
    """Remove the vertices of one facet of a TU-described 0-1 polytope.

    Requires a totally unimodular coefficient matrix with integral rhs; the
    returned polytope tightens the chosen row by one, and its vertex set is
    exactly V(P) minus the facet's vertices.  Facet-defining-ness of the row
    is the caller's obligation.
    """
    if not 0 <= facet_row < len(P.rows):
        raise DomainError(f"row index {facet_row} out of range")
    matrix = []
    for a, _rel, b in P.rows:
        if b.denominator != 1:
            raise NonIntegralRhs(f"rhs {b} is not integral")
        row = []
        for v in a:
            if v.denominator != 1:
                raise NotTU("coefficient matrix has fractional entries")
            row.append(int(v))
        matrix.append(row)
    if not tu_check(matrix):
        raise NotTU("coefficient matrix is not totally unimodular")
    a, rel, b = P.rows[facet_row]
    if rel == "<=":
        new_row = (a, rel, b - 1)
    elif rel == ">=":
        new_row = (a, rel, b + 1)
    else:
        raise DomainError("facet row must be an inequality")
    rows = list(P.rows)
    rows[facet_row] = new_row
    return HPolytope(P.n, tuple(rows))
