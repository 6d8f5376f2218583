"""Integral polytopes: the block formulation over boxes, and TU facet removal.

The lattice points of an ambient box [l, u] minus a forbidden set X split
into at most 2n|X| disjoint boxes (`fvx.separation.box_family`): for each
prefix level, the prefixes of X extend into maximal allowed intervals of the
next coordinate, padded with the full range behind.  The same family drives
the oracle solver and k-best for integral oracles (`solve_forbidden(...,
ambient=)`, `kbest(..., ambient=)`); here `forbI_formulation` makes it one
block per box.

For H-polytopes whose integer rows (`HPolytope.rows`, each row scaled to ints
once) have a totally unimodular matrix, the vertex set of one facet is
removed by tightening that row's rhs by one.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence

from .core import HPolytope, LatticeBox
from .errors import DomainError, NotTU, SizeCap
from .extension import feasible_blocks, union_formulation
from .linsys import LinearSystem
from .separation import box_family


def forbI_formulation(P: HPolytope, X: Iterable, ambient: LatticeBox) -> LinearSystem:
    """Hull of P restricted to each box of the complement decomposition.

    P is trusted to be box-integral; one block per box (P's rows plus the box
    bounds), LP-infeasible blocks dropped.
    """
    if P.n != ambient.n:
        raise DomainError("ambient box dimension mismatch")
    pts = list(X)
    family = box_family(pts, ambient)
    base = LinearSystem.from_hpolytope(P)
    blocks, dropped = feasible_blocks(
        base.with_bounds({f"x{i + 1}": bound
                          for i, bound in enumerate(zip(box.l.coords, box.u.coords))})
        for box in family)
    meta = {"method": "boxes", "n": P.n, "forbidden": len(pts),
            "boxes": len(family), "kept_blocks": len(blocks),
            "dropped_blocks": dropped,
            "box_cap": 2 * P.n * len(pts) if pts else 1,
            "certified": sum(counted + 1 for _, counted in blocks),
            "formula": "sum over kept blocks of (counted+1)"}
    return union_formulation(blocks, meta, "P misses every box of the decomposition")


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

    Requires a totally unimodular matrix of P's integer rows (a TU matrix
    with an integral rhs has integral vertices: Hoffman & Kruskal 1956); the
    returned polytope tightens the chosen row by one, and its vertex set is
    exactly V(P) minus the facet's vertices.  Facet-defining-ness of the row
    is the caller's obligation.
    """
    if not 0 <= facet_row < len(P.rows):
        raise DomainError(f"row index {facet_row} out of range")
    if not tu_check([a for a, _, _ in P.rows]):
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
