"""Prefix decomposition of the complement of X, and the solver built on it.

For a forbidden set X inside the lattice {0..r1-1} x ... x {0..rn-1}, the
level-i prefixes that leave X (one-coordinate extensions of a prefix of X
that are not prefixes of X themselves), padded with the full range behind,
partition the complement of X.  On binary points (r = 2) each member is a
cube face, and the family is X-separating with at most n|X| faces.  On a
lattice box, consecutive last values of one prefix merge into a box, which
gives at most 2n|X| disjoint boxes.

One oracle query per member solves linear optimization over the allowed
points: a binary oracle is queried on the separating faces of X, an integral
oracle on the boxes of its ambient lattice box minus X.  Repeating that solve
with a growing forbidden list yields the k-best enumeration.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple

from .core import BinaryPoint, CubeFace, LatticeBox, LatticePoint, Objective, point_coords
from .errors import DomainError
from .oracles import INFEASIBLE, IntegralOracle, OracleOutcome


def _prefix_levels(codes: Set[int], ranges: Sequence[int]) -> list:
    """Per level i, the sorted codes of the level-i prefixes that leave X.

    `codes` are the mixed-radix codes of X, coordinate 1 least significant
    (for r = 2 this is `BinaryPoint.bits`); a level-i prefix is coded by its
    first i digits.
    """
    levels = []
    prev = {0}  # X^0: the empty prefix
    radix = 1
    for r in ranges:
        width = radix * r
        proj = {code % width for code in codes}
        levels.append(sorted({p + t * radix for p in prev for t in range(r)} - proj))
        prev, radix = proj, width
    return levels


@dataclass(frozen=True)
class SeparatingFamily:
    """An X-separating list of cube faces with its source set."""

    n: int
    faces: tuple
    source: frozenset  # codes of X

    def __len__(self) -> int:
        return len(self.faces)


def separating_faces(X: Iterable[BinaryPoint], n: int) -> SeparatingFamily:
    """The constructive X-separating family (at most n|X| faces).

    Level-i members fix coordinates 1..i to a prefix that has left X, in
    code order within a level; X empty gives the single improper face,
    X = {0,1}^n gives the empty family.
    """
    bits = set()
    for p in X:
        if p.n != n:
            raise DomainError(f"point of dimension {p.n} in dimension-{n} problem")
        bits.add(p.bits)
    if not bits:
        return SeparatingFamily(n, (CubeFace.improper(n),), frozenset())
    faces = tuple(
        CubeFace.of(n, {j: (w >> (j - 1)) & 1 for j in range(1, i + 1)})
        for i, level in enumerate(_prefix_levels(bits, (2,) * n), start=1)
        for w in level
    )
    return SeparatingFamily(n, faces, frozenset(bits))


@dataclass(frozen=True)
class BoxFamily:
    """Pairwise lattice-disjoint boxes covering the ambient lattice minus X."""

    boxes: tuple
    ranges: tuple   # per-coordinate range sizes of the ambient box
    source: frozenset  # forbidden coordinate tuples
    levels: tuple = ()  # prefix level that produced each box

    def __len__(self) -> int:
        return len(self.boxes)


def box_family(X: Iterable, ambient: LatticeBox) -> BoxFamily:
    """Split the lattice points of `ambient` minus X into disjoint boxes.

    X holds LatticePoints or coordinate tuples inside the box.  Boxes come
    level by level, in lexicographic prefix order within a level; an empty X
    yields the ambient box itself, a fully forbidden box the empty family.
    """
    lo, hi = ambient.l.coords, ambient.u.coords
    ranges = tuple(u - l + 1 for l, u in zip(lo, hi))
    radices = tuple(itertools.accumulate(ranges, operator.mul, initial=1))
    forb = set()
    for p in X:
        coords = p.coords if isinstance(p, LatticePoint) else tuple(int(v) for v in p)
        if len(coords) != ambient.n:
            raise DomainError(f"point {list(coords)} has wrong dimension")
        if any(not l <= v <= u for l, v, u in zip(lo, coords, hi)):
            raise DomainError(f"point {list(coords)} outside the ambient box")
        forb.add(coords)
    codes = {sum((v - l) * m for v, l, m in zip(coords, lo, radices)) for coords in forb}
    boxes = []
    levels = []
    for i, level in enumerate(_prefix_levels(codes, ranges), start=1):
        runs = []  # [prefix digits, first last-digit, final last-digit]
        for d in sorted(tuple(w // m % r for m, r in zip(radices, ranges[:i]))
                        for w in level):
            if runs and runs[-1][0] == d[:-1] and runs[-1][2] + 1 == d[-1]:
                runs[-1][2] = d[-1]
            else:
                runs.append([d[:-1], d[-1], d[-1]])
        for prefix, alpha, beta in runs:
            head = tuple(v + l for v, l in zip(prefix, lo))
            boxes.append(LatticeBox.of(head + (lo[i - 1] + alpha,) + lo[i:],
                                       head + (lo[i - 1] + beta,) + hi[i:]))
            levels.append(i)
    return BoxFamily(tuple(boxes), ranges, frozenset(forb), tuple(levels))


def solve_forbidden(oracle, X: Iterable, c: Objective,
                    ambient: Optional[LatticeBox] = None) -> OracleOutcome:
    """Minimize c over the oracle's vertices minus X, one query per family member.

    Binary oracles are queried on the separating faces of X; integral
    oracles on the boxes of `ambient` minus X, so they require `ambient`
    (binary oracles ignore it).  Infeasible exactly when no allowed vertex
    is left; value ties across members are broken toward the
    lexicographically smallest vertex.
    """
    if c.n != oracle.n:
        raise DomainError("objective dimension mismatch")
    if isinstance(oracle, IntegralOracle):
        if ambient is None or ambient.n != oracle.n:
            raise DomainError("integral oracles need an ambient box of their dimension")
        family = box_family(X, ambient).boxes
    else:
        family = separating_faces(X, oracle.n).faces
    best: Optional[OracleOutcome] = None
    best_key = None
    for restriction in family:
        outcome = oracle.minimize(c, restriction)
        if not outcome.feasible:
            continue
        key = (outcome.value, point_coords(outcome.vertex))
        if best_key is None or key < best_key:
            best, best_key = outcome, key
    return best if best is not None else INFEASIBLE


def kbest(oracle, c: Objective, k: int, exclude: Iterable = (),
          ambient: Optional[LatticeBox] = None) -> Tuple[list, bool]:
    """First k vertices of P in nondecreasing objective order.

    Returns (vertices, exhausted): vertices are distinct, their values are
    nondecreasing, and the worst returned value is at most the value of any
    vertex not returned.  `exhausted` is True exactly when the solve after
    the last returned vertex proved no further vertex exists.  Vertices in
    `exclude` are treated as already removed and never returned; `ambient`
    is passed on to `solve_forbidden`.
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    removed = list(exclude)
    found = []
    for _ in range(k):
        outcome = solve_forbidden(oracle, removed + found, c, ambient)
        if not outcome.feasible:
            return found, True
        found.append(outcome.vertex)
    return found, False
