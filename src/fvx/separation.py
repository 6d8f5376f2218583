"""Prefix decomposition of the complement of X, and the solver built on it.

For a forbidden set X inside the lattice {0..r1-1} x ... x {0..rn-1}, the
level-i prefixes that leave X (one-coordinate extensions of a prefix of X
that are not prefixes of X themselves), padded with the full range behind,
partition the complement of X.  On binary points (r = 2) each member is a
cube face, and the family is X-separating with at most n|X| faces: the
level-i member of prefix code w is the face mask = 2^i - 1, bits = w.  On a
lattice box, consecutive last values of one prefix merge into a box, which
gives at most 2n|X| disjoint boxes.

One oracle query per member solves linear optimization over the allowed
points: a binary oracle is queried on the separating faces of X, an integral
oracle on the boxes of its ambient lattice box minus X.  The k-best
enumeration is the Lawler-Murty partition scheme on top of that family: a
heap keyed by (value, coords) holds one oracle answer per member, and
popping vertex v from member F splits only F minus v, by the one-point
family of v inside F (at most n subfaces, or 2n boxes).  Because every
member fixes a prefix of the coordinates, the members behind the heap are
always the family of X plus the vertices found so far; the output, ties
included, is the one a solve per round with a growing forbidden list gives,
for at most |family(X)| + n(k-1) oracle calls (|family(X)| + 2n(k-1) for
boxes) instead of a whole family per round.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Set, Tuple

from .core import (BinaryPoint, CubeFace, LatticeBox, LatticePoint, Objective, int_coords,
                   point_coords)
from .errors import DomainError
from .oracles import INFEASIBLE, OracleOutcome


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
    """An X-separating list of cube faces."""

    n: int
    faces: tuple

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
        return SeparatingFamily(n, (CubeFace.improper(n),))
    faces = tuple(CubeFace(n, (1 << i) - 1, w)
                  for i, level in enumerate(_prefix_levels(bits, (2,) * n), start=1)
                  for w in level)
    return SeparatingFamily(n, faces)


@dataclass(frozen=True)
class BoxFamily:
    """Pairwise lattice-disjoint boxes covering the ambient lattice minus X."""

    boxes: tuple
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
        coords = p.coords if isinstance(p, LatticePoint) else int_coords(p)
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
    return BoxFamily(tuple(boxes), tuple(levels))


def _family(oracle, X: Iterable, c: Objective, ambient: Optional[LatticeBox]) -> tuple:
    """The members to query for the oracle's vertices minus X.

    Binary oracles get the separating faces of X; integral oracles the boxes
    of `ambient` minus X, so they require `ambient` (binary oracles ignore it).
    """
    if c.n != oracle.n:
        raise DomainError("objective dimension mismatch")
    if oracle.integral:
        if ambient is None or ambient.n != oracle.n:
            raise DomainError("integral oracles need an ambient box of their dimension")
        return box_family(X, ambient).boxes
    return separating_faces(X, oracle.n).faces


def _ranked(oracle, c: Objective, restrictions: Iterable) -> Iterator[tuple]:
    """(c.v times L, coords of v, outcome, restriction) per feasible answer v.

    The first two fields are the tie-break key (L > 0: the ints order and tie
    like the values); on pairwise disjoint restrictions the vertices differ,
    so keys never tie.
    """
    for restriction in restrictions:
        outcome = oracle.minimize(c, restriction)
        if outcome.feasible:
            v = outcome.vertex
            yield c.scaled_dot(v), point_coords(v), outcome, restriction


def _split(restriction, v) -> Iterator:
    """`restriction` minus its point v, as disjoint faces or boxes.

    Coordinate j in order (free coordinates only, for a face) gives the
    member that agrees with v before j and differs from it at j: a face with
    j flipped, or the boxes below and above v_j (empty ones skipped).
    """
    if isinstance(restriction, LatticeBox):
        lo, hi, at = restriction.l.coords, restriction.u.coords, v.coords
        for j, vj in enumerate(at):
            head = at[:j]
            if lo[j] < vj:
                yield LatticeBox.of(head + lo[j:], head + (vj - 1,) + hi[j + 1:])
            if vj < hi[j]:
                yield LatticeBox.of(head + (vj + 1,) + lo[j + 1:], head + hi[j:])
        return
    n, mask, bits = restriction.n, restriction.mask, restriction.bits
    for j in range(n):
        bit = 1 << j
        if not mask & bit:
            mask |= bit
            bits |= v.bits & bit
            yield CubeFace(n, mask, bits ^ bit)


def solve_forbidden(oracle, X: Iterable, c: Objective,
                    ambient: Optional[LatticeBox] = None) -> OracleOutcome:
    """Minimize c over the oracle's vertices minus X, one query per family member.

    Binary oracles are queried on the separating faces of X; integral
    oracles on the boxes of `ambient` minus X, so they require `ambient`
    (binary oracles ignore it).  Infeasible exactly when no allowed vertex
    is left; value ties across members are broken toward the
    lexicographically smallest vertex.
    """
    best = min(_ranked(oracle, c, _family(oracle, X, c, ambient)), default=None)
    return INFEASIBLE if best is None else best[2]


def kbest(oracle, c: Objective, k: int, exclude: Iterable = (),
          ambient: Optional[LatticeBox] = None) -> Tuple[list, bool]:
    """First k vertices of P in nondecreasing objective order.

    Returns (vertices, exhausted): vertices are distinct, their values are
    nondecreasing, and the worst returned value is at most the value of any
    vertex not returned.  `exhausted` is True exactly when fewer than k
    vertices are returned, because no further vertex exists.  Vertices in
    `exclude` are treated as already removed and never returned; integral
    oracles need `ambient`, as in `solve_forbidden`.

    Lawler-Murty: a heap keyed by (value, coords) starts with one oracle
    answer per member of the family of `exclude`; each pop returns a vertex
    v and, until k are out, replaces its member by the split of that member
    minus v.  The feasible members of the family of `exclude` plus the
    returned vertices are then exactly the members behind the heap, so each
    pop is what `solve_forbidden` on that growing list returns, ties
    included.  Oracle calls are at most |family(exclude)| + n(k-1) for faces
    and |family(exclude)| + 2n(k-1) for boxes.
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    heap = list(_ranked(oracle, c, _family(oracle, exclude, c, ambient)))
    heapq.heapify(heap)
    found = []
    while heap:
        *_, outcome, restriction = heapq.heappop(heap)
        found.append(outcome.vertex)
        if len(found) == k:
            return found, False
        for entry in _ranked(oracle, c, _split(restriction, outcome.vertex)):
            heapq.heappush(heap, entry)
    return found, True
