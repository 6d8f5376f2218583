"""Prefix decomposition of the complement of X, and the solver built on it.

For a forbidden set X inside the lattice {0..r1-1} x ... x {0..rn-1}, the
level-i prefixes that leave X (one-coordinate extensions of a prefix of X
that are not prefixes of X themselves), padded with the full range behind,
partition the complement of X.  One gap routine, `_runs`, finds them: below
each level-(i-1) prefix that points of X share, the allowed i-th digits are
the gaps between the sorted distinct i-th digits of those points, read as
maximal runs first..last.  It never enumerates a range, so it takes
O(n|X| log|X|) steps whatever the widths.  On binary points (r = 2) each run
is one cube face, and the family is X-separating with at most n|X| faces:
the level-i member of prefix code w is the face mask = 2^i - 1, bits = w.
On a lattice box each run is one box, at most 2n|X| disjoint boxes.

One oracle query per member solves linear optimization over the allowed
points: a binary oracle is queried on the separating faces of X, an integral
oracle on the boxes of its ambient lattice box minus X.  `_ordered` is the
Lawler-Murty partition scheme on top of that family: a heap keyed by
(value, vertex) holds one oracle answer per member, and each pop yields a
vertex v; only when the next answer is asked for is its member F split into
F minus v, by the one-point family of v inside F (at most n subfaces, or 2n
boxes).  Because every member fixes a prefix of the coordinates, the members
behind the heap are always the family of X plus the vertices found so far;
so `solve_forbidden` is its first answer and `kbest` its first k, ties
included, for |family(X)| + n(k-1) oracle calls at most (|family(X)| +
2n(k-1) for boxes) instead of a whole family per answer.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from typing import Iterable, Iterator, Optional, Sequence, Set, Tuple

from .core import BinaryPoint, CubeFace, LatticeBox, LatticePoint, Objective, int_coords
from .errors import DomainError
from .oracles import INFEASIBLE, OracleOutcome


def _runs(codes: Set[int], ranges: Sequence[int]) -> Iterator[list]:
    """Per level i, the runs (prefix, first, last) of allowed i-th digits.

    `codes` are the mixed-radix codes of a nonempty X, coordinate 1 least
    significant (for r = 2 this is `BinaryPoint.bits`); `prefix` codes the
    first i-1 digits of a point of X, and every digit in first..last extends
    it to a level-i prefix that has left X.  Runs come in (prefix code,
    first) order.
    """
    radix = 1
    for r in ranges:
        runs = []
        prefix, first = None, r  # the prefix being read, its next allowed digit
        for p, t in sorted({(w % radix, w // radix % r) for w in codes}):
            if p != prefix:
                if first < r:
                    runs.append((prefix, first, r - 1))
                prefix, first = p, 0
            if first < t:
                runs.append((prefix, first, t - 1))
            first = t + 1
        if first < r:
            runs.append((prefix, first, r - 1))
        yield runs
        radix *= r


def separating_faces(X: Iterable[BinaryPoint], n: int) -> tuple:
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
        return (CubeFace.improper(n),)
    # a binary run is one digit: a prefix of X keeps at least one child in X
    return tuple(CubeFace(n, (2 << i) - 1, w)
                 for i, runs in enumerate(_runs(bits, (2,) * n))
                 for w in sorted(prefix | first << i for prefix, first, _ in runs))


def box_family(X: Iterable, ambient: LatticeBox) -> tuple:
    """Split the lattice points of `ambient` minus X into disjoint boxes.

    X holds LatticePoints or coordinate tuples inside the box.  Boxes come
    level by level, in lexicographic prefix order within a level; an empty X
    yields the ambient box itself, a fully forbidden box the empty family.
    """
    lo, hi = ambient.l.coords, ambient.u.coords
    ranges = tuple(u - l + 1 for l, u in zip(lo, hi))
    radices = tuple(itertools.accumulate(ranges, operator.mul, initial=1))
    codes = set()
    for p in X:
        coords = p.coords if isinstance(p, LatticePoint) else int_coords(p)
        if len(coords) != ambient.n:
            raise DomainError(f"point {list(coords)} has wrong dimension")
        if any(not l <= v <= u for l, v, u in zip(lo, coords, hi)):
            raise DomainError(f"point {list(coords)} outside the ambient box")
        codes.add(sum((v - l) * m for v, l, m in zip(coords, lo, radices)))
    if not codes:
        return (ambient,)
    boxes = []
    for i, runs in enumerate(_runs(codes, ranges)):
        heads = sorted((tuple(prefix // m % r + l for m, r, l in zip(radices, ranges, lo[:i])),
                        first, last) for prefix, first, last in runs)
        for head, first, last in heads:
            boxes.append(LatticeBox.of(head + (lo[i] + first,) + lo[i + 1:],
                                       head + (lo[i] + last,) + hi[i + 1:]))
    return tuple(boxes)


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
        return box_family(X, ambient)
    return separating_faces(X, oracle.n)


def _ranked(oracle, c: Objective, restrictions: Iterable) -> Iterator[tuple]:
    """(c.v times L, v, outcome, restriction) per feasible answer v.

    The first two fields are the tie-break key (L > 0: the ints order and tie
    like the values, and points order lexicographically); on pairwise
    disjoint restrictions the vertices differ, so keys never tie.
    """
    for restriction in restrictions:
        outcome = oracle.minimize(c, restriction)
        if outcome.feasible:
            yield outcome.score, outcome.vertex, outcome, restriction


def _split(restriction, v) -> Sequence:
    """`restriction` minus its point v, as disjoint faces or boxes.

    A box gives the one-point family of v inside it.  A face gives, per free
    coordinate j in order, the face that agrees with v on the free
    coordinates before j and differs from it at j.
    """
    if isinstance(restriction, LatticeBox):
        return box_family((v,), restriction)
    n, mask, bits = restriction.n, restriction.mask, restriction.bits
    faces = []
    for j in range(n):
        bit = 1 << j
        if not mask & bit:
            mask |= bit
            bits |= v.bits & bit
            faces.append(CubeFace(n, mask, bits ^ bit))
    return faces


def _ordered(oracle, c: Objective, X: Iterable,
             ambient: Optional[LatticeBox]) -> Iterator[OracleOutcome]:
    """The oracle's optima over its vertices minus X, in (value, vertex) order.

    Lawler-Murty: the family of X is queried once and its answers heapified;
    each pop is yielded, and the popped member is split (and its pieces
    queried) only when the next answer is asked for.
    """
    heap = list(_ranked(oracle, c, _family(oracle, X, c, ambient)))
    heapq.heapify(heap)
    while heap:
        *_, outcome, restriction = heapq.heappop(heap)
        yield outcome
        for entry in _ranked(oracle, c, _split(restriction, outcome.vertex)):
            heapq.heappush(heap, entry)


def solve_forbidden(oracle, X: Iterable, c: Objective,
                    ambient: Optional[LatticeBox] = None) -> OracleOutcome:
    """Minimize c over the oracle's vertices minus X, one query per family member.

    Binary oracles are queried on the separating faces of X; integral
    oracles on the boxes of `ambient` minus X, so they require `ambient`
    (binary oracles ignore it).  Infeasible exactly when no allowed vertex
    is left; value ties across members are broken toward the
    lexicographically smallest vertex.  This is the first answer of
    `kbest`'s search.
    """
    return next(_ordered(oracle, c, X, ambient), INFEASIBLE)


def kbest(oracle, c: Objective, k: int, exclude: Iterable = (),
          ambient: Optional[LatticeBox] = None) -> Tuple[list, bool]:
    """First k vertices of P in nondecreasing objective order.

    Returns (vertices, exhausted): vertices are distinct, their values are
    nondecreasing, and the worst returned value is at most the value of any
    vertex not returned.  `exhausted` is True exactly when fewer than k
    vertices are returned, because no further vertex exists.  Vertices in
    `exclude` are treated as already removed and never returned; integral
    oracles need `ambient`, as in `solve_forbidden`.

    The answers are the first k of `_ordered`: the feasible members of the
    family of `exclude` plus the returned vertices are exactly the members
    behind its heap, so each answer is what `solve_forbidden` on that
    growing list returns, ties included.  Oracle calls are at most
    |family(exclude)| + n(k-1) for faces and |family(exclude)| + 2n(k-1)
    for boxes; nothing is split after the k-th answer.
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    found = [outcome.vertex
             for outcome in itertools.islice(_ordered(oracle, c, exclude, ambient), k)]
    return found, len(found) < k
