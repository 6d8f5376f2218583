"""Prefix decomposition of the complement of X, and the best-first solver.

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

The family is what the formulations need (`extension.face_formulation`,
`integral.forbI_formulation`).  Linear optimization over the allowed points
needs less: `_ordered` is the Lawler-Murty partition scheme (Lawler 1972,
Management Sci. 18; Murty 1968, Oper. Res. 16) run from the root
restriction, the improper face or the ambient box, which is the family of no
point.  A heap keyed by (value, vertex) holds one oracle answer per
restriction, with the points of X inside it.  A popped vertex v that lies in
X is not returned, and its restriction F is split at once into F minus v, by
the one-point family of v inside F (`_split`: at most n subfaces, or 2n
boxes).  Any other popped vertex is returned, and F is split only when the
next answer is asked for.  The points of X in F go down to the pieces in one
pass, and a piece that holds nothing but points of X is not queried.

Order.  The restrictions behind the heap, the popped vertices and the
pruned pieces partition the root, and each oracle returns the
(value, coords)-least optimum of its restriction.  So each pop is the least
vertex not yet popped outside the pruned pieces, and those hold no allowed
vertex: the returned vertices are the allowed ones in (value, coords) order.
`solve_forbidden` is the first answer and `kbest` the first k, ties included.

Bound.  Let r be the number of points of X that are vertices of P and come
before the k-th answer in (value, coords) order (all of them when fewer than
k answers exist).  The first k answers cost at most 1 + n(k - 1 + r) oracle
calls on faces, and 1 + 2n(k - 1 + r) on boxes.  Proof: one call queries the
root; every other call queries a piece of a split, and a split makes at most
n pieces (one per free coordinate) or 2n (two per coordinate).  A split
follows a pop.  Up to the k-th answer the pops are the first k - 1 answers,
which are split when the next one is asked for, the k-th, which is not, and
the popped points of X.  Pops come in (value, coords) order and an oracle
answer is a vertex of P, so those points are among the r.  When only m < k
answers exist, the search splits all m and at most r points of X, and
m <= k - 1.  Since r <= |X|, the worst case is 1 + n|X| + n(k - 1): one call
above querying the whole separating family (up to n|X| faces) and then
n per further answer.  But a search whose optimum is allowed makes one call,
whatever X is.
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


def _binary_codes(X: Iterable[BinaryPoint], n: int) -> Set[int]:
    """The `bits` of the points of X; DomainError on a wrong dimension."""
    bits = set()
    for p in X:
        if p.n != n:
            raise DomainError(f"point of dimension {p.n} in dimension-{n} problem")
        bits.add(p.bits)
    return bits


def _lattice_coords(X: Iterable, ambient: LatticeBox) -> Set[tuple]:
    """The coordinate tuples of X (LatticePoints or tuples); DomainError on a
    non-int coordinate, a wrong dimension or a point outside `ambient`."""
    lo, hi = ambient.l.coords, ambient.u.coords
    out = set()
    for p in X:
        coords = p.coords if isinstance(p, LatticePoint) else int_coords(p)
        if len(coords) != ambient.n:
            raise DomainError(f"point {list(coords)} has wrong dimension")
        if any(not l <= v <= u for l, v, u in zip(lo, coords, hi)):
            raise DomainError(f"point {list(coords)} outside the ambient box")
        out.add(coords)
    return out


def separating_faces(X: Iterable[BinaryPoint], n: int) -> tuple:
    """The constructive X-separating family (at most n|X| faces).

    Level-i members fix coordinates 1..i to a prefix that has left X, in
    code order within a level; X empty gives the single improper face,
    X = {0,1}^n gives the empty family.
    """
    bits = _binary_codes(X, n)
    if not bits:
        return (CubeFace.improper(n),)
    # a binary run is one digit: a prefix of X keeps at least one child in X
    return tuple(CubeFace(n, (2 << i) - 1, w)
                 for i, runs in enumerate(_runs(bits, (2,) * n))
                 for w in sorted(prefix | first << i for prefix, first, _ in runs))


def _box(head: tuple, first: int, last: int, lo: tuple, hi: tuple) -> LatticeBox:
    """The box of the points that start with `head`, then a digit in
    first..last, then anything in [lo, hi] behind."""
    i = len(head) + 1
    return LatticeBox.unchecked(head + (first,) + lo[i:], head + (last,) + hi[i:])


def box_family(X: Iterable, ambient: LatticeBox) -> tuple:
    """Split the lattice points of `ambient` minus X into disjoint boxes.

    X holds LatticePoints or coordinate tuples inside the box.  Boxes come
    level by level, in lexicographic prefix order within a level; an empty X
    yields the ambient box itself, a fully forbidden box the empty family.
    """
    lo, hi = ambient.l.coords, ambient.u.coords
    ranges = tuple(u - l + 1 for l, u in zip(lo, hi))
    radices = tuple(itertools.accumulate(ranges, operator.mul, initial=1))
    codes = {sum((v - l) * m for v, l, m in zip(coords, lo, radices))
             for coords in _lattice_coords(X, ambient)}
    if not codes:
        return (ambient,)
    boxes = []
    for i, runs in enumerate(_runs(codes, ranges)):
        heads = sorted((tuple(prefix // m % r + l for m, r, l in zip(radices, ranges, lo[:i])),
                        first, last) for prefix, first, last in runs)
        boxes.extend(_box(head, lo[i] + first, lo[i] + last, lo, hi)
                     for head, first, last in heads)
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


def _split(restriction, v) -> list:
    """`restriction` minus its point v, as disjoint faces or boxes.

    A face gives, per free coordinate j in order, the face that agrees with
    v on the free coordinates before j and differs from it at j.  A box
    gives the one-point family of v inside it: per coordinate i, the boxes
    that agree with v before i and lie below it, then above it, at i.
    """
    if isinstance(restriction, LatticeBox):
        x, lo, hi = v.coords, restriction.l.coords, restriction.u.coords
        boxes = []
        for i, (a, t, b) in enumerate(zip(lo, x, hi)):
            if a < t:
                boxes.append(_box(x[:i], a, t - 1, lo, hi))
            if t < b:
                boxes.append(_box(x[:i], t + 1, b, lo, hi))
        return boxes
    n, mask, bits = restriction.n, restriction.mask, restriction.bits
    faces = []
    for j in range(n):
        bit = 1 << j
        if not mask & bit:
            mask |= bit
            bits |= v.bits & bit
            faces.append(CubeFace(n, mask, bits ^ bit))
    return faces


def _deal(restriction, v, points: list, count: int) -> list:
    """`points` (of X, in `restriction`) minus v, dealt in one pass to the
    `count` pieces of `_split(restriction, v)`, in their order.

    A point goes to the piece of the first coordinate where it differs from
    v; on a box, to the lower piece there or the upper one.  Points are
    `bits` for a face and coordinate tuples for a box.
    """
    held = [[] for _ in range(count)]
    if isinstance(restriction, LatticeBox):
        x, lo, hi = v.coords, restriction.l.coords, restriction.u.coords
        starts = [0]  # per coordinate, the index of its first piece
        for a, t, b in zip(lo, x, hi):
            starts.append(starts[-1] + (a < t) + (t < b))
        for p in points:
            for i, (s, t) in enumerate(zip(p, x)):
                if s != t:
                    held[starts[i] + (s > t and lo[i] < t)].append(p)
                    break
        return held
    free = ~restriction.mask
    for p in points:
        d = p ^ v.bits
        if d:
            held[(free & ((d & -d) - 1)).bit_count()].append(p)
    return held


def _size(restriction) -> int:
    """The number of lattice points of a face or box."""
    if isinstance(restriction, LatticeBox):
        return restriction.lattice_count()
    return 1 << (restriction.n - restriction.mask.bit_count())


def _ordered(oracle, c: Objective, X: Iterable,
             ambient: Optional[LatticeBox]) -> Iterator[OracleOutcome]:
    """The oracle's optima over its vertices minus X, in (value, vertex) order.

    Best-first from the root restriction (the family of no point): a heap
    entry is (score, vertex, outcome, restriction, the points of X in the
    restriction).  A popped vertex in X is split off at once; any other is
    yielded, and split off only when the next answer is asked for.  A piece
    that holds nothing but points of X is not queried.
    """
    root, = _family(oracle, (), c, ambient)
    if oracle.integral:
        forbidden, key = _lattice_coords(X, ambient), operator.attrgetter("coords")
    else:
        forbidden, key = _binary_codes(X, oracle.n), operator.attrgetter("bits")
    heap = []

    def query(restriction, inside: list) -> None:
        if len(inside) < _size(restriction):
            outcome = oracle.minimize(c, restriction)
            if outcome.feasible:
                # the score orders and ties like the value (c is scaled by
                # L > 0), and the vertices of disjoint restrictions differ
                heapq.heappush(heap, (outcome.score, outcome.vertex, outcome,
                                      restriction, inside))

    query(root, list(forbidden))
    while heap:
        *_, outcome, restriction, inside = heapq.heappop(heap)
        v = outcome.vertex
        if key(v) not in forbidden:
            yield outcome
        pieces = _split(restriction, v)
        for piece, held in zip(pieces, _deal(restriction, v, inside, len(pieces))):
            query(piece, held)


def solve_forbidden(oracle, X: Iterable, c: Objective,
                    ambient: Optional[LatticeBox] = None) -> OracleOutcome:
    """Minimize c over the oracle's vertices minus X: `kbest`'s first answer.

    Binary oracles are queried on cube faces; integral oracles on boxes of
    `ambient`, so they require `ambient` (binary oracles ignore it).  X is
    checked in full first, as `separating_faces` and `box_family` check it.
    Infeasible exactly when no allowed vertex is left; value ties are broken
    toward the lexicographically smallest vertex.  At most 1 + n*r oracle
    calls (1 + 2n*r for boxes), r the points of X that beat the answer.
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

    The answers are the first k of `_ordered`, so each is what
    `solve_forbidden` returns with `exclude` and the answers before it
    removed, ties included.  Oracle calls are at most 1 + n(k - 1 + r) for
    faces and 1 + 2n(k - 1 + r) for boxes, r the points of `exclude` that
    come before the k-th answer (see the module docstring); nothing is
    split after the k-th answer.
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    found = [outcome.vertex
             for outcome in itertools.islice(_ordered(oracle, c, exclude, ambient), k)]
    return found, len(found) < k
