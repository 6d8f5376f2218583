"""Runs: the prefix decomposition of the complement of X, and the best-first solver.

A point of {0..r1-1} x ... x {0..rn-1} is read as its mixed-radix code,
coordinate 1 least significant: a binary point (every range 2) by its
`bits`, a point p of a box [l, u] by the digits p - l.  A run
(i, prefix, first, last) is the set of points whose first i digits have
the code `prefix` and whose next digit lies in first..last, anything
behind: on the cube one face, on a box one box.  Runs, their splits and
sizes are `_Lattice`'s; only `_Faces` and `_Boxes` tell the kinds apart,
reading points as codes and a run as the restriction an oracle takes.

The family of X is the level-i prefixes that leave X (one-digit
extensions of a prefix of X that are not prefixes of X), padded with
everything behind: it partitions the complement of X.  `_Lattice.runs`
finds it as runs, the gaps between the sorted distinct next digits of the
points of X below each prefix they share, in O(n|X| log|X|) steps whatever
the widths.  On the cube it is X-separating (`separating_faces`), on a box
it is `box_family`; the formulations use it.

The search, `_ordered`, needs less: it is the Lawler-Murty partition
scheme (Lawler 1972, Management Sci. 18; Murty 1968, Oper. Res. 16) run
from the root run, all points, with its subproblems solved only when
their lower bounds reach the top (Miller, Stone & Cox 1997, IEEE Trans.
AES 33).  A heap holds runs, each with the codes of the points of X in it:
answered runs under (score, 1, vertex), the oracle's answer for the run,
and waiting runs, not yet queried, under (bound, 0, tick), a lower bound on
the score of each of their vertices.  A popped waiting run is queried and
pushed back answered.  A popped vertex v in X is not returned, and its run
is split at once into the run minus v (`_Lattice.split`): per level j from
the run's own, the points that share v's first j digits and have a j-th
digit below v's, then above it.  Any other popped vertex is returned, and
its run is split when the next answer is asked for.  The split deals the
points of X to the pieces, and a piece that holds nothing but points of X
is dropped.  Each other piece waits under the bound that the answer's
`bounds` gives for the coordinate where the piece leaves v (the H-rep
oracle's LP penalties); an inf bound drops it, and no bound, or one not
above v's score, queries it at once, as it would pop next.  The runs in
the heap, the popped vertices and the dropped pieces partition the root.
Each answer is the (value, coords)-least optimum of its run, and a waiting
run pops before an answer of score equal to its bound, so the allowed
vertices come in (value, coords) order: `solve_forbidden` is the first and
`kbest` the first k, ties included.

Bounds.  Below one prefix, t >= 1 taken digits leave at most t + 1 runs of
the others, and at most one on the cube.  The family's level-i runs lie
below level-i prefixes of X, whose t add up to at most |X|, and
t + 1 <= 2t: the family has at most 2n|X| boxes, or n|X| faces.  A split
takes one digit below each of its prefixes, v's: at most 2n pieces, or n.
Let r be the number of points of X that are vertices of P and come before
the k-th answer (all of them when fewer than k answers exist).  One call
queries the root and every other one a piece of a split, which follows a
pop: the first k - 1 answers, split when the next is asked for, and popped
points of X, which are among the r (pops come in order, and an answer is a
vertex of P).  So the first k answers cost at most 1 + n(k - 1 + r) calls
on faces and 1 + 2n(k - 1 + r) on boxes; with r <= |X| that is one call
above querying the whole family, then one split per further answer.  These
count every piece as queried; bounds leave pieces waiting that the search
never reaches, so they only lower the count.  A search whose optimum is
allowed makes one call, whatever X is, and asks for no bound.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from math import inf
from typing import Iterable, Iterator, Optional, Set, Tuple

from .core import CubeFace, LatticeBox, LatticePoint, Objective, int_coords
from .errors import DomainError
from .oracles import INFEASIBLE, OracleOutcome


class _Lattice:
    """{0..r1-1} x ... x {0..rn-1} under mixed-radix codes: the runs of X,
    and the split and size of a run.  A subclass reads points as codes
    (`codes` checks X, `code` reads an oracle's answer) and makes a run into
    the `restriction` an oracle takes."""

    def __init__(self, ranges: tuple):
        self.ranges = ranges
        self.radices = tuple(itertools.accumulate(ranges, operator.mul, initial=1))
        # tails[i]: the points behind one digit at level i, prod(ranges[i+1:])
        self.tails = tuple(itertools.accumulate(ranges[:0:-1], operator.mul, initial=1))[::-1]
        self.root = (0, 0, 0, ranges[0] - 1)

    def size(self, run: tuple) -> int:
        """The number of points of a run."""
        i, _, first, last = run
        return (last - first + 1) * self.tails[i]

    def runs(self, codes: Set[int]) -> Iterator[list]:
        """Per level i, the runs (i, prefix, first, last) of the family of
        the nonempty code set X, in (prefix, first) order: `prefix` codes the
        first i digits of a point of X, and every digit in first..last
        extends it to a prefix that has left X."""
        heads = [(0, w) for w in codes]  # (the code of the digits read, the rest)
        for i, (r, radix) in enumerate(zip(self.ranges, self.radices)):
            heads = [(p, *divmod(rest, r)) for p, rest in heads]
            runs, prefix = [], None
            # each prefix's digits, then r: the gaps before them are the runs
            for p, t in sorted({(p, t) for p, _, t in heads} | {(p, r) for p, _, _ in heads}):
                if p != prefix:
                    prefix, first = p, 0
                if first < t:
                    runs.append((i, p, first, t - 1))
                first = t + 1
            yield runs
            heads = [(p + t * radix, rest) for p, rest, t in heads]

    def split(self, run: tuple, w: int, inside: list) -> list:
        """`run` minus its point w, as (piece, held) pairs: the pieces of the
        module docstring, each with the codes of `inside` (codes in `run`)
        that lie in it.  A point lies in the piece of the first digit where it
        differs from w: the first nonzero digit of (p - w) // radix_i, whose
        value also tells below from above."""
        i, prefix, first, last = run
        ranges, radices = self.ranges, self.radices
        pieces, slots = [], []  # per level: (r, r - w's digit, lower piece, upper piece)
        rest = w // radices[i]
        for j in range(i, len(ranges)):
            r = ranges[j]
            if j > i:
                first, last = 0, r - 1
            rest, d = divmod(rest, r)
            low = len(pieces)
            if first < d:
                pieces.append((j, prefix, first, d - 1))
            slots.append((r, r - d, low, len(pieces)))
            if d < last:
                pieces.append((j, prefix, d + 1, last))
            prefix += d * radices[j]
        held = [[] for _ in pieces]
        for p in inside:
            q = (p - w) // radices[i]
            if q:
                for r, above, low, high in slots:
                    # t is p's digit minus w's, mod r: p is above w when t < r - d
                    q, t = divmod(q, r)
                    if t:
                        held[high if t < above else low].append(p)
                        break
        return list(zip(pieces, held))

    def count(self, X: Iterable) -> int:
        """The number of members of the family of X, with no restriction made."""
        codes = self.codes(X)
        return sum(map(len, self.runs(codes))) if codes else 1

    def family(self, X: Iterable, key) -> tuple:
        """The restrictions of the runs of X, level by level, each level in
        `key` order; the root restriction alone when X is empty."""
        codes = self.codes(X)
        if not codes:
            return (self.restriction(self.root),)
        return tuple(member for runs in self.runs(codes)
                     for member in sorted(map(self.restriction, runs), key=key))


class _Faces(_Lattice):
    """The binary points of dimension n by `bits`, runs as cube faces."""

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"dimension must be positive, got {n}")
        super().__init__((2,) * n)
        self.n = n

    def codes(self, X: Iterable) -> Set[int]:
        """The `bits` of the points of X; DomainError on a wrong dimension."""
        bits = set()
        for p in X:
            if p.n != self.n:
                raise DomainError(f"point of dimension {p.n} in dimension-{self.n} problem")
            bits.add(p.bits)
        return bits

    code = staticmethod(operator.attrgetter("bits"))

    def restriction(self, run: tuple) -> CubeFace:
        i, prefix, first, last = run
        if first < last:  # both digits: coordinate i + 1 is free
            return CubeFace(self.n, (1 << i) - 1, prefix)
        return CubeFace(self.n, (2 << i) - 1, prefix | first << i)


class _Boxes(_Lattice):
    """The lattice points of `ambient` by the digits p - l, runs as boxes."""

    def __init__(self, ambient: LatticeBox):
        self.lo, self.hi = ambient.l.coords, ambient.u.coords
        super().__init__(tuple(u - l + 1 for l, u in zip(self.lo, self.hi)))
        self._head = (0, 0, ())  # the last head read: its level, code and coordinates

    def codes(self, X: Iterable) -> Set[int]:
        """The codes of X (LatticePoints or tuples); DomainError on a non-int
        coordinate, a wrong dimension or a point outside the ambient box."""
        lo, hi, le = self.lo, self.hi, operator.le
        out = set()
        for p in X:
            coords = p.coords if isinstance(p, LatticePoint) else int_coords(p)
            if len(coords) != len(lo):
                raise DomainError(f"point {list(coords)} has wrong dimension")
            if not (all(map(le, lo, coords)) and all(map(le, coords, hi))):
                raise DomainError(f"point {list(coords)} outside the ambient box")
            out.add(self.code(coords))
        return out

    def code(self, vertex) -> int:
        """The code of a LatticePoint, or of a coordinate tuple."""
        coords = vertex.coords if isinstance(vertex, LatticePoint) else vertex
        return sum(map(operator.mul, map(operator.sub, coords, self.lo), self.radices))

    def restriction(self, run: tuple) -> LatticeBox:
        """The box of a run.  Its head, the coordinates of the prefix, goes
        on from the last head read when the prefix starts with it, as the
        prefixes of one split do, so a split decodes its head once."""
        i, prefix, first, last = run
        j, code, head = self._head
        rest, low = divmod(prefix, self.radices[j]) if j <= i else (None, None)
        if low != code:
            j, rest, head = 0, prefix, ()
        more = []
        for l, r in zip(self.lo[j:i], self.ranges[j:i]):
            rest, d = divmod(rest, r)
            more.append(l + d)
        head = (*head, *more)
        self._head = (i, prefix, head)
        l = self.lo[i]
        return LatticeBox.unchecked((*head, l + first, *self.lo[i + 1:]),
                                    (*head, l + last, *self.hi[i + 1:]))


def separating_faces(X: Iterable, n: int) -> tuple:
    """The constructive X-separating family (at most n|X| faces).

    Level-i members fix coordinates 1..i to a prefix that has left X, in
    code order within a level; X empty gives the single improper face,
    X = {0,1}^n gives the empty family.
    """
    return _Faces(n).family(X, operator.attrgetter("bits"))


def box_family(X: Iterable, ambient: LatticeBox) -> tuple:
    """Split the lattice points of `ambient` minus X into disjoint boxes.

    X holds LatticePoints or coordinate tuples inside the box.  Boxes come
    level by level, in lexicographic prefix order within a level; an empty X
    yields the ambient box itself, a fully forbidden box the empty family.
    """
    return _Boxes(ambient).family(X, lambda box: box.l.coords)


def _space(oracle, c: Objective, ambient: Optional[LatticeBox]) -> tuple:
    """The `_Faces` or `_Boxes` of the oracle, and its root restriction, the
    family of no point; integral oracles need `ambient`, binary ones ignore it."""
    if c.n != oracle.n:
        raise DomainError("objective dimension mismatch")
    if oracle.integral:
        if ambient is None or ambient.n != oracle.n:
            raise DomainError("integral oracles need an ambient box of their dimension")
        return _Boxes(ambient), box_family((), ambient)[0]
    return _Faces(oracle.n), separating_faces((), oracle.n)[0]


def _ordered(oracle, c: Objective, X: Iterable,
             ambient: Optional[LatticeBox]) -> Iterator[OracleOutcome]:
    """The oracle's optima over its vertices minus X, in (value, vertex)
    order, best-first from the root run (see the module docstring): a heap
    entry is (score, 1, vertex, outcome, run, the codes of X in the run) for
    an answered run and (bound, 0, tick, run, codes) for a waiting one."""
    space, root = _space(oracle, c, ambient)
    forbidden = space.codes(X)
    heap, ticks = [], itertools.count()

    def query(run: tuple, inside: list, restriction=None) -> None:
        outcome = oracle.minimize(c, restriction or space.restriction(run))
        if outcome.feasible:
            # the score orders and ties like the value (c is scaled by
            # L > 0), and the vertices of disjoint runs differ
            heapq.heappush(heap, (outcome.score, 1, outcome.vertex, outcome, run, inside))

    if len(forbidden) < space.size(space.root):
        query(space.root, list(forbidden), root)
    while heap:
        key, answered, *entry = heapq.heappop(heap)
        if not answered:
            query(*entry[1:])
            continue
        _, outcome, run, inside = entry
        w = space.code(outcome.vertex)
        if w not in forbidden:
            yield outcome
        bounds = outcome.bounds and outcome.bounds()
        for piece, held in space.split(run, w, inside):
            if len(held) < space.size(piece):
                bound = bounds[piece[0]] if bounds else None
                if bound is None or bound <= key:
                    query(piece, held)
                elif bound < inf:
                    heapq.heappush(heap, (bound, 0, next(ticks), piece, held))


def solve_forbidden(oracle, X: Iterable, c: Objective,
                    ambient: Optional[LatticeBox] = None) -> OracleOutcome:
    """Minimize c over the oracle's vertices minus X: `kbest`'s first answer.

    Binary oracles are queried on cube faces; integral oracles on boxes of
    `ambient`, so they require `ambient` (binary oracles ignore it).  X is
    checked in full first, as `separating_faces` and `box_family` check it.
    Infeasible exactly when no allowed vertex is left; value ties are broken
    toward the lexicographically smallest vertex.  At most 1 + n*r oracle
    calls (1 + 2n*r for boxes), r the points of X that beat the answer,
    fewer when the oracle's answers carry bounds.
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
    removed, ties included.  Oracle calls are bounded in the module
    docstring; nothing is split after the k-th answer.
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    found = [outcome.vertex
             for outcome in itertools.islice(_ordered(oracle, c, exclude, ambient), k)]
    return found, len(found) < k
