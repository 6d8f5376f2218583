"""Domain types, exact rational arithmetic and elementary cube geometry.

Coordinates are 1-indexed throughout: coordinate i of a binary point lives in
bit i-1 of its code word, so the code of a point is sum(2**(i-1) * v_i).  A
`CubeFace` is (n, mask, bits), packed like `BinaryPoint`: bit i-1 of mask
marks coordinate i as fixed, bit i-1 of bits holds its value.  All
numeric data is held as exact rationals (`fractions.Fraction`); no floating
point is used anywhere on a solve path.  An `Objective` is scaled to ints
once (`Objective.scaled`); oracles compare and sum in those ints, and an
answer's value becomes a `Fraction` only when it is read.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DomainError, GuardExceeded, NumeralTooLong

# Arbitrary-precision exact rational.  The stdlib type already guarantees
# lowest terms and a positive denominator.
Rational = Fraction

#: Binary points are bit-packed into a single word.
MAX_BINARY_DIM = 64

RationalLike = Union[Fraction, int, str]

_EXPONENT = re.compile(r"[eE][-+]?\d")


def parse_rational(text: RationalLike) -> Fraction:
    """Parse an exact rational from "p", "p/q" or an int.

    Raises DomainError on malformed input, a zero denominator, a boolean, or
    exponent notation such as "1e9" (whose value can be far larger than its
    text, so parsing it could take unbounded time); NumeralTooLong, a
    GuardExceeded, on a numeral longer than `int` converts.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise DomainError(f"refusing boolean {text!r}; pass a 'p/q' string")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise DomainError(f"refusing float {text!r}; pass a 'p/q' string")
    body = str(text).strip()
    if _EXPONENT.search(body):
        raise DomainError(f"refusing exponent notation {text!r}; pass a 'p/q' string")
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        refuse_long_numeral(body)
        raise DomainError(f"not a rational: {text!r}") from exc


def refuse_long_numeral(text: str, what: str = "value") -> None:
    """Raise NumeralTooLong, naming the limit and not echoing `text`, when a numeral
    that failed to parse has more digits than `int` converts (int_max_str_digits)."""
    limit = sys.get_int_max_str_digits()
    if sum(map(str.isdigit, text)) > limit > 0:
        raise NumeralTooLong(f"{what} too long to parse: more than {limit} digits")


def format_rational(value: Fraction) -> str:
    """Render a rational as "p" or "p/q" (lossless).

    Raises GuardExceeded when a numerator or denominator has more digits than
    the interpreter converts to a string (its int_max_str_digits limit).
    """
    try:
        return str(value)
    except ValueError:
        raise too_long_to_print() from None


def too_long_to_print() -> GuardExceeded:
    """The error for an integer with more digits than `str` converts."""
    return GuardExceeded(f"value too long to print: more than "
                         f"{sys.get_int_max_str_digits()} digits")


@dataclass(frozen=True)
class BinaryPoint:
    """A 0/1 point in dimension n, bit-packed (bit i-1 holds coordinate i)."""

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BINARY_DIM:
            raise DomainError(f"binary dimension must be in 1..{MAX_BINARY_DIM}, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise DomainError(f"bits {self.bits} out of range for dimension {self.n}")

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "BinaryPoint":
        bits = 0
        for i, v in enumerate(coords):
            if type(v) is not int or v not in (0, 1):
                raise DomainError(f"coordinate {i + 1} is {v!r}, expected 0 or 1")
            bits |= v << i
        return cls(len(coords), bits)

    @classmethod
    def from_string(cls, text: str) -> "BinaryPoint":
        """Parse a bitstring whose leftmost character is coordinate 1."""
        if not text or any(ch not in "01" for ch in text):
            raise DomainError(f"not a bitstring: {text!r}")
        return cls.from_coords([int(ch) for ch in text])

    def coord(self, i: int) -> int:
        """Coordinate i (1-indexed)."""
        if not 1 <= i <= self.n:
            raise DomainError(f"coordinate index {i} out of 1..{self.n}")
        return (self.bits >> (i - 1)) & 1

    def coords(self) -> tuple:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.coords())

    def hamming(self, other: "BinaryPoint") -> int:
        if other.n != self.n:
            raise DomainError("dimension mismatch")
        return (self.bits ^ other.bits).bit_count()

    def flip(self, i: int) -> "BinaryPoint":
        if not 1 <= i <= self.n:
            raise DomainError(f"coordinate index {i} out of 1..{self.n}")
        return BinaryPoint(self.n, self.bits ^ (1 << (i - 1)))

    def prefix(self, k: int) -> "BinaryPoint":
        """Projection onto the first k coordinates."""
        if not 1 <= k <= self.n:
            raise DomainError(f"prefix length {k} out of 1..{self.n}")
        return BinaryPoint(k, self.bits & ((1 << k) - 1))

    def __lt__(self, other: "BinaryPoint") -> bool:
        """Lexicographic order of the coordinates, coordinate 1 first: the
        lowest bit where the two differ decides."""
        if not isinstance(other, BinaryPoint):
            return NotImplemented
        if self.n != other.n:
            return self.n < other.n
        diff = self.bits ^ other.bits
        return bool(other.bits & diff & -diff)

    def __repr__(self):
        return f"BinaryPoint({self.to_string()!r})"


@dataclass(frozen=True, order=True)
class LatticePoint:
    """An integer point in dimension n (no dimension cap); points of one
    dimension order lexicographically."""

    n: int
    coords: tuple

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"dimension must be positive, got {self.n}")
        if len(self.coords) != self.n:
            raise DomainError(f"expected {self.n} coordinates, got {len(self.coords)}")
        object.__setattr__(self, "coords", int_coords(self.coords))

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "LatticePoint":
        return cls(len(coords), tuple(coords))

    @classmethod
    def unchecked(cls, coords: tuple) -> "LatticePoint":
        """The point of an int tuple, not checked again: for coordinates
        computed from valid ones."""
        point = object.__new__(cls)
        object.__setattr__(point, "n", len(coords))
        object.__setattr__(point, "coords", coords)
        return point

    def coord(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise DomainError(f"coordinate index {i} out of 1..{self.n}")
        return self.coords[i - 1]

    def __repr__(self):
        return f"LatticePoint({list(self.coords)})"


Point = Union[BinaryPoint, LatticePoint]


def int_coords(values: Iterable) -> tuple:
    """The values as a tuple; DomainError unless each is an int (bool excluded)."""
    out = tuple(values)
    for v in out:
        if type(v) is not int:
            raise DomainError(f"coordinate {v!r} is not an integer")
    return out


def _scale(values: Iterable[Fraction]) -> tuple:
    """(L, the values times L as ints), L > 0 the lcm of their denominators:
    the same signs, order and ties as the values, in ints."""
    values = tuple(values)
    scale = lcm(*(q.denominator for q in values))
    return scale, tuple(q.numerator * (scale // q.denominator) for q in values)


def point_coords(point: Point) -> tuple:
    """Coordinate tuple of either point kind; shared tie-break key."""
    if isinstance(point, BinaryPoint):
        return point.coords()
    return point.coords


@dataclass(frozen=True)
class Objective:
    """A linear objective c over n variables; sense is always minimize."""

    n: int
    c: tuple

    def __post_init__(self):
        if len(self.c) != self.n:
            raise DomainError(f"objective length {len(self.c)} != dimension {self.n}")
        object.__setattr__(self, "c", tuple(parse_rational(v) for v in self.c))

    @classmethod
    def of(cls, terms: Sequence[RationalLike]) -> "Objective":
        return cls(len(terms), tuple(terms))

    @cached_property
    def scaled(self) -> tuple:
        """(L, c*L as a tuple of ints) by `_scale`, computed once: an objective
        is immutable."""
        return _scale(self.c)

    def scaled_dot(self, point: Point) -> int:
        """c.point times L, summed in ints; see `scaled`."""
        if point.n != self.n:
            raise DomainError("dimension mismatch")
        ints = self.scaled[1]
        if isinstance(point, BinaryPoint):
            total, bits = 0, point.bits
            while bits:
                low = bits & -bits
                total += ints[low.bit_length() - 1]
                bits ^= low
            return total
        return sum(k * v for k, v in zip(ints, point.coords))

    def dot(self, point: Point) -> Fraction:
        return Fraction(self.scaled_dot(point), self.scaled[0])


@dataclass(frozen=True)
class CubeFace:
    """A face of [0,1]^n given by fixing a subset of coordinates to 0/1.

    Point p lies in the face exactly when p.bits & mask == bits; mask 0 is
    the improper face (the whole cube).
    """

    n: int
    mask: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BINARY_DIM:
            raise DomainError(f"binary dimension must be in 1..{MAX_BINARY_DIM}, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise DomainError(f"mask {self.mask} out of range for dimension {self.n}")
        if self.bits & ~self.mask:
            raise DomainError(f"bits {self.bits} set outside mask {self.mask}")

    @classmethod
    def of(cls, n: int, fixings: Mapping[int, int]) -> "CubeFace":
        mask = bits = 0
        for i, v in fixings.items():
            if type(i) is not int or type(v) is not int:
                raise DomainError(f"fixing {i!r}: {v!r} is not a pair of integers")
            if not 1 <= i <= n:
                raise DomainError(f"fixed index {i} out of 1..{n}")
            if v not in (0, 1):
                raise DomainError(f"fixed value for coordinate {i} must be 0/1, got {v}")
            mask |= 1 << (i - 1)
            bits |= v << (i - 1)
        return cls(n, mask, bits)

    @classmethod
    def improper(cls, n: int) -> "CubeFace":
        return cls(n, 0, 0)

    @property
    def fixed(self) -> tuple:
        """The sorted (coordinate, value) pairs of the fixing."""
        return tuple((i + 1, (self.bits >> i) & 1) for i in range(self.n) if (self.mask >> i) & 1)

    @property
    def is_improper(self) -> bool:
        return not self.mask

    def contains(self, point: BinaryPoint) -> bool:
        if point.n != self.n:
            raise DomainError("dimension mismatch")
        return point.bits & self.mask == self.bits

    def vertices(self) -> Iterator[BinaryPoint]:
        """All binary points of the face by increasing bits (desk scale)."""
        free = ((1 << self.n) - 1) & ~self.mask
        sub = 0
        while True:
            yield BinaryPoint(self.n, self.bits | sub)
            sub = (sub - free) & free  # the next subset of the free bits
            if not sub:
                return


@dataclass(frozen=True)
class LatticeBox:
    """An integer box [l, u]; the restriction passed to integral oracles."""

    l: LatticePoint
    u: LatticePoint

    def __post_init__(self):
        if self.l.n != self.u.n:
            raise DomainError("box corners disagree on dimension")
        if any(lo > hi for lo, hi in zip(self.l.coords, self.u.coords)):
            raise DomainError("box has l > u in some coordinate")

    @classmethod
    def of(cls, l: Sequence[int], u: Sequence[int]) -> "LatticeBox":
        return cls(LatticePoint.from_coords(l), LatticePoint.from_coords(u))

    @classmethod
    def unchecked(cls, l: tuple, u: tuple) -> "LatticeBox":
        """The box [l, u] from int tuples with l <= u, not checked again: for
        boxes cut from a box that is already valid."""
        box = object.__new__(cls)
        object.__setattr__(box, "l", LatticePoint.unchecked(l))
        object.__setattr__(box, "u", LatticePoint.unchecked(u))
        return box

    @property
    def n(self) -> int:
        return self.l.n

    def contains(self, point: LatticePoint) -> bool:
        if point.n != self.n:
            raise DomainError("dimension mismatch")
        return all(lo <= v <= hi for lo, v, hi in
                   zip(self.l.coords, point.coords, self.u.coords))

    def lattice_count(self) -> int:
        out = 1
        for lo, hi in zip(self.l.coords, self.u.coords):
            out *= hi - lo + 1
        return out

    def iter_points(self) -> Iterator[LatticePoint]:
        """All lattice points, last coordinate fastest (desk scale only)."""
        def rec(prefix, k):
            if k == self.n:
                yield LatticePoint.from_coords(prefix)
                return
            for v in range(self.l.coords[k], self.u.coords[k] + 1):
                yield from rec(prefix + [v], k + 1)
        yield from rec([], 0)


_RELATIONS = ("<=", "=", ">=")


@dataclass(frozen=True)
class HPolytope:
    """Explicit inequality/equality description over n named variables.

    Rows are (coefficient vector, relation, rhs) with exact rational entries.
    The description is intended to be bounded; unboundedness is only detected
    lazily when an LP over it is solved.
    """

    n: int
    rows: tuple  # of (tuple[Fraction,...], relation, Fraction)

    def __post_init__(self):
        norm = []
        for a, rel, b in self.rows:
            if rel not in _RELATIONS:
                raise DomainError(f"unknown relation {rel!r}")
            a = tuple(parse_rational(v) for v in a)
            if len(a) != self.n:
                raise DomainError(f"row has {len(a)} coefficients, expected {self.n}")
            norm.append((a, rel, parse_rational(b)))
        object.__setattr__(self, "rows", tuple(norm))

    @classmethod
    def of(cls, n: int, rows: Iterable) -> "HPolytope":
        return cls(n, tuple(rows))

    def satisfies(self, point: Point) -> bool:
        coords = point_coords(point)
        for a, rel, b in self.rows:
            lhs = sum((ai * vi for ai, vi in zip(a, coords) if vi), start=Fraction(0))
            if rel == "<=" and lhs > b:
                return False
            if rel == ">=" and lhs < b:
                return False
            if rel == "=" and lhs != b:
                return False
        return True


def cube_hrep(n: int) -> HPolytope:
    """The unit cube as 2n explicit rows: x_i >= 0 then x_i <= 1."""
    rows = []
    for i in range(n):
        a = tuple(Fraction(1 if j == i else 0) for j in range(n))
        rows.append((a, ">=", Fraction(0)))
    for i in range(n):
        a = tuple(Fraction(1 if j == i else 0) for j in range(n))
        rows.append((a, "<=", Fraction(1)))
    return HPolytope(n, tuple(rows))


# --- sigma bijection -------------------------------------------------------

def sigma_encode(v: BinaryPoint) -> int:
    """Positional code of a binary point: sum of 2**(i-1) * v_i."""
    return v.bits


def sigma_decode(k: int, n: int) -> BinaryPoint:
    """Binary point whose code is k; inverse of sigma_encode."""
    if not 0 <= k < (1 << n):
        raise DomainError(f"code {k} out of range for dimension {n}")
    return BinaryPoint(n, k)


# --- elementary cube geometry ---------------------------------------------

def hamming_independent(points: Iterable[BinaryPoint]) -> bool:
    """True iff no two distinct points are at Hamming distance exactly 1."""
    pts = list(points)
    if pts and any(p.n != pts[0].n for p in pts):
        raise DomainError("points must share one dimension")
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if (p.bits ^ q.bits).bit_count() == 1:
                return False
    return True


def no_good_cut(v: BinaryPoint):
    """The inequality cutting off exactly v from the unit cube.

    Returns a single normalized row (a, ">=", b) with integer coefficients:
    sum over zero coordinates of x_i plus sum over one coordinates of (1-x_i)
    is at least 1.  Every other binary point satisfies it; v violates it.
    """
    coeffs = tuple(-1 if (v.bits >> i) & 1 else 1 for i in range(v.n))
    rhs = 1 - v.bits.bit_count()
    return coeffs, ">=", rhs
