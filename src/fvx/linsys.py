"""Explicit constraint systems over named variables.

A LinearSystem is an extended formulation: the first `n_original` variables
x1..xn are the designated projection; everything else is auxiliary.  Rows
carry integer coefficients and integer right-hand sides (`build` scales each
rational row by the lcm of its denominators with `core._scale` and drops its
zero coefficients).  Variable bounds may be rational.

Size certificates use the extension-complexity counting convention: a row
with relation <= or >= counts one inequality, an equality row counts zero,
and each finite variable bound counts one except fixings l == u (which are
equalities).  `counted_inequalities` implements this metric; meta records
both it and the raw row count.

A system is data: the exact LP folds its one-variable rows into bounds when
it builds a tableau, and keeps its post-phase-1 solver on the system as
`_phase1`, the one piece of solver state, which children do not inherit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .core import _scale, parse_rational
from .errors import DomainError

Bound = Tuple[Optional[Fraction], Optional[Fraction]]


def intersect_bounds(new: Bound, current: Bound) -> Bound:
    """Tightest (lower, upper) pair satisfying both bounds; None is unbounded."""
    (lo, hi), (cur_lo, cur_hi) = new, current
    return (cur_lo if lo is None else (lo if cur_lo is None else max(lo, cur_lo)),
            cur_hi if hi is None else (hi if cur_hi is None else min(hi, cur_hi)))


@dataclass(frozen=True)
class LinearSystem:
    variables: tuple          # all variable names, x1..xn first
    n_original: int
    rows: tuple               # of (coeffs: dict name->int, relation, rhs: int)
    bounds: dict              # name -> (lower, upper), entries Fraction | None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        names = set(self.variables)
        if len(names) != len(self.variables):
            raise DomainError("duplicate variable name")
        if not 0 <= self.n_original <= len(self.variables):
            raise DomainError(f"n_original={self.n_original} is outside 0..{len(self.variables)}"
                              " (the number of variables)")
        for i in range(self.n_original):
            if self.variables[i] != f"x{i + 1}":
                raise DomainError("original variables must be named x1..xn, in order")
        for coeffs, rel, rhs in self.rows:
            if rel not in ("<=", "=", ">="):
                raise DomainError(f"unknown relation {rel!r}")
            for name, v in coeffs.items():
                if name not in names:
                    raise DomainError(f"row references undeclared variable {name!r}")
                if not isinstance(v, int):
                    raise DomainError(f"non-integer coefficient {v!r} on {name}")
            if not isinstance(rhs, int):
                raise DomainError(f"non-integer rhs {rhs!r}")
        for name in self.bounds:
            if name not in names:
                raise DomainError(f"bound on undeclared variable {name!r}")
        # crossing bounds are allowed: they simply make the system infeasible

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(cls, n_original: int, aux: Sequence[str] = (), rows: Iterable = (),
              bounds: Mapping[str, Bound] = None, meta: Mapping = None) -> "LinearSystem":
        """Normalize (possibly rational) rows and assemble a system."""
        variables = tuple(f"x{i + 1}" for i in range(n_original)) + tuple(aux)
        norm_rows = []
        for coeffs, rel, rhs in rows:
            _, (b, *c) = _scale(map(parse_rational, (rhs, *coeffs.values())))
            # positive scaling keeps the sense
            norm_rows.append(({k: v for k, v in zip(coeffs, c) if v}, rel, b))
        bnd = {}
        for name, (lo, hi) in (bounds or {}).items():
            bnd[name] = (None if lo is None else parse_rational(lo),
                         None if hi is None else parse_rational(hi))
        return cls(variables, n_original, tuple(norm_rows), bnd, dict(meta or {}))

    @classmethod
    def from_hpolytope(cls, poly, meta: Mapping = None) -> "LinearSystem":
        """Wrap an H-description as a system over x1..xn (rows scaled to ints)."""
        rows = []
        for a, rel, b in poly.rows:
            coeffs = {f"x{i + 1}": v for i, v in enumerate(a) if v}
            rows.append((coeffs, rel, b))
        return cls.build(poly.n, (), rows, {}, meta or {"method": "hrep"})

    # -- accessors -------------------------------------------------------------

    def bound(self, name: str) -> Bound:
        return self.bounds.get(name, (None, None))

    def counted_inequalities(self) -> int:
        """Inequality count in the extension-complexity convention."""
        count = sum(1 for _, rel, _ in self.rows if rel != "=")
        for name in self.variables:
            lo, hi = self.bound(name)
            if lo is not None and lo == hi:
                continue  # fixing == equality
            count += (lo is not None) + (hi is not None)
        return count

    def _derive(self, **changes) -> "LinearSystem":
        """A copy sharing this system's validated fields except `changes`.

        `__post_init__` is not run again: the caller validates what it changes.
        Only the declared fields and `changes` are copied, so state kept on a
        solved system (`solve_lp`'s saved solver) never passes to a child.
        """
        child = object.__new__(LinearSystem)
        child.__dict__.update({f: self.__dict__[f] for f in self.__dataclass_fields__}, **changes)
        return child

    def with_bounds(self, overrides: Mapping[str, Bound]) -> "LinearSystem":
        """New system with per-variable bounds intersected with `overrides`.

        The rows are shared with this system, so only the bound names given
        here are checked.
        """
        bnd = dict(self.bounds)
        for name, bound in overrides.items():
            if name not in self.variables:
                raise DomainError(f"bound on undeclared variable {name!r}")
            bnd[name] = intersect_bounds(bound, bnd.get(name, (None, None)))
        return self._derive(bounds=bnd)

    def with_meta(self, meta: Mapping) -> "LinearSystem":
        return self._derive(meta=dict(meta))

