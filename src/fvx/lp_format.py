"""LP-format text for constraint systems (writer and parser).

The emitted subset: sections Minimize / Subject To / Bounds / End, an
all-zeros objective placeholder, constraint names r1..rm, explicit integer
coefficients on every term, and one Bounds line per variable.  Meta entries
ride along as comment lines so a compile -> verify round trip loses nothing;
the output is byte-stable for a fixed input.  No ranges and no integrality
markers: the emitted systems describe exact hulls whose extreme points are
already integral, so nothing needs to be flagged for branching.
"""

from __future__ import annotations

import json
from typing import List, Optional

from .core import parse_rational, refuse_long_numeral, too_long_to_print
from .errors import DomainError
from .linsys import LinearSystem

_HEADER = "\\ fvx-lp v1"


def _is_number(token: str) -> bool:
    try:
        parse_rational(token)
        return True
    except DomainError:
        return False


def _bounds_line(name: str, lo, hi) -> str:
    if lo is None and hi is None:
        return f" {name} free"
    if lo is not None and hi is not None:
        if lo == hi:
            return f" {name} = {lo}"
        return f" {lo} <= {name} <= {hi}"
    if lo is not None:
        return f" {lo} <= {name}"
    return f" {name} <= {hi}"


def write_lp(system: LinearSystem) -> str:
    """Serialize a LinearSystem to LP text (lossless, byte-stable).

    Raises GuardExceeded when a number has more digits than `str` converts.
    """
    try:
        return _write_lp(system)
    except ValueError:
        raise too_long_to_print() from None


def _write_lp(system: LinearSystem) -> str:
    lines = [_HEADER]
    lines.append(f"\\ meta: n_original={system.n_original}")
    for key in sorted(system.meta):
        lines.append(f"\\ meta: {key}={json.dumps(system.meta[key], separators=(',', ':'))}")
    lines.append("Minimize")
    lines.append(f" obj: 0 {system.variables[0]}")
    lines.append("Subject To")
    order = {name: i for i, name in enumerate(system.variables)}
    for r, (coeffs, rel, rhs) in enumerate(system.rows, start=1):
        terms = sorted(coeffs.items(), key=lambda kv: order[kv[0]])
        if not terms:  # an all-zero row still needs a parseable term
            terms = [(system.variables[0], 0)]
        parts = []
        for i, (name, c) in enumerate(terms):
            mag = abs(c)
            if i == 0:
                parts.append(f"{'-' if c < 0 else ''}{mag} {name}")
            else:
                parts.append(f"{'-' if c < 0 else '+'} {mag} {name}")
        lines.append(f" r{r}: {' '.join(parts)} {rel} {rhs}")
    lines.append("Bounds")
    for name in system.variables:
        lo, hi = system.bound(name)
        lines.append(_bounds_line(name, lo, hi))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _int_token(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:  # not an integer, or longer than int() converts
        refuse_long_numeral(token, f"integer {what}")
        raise DomainError(f"expected integer {what}, got {token!r}") from exc


def _int_meta(meta: dict, key: str) -> Optional[int]:
    value = meta.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise DomainError(f"meta '{key}' must be an integer, got {value!r}")
    return value


def _parse_terms(tokens: List[str]) -> dict:
    terms = {}
    sign = 1
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = 1
            i += 1
            continue
        if tok == "-":
            sign = -1
            i += 1
            continue
        coef = _int_token(tok, "coefficient")
        if i + 1 >= len(tokens):
            raise DomainError("dangling coefficient at end of row")
        terms[tokens[i + 1]] = terms.get(tokens[i + 1], 0) + sign * coef
        sign = 1
        i += 2
    return {name: c for name, c in terms.items() if c}


def parse_lp(text: str) -> LinearSystem:
    """Parse LP text produced by write_lp back into a LinearSystem."""
    meta = {}
    rows = []
    bounds = {}
    variables: List[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            body = line[1:].strip()
            if body.startswith("meta:"):
                key, _, value = body[len("meta:"):].strip().partition("=")
                try:
                    meta[key.strip()] = json.loads(value)
                except ValueError:  # not JSON, or an integer longer than int() converts
                    meta[key.strip()] = value
            continue
        lowered = line.lower()
        if lowered in ("minimize", "maximize"):
            section = "objective"
            continue
        if lowered == "subject to":
            section = "rows"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "end":
            section = "end"
            continue
        if section == "objective":
            continue  # placeholder objective carries no information
        if section == "rows":
            label, _, rest = line.partition(":")
            if not rest:
                raise DomainError(f"malformed constraint line {line!r}")
            tokens = rest.split()
            rel_at = next((i for i, t in enumerate(tokens) if t in ("<=", "=", ">=")), None)
            if rel_at is None or rel_at != len(tokens) - 2:
                raise DomainError(f"malformed relation in {line!r}")
            coeffs = _parse_terms(tokens[:rel_at])
            rows.append((coeffs, tokens[rel_at], _int_token(tokens[rel_at + 1], "rhs")))
            continue
        if section == "bounds":
            tokens = line.split()
            if len(tokens) == 2 and tokens[1] == "free":
                name, lo, hi = tokens[0], None, None
            elif len(tokens) == 3 and tokens[1] == "=":
                q = parse_rational(tokens[2])
                name, lo, hi = tokens[0], q, q
            elif len(tokens) == 3 and tokens[1] == "<=":
                if _is_number(tokens[0]):  # "lo <= name"
                    name, lo, hi = tokens[2], parse_rational(tokens[0]), None
                else:                      # "name <= hi"
                    name, lo, hi = tokens[0], None, parse_rational(tokens[2])
            elif len(tokens) == 3 and tokens[1] == ">=":
                if _is_number(tokens[0]):  # "hi >= name"
                    name, lo, hi = tokens[2], None, parse_rational(tokens[0])
                else:                      # "name >= lo"
                    name, lo, hi = tokens[0], parse_rational(tokens[2]), None
            elif (len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<="):
                name = tokens[2]
                lo, hi = parse_rational(tokens[0]), parse_rational(tokens[4])
            else:
                raise DomainError(f"malformed bounds line {line!r}")
            if name in bounds:
                raise DomainError(f"variable {name} bounded twice")
            bounds[name] = (lo, hi)
            variables.append(name)
            continue
        raise DomainError(f"unexpected line outside any section: {line!r}")

    n_original = _int_meta(meta, "n_original")
    if n_original is None:
        raise DomainError("missing 'n_original' meta comment")
    del meta["n_original"]
    _int_meta(meta, "certified")  # verify compares it with the counted inequalities
    clean_bounds = {k: v for k, v in bounds.items() if v != (None, None)}
    return LinearSystem(tuple(variables), n_original, tuple(rows), clean_bounds, meta)
