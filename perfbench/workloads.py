"""Seeded problem files and operation lists for the three workloads.

`build(name, seed)` returns a `Workload`: the problem documents (written to
disk by `Workload.write`) and one pass of operations, each an `fvx` command
line with the answer the reference enumeration expects.  The same name and
seed give byte-identical files and operations.  Nothing here calls fvx; the
mutated LP files of formulation-verify are derived at set-up time by the
runner, from a compile whose command line is recorded in the operation.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import permutations

import reference as ref

WORKLOADS = ("enum-oracle", "hrep-oracle", "formulation-verify")

# Operation mix of one pass.  Sizes were chosen so that no single instance
# family dominates the pass time and the median of each command falls inside
# a cluster of similar instances rather than between two clusters.
ENUM_MIX = {"kbest": 12, "solve": 24}          # per instance family
ENUM_ALLDIFF = 16
HREP_MIX = {"kbest": 20, "solve": 40}          # per instance family
ENUM_K = 7                                     # k of every enum-oracle kbest
HREP_K = 4                                     # k of every hrep-oracle kbest
VERIFY_METHODS = (                             # (method, polytope, n, |X|)
    ("interval", "cube", 6, 3),
    ("recursive", "cube", 6, 2),
    ("faces", "cube", 5, 2),
    ("faces", "cardinality", 5, 2),
    ("facet-intersection", "cube", 5, 1),
    ("boxes", "lattice-box", 3, 4),
)
VERIFY_REPEAT = 4                              # instances per method row
VERIFY_SEEDS = (0, 1)                          # each LP is verified once per seed
VERIFY_MUTATIONS = ("fix-bound", "certificate")


class Workload:
    """Problem documents plus one pass of operations."""

    def __init__(self):
        self.docs = {}   # file name -> problem document
        self.ops = []    # dicts: cmd, argv (file names relative), expect, ...
        self.sizes = {}  # input-size summary recorded beside ops_per_s

    def doc(self, stem: str, doc: dict) -> str:
        fname = f"{stem}.json"
        if fname in self.docs:
            raise ValueError(f"duplicate problem file {fname}")
        self.docs[fname] = doc
        return fname

    def op(self, cmd: str, argv: list, expect: dict, **extra) -> None:
        self.ops.append({"cmd": cmd, "argv": argv, "expect": expect, **extra})

    def files(self) -> dict:
        """File name -> exact bytes of every generated file."""
        out = {name: (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
               for name, doc in sorted(self.docs.items())}
        out["ops.json"] = (json.dumps(self.ops, sort_keys=True, indent=1) + "\n").encode()
        return out

    def write(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        for name, data in self.files().items():
            with open(os.path.join(workdir, name), "wb") as handle:
                handle.write(data)


# -- shared generators ---------------------------------------------------------

def _objective(rng: random.Random, n: int, lo=-20, hi=20) -> list:
    """Integer costs; about one entry in six has denominator 2 or 3."""
    out = []
    for _ in range(n):
        if rng.random() < 1 / 6:
            out.append(str(Fraction(rng.randint(lo * 3, hi * 3), rng.choice((2, 3)))))
        else:
            out.append(str(rng.randint(lo, hi)))
    return out


def _bitstring(v) -> str:
    return "".join(str(x) for x in v)


def _sample_vertices(rng: random.Random, n: int, spec: dict, count: int) -> list:
    pool = ref.vertices(n, spec)  # enumeration order is deterministic
    return sorted(rng.sample(pool, min(count, len(pool))))


def _binary_doc(rng, n, spec, forbidden_count, k=None) -> dict:
    forbidden = [_bitstring(v) for v in _sample_vertices(rng, n, spec, forbidden_count)]
    doc = {"kind": "binary", "n": n, "polytope": spec,
           "objective": _objective(rng, n), "forbidden": forbidden}
    if k is not None:
        doc["k"] = k
    return doc


def _solve_expect(doc: dict) -> dict:
    count, best = ref.allowed_values(doc, 1)
    if count == 0:
        return {"rc": 2}
    return {"rc": 0, "value": str(best[0])}


def _kbest_expect(doc: dict) -> dict:
    count, values = ref.allowed_values(doc, doc["k"])
    return {"rc": 0, "values": [str(v) for v in values], "exhausted": count < doc["k"]}


def _add_solve_kbest(w: Workload, stem: str, doc: dict, cmd: str) -> None:
    fname = w.doc(stem, doc)
    if cmd == "kbest":
        w.op("kbest", ["kbest", fname], _kbest_expect(doc), problem=fname)
    else:
        w.op("solve", ["solve", fname], _solve_expect(doc), problem=fname)


def _complete_graph(nodes: int) -> list:
    return [[a, b] for a in range(nodes) for b in range(a + 1, nodes)]


# -- enum-oracle -----------------------------------------------------------------

def _enum_family(rng: random.Random, family: str, cmd: str) -> dict:
    # |X| per family is set so that every family costs about the same per
    # command (solve ~15 ms, kbest ~120 ms on a 2-vCPU Xeon VM)
    k = ENUM_K if cmd == "kbest" else None
    if family == "cube":
        return _binary_doc(rng, 14, {"type": "cube"}, rng.randint(34, 38), k)
    if family == "cardinality":
        return _binary_doc(rng, 14, {"type": "cardinality", "s": 7}, rng.randint(26, 30), k)
    if family == "spanning-tree":
        spec = {"type": "spanning-tree", "nodes": 6, "edges": _complete_graph(6)}
        return _binary_doc(rng, 15, spec, rng.randint(28, 32), k)
    # integral lattice box, n=4 with six values per coordinate
    n = 4
    spec = {"type": "lattice-box", "l": [0] * n, "u": [5] * n}
    forbidden = [list(v) for v in _sample_vertices(rng, n, spec, rng.randint(68, 72))]
    doc = {"kind": "integral", "n": n, "polytope": spec,
           "objective": _objective(rng, n), "forbidden": forbidden}
    if k is not None:
        doc["k"] = k
    return doc


_ALLDIFF_SLOTS = (
    {"type": "cube"},
    {"type": "cardinality", "s": 3},
    {"type": "spanning-tree", "nodes": 4, "edges": _complete_graph(4)},
)


def _alldiff_doc(rng: random.Random, slots: int, n: int = 6) -> dict:
    return {"kind": "binary", "n": n,
            "slots": [{"polytope": rng.choice(_ALLDIFF_SLOTS), "objective": _objective(rng, n)}
                      for _ in range(slots)]}


def _alldiff_expect(doc: dict) -> dict:
    total = ref.alldiff_optimum(doc)
    return {"rc": 2} if total is None else {"rc": 0, "total": str(total)}


def _enum_oracle(w: Workload, rng: random.Random) -> None:
    families = ("cube", "cardinality", "spanning-tree", "lattice-box")
    for family in families:
        for cmd, count in ENUM_MIX.items():
            for i in range(count):
                _add_solve_kbest(w, f"{family}-{cmd}-{i}", _enum_family(rng, family, cmd), cmd)
    for i in range(ENUM_ALLDIFF):
        doc = _alldiff_doc(rng, rng.randint(3, 4))
        fname = w.doc(f"alldiff-{i}", doc)
        w.op("alldiff", ["alldiff", fname], _alldiff_expect(doc), problem=fname)
    # planted infeasible operations: each must exit 2
    card = {"type": "cardinality", "s": 2}
    _add_solve_kbest(w, "planted-card", _binary_doc(rng, 4, card, 6), "solve")
    box = {"type": "lattice-box", "l": [0, 0], "u": [1, 2]}
    doc = {"kind": "integral", "n": 2, "polytope": box, "objective": _objective(rng, 2),
           "forbidden": [list(v) for v in ref.vertices(2, box)]}
    _add_solve_kbest(w, "planted-box", doc, "solve")
    doc = {"kind": "binary", "n": 2,
           "slots": [{"polytope": {"type": "cardinality", "s": 1},
                      "objective": _objective(rng, 2)} for _ in range(3)]}
    fname = w.doc("planted-alldiff", doc)
    w.op("alldiff", ["alldiff", fname], _alldiff_expect(doc), problem=fname)
    w.sizes = {"cube": "n=14, |X|=34..38", "cardinality": "n=14, s=7, |X|=26..30",
               "spanning-tree": "K6 (n=15), |X|=28..32",
               "lattice-box": "n=4, 6^4 points, |X|=68..72", "kbest": f"k={ENUM_K}",
               "alldiff": "3..4 slots, n=6"}


# -- hrep-oracle -------------------------------------------------------------------

def _matching_hrep(side: int) -> dict:
    """Bipartite matching polytope of K_{side,side}: degree <= 1, x >= 0."""
    n = side * side
    rows = []
    for i in range(side):
        rows.append({"a": [1 if e // side == i else 0 for e in range(n)], "rel": "<=", "b": "1"})
        rows.append({"a": [1 if e % side == i else 0 for e in range(n)], "rel": "<=", "b": "1"})
    for e in range(n):
        rows.append({"a": [1 if j == e else 0 for j in range(n)], "rel": ">=", "b": "0"})
    return {"type": "hrep", "rows": rows}


def _capped_cube_hrep(n: int, cap: int) -> dict:
    """Unit cube with the cardinality cap sum(x) <= cap."""
    unit = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows = [{"a": a, "rel": ">=", "b": "0"} for a in unit]
    rows += [{"a": a, "rel": "<=", "b": "1"} for a in unit]
    rows.append({"a": [1] * n, "rel": "<=", "b": str(cap)})
    return {"type": "hrep", "rows": rows}


def _perfect_matchings(side: int) -> list:
    return sorted(tuple(1 if p[e // side] == e % side else 0 for e in range(side * side))
                  for p in permutations(range(side)))


def _hrep_oracle(w: Workload, rng: random.Random) -> None:
    matching = _matching_hrep(4)
    perfect = _perfect_matchings(4)
    capped = _capped_cube_hrep(10, 4)
    for cmd, count in HREP_MIX.items():
        k = HREP_K if cmd == "kbest" else None
        for i in range(count):
            # forbid perfect matchings and reward every edge, so the optimum
            # has to be found around the removed vertices
            doc = {"kind": "binary", "n": 16, "polytope": matching,
                   "objective": [str(-rng.randint(1, 20)) for _ in range(16)],
                   "forbidden": [_bitstring(v) for v in sorted(rng.sample(perfect, 4))]}
            if k is not None:
                doc["k"] = k
            _add_solve_kbest(w, f"matching-{cmd}-{i}", doc, cmd)
        for i in range(count):
            _add_solve_kbest(w, f"capped-{cmd}-{i}",
                             _binary_doc(rng, 10, capped, rng.randint(11, 13), k), cmd)
    # planted infeasible operation: every vertex of a small capped cube removed
    small = _capped_cube_hrep(3, 1)
    doc = {"kind": "binary", "n": 3, "polytope": small, "objective": _objective(rng, 3),
           "forbidden": [_bitstring(v) for v in ref.vertices(3, small)]}
    _add_solve_kbest(w, "planted-capped", doc, "solve")
    w.sizes = {"matching": "K4,4 matching polytope, n=16, 24 rows, |X|=4 perfect matchings",
               "capped": "cube n=10 with sum(x) <= 4, 21 rows, |X|=11..13", "kbest": f"k={HREP_K}"}


# -- formulation-verify --------------------------------------------------------------

def _verify_doc(rng: random.Random, ptype: str, n: int, forbidden: int) -> dict:
    if ptype == "lattice-box":
        spec = {"type": "lattice-box", "l": [0] * n, "u": [2] * n}
        points = _sample_vertices(rng, n, spec, forbidden)
        return {"kind": "integral", "n": n, "polytope": spec,
                "forbidden": [list(v) for v in points]}
    spec = {"type": "cube"} if ptype == "cube" else {"type": "cardinality", "s": n // 2}
    points = _sample_vertices(rng, n, spec, forbidden)
    return {"kind": "binary", "n": n, "polytope": spec,
            "forbidden": [_bitstring(v) for v in points]}


def _formulation_verify(w: Workload, rng: random.Random) -> None:
    # groups keep each compile directly before the verifies that read its file
    groups = []
    for method, ptype, n, forbidden in VERIFY_METHODS:
        for i in range(VERIFY_REPEAT):
            stem = f"{method}-{ptype}-{i}"
            fname = w.doc(stem, _verify_doc(rng, ptype, n, forbidden))
            lp = f"{stem}.lp"
            groups.append([("compile", ["compile", fname, "--method", method, "-o", lp],
                           {"rc": 0, "lp": lp}, {"problem": fname})] + [
                ("verify", ["verify", fname, "--lp", lp, "--seed", str(seed)],
                 {"rc": 0, "seed": seed}, {"problem": fname}) for seed in VERIFY_SEEDS])
    # planted failing verifications: LP files the runner mutates at set-up
    for i, mutation in enumerate(VERIFY_MUTATIONS * VERIFY_REPEAT):
        method, ptype, n, forbidden = VERIFY_METHODS[i % 3]
        stem = f"mutated-{mutation}-{i}"
        fname = w.doc(stem, _verify_doc(rng, ptype, n, forbidden))
        lp = f"{stem}.lp"
        source = ["compile", fname, "--method", method, "-o", lp]
        groups.append([("verify", ["verify", fname, "--lp", lp, "--seed", "0"],
                       {"rc": 3, "seed": 0, "fails": mutation},
                       {"problem": fname, "mutate": {"compile": source, "kind": mutation}})])
    # planted failing compile: every vertex forbidden, so nothing is left
    n = 4
    doc = {"kind": "binary", "n": n, "polytope": {"type": "cube"},
           "forbidden": [_bitstring(v) for v in ref.vertices(n, {"type": "cube"})]}
    fname = w.doc("planted-all-forbidden", doc)
    groups.append([("compile", ["compile", fname, "--method", "faces", "-o", "planted.lp"],
                   {"rc": 1}, {"problem": fname})])
    rng.shuffle(groups)
    for group in groups:
        for cmd, argv, expect, extra in group:
            w.op(cmd, argv, expect, **extra)
    w.sizes = {f"{m}/{p}": f"n={n}, |X|={x}" for m, p, n, x in VERIFY_METHODS}
    w.sizes["verify"] = f"50 support objectives, seeds {list(VERIFY_SEEDS)}"


_BUILDERS = {"enum-oracle": _enum_oracle, "hrep-oracle": _hrep_oracle,
             "formulation-verify": _formulation_verify}


def build(name: str, seed: int) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    w = Workload()
    rng = random.Random(f"{name}:{seed}")
    _BUILDERS[name](w, rng)
    if name != "formulation-verify":
        rng.shuffle(w.ops)
    return w
