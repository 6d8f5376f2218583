#!/usr/bin/env python3
"""The fvx benchmark: closed-loop runs of `fvx` commands on seeded inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enum-oracle --seed 1 --seconds 30 --trace 0

One client in one process and thread calls `fvx.cli.main([...])` in-process,
waiting for each command before sending the next (a closed loop).  The
operation list of a workload is generated from the seed; the program sees
only the generated files.  Every answer is checked against the reference
enumeration in `reference.py`.

With `--trace 0` the run repeats the operation list until `--seconds` have
passed and reports the end-to-end metrics, every time scaled to a reference
machine speed by a probe timed before each operation (see `probe`).  With
`--trace 1` it runs the list once traced, between two untraced passes, and
reports the per-layer metrics of the traced pass (see `tracing.py`).  The
last line of standard output is the result object; the line before it holds
the details (per-command medians, unscaled figures, sample counts, machine
facts, failures).  Both are also written under `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import reference as ref
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# per workload: the command whose median is short_cmd_p50_ms / long_cmd_p50_ms
COMMAND_ROLES = {
    "enum-oracle": ("solve", "kbest"),
    "hrep-oracle": ("solve", "kbest"),
    "formulation-verify": ("compile", "verify"),
}
COMMANDS = ("solve", "kbest", "alldiff", "compile", "verify")
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "short_cmd_p50_ms": "ms", "long_cmd_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 10
DEFAULT_TRIALS = 50
REF_PROBE_S = 0.003  # probe time on the reference machine that timings are scaled to
PROBE_WINDOW = 3     # probes on each side of an operation that give its machine speed


def import_fvx():
    """Import fvx.cli from this checkout's source tree, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "fvx", "cli.py")):
        raise SystemExit(f"perfbench: no fvx source under {SRC}; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, SRC)
    import fvx.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(fvx.cli.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported fvx from {fvx.cli.__file__}, not from {SRC}")
    return fvx.cli


# -- machine facts ---------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = os.path.join(git, ref_name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref_name:
                    return parts[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """sha256 over the fvx sources, which identifies the code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "fvx")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": _git_commit(),
            "source_sha256": _source_digest(), "seed": seed}


# -- machine speed -------------------------------------------------------------------

_PROBE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + (i == j) * 9
                  for j in range(9)] for i in range(9)]


def probe() -> float:
    """Seconds for a fixed piece of work, the yardstick of machine speed.

    The speed of a shared VM swings by a third and more within a minute, and
    the swings are common to all Python code, so every reported time is
    scaled by REF_PROBE_S over the probe times around it: a time in
    milliseconds on a machine where the probe takes REF_PROBE_S.  The probe
    does what fvx does (exact Fraction elimination, dict and tuple churn),
    is independent of fvx, and runs with the garbage collector paused so
    that a collection of fvx garbage does not land in it.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            rows = [row[:] for row in _PROBE_MATRIX]
            for col in range(len(rows)):
                for r in range(col + 1, len(rows)):
                    f = rows[r][col] / rows[col][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
            table = {(i, i % 7): Fraction(i, 7) for i in range(300)}
            table.clear()
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


def scale(seconds: float, probes: list) -> float:
    """A time measured while the probe took `probes`, at reference speed."""
    return seconds * REF_PROBE_S / statistics.median(probes)


# -- set-up time -------------------------------------------------------------------

class ImportTimer:
    """Times `import fvx.cli` in fresh interpreters: the set-up every `fvx` pays.

    Timed inside the child, so interpreter start-up is excluded.  A warm-up
    import first writes the bytecode cache, as an installed package has one.
    After the import the child runs the probe, which scales its time to
    reference speed; the runner spreads the samples over the whole run.
    """

    CODE = ("import sys, time; t = time.perf_counter(); import fvx.cli; "
            "t = time.perf_counter() - t; sys.path.insert(0, {here!r}); "
            "from run import probe, PROBE_WINDOW; "
            "print(repr(t), *(repr(probe()) for _ in range(2 * PROBE_WINDOW + 1)))")

    def __init__(self):
        self.samples = []      # at reference speed
        self.raw = []          # as timed
        self._import()

    def _import(self) -> tuple:
        code = self.CODE.format(here=os.path.dirname(os.path.abspath(__file__)))
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, *probes = (float(v) for v in done.stdout.split())
        return seconds, probes

    def sample(self) -> None:
        seconds, probes = self._import()
        self.raw.append(seconds)
        self.samples.append(scale(seconds, probes))

    def median(self) -> float:
        return statistics.median(self.samples)


# -- operations --------------------------------------------------------------------

def call(cli, argv: list) -> tuple:
    """(exit code, seconds, stdout) of one in-process `fvx` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, elapsed, buf.getvalue()


def _mutate(text: str, kind: str) -> str:
    """A compiled LP file made wrong in a way `verify` must catch."""
    lines = text.split("\n")
    if kind == "fix-bound":
        # pin x1 to 0: every allowed point with x1 = 1 must fail membership
        start = lines.index("Bounds")
        for i in range(start + 1, len(lines)):
            if "x1" in lines[i].split():
                lines[i] = " x1 = 0"
                return "\n".join(lines)
        raise ValueError("no bounds line for x1")
    if kind == "certificate":
        # claim one inequality fewer than the system has: the size audit fails
        counted = next((int(l.split("=", 1)[1]) for l in lines
                        if l.startswith("\\ meta: counted=")), None)
        at = next((i for i, l in enumerate(lines) if l.startswith("\\ meta: certified=")), None)
        if counted is None or at is None:
            raise ValueError("no counted or certified meta line")
        lines[at] = f"\\ meta: certified={counted - 1}"
        return "\n".join(lines)
    raise ValueError(f"unknown mutation {kind!r}")


def prepare(cli, w: workloads.Workload) -> None:
    """Write the mutated LP files; runs in the work directory, untimed.

    When the compile or the mutation fails, the file is left missing or
    clean, so the planted verify fails its check and is counted.
    """
    for op in w.ops:
        spec = op.get("mutate")
        if not spec or call(cli, spec["compile"])[0] != 0:
            continue
        lp = spec["compile"][spec["compile"].index("-o") + 1]
        with open(lp, encoding="utf-8") as handle:
            text = handle.read()
        try:
            text = _mutate(text, spec["kind"])
        except ValueError:
            continue
        with open(lp, "w", encoding="utf-8") as handle:
            handle.write(text)


def _vertex(doc: dict, raw) -> tuple:
    return ref.bits_to_tuple(raw) if doc["kind"] == "binary" else tuple(raw)


def _allowed(doc: dict, v: tuple) -> bool:
    return ref.is_vertex(doc["n"], doc["polytope"], v) and v not in ref.forbidden_set(doc)


class Checker:
    """Compares each command's exit code and output with the reference."""

    def __init__(self, w: workloads.Workload):
        self.docs = w.docs
        self.lp_bytes = {}  # compile op index -> bytes of its first output

    def check(self, index: int, op: dict, rc, out: str):
        """None when the answer is right, else a one-line reason."""
        expect = op["expect"]
        if rc != expect["rc"]:
            return f"exit {rc}, expected {expect['rc']}"
        doc = self.docs[op["problem"]]
        cmd = op["cmd"]
        if cmd == "compile":
            return self._check_compile(index, op, rc, out)
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "output is not JSON"
        if cmd == "solve":
            if rc == 2:
                return None if payload.get("status") == "infeasible" else "status is not infeasible"
            v = _vertex(doc, payload["vertex"])
            objective = [ref.rational(c) for c in doc["objective"]]
            if Fraction(payload["value"]) != ref.rational(expect["value"]):
                return f"value {payload['value']}, reference {expect['value']}"
            if not _allowed(doc, v):
                return f"vertex {payload['vertex']} is not allowed"
            if ref.value(objective, v) != Fraction(payload["value"]):
                return "value does not match the vertex"
            return None
        if cmd == "kbest":
            objective = [ref.rational(c) for c in doc["objective"]]
            values = [Fraction(v) for v in payload["values"]]
            if values != [ref.rational(v) for v in expect["values"]]:
                return f"values {payload['values']}, reference {expect['values']}"
            points = [_vertex(doc, v) for v in payload["vertices"]]
            if len(points) != len(values) or len(set(points)) != len(points):
                return "vertices are not distinct or do not match the values"
            for v, val in zip(points, values):
                if not _allowed(doc, v) or ref.value(objective, v) != val:
                    return f"vertex {v} is not allowed or has another value"
            if payload["exhausted"] != expect["exhausted"]:
                return f"exhausted {payload['exhausted']}, reference {expect['exhausted']}"
            return None
        if cmd == "alldiff":
            if rc == 2:
                return None if payload.get("status") == "infeasible" else "status is not infeasible"
            total = Fraction(payload["total"])
            if total != ref.rational(expect["total"]):
                return f"total {payload['total']}, reference {expect['total']}"
            points = [_vertex(doc, v) for v in payload["assignment"]]
            if len(points) != len(doc["slots"]) or len(set(points)) != len(points):
                return "assignment is not one distinct vertex per slot"
            acc = Fraction(0)
            for slot, v in zip(doc["slots"], points):
                if not ref.is_vertex(doc["n"], slot["polytope"], v):
                    return f"vertex {v} is not in its slot's polytope"
                acc += ref.value([ref.rational(c) for c in slot["objective"]], v)
            return None if acc == total else "slot values do not add up to the total"
        if cmd == "verify":
            if payload.get("trials") != DEFAULT_TRIALS or payload.get("seed") != expect["seed"]:
                return "report is for other trials or another seed"
            if rc == 0:
                clean = (payload["verdict"] == "pass" and payload["size_ok"]
                         and not payload["support_mismatches"]
                         and not payload["membership_failures"]
                         and not payload["excluded_failures"])
                return None if clean else "passing report lists failures"
            caught = (payload["membership_failures"] if expect["fails"] == "fix-bound"
                      else not payload["size_ok"])
            if payload["verdict"] != "fail" or not caught:
                return f"mutation {expect['fails']} not reported"
            return None
        return f"no check for command {cmd!r}"

    def _check_compile(self, index, op, rc, out):
        if rc == 1:
            try:
                payload = json.loads(out)
            except json.JSONDecodeError:
                return "output is not JSON"
            return None if payload.get("status") == "error" else "status is not error"
        try:
            with open(op["expect"]["lp"], "rb") as handle:
                data = handle.read()
        except OSError:
            return "LP file not written"
        if b"\\ meta: certified=" not in data:
            return "LP file has no size certificate"
        first = self.lp_bytes.setdefault(index, data)
        return None if first == data else "LP output differs between passes"


# -- measurement -------------------------------------------------------------------

class Pass:
    """Latency samples and failures of one or more passes over the operations."""

    def __init__(self, ops: list):
        self.ops = ops
        self.attempts = []  # (operation index, seconds, probe seconds), in run order
        self.failures = []

    @property
    def attempted(self) -> int:
        return len(self.attempts)

    def run_op(self, cli, checker: Checker, index: int) -> None:
        op = self.ops[index]
        speed = probe()
        rc, elapsed, out = call(cli, op["argv"])
        self.attempts.append((index, elapsed, speed))
        try:
            reason = checker.check(index, op, rc, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            self.failures.append({"op": index, "argv": op["argv"], "reason": reason})

    def samples(self, scaled: bool = True) -> list:
        """Per operation, its times in run order (scaled to reference speed)."""
        out = [[] for _ in self.ops]
        for j, (index, seconds, _) in enumerate(self.attempts):
            if scaled:
                near = self.attempts[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW + 1]
                seconds = scale(seconds, [p for _, _, p in near])
            out[index].append(seconds)
        return out

    def op_times(self, scaled: bool = True) -> list:
        """One time per operation: the median over its repeats."""
        return [statistics.median(s) for s in self.samples(scaled)]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Operations per second over the fixed list: its length over its time."""
        return len(self.ops) / sum(self.op_times(scaled))


def run_until(cli, checker, ops, seconds: float, timer: ImportTimer) -> Pass:
    """Cycle through the list (at least once, whole) until `seconds` pass.

    Between operations, one set-up sample is taken every tenth of the run.
    """
    p = Pass(ops)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        due = start + len(timer.samples) * seconds / SETUP_SAMPLES
        if len(timer.samples) < SETUP_SAMPLES and time.perf_counter() >= due:
            timer.sample()
        p.run_op(cli, checker, i % len(ops))
        i += 1
    while len(timer.samples) < SETUP_SAMPLES:
        timer.sample()
    return p


def run_once(cli, checker, ops) -> Pass:
    p = Pass(ops)
    for i in range(len(ops)):
        p.run_op(cli, checker, i)
    return p


def _percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (or 50)."""
    return max(50, math.floor(100 * (count - 10) / count))


def end_to_end(name: str, p: Pass, setup: float) -> tuple:
    """(metrics, details) of an untraced run."""
    times = p.op_times()
    by_cmd = {}
    for op, t in zip(p.ops, times):
        by_cmd.setdefault(op["cmd"], []).append(t)
    short, long_ = COMMAND_ROLES[name]
    pct = tail_percentile(len(times))
    metrics = {
        "ops_per_s": p.ops_per_s(),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": _percentile(times, pct) * 1e3,
        "short_cmd_p50_ms": statistics.median(by_cmd[short]) * 1e3,
        "long_cmd_p50_ms": statistics.median(by_cmd[long_]) * 1e3,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "tail_percentile": pct,
        "operations": len(times),
        "samples": p.attempted,
        "repeats_per_operation": min(len(s) for s in p.samples()),
        "probe_ms": statistics.median(a[2] for a in p.attempts) * 1e3,
        "unscaled": {"ops_per_s": p.ops_per_s(scaled=False),
                     "op_p50_ms": statistics.median(p.op_times(scaled=False)) * 1e3},
        "short_cmd": short,
        "long_cmd": long_,
        "per_command_p50_ms": {c: statistics.median(by_cmd[c]) * 1e3
                               for c in COMMANDS if c in by_cmd},
        "per_command_operations": {c: len(by_cmd[c]) for c in COMMANDS if c in by_cmd},
    }
    return metrics, details


def per_layer(cli, checker, ops, tracer) -> tuple:
    """A traced pass between two untraced ones; (metrics, passes).

    The overhead ratio compares the traced pass with the mean of the passes
    around it, so a drift in machine speed during the run mostly cancels.
    """
    before = run_once(cli, checker, ops)
    with tracer.installed():
        traced = run_once(cli, checker, ops)
    after = run_once(cli, checker, ops)
    values = tracing.layer_metrics(tracer)
    plain = (before.ops_per_s() + after.ops_per_s()) / 2
    values["trace.overhead_ratio"] = traced.ops_per_s() / plain
    return values, (before, traced, after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_fvx()
    facts = machine_facts(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, tag)
    results = os.path.join(WORK, "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(results, exist_ok=True)

    w = workloads.build(args.workload, args.seed)
    w.write(workdir)
    here = os.getcwd()
    os.chdir(workdir)  # the operations name their files relative to it
    try:
        prepare(cli, w)
        checker = Checker(w)
        if args.trace:
            tracer = tracing.Tracer()
            values, passes = per_layer(cli, checker, w.ops, tracer)
            metrics = {k: {"value": values[k], "unit": u} for k, u, _ in tracing.METRICS}
            details = {"spans": len(tracer.spans)}
        else:
            timer = ImportTimer()
            p = run_until(cli, checker, w.ops, args.seconds, timer)
            passes = (p,)
            values, details = end_to_end(args.workload, p, timer.median())
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            details["setup_samples_s"] = timer.samples
            details["unscaled"]["setup_s"] = statistics.median(timer.raw)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    details.update({"workload": args.workload, "machine": facts, "sizes": w.sizes,
                    "attempted": attempted, "failed_ratio": len(failures) / attempted,
                    "failures": failures[:10]})
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"details": details, "result": result,
                   "attempts": [[a[0], a[1] * 1e3, a[2] * 1e3]
                                for p in passes for a in p.attempts]},
                  handle, indent=1)
    if args.trace:
        tracer.write(os.path.join(results, f"{tag}-spans.jsonl"))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
