"""Seeded benchmark of the `deodhar` library and CLI, stdlib only.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one single-threaded process driving a closed loop: one
client, and the next op starts when the previous one has finished and been
checked exactly.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates untraced and traced passes over a fixed op list and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it describes the run (environment, sample counts, errors), and
the same record, with the raw spans of a traced run, is written under
``.bench_out/``.  See ``BENCHMARK.json`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from probe import convert
from speed import at_reference_speed, reference_s
from tracing import TARGETS, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
INTERPRETER_PROBES = 5
CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    """One closed-loop operation: a library or CLI call and its exact check.

    Library names are looked up on the package at call time, so a traced
    pass reaches the installed wrappers.
    """

    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    inputs: dict  # plain matrices and permutations, converted during set-up
    ops: list
    argvs: list  # CLI argument lists whose in-process cost is cli.main_ms
    trace_ops: list  # the fixed op list of a traced run
    child_peaks_kb: list | None = None  # for `cli`: peak memory of each child, in KiB


def frac_map(params: dict) -> dict:
    return {str(k): str(x) for k, x in params.items()}


def same_trace(trace, flag: dict) -> bool:
    return "".join(trace.marks) == flag["marks"] and [
        list(p.images) for p in trace.values
    ] == flag["values"]


def write_matrix(tmp: Path, k: int, matrix) -> str:
    path = tmp / f"m{k}.json"
    path.write_text(json.dumps(matrix), encoding="utf-8")
    return str(path.relative_to(ROOT))


# --- workloads -------------------------------------------------------------


def ansatz(lib, rng, tiny: bool, tmp: Path) -> Workload:
    """factorize on flags of random components of w0 with descents, d in {6, 8}."""
    dims = [6, 6, 8] * (1 if tiny else 51)
    flags = [gen.component_flag(rng, d, positive=False) for d in dims]
    inputs = {"matrices": [f["matrix"] for f in flags], "perms": []}
    mats, _ = convert(lib, inputs)

    def check(flag, res) -> bool:
        return (
            same_trace(res.descriptor.trace, flag)
            and frac_map(res.t_params) == flag["t"]
            and frac_map(res.m_params) == flag["m"]
        )

    ops = [
        Op(functools.partial(lambda z, w: lib.factorize(z, w), z, f["word"]),
           functools.partial(check, f))
        for f, z in zip(flags, mats)
    ]
    argvs = [
        ["factorize", "--matrix", write_matrix(tmp, k, f["matrix"]),
         "--word", json.dumps(f["word"])]
        for k, f in enumerate(flags[:3])
    ]
    return Workload(inputs, ops, argvs, trace_ops=ops[: 3 if tiny else 6])


def survey(lib, rng, tiny: bool, tmp: Path) -> Workload:
    """classify, tnn certificate, chamber coordinates and SVG, d in {8, 12}.

    Blocks of four flags alternate between positive components (certificate
    true) and random components with descents (certificate false), so each
    degree gets both halves.
    """
    dims = [8, 8, 8, 12] * (2 if tiny else 64)
    flags = [gen.component_flag(rng, d, positive=k // 4 % 2 == 0) for k, d in enumerate(dims)]
    coords = [gen.chamber_coordinates(f) for f in flags]
    inputs = {"matrices": [f["matrix"] for f in flags], "perms": []}
    mats, _ = convert(lib, inputs)

    def run(z, word):
        desc = lib.classify(z, word)
        cert = lib.is_totally_nonnegative(z, word)
        values = lib.chamber_coordinates(z, desc)
        svg = lib.render(lib.build_arrangement(lib.ANSATZ, desc), "svg")
        return desc, cert, values, svg

    def check(flag, expected, res) -> bool:
        desc, cert, values, svg = res
        return (
            same_trace(desc.trace, flag)
            and cert.nonnegative == ("-" not in flag["marks"])
            and frac_map(values) == expected
            and ET.fromstring(svg).tag.endswith("svg")
        )

    ops = [
        Op(functools.partial(run, z, f["word"]), functools.partial(check, f, c))
        for f, c, z in zip(flags, coords, mats)
    ]
    argvs = [
        ["tnn-check", "--matrix", write_matrix(tmp, k, f["matrix"]),
         "--word", json.dumps(f["word"])]
        for k, f in enumerate(flags[:4])
    ]
    return Workload(inputs, ops, argvs, trace_ops=ops[: 8 if tiny else 16])


def rpoly_pairs(rng, d: int, count: int) -> list:
    """(e, w0) and random pairs v <= w with l(w) >= 11."""
    w0 = list(range(d, 0, -1))
    pairs = [{"d": d, "v": list(gen.identity(d)), "w": w0,
              "word": list(gen.random_reduced_word(rng, tuple(w0)))}]
    while len(pairs) < count:
        pair = gen.bruhat_pair(rng, d)
        if gen.length(tuple(pair["w"])) >= 11:
            pairs.append(pair)
    return pairs


def check_rpoly(pair: dict, poly) -> bool:
    """Degree l(w)-l(v), monic, and q^l R(1/q) = (-1)^l R(q) with l = l(w)-l(v)."""
    ell = gen.length(tuple(pair["w"])) - gen.length(tuple(pair["v"]))
    c = poly.coeffs
    return (
        poly.degree == ell
        and poly.is_monic()
        and list(reversed(c)) == [(-1) ** ell * x for x in c]
    )


def rpoly(lib, rng, tiny: bool, tmp: Path) -> Workload:
    """r_polynomial(v, w, word) for Bruhat pairs at d = 6, including (e, w0)."""
    pairs = rpoly_pairs(rng, 6, 4 if tiny else 400)
    inputs = {"matrices": [], "perms": [p["v"] for p in pairs] + [p["w"] for p in pairs]}
    _, perms = convert(lib, inputs)
    n = len(pairs)
    ops = [
        Op(functools.partial(lambda v, w, word: lib.r_polynomial(v, w, word),
                             perms[k], perms[n + k], p["word"]),
           functools.partial(check_rpoly, p))
        for k, p in enumerate(pairs)
    ]
    argvs = [
        ["rpoly", "--v", json.dumps(p["v"]), "--w", json.dumps(p["w"]),
         "--word", json.dumps(p["word"])]
        for p in pairs[:4]
    ]
    return Workload(inputs, ops, argvs, trace_ops=ops[: 4 if tiny else 40])


def cli_child(argv: list, env: dict, peaks_kb: list) -> tuple[int, str]:
    """One cold `python -m deodhar.cli` process: its exit code and output.

    The child is reaped with ``os.wait4``, so its own peak memory is
    appended to ``peaks_kb``; the set-up probes' children are left out.
    """
    with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
        with subprocess.Popen([sys.executable, "-m", "deodhar.cli", *argv], cwd=ROOT, env=env,
                              stdout=out, stderr=subprocess.DEVNULL) as proc:
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        peaks_kb.append(usage.ru_maxrss)
        out.seek(0)
        return proc.returncode, out.read()


def run_main(lib_cli, argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib_cli.main(argv)
    return code, buf.getvalue()


def cli(lib, rng, tiny: bool, tmp: Path) -> Workload:
    """Cold `python -m deodhar.cli` processes over five commands at d = 6."""
    import deodhar.cli as lib_cli

    count = 1 if tiny else 20
    flags = [gen.component_flag(rng, 6, positive=k % 2 == 0) for k in range(count)]
    pairs = rpoly_pairs(rng, 6, count)
    inputs = {
        "matrices": [f["matrix"] for f in flags],
        "perms": [p["v"] for p in pairs] + [p["w"] for p in pairs],
    }
    convert(lib, inputs)
    argvs = []
    for k, (f, p) in enumerate(zip(flags, pairs)):
        m = ["--matrix", write_matrix(tmp, k, f["matrix"]), "--word", json.dumps(f["word"])]
        argvs += [
            ["classify"] + m,
            ["factorize"] + m,
            ["tnn-check"] + m,
            ["rpoly", "--v", json.dumps(p["v"]), "--w", json.dumps(p["w"]),
             "--word", json.dumps(p["word"])],
            ["diagram"] + m + ["--kind", "ansatz", "--format", "json"],
        ]
    expected = []  # None where the in-process run fails, so the op counts as failed
    for argv in argvs:
        try:
            code, text = run_main(lib_cli, argv)
            expected.append(json.loads(text) if code == 0 else None)
        except Exception:
            expected.append(None)
    env = child_env()
    peaks_kb: list = []

    def run_child(argv):
        return cli_child(argv, env, peaks_kb)

    def check_child(want, res) -> bool:
        return want is not None and res[0] == 0 and json.loads(res[1]) == want

    def check_main(want, res) -> bool:
        return want is not None and res[0] == 0 and json.loads(res[1]) == want

    ops = [Op(functools.partial(run_child, a), functools.partial(check_child, e))
           for a, e in zip(argvs, expected)]
    trace_ops = [Op(functools.partial(run_main, lib_cli, a), functools.partial(check_main, e))
                 for a, e in zip(argvs, expected)]
    return Workload(inputs, ops, argvs[:10], trace_ops=trace_ops, child_peaks_kb=peaks_kb)


WORKLOADS = {"ansatz": ansatz, "survey": survey, "rpoly": rpoly, "cli": cli}

# --- measurement -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child_wall_s(args: list) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def setup_probe(inputs_path: Path) -> tuple[float, float]:
    """Set-up time of one fresh interpreter: import `deodhar` and convert the inputs.

    Returns the time at reference speed and as measured.
    """
    before = reference_s()
    out = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(inputs_path)], cwd=ROOT,
                         env=child_env(), check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    after = reference_s()
    seconds = float(out.stdout.strip().splitlines()[-1])
    return at_reference_speed(seconds, before, after), seconds


class Tally:
    """Attempted and failed ops, with the first few failure reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, op: Op) -> float:
        """Run one op and check it; returns the op's latency in seconds."""
        self.attempted += 1
        latency = None
        start = time.perf_counter()
        try:
            result = op.run()
            latency = time.perf_counter() - start
            if not op.check(result):
                self._fail(f"op {self.attempted}: result failed its exact check")
        except Exception:
            if latency is None:
                latency = time.perf_counter() - start
            self._fail(traceback.format_exc(limit=3))
        return latency

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(wl: Workload, seconds: float, tally: Tally, probe: Callable[[], tuple]) -> tuple[dict, dict]:
    """The closed loop: passes over the op pool for ``seconds`` of wall time.

    Every latency is scaled to the reference speed (see `speed`).  An op's
    latency is the median of its repetitions, one pass apart, and the
    percentiles are taken over the pool's ops.  The loop runs at least one
    full pass.  ``SETUP_PROBES`` set-up probes run at even intervals between
    ops, after one that warms ``__pycache__``, and ``setup_s`` is their
    median.  ``tally`` must be fresh: every op it counts is a timed one.
    """
    Tally().run(wl.ops[0])
    probe()
    n = len(wl.ops)
    scaled = [[] for _ in range(n)]
    latencies, setup = [], []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= seconds * len(setup) / SETUP_PROBES:
            setup.append(probe())
        elif elapsed < seconds or k < n:
            before = reference_s()
            latency = tally.run(wl.ops[k % n])
            after = reference_s()
            scaled[k % n].append(at_reference_speed(latency, before, after))
            latencies.append(latency)
            k += 1
        else:
            break
    verified = (tally.attempted - tally.failed) / tally.attempted
    lat = sorted(statistics.median(x) for x in scaled)
    metrics = {
        "ops_per_s": (verified * n / sum(lat), "1/s"),
        "op_p50_ms": (1000 * nearest_rank(lat, 0.5), "ms"),
        "op_p90_ms": (1000 * nearest_rank(lat, 0.9), "ms"),
        "verified_frac": (verified, "frac"),
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
    }
    detail = {"samples": n, "samples_above_p90": n - math.ceil(0.9 * n),
              "passes": k / n, "wall_s": time.perf_counter() - start,
              "measured_ops_per_s": len(latencies) / sum(latencies),
              "measured_setup_s": statistics.median(m for _, m in setup),
              "latencies_ms": [1000 * x for x in latencies]}
    return metrics, detail


def peak_rss_mb(wl: Workload) -> float:
    if wl.child_peaks_kb is not None:
        return max(wl.child_peaks_kb) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_pass(ops: list, tally: Tally, record_spans: bool) -> tuple[Tracer, float]:
    tracer = Tracer(record_spans)
    patched = tracer.install()
    try:
        elapsed = 0.0
        for k, op in enumerate(ops):
            tracer.op = k
            elapsed += tally.run(op)
    finally:
        Tracer.uninstall(patched)
    return tracer, len(ops) / elapsed


def untraced_pass(ops: list, tally: Tally) -> float:
    return len(ops) / sum(tally.run(op) for op in ops)


def trace_metrics(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict, list]:
    """Alternate untraced and traced passes over the trace ops for ``seconds``.

    Counts and gauges come from the first traced pass, so they repeat
    exactly for a seed; self times are medians over traced passes.
    """
    untraced, traced, self_ms = [], [], []
    first = None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        untraced.append(untraced_pass(wl.trace_ops, tally))
        tracer, rate = traced_pass(wl.trace_ops, tally, record_spans=first is None)
        traced.append(rate)
        self_ms.append({name: 1000 * s for name, s in tracer.self_s.items()})
        first = first or tracer
    m = {}
    for name, _, _ in TARGETS:
        m[f"{name}.calls"] = (first.calls[name], "count")
        m[f"{name}.self_ms"] = (statistics.median(p.get(name, 0.0) for p in self_ms), "ms")
    m["linalg.max_bits"] = (first.gauges.get("linalg.max_bits", 0), "bits")
    m["components.param_max_bits"] = (first.gauges.get("components.param_max_bits", 0), "bits")
    n_enum = first.calls["subexpr.enumerate_distinguished"]
    m["subexpr.traces"] = (first.counts["subexpr.traces"], "count")
    m["subexpr.traces_per_call"] = (first.counts["subexpr.traces"] / n_enum if n_enum else 0, "count")
    n_tnn = first.calls["positivity.is_totally_nonnegative"]
    m["positivity.tnn_true_frac"] = (first.counts["positivity.tnn_true"] / n_tnn if n_tnn else 0, "frac")
    m["diagrams.render.bytes"] = (first.counts["diagrams.render.bytes"], "bytes")
    m["trace.overhead_ops_per_s"] = (statistics.median(traced) - statistics.median(untraced), "1/s")
    detail = {"passes": len(traced), "trace_ops": len(wl.trace_ops),
              "untraced_ops_per_s": statistics.median(untraced),
              "traced_ops_per_s": statistics.median(traced)}
    return m, detail, first.spans


def cli_metrics(wl: Workload, tally: Tally) -> dict:
    """Interpreter start, package import and in-process `main` times."""
    import deodhar.cli as lib_cli

    child_wall_s(["-c", "import deodhar.cli"])
    interp = statistics.median(child_wall_s(["-c", "pass"]) for _ in range(INTERPRETER_PROBES))
    imp = statistics.median(
        child_wall_s(["-c", "import deodhar.cli"]) for _ in range(INTERPRETER_PROBES)
    )
    main_s = [
        tally.run(Op(functools.partial(run_main, lib_cli, argv), lambda res: res[0] == 0))
        for argv in wl.argvs
    ]
    return {
        "cli.interpreter_ms": (1000 * interp, "ms"),
        "cli.import_ms": (1000 * (imp - interp), "ms"),
        "cli.main_ms": (1000 * statistics.median(main_s), "ms"),
    }


def environment() -> dict:
    git_hash = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=CHILD_TIMEOUT_S)
            git_hash = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "deodhar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_hash": git_hash,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
    }


def import_library():
    if not (SRC / "deodhar" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'deodhar'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import deodhar

    if Path(deodhar.__file__).resolve().parent != (SRC / "deodhar").resolve():
        sys.exit(f"bench: imported deodhar from {deodhar.__file__}, not from {SRC}")
    return deodhar


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true", help="small input pools, for the self-check")
    args = ap.parse_args(argv)

    lib = import_library()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": environment(),
              "loadavg_start": os.getloadavg()}
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](lib, random.Random(args.seed), args.tiny, tmp)
        inputs_path = tmp / "inputs.json"
        inputs_path.write_text(json.dumps(wl.inputs), encoding="utf-8")
        tally = Tally()
        spans = []
        if args.trace:
            startup = cli_metrics(wl, tally)
            metrics, detail, spans = trace_metrics(wl, args.seconds, tally)
            metrics.update(startup)
        else:
            metrics, detail = measure(wl, args.seconds, tally,
                                      functools.partial(setup_probe, inputs_path))
            metrics["peak_rss_mb"] = (peak_rss_mb(wl), "MB")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    latencies = detail.pop("latencies_ms", [])
    record.update(detail)
    record["loadavg_end"] = os.getloadavg()
    record["errors"] = tally.errors
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**record, "result": result, "latencies_ms": latencies, "spans": spans}), encoding="utf-8")
    for err in tally.errors:
        print(err, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
