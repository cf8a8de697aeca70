#!/usr/bin/env python3
"""Benchmark of the gcodelab CLI on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gcodelab from ./src
and exits non-zero, printing no result, when that is missing.  Each op is
one `gcodelab` command run in-process through `cli.run` with `--threads 1
--json`, and every op's stdout is checked.  A run repeats passes over the
workload's ops while the next pass still fits in --seconds.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"

DEFAULT_SEED = 0
MAX_PASSES = 20
GOLAY_OPS = 100  # ops per golay pass; p90 then has ten samples beyond it
# Op times on golay depend on the drawn seeds (the hit trial is roughly
# geometric), so a golay run makes at least three passes, 300 searches.
MIN_PASSES = {"sweep-f2": 1, "sweep-f3": 1, "mindist": 1, "golay": 3}
# Set-up is timed in fresh interpreters, SETUP_BATCH of them before every
# pass and after the last: the host's speed drifts over seconds, and samples
# spread over the whole run give a steadier median than a burst at the start.
SETUP_BATCH = 3
COMMON_FLAGS = ["--threads", "1", "--json"]


def import_gcodelab():
    """Import the library from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gcodelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gcodelab sources under {src}")
    sys.path.insert(0, str(src))
    import gcodelab
    from gcodelab import cli

    if Path(gcodelab.__file__).resolve().parent != src / "gcodelab":
        raise SystemExit(f"perfbench: imported gcodelab from {gcodelab.__file__}")
    return cli


# --- seeded inputs -------------------------------------------------------------


def relabel_perm(n: int, seed: int):
    """A seeded permutation of 0..n-1 that keeps the identity at index 0."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    return np.concatenate([[0], 1 + rng.permutation(n - 1)]).astype(np.int64)


def relabel_group(group, perm):
    """The same group with element i renamed perm[i]."""
    import numpy as np
    from gcodelab import groups

    inv = np.argsort(perm)
    table = perm[group.table[np.ix_(inv, inv)]]
    return groups.Group(table, [group.labels[i] for i in inv], name=group.name)


def relabel_code(code, perm):
    """The same ideal with coordinate i moved to perm[i], over the relabelled
    group, in canonical form."""
    import numpy as np
    from gcodelab import gcode, linalg

    group = relabel_group(code.group, perm)
    inv = np.argsort(perm)
    basis = linalg.rref(code.basis.matrix[:, inv], code.field, width=group.order)
    return gcode.GCode(group, basis)


def golay_seeds(seed: int):
    """MAX_PASSES blocks of GOLAY_OPS search seeds drawn from the workload seed."""
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    return rng.integers(0, 1 << 32, size=(MAX_PASSES, GOLAY_OPS)).tolist()


def write_inputs(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files into workdir; returns their paths."""
    from gcodelab import constructions, gcode, groups

    if name in ("sweep-f2", "sweep-f3"):
        group = groups.make_cyclic(16 if name == "sweep-f2" else 9)
        path = workdir / "group.json"
        groups.save_group(relabel_group(group, relabel_perm(group.order, seed)), path)
        return {"group": str(path)}
    if name == "mindist":
        code = constructions.reed_muller(2, 6)
        path = workdir / "code.json"
        gcode.save_code(relabel_code(code, relabel_perm(code.length, seed)), path)
        return {"code": str(path)}
    path = workdir / "golay_seeds.json"
    path.write_text(json.dumps(golay_seeds(seed)))
    return {"seeds": str(path)}


# --- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[str], bool]


def _equals(expected: str) -> Callable[[str], bool]:
    return lambda out: out == expected


def _golay_check(seed: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        rep = json.loads(out)
        keys = ("seed", "found", "n", "k", "d", "product", "self_dual")
        return tuple(rep.get(k) for k in keys) == (seed, True, 24, 12, 8, 96, True)

    return check


def pass_ops(name: str, inputs: dict, pass_index: int, expected: dict) -> list[Op]:
    """The ops of one pass.  Single-op workloads repeat the same command;
    golay pass i runs the i-th block of seeds."""
    if name in ("sweep-f2", "sweep-f3"):
        p = "2" if name == "sweep-f2" else "3"
        argv = ["verify", "all", "--group", inputs["group"], "--p", p]
        return [Op(argv + COMMON_FLAGS, _equals(expected[name]))]
    if name == "mindist":
        argv = ["code", "params", "--code", inputs["code"]]
        return [Op(argv + COMMON_FLAGS, _equals(expected[name]))]
    seeds = json.loads(Path(inputs["seeds"]).read_text())[pass_index]
    return [
        Op(
            ["search", "golay", "--budget", "1000000", "--seed", str(s)] + COMMON_FLAGS,
            _golay_check(s),
        )
        for s in seeds
    ]


WORKLOADS = ("sweep-f2", "sweep-f3", "mindist", "golay")


# --- running ops ------------------------------------------------------------------


def run_op(cli, op: Op) -> tuple[float, str | None, bool]:
    """Run one op; returns (seconds, stdout or None, passed its check)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(op.argv)
    except Exception as exc:  # an op that raises is a failed op, the run goes on
        print(f"perfbench: {' '.join(op.argv)} raised {exc!r}", file=sys.stderr)
        return time.perf_counter() - t0, None, False
    elapsed = time.perf_counter() - t0
    out = buf.getvalue()
    try:
        ok = code == 0 and op.check(out)
    except (ValueError, KeyError, TypeError):
        ok = False
    if not ok:
        print(f"perfbench: {' '.join(op.argv)} failed (exit {code}): {out[:200]!r}",
              file=sys.stderr)
    return elapsed, out, ok


@dataclass
class PassResult:
    wall_s: float
    op_s: list[float]
    failed: int


def run_pass(cli, ops: list[Op], golay_digest: str | None = None) -> PassResult:
    """Run every op of a pass.  When golay_digest is given, the sha256 of all
    stdouts of the pass must equal it, or every op of the pass counts failed."""
    t0 = time.perf_counter()
    results = [run_op(cli, op) for op in ops]
    wall = time.perf_counter() - t0
    failed = sum(not ok for _, _, ok in results)
    if golay_digest is not None:
        digest = hashlib.sha256("".join(out or "" for _, out, _ in results).encode())
        if digest.hexdigest() != golay_digest:
            print("perfbench: golay stdout digest differs from the record", file=sys.stderr)
            failed = len(ops)
    return PassResult(wall, [t for t, _, _ in results], failed)


def measure(cli, name, seed, inputs, expected, seconds, passes=None,
            between: Callable[[], None] = lambda: None) -> list[PassResult]:
    """Passes while the next one (estimated by the last) fits in `seconds`,
    at least MIN_PASSES and at most MAX_PASSES; exactly `passes` when given.
    `between` runs before every pass and after the last."""
    t0 = time.perf_counter()
    results: list[PassResult] = []
    for i in range(passes or MAX_PASSES):
        between()
        digest = None
        if name == "golay" and seed == DEFAULT_SEED:
            digest = expected["golay-default-seed-digests"][i]
        results.append(run_pass(cli, pass_ops(name, inputs, i, expected), digest))
        if (passes is None and len(results) >= MIN_PASSES[name]
                and time.perf_counter() - t0 + results[-1].wall_s > seconds):
            break
    between()
    return results


# --- tracing --------------------------------------------------------------------


def trace_targets():
    """What the traced pass wraps: (owner, attribute, metric name, kind, counter)."""
    from gcodelab import cli, constructions, gcode, groups, linalg, schur, theorems
    from tracing import LEAF, SPAN

    spans = [
        (cli, "run", "cli.run", None),
        (theorems, "verify_uncertainty", "theorems.verify_uncertainty", None),
        (theorems, "verify_bound", "theorems.verify_bound", None),
        (theorems, "verify_equality", "theorems.verify_equality", None),
        (theorems, "verify_schur", "theorems.verify_schur", None),
        (theorems, "enumerate_cyclic_ideals", "theorems.enumerate",
         lambda args, res: {"ideals": len(res)}),
        (constructions, "golay_search", "constructions.golay_search",
         lambda args, res: {"hits": int(res is not None)}),
        (gcode.GCode, "_min_scan", "gcode.min_scan",
         lambda args, res: {"codewords": args[0].field.p ** args[0].dim}),
        (schur, "schur_product", "schur.schur_product", None),
        (schur, "schur_power_chain", "schur.schur_power_chain", None),
        (schur, "fixed_point_structure", "schur.fixed_point_structure", None),
    ]
    leaves = [
        (linalg, "f2_rref", "linalg.f2_rref"),
        (linalg, "f2_rank", "linalg.f2_rank"),
        (linalg, "rref", "linalg.rref"),
        (linalg, "rank", "linalg.rank"),
        (linalg.RowBasis, "__init__", "linalg.RowBasis"),
        (linalg.RowBasis, "contains_rows", "linalg.contains_rows"),
        (linalg, "kernel", "linalg.kernel"),
        (linalg, "subspace_intersect", "linalg.subspace_intersect"),
        (gcode, "is_ideal", "gcode.is_ideal"),
        (groups.Group, "__init__", "groups.Group"),
    ]
    return [(o, a, n, SPAN, c) for o, a, n, c in spans] + [
        (o, a, n, LEAF, None) for o, a, n in leaves
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, overhead: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    m: dict[str, tuple[float, str]] = {}

    def calls_self(name: str) -> None:
        t = tracer.totals(name)
        m[f"{name}.calls"] = (t["calls"], "count")
        m[f"{name}.self_s"] = (t["self_s"], "s")

    for name in ("linalg.f2_rref", "linalg.f2_rank", "linalg.rref", "linalg.rank",
                 "linalg.RowBasis", "linalg.contains_rows", "linalg.kernel",
                 "linalg.subspace_intersect", "gcode.is_ideal", "groups.Group",
                 "schur.schur_product", "constructions.golay_search"):
        calls_self(name)
    m["cli.run.self_s"] = (tracer.totals("cli.run")["self_s"], "s")
    for name in ("theorems.verify_uncertainty", "theorems.verify_bound",
                 "theorems.verify_equality", "theorems.verify_schur",
                 "schur.schur_power_chain", "schur.fixed_point_structure"):
        m[f"{name}.total_s"] = (tracer.totals(name)["total_s"], "s")

    enum = tracer.totals("theorems.enumerate")
    elims = sum(tracer.leaf_calls_within(leaf, "theorems.enumerate")
                for leaf in ("linalg.f2_rref", "linalg.rref"))
    m["theorems.enumerate.calls"] = (enum["calls"], "count")
    m["theorems.enumerate.self_s"] = (enum["self_s"], "s")
    m["theorems.enumerate.eliminations"] = (elims, "count")
    m["theorems.enumerate.ideals"] = (enum.get("ideals", 0), "count")
    m["theorems.enumerate.useful_ratio"] = (_ratio(enum.get("ideals", 0), elims), "ratio")

    scan = tracer.totals("gcode.min_scan")
    m["gcode.min_scan.calls"] = (scan["calls"], "count")
    m["gcode.min_scan.self_s"] = (scan["self_s"], "s")
    m["gcode.min_scan.codewords"] = (scan.get("codewords", 0), "count")
    m["gcode.min_scan.codewords_per_s"] = (
        _ratio(scan.get("codewords", 0), scan["self_s"]), "1/s")

    golay = "constructions.golay_search"
    candidates = tracer.leaf_calls_within("linalg.f2_rref", golay)
    hits = tracer.totals(golay).get("hits", 0)
    m["constructions.golay.trials"] = (tracer.leaf_calls_within("linalg.f2_rank", golay),
                                       "count")
    m["constructions.golay.candidates"] = (candidates, "count")
    m["constructions.golay.hits"] = (hits, "count")
    m["constructions.golay.hit_ratio"] = (_ratio(hits, candidates), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def traced_pass(cli, name, seed, inputs, expected):
    """A traced pass between two untraced ones (which cancels warm-up from the
    overhead ratio); returns (tracer, passes, overhead ratio)."""
    import tracing

    def one_pass():
        return measure(cli, name, seed, inputs, expected, 0, passes=1)[0]

    before = one_pass()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, trace_targets())
    try:
        traced = one_pass()
    finally:
        tracing.uninstall(undo)
    after = one_pass()
    overhead = traced.wall_s / ((before.wall_s + after.wall_s) / 2)
    return tracer, [before, traced, after], overhead


# --- environment and set-up time --------------------------------------------------


def environment(seed: int, workload: str) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        sha = ref
    return {
        "workload": workload,
        "seed": seed,
        "threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def setup_samples(name: str, seed: int) -> list[float]:
    """Wall times of SETUP_BATCH fresh interpreters that import gcodelab and
    write the workload's inputs: the time from process start to the first op."""
    times = []
    for _ in range(SETUP_BATCH):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and write inputs, then exit (set-up timing)")
    args = ap.parse_args(argv)

    cli = import_gcodelab()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        inputs = write_inputs(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        expected = json.loads(EXPECTED.read_text())
        env = environment(args.seed, args.workload)
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            tracer, passes, overhead = traced_pass(
                cli, args.workload, args.seed, inputs, expected)
            metrics = layer_metrics(tracer, overhead)
        else:
            setup_s: list[float] = []
            passes = measure(cli, args.workload, args.seed, inputs, expected,
                             args.seconds,
                             between=lambda: setup_s.extend(
                                 setup_samples(args.workload, args.seed)))
            op_s = [t for p in passes for t in p.op_s]
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
                "op_p50_s": (statistics.median(op_s), "s"),
                "op_p90_s": (_percentile(op_s, 90), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.op_s) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    record = {"env": env, "metrics": metrics,
              "passes": [{"wall_s": p.wall_s, "op_s": p.op_s, "failed": p.failed}
                         for p in passes]}
    if args.trace:
        record["spans"] = tracer.spans
        record["leaves"] = [dict(name=n, span=s, **v) for (n, s), v in tracer.leaves.items()]
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
