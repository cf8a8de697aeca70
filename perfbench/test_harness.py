"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_gcodelab()

from gcodelab import gcode, groups  # noqa: E402

TINY = ["code", "params", "--group", "cyclic:4", "--p", "2", "--gen", "1,1,0,0"]


def test_self_time_on_synthetic_nesting():
    # span A [0, 10] holds leaf L [1, 3] (itself holding leaf M [1.5, 2.5])
    # and span B [4, 8], which holds leaf L [5, 6].
    ticks = iter([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    a = tr.enter("A", tracing.SPAN)
    leaf = tr.enter("L", tracing.LEAF)
    inner = tr.enter("M", tracing.LEAF)
    tr.exit(inner)
    tr.exit(leaf)
    b = tr.enter("B", tracing.SPAN)
    leaf = tr.enter("L", tracing.LEAF)
    tr.exit(leaf, {"items": 3})
    tr.exit(b)
    tr.exit(a)

    assert tr.totals("A") == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert tr.totals("B") == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert tr.totals("L") == {"calls": 2, "total_s": 3.0, "self_s": 2.0, "items": 3}
    assert tr.totals("M") == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert tr.leaf_calls_within("L", "A") == 1
    assert tr.leaf_calls_within("L", "B") == 1
    assert [s["parent"] for s in tr.spans] == [None, 0]


def test_frames_must_close_in_order():
    tr = tracing.Tracer()
    outer = tr.enter("A", tracing.SPAN)
    tr.enter("B", tracing.SPAN)
    with pytest.raises(RuntimeError):
        tr.exit(outer)


def test_wrappers_removed_after_traced_run():
    targets = run.trace_targets()
    before = [vars(owner)[attr] for owner, attr, *_ in targets]
    tr = tracing.Tracer()
    undo = tracing.install(tr, targets)
    try:
        assert all(vars(o)[a] is not f for (o, a, *_), f in zip(targets, before))
        elapsed, out, ok = run.run_op(cli, run.Op(TINY + run.COMMON_FLAGS, lambda s: True))
    finally:
        tracing.uninstall(undo)
    assert ok
    assert [vars(owner)[attr] for owner, attr, *_ in targets] == before
    assert tr.totals("cli.run")["calls"] == 1
    assert tr.totals("gcode.min_scan")["codewords"] == 2 ** 3
    assert tr.totals("gcode.is_ideal")["calls"] >= 1
    assert tr.totals("linalg.RowBasis")["calls"] >= 1


def test_failed_ops_are_counted_and_the_pass_goes_on():
    good = run.Op(TINY + run.COMMON_FLAGS, lambda out: '"d":2' in out)
    corrupted = run.Op(TINY + run.COMMON_FLAGS, run._equals("not the output\n"))
    nonzero = run.Op(["code", "params", "--group", "cyclic:4"] + run.COMMON_FLAGS,
                     lambda out: True)
    res = run.run_pass(cli, [good, corrupted, nonzero, good])
    assert res.failed == 2 and len(res.op_s) == 4


def test_golay_digest_mismatch_fails_the_pass():
    op = run.Op(["search", "golay", "--budget", "1000000", "--seed", "2024"]
                + run.COMMON_FLAGS, run._golay_check(2024))
    assert run.run_pass(cli, [op]).failed == 0
    assert run.run_pass(cli, [op], golay_digest="0" * 64).failed == 1


def test_golay_check_requires_the_golay_code():
    check = run._golay_check(7)
    good = {"seed": 7, "found": True, "n": 24, "k": 12, "d": 8, "product": 96,
            "self_dual": True}
    assert check(json.dumps(good))
    assert not check(json.dumps(dict(good, seed=8)))
    assert not check(json.dumps(dict(good, d=6)))
    assert not check(json.dumps({"seed": 7, "found": False, "budget": 1000000}))


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_relabelled_inputs_pass_the_group_audit(tmp_path, seed):
    group_path = run.write_inputs("sweep-f2", seed, tmp_path)["group"]
    relabelled = groups.load_group(group_path)  # audits the table
    perm = run.relabel_perm(16, seed)
    original = groups.make_cyclic(16)
    assert perm[0] == 0
    assert np.array_equal(relabelled.table[np.ix_(perm, perm)], perm[original.table])

    code = gcode.load_code(run.write_inputs("mindist", seed, tmp_path)["code"])
    assert (code.length, code.dim) == (64, 22)


def test_relabelling_keeps_verify_output(tmp_path):
    outs = set()
    for seed in (None, 0, 3):
        spec = "cyclic:8"
        if seed is not None:
            spec = str(tmp_path / f"c8-{seed}.json")
            groups.save_group(
                run.relabel_group(groups.make_cyclic(8), run.relabel_perm(8, seed)), spec)
        op = run.Op(["verify", "all", "--group", spec, "--p", "2"] + run.COMMON_FLAGS,
                    lambda out: True)
        outs.add(run.run_op(cli, op)[1])
    assert len(outs) == 1
