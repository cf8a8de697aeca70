import argparse
import hashlib
import json
import time

import pytest

from gcodelab import cli


def run_lines(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if line.strip()]


def test_params_example(capsys):
    code, lines = run_lines(
        capsys, ["code", "params", "--group", "cyclic:2", "--p", "3", "--gen", "1,2"]
    )
    assert code == 0
    assert lines[0] == "n=2 k=1 d=2 product=2 bound_ok=True equality=True"


def test_params_json(capsys):
    code, lines = run_lines(
        capsys,
        ["code", "params", "--group", "cyclic:2", "--p", "3", "--gen", "1,2", "--json"],
    )
    payload = json.loads(lines[0])
    assert payload["k"] == 1 and payload["d"] == 2 and payload["equality"]


def test_schur_product_example(capsys):
    code, lines = run_lines(
        capsys,
        ["schur", "product", "--group", "cyclic:2", "--p", "3",
         "--gen", "1,2", "--with", "1,2", "--json"],
    )
    assert code == 0
    payload = json.loads(lines[0])
    assert payload["basis"] == [[1, 1]] and payload["dim"] == 1


@pytest.mark.parametrize("option", ["--gen", "--with"])
def test_schur_product_needs_a_generator_in_each_factor(capsys, option):
    argv = ["schur", "product", "--group", "cyclic:2", "--p", "3",
            "--gen", "1,2", "--with", "1,2", "--json"]
    argv[argv.index(option) + 1] = ";"
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: {option} must contain at least one coefficient vector\n"
    )


def test_schur_power_and_fixed_point(capsys):
    code, lines = run_lines(
        capsys,
        ["schur", "power", "--group", "cyclic:2", "--p", "3", "--gen", "1,2", "--json"],
    )
    payload = json.loads(lines[0])
    assert payload["dims"] == [1, 1] and payload["period"] == 2

    code, lines = run_lines(
        capsys,
        ["schur", "fixed-point", "--group", "cyclic:4", "--p", "2",
         "--gen", "1,0,1,0", "--json"],
    )
    assert code == 0
    assert json.loads(lines[0])["subgroup"] == [0, 2]

    # augmentation ideal of C4 is not Schur-fixed: usage-level error
    code, _ = run_lines(
        capsys,
        ["schur", "fixed-point", "--group", "cyclic:4", "--p", "2",
         "--gen", "1,1,0,0"],
    )
    assert code == 2


def test_verify_all_exit_zero(capsys):
    code, lines = run_lines(
        capsys,
        ["verify", "all", "--group", "elemabelian:2,2", "--p", "2", "--json"],
    )
    assert code == 0
    payload = json.loads(lines[0])
    assert payload["failures"] == [] and payload["checked"] > 0


def test_verify_up_counts(capsys):
    code, lines = run_lines(
        capsys, ["verify", "up", "--group", "cyclic:2", "--p", "2", "--json"]
    )
    assert code == 0
    assert json.loads(lines[0])["checked"] == 3


def test_verify_failure_injection_exit_code(capsys, monkeypatch):
    def broken(group, field, **kwargs):
        return {"group": group.name, "p": field.p, "checked": 1,
                "failures": [{"f": 1, "reason": "injected"}]}

    monkeypatch.setitem(cli._VERIFY_DRIVERS, "up", broken)
    code, lines = run_lines(
        capsys, ["verify", "up", "--group", "cyclic:2", "--p", "2", "--json"]
    )
    assert code == 1
    assert json.loads(lines[0])["failures"][0]["reason"] == "injected"


def test_usage_errors():
    assert cli.run(["code", "params", "--group", "cyclic:2"]) == 2  # no field/gen
    assert cli.run(["verify", "up", "--group", "nope:1", "--p", "2"]) == 2
    assert cli.run(["code", "params", "--group", "cyclic:2", "--p", "3",
                    "--gen", "1,2,3"]) == 2
    assert cli.run(["nonsense"]) == 2
    assert cli.run(["code", "params", "--group", "cyclic:2", "--p", "4",
                    "--gen", "1,1"]) == 2  # non-prime modulus


def test_parser_is_built_once_per_process(capsys):
    cli._parser.cache_clear()
    for argv in (["nonsense"], ["group", "show", "--group", "cyclic:2"],
                 ["code", "params", "--group", "cyclic:2", "--p", "3", "--gen", "1,2"]):
        cli.run(argv)
    capsys.readouterr()
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


_MIXED = [
    (["code", "params", "--group", "cyclic:2", "--bogus"], 2),
    (["--help"], 0),
    (["verify", "all", "--group", "cyclic:4", "--p", "2", "--json"], 0),
    (["search", "golay", "--budget", "20000", "--seed", "77", "--json"], 0),
    (["code", "params", "--group", "cyclic:4", "--p", "2",
      "--gen", "1,0,0,0", "--guard", "4"], 2),
]


def test_shared_parser_gives_each_command_its_own_output(capsys):
    alone = []
    for argv, _ in _MIXED:
        cli._parser.cache_clear()
        code = cli.run(argv)
        alone.append((code, capsys.readouterr()))
    assert [code for code, _ in alone] == [code for _, code in _MIXED]
    cli._parser.cache_clear()
    for _ in range(2):
        together = []
        for argv, _ in _MIXED:
            code = cli.run(argv)
            together.append((code, capsys.readouterr()))
        assert together == alone


def test_field_alias_flag(capsys):
    code, lines = run_lines(
        capsys,
        ["code", "params", "--group", "cyclic:2", "--field", "3", "--gen", "1,2"],
    )
    assert code == 0 and "equality=True" in lines[0]


def test_guard_flag_and_env(capsys):
    argv = ["code", "params", "--group", "cyclic:8", "--p", "2",
            "--gen", "1,0,0,0,0,0,0,0", "--guard", "4"]
    assert cli.run(argv) == 2
    assert cli.run(argv[: -2]) == 0
    capsys.readouterr()


# the options of each command besides --json and --threads: those its handler reads
COMMAND_OPTIONS = {
    "group make": "--group --out",
    "group show": "--group --out",
    "code ideal": "--code --group --p --gen --out",
    "code params": "--code --group --p --gen --guard",
    "code dual": "--code --group --p --gen --out",
    "code induced": "--group --p --subgroup --out",
    "construct rm": "--r --m --check-square --guard --out",
    "schur product": "--code --group --p --gen --with --out",
    "schur power": "--code --group --p --gen --max-t",
    "schur fixed-point": "--code --group --p --gen",
    "verify up": "--group --p --exhaustive --sample --seed",
    "verify bound": "--group --p --exhaustive --guard",
    "verify equality": "--group --p --exhaustive --guard",
    "verify schur": "--group --p --exhaustive",
    "verify all": "--group --p --exhaustive --guard",
    "search golay": "--budget --seed --out",
    "search sweep": "--group --p --sample --seed --guard",
}


def _leaf_options(parser, path=()):
    """{command path: option strings} for every leaf command of the parser tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): {
            flag for a in parser._actions if not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings
        }}
    return {
        leaf: flags
        for a in subs
        for name, child in a.choices.items()
        for leaf, flags in _leaf_options(child, path + (name,)).items()
    }


def test_each_command_accepts_exactly_the_options_it_reads():
    options = _leaf_options(cli.build_parser())
    assert all({"--json", "--threads"} <= flags for flags in options.values())
    assert options == {
        leaf: {"--json", "--threads", *flags.split(), *(["--field"] if "--p" in flags else [])}
        for leaf, flags in COMMAND_OPTIONS.items()
    }


# each command with one option it never read; every one ran as if the option
# were absent, except 'verify bound --sample', refused by a hand-written branch
DROPPED = [
    ("code params --group cyclic:4 --p 2 --gen 1,0,0,0", "--out x.json"),
    ("schur power --group cyclic:2 --p 3 --gen 1,2", "--out x.json"),
    ("schur fixed-point --group cyclic:4 --p 2 --gen 1,0,1,0", "--out x.json"),
    ("verify up --group cyclic:4 --p 2", "--guard 4"),
    ("verify schur --group cyclic:4 --p 2", "--guard 4"),
    ("verify bound --group cyclic:4 --p 2", "--sample 3"),
    ("construct rm --r 1 --m 3", "--group cyclic:8"),
    ("search golay --budget 10", "--group cyclic:4"),
    ("search golay --budget 10", "--guard 1"),
    ("search sweep --group cyclic:4 --p 2", "--code x.json"),
    ("code induced --group cyclic:4 --p 2 --subgroup 0,2", "--gen 1,0,0,0"),
    ("group show --group cyclic:2", "--p 2"),
]


@pytest.mark.parametrize(
    "command, dropped", DROPPED,
    ids=[" ".join(command.split()[:2] + dropped.split()[:1]) for command, dropped in DROPPED],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(
    tmp_path, monkeypatch, capsys, command, dropped
):
    monkeypatch.chdir(tmp_path)
    assert cli.run(command.split() + dropped.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {dropped}" in captured.err
    assert list(tmp_path.iterdir()) == []  # no --out file either


def test_code_file_excludes_the_source_options(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert cli.run(["code", "ideal", "--group", "cyclic:4", "--p", "2",
                    "--gen", "1,0,1,0", "--out", str(path)]) == 0
    capsys.readouterr()
    for extra in (["--p", "5", "--gen", "9"], ["--group", "cyclic:4"], ["--p", "2"]):
        assert cli.run(["code", "params", "--code", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: --code excludes --group, --p and --gen\n")


def test_code_file_round_trip(tmp_path, capsys):
    path = tmp_path / "c.json"
    code = cli.run(["code", "ideal", "--group", "cyclic:4", "--p", "2",
                    "--gen", "1,0,1,0", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    code, lines = run_lines(capsys, ["code", "params", "--code", str(path), "--json"])
    assert code == 0
    payload = json.loads(lines[0])
    assert (payload["k"], payload["d"]) == (2, 2)

    data = json.loads(path.read_text())
    data["basis"] = [[1, 0, 0, 0], [0, 1, 0, 1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.run(["code", "params", "--code", str(bad)]) == 2


def test_group_file_flow(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert cli.run(["group", "make", "--group", "dihedral:4", "--out", str(path)]) == 0
    capsys.readouterr()
    code, lines = run_lines(
        capsys,
        ["code", "params", "--group", str(path), "--p", "2",
         "--gen", "1,1,1,1,1,1,1,1"],
    )
    assert code == 0 and "k=1 d=8" in lines[0]


def test_code_induced_and_dual(capsys):
    code, lines = run_lines(
        capsys,
        ["code", "induced", "--group", "cyclic:4", "--p", "2",
         "--subgroup", "0,2", "--json"],
    )
    assert code == 0
    assert json.loads(lines[0])["basis"] == [[1, 0, 1, 0], [0, 1, 0, 1]]

    code, lines = run_lines(
        capsys,
        ["code", "dual", "--group", "cyclic:2", "--p", "2", "--gen", "1,1", "--json"],
    )
    assert code == 0
    assert json.loads(lines[0])["basis"] == [[1, 1]]  # self-dual line


def test_construct_rm(capsys):
    code, lines = run_lines(
        capsys,
        ["construct", "rm", "--r", "1", "--m", "3", "--check-square", "--json"],
    )
    assert code == 0
    payload = json.loads(lines[0])
    assert payload["dim"] == 4 and payload["d"] == 4
    assert payload["equals_doubled_order"] and payload["square_dim"] == 7


def test_search_golay_zero_budget(capsys):
    code, lines = run_lines(
        capsys, ["search", "golay", "--budget", "0", "--seed", "1", "--json"]
    )
    assert code == 0
    assert json.loads(lines[0]) == {"budget": 0, "found": False, "seed": 1}


@pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
def test_search_golay_seed_outside_the_philox_key_range_is_an_error(seed, capsys):
    # -1 exited 2 with numpy's "key must be positive and less than 2**128."
    argv = ["search", "golay", "--budget", "10", "--seed", seed, "--json"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must lie in [0, 2**128), not {seed}\n"


@pytest.mark.parametrize("command", ["verify up", "search sweep"])
def test_seed_without_sample_is_a_usage_error(command, capsys):
    # the seed drives only the sample: an exhaustive sweep printed the same
    # bytes with and without it
    base = command.split() + ["--group", "cyclic:4", "--p", "2", "--json"]
    for seed in ("5", "0"):
        assert cli.run(base + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("error: --seed needs --sample\n")
    code, lines = run_lines(capsys, base)
    assert code == 0 and lines
    assert run_lines(capsys, base + ["--sample", "12", "--seed", "5"])[0] == 0
    # the sample's seed defaults to 0
    unseeded = run_lines(capsys, base + ["--sample", "12"])
    assert unseeded[0] == 0
    assert run_lines(capsys, base + ["--sample", "12", "--seed", "0"]) == unseeded


@pytest.mark.parametrize("command", ["verify up", "search sweep"])
@pytest.mark.parametrize("sample", ["0", "-3"])
def test_a_sample_below_one_is_a_usage_error(command, sample, capsys):
    # --sample 0 exited 0 after checking nothing, --sample -3 exited 2 with
    # numpy's "negative dimensions are not allowed"
    argv = command.split() + ["--group", "cyclic:4", "--p", "2", "--sample", sample, "--json"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a sample needs at least one generator, not {sample}\n"


def test_verify_up_exhaustive_with_a_sample_is_a_usage_error(capsys):
    # the sample won silently
    argv = ["verify", "up", "--group", "cyclic:4", "--p", "2", "--exhaustive", "--sample", "3"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: --exhaustive and --sample exclude each other\n")


@pytest.mark.parametrize("max_t", ["0", "-2"])
def test_schur_power_max_t_below_one_is_a_usage_error(max_t, capsys):
    argv = ["schur", "power", "--group", "cyclic:4", "--p", "2", "--gen", "1,1,0,0",
            "--max-t", max_t, "--json"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_t must be at least 1, not {max_t}\n"
    argv[argv.index(max_t)] = "1"
    code, lines = run_lines(capsys, argv)
    assert code == 0 and json.loads(lines[0])["dims"] == [3]


def test_search_golay_seed_defaults_to_0(capsys):
    base = ["search", "golay", "--budget", "20000", "--json"]
    code, lines = run_lines(capsys, base)
    assert code == 0 and json.loads(lines[0])["seed"] == 0
    assert run_lines(capsys, base + ["--seed", "0"]) == (code, lines)


def test_search_sweep_rows_and_thread_determinism(capsys):
    base = ["search", "sweep", "--group", "cyclic:4", "--p", "2", "--json"]
    code, rows1 = run_lines(capsys, base + ["--threads", "1"])
    assert code == 0
    code, rows2 = run_lines(capsys, base + ["--threads", "2"])
    assert rows1 == rows2
    parsed = [json.loads(r) for r in rows1]
    assert len(parsed) == 4
    ratios = [row["ratio"] for row in parsed]
    assert ratios == sorted(ratios, reverse=True)
    assert all(row["product"] >= 4 for row in parsed)


_C4 = "--group cyclic:4 --p 2"
# rule: (the options it needs, its arguments, the last stderr line); {hint}
# names the ways past the cap that the command has (verify bound, equality,
# schur and all named --sample too, which they refuse)
_SWEEP_RULES = {
    "no group": ("", "--p 2", "gcodelab: error: missing required options: --group"),
    "no p": ("", "--group cyclic:4", "gcodelab: error: missing required options: --p"),
    "seed alone": ("--seed", f"{_C4} --seed 5", "gcodelab: error: --seed needs --sample"),
    "exhaustive sample": ("--exhaustive --sample", f"{_C4} --exhaustive --sample 3",
                          "gcodelab: error: --exhaustive and --sample exclude each other"),
    "sample 0": ("--sample", f"{_C4} --sample 0",
                 "error: a sample needs at least one generator, not 0"),
    "sample -3": ("--sample", f"{_C4} --sample -3",
                  "error: a sample needs at least one generator, not -3"),
    "cap": ("", "--group cyclic:21 --p 2",
            "gcodelab: error: 2^21 generators exceed the feasibility cap; pass {hint}"),
}
_CAP_HINT = {
    "verify up": "--exhaustive or --sample N",
    "search sweep": "--sample N",
}


@pytest.mark.parametrize("command, argv, line", [
    pytest.param(command, argv, line, id=f"{command}-{rule}")
    for command, options in COMMAND_OPTIONS.items()
    if command.startswith("verify") or command == "search sweep"
    for rule, (needs, argv, line) in _SWEEP_RULES.items()
    if set(needs.split()) <= set(options.split())
])
def test_every_sweep_command_states_each_of_its_request_rules(capsys, command, argv, line):
    assert cli.run(command.split() + argv.split() + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    hint = _CAP_HINT.get(command, "--exhaustive")
    assert captured.err.endswith("\n")
    assert captured.err.splitlines()[-1] == line.format(hint=hint)


def test_sweep_feasibility_cap():
    assert cli.run(["search", "sweep", "--group", "symmetric:4", "--p", "2"]) == 2
    assert cli.run(["verify", "up", "--group", "symmetric:4", "--p", "2"]) == 2


def test_group_show(capsys):
    code, lines = run_lines(capsys, ["group", "show", "--group", "cyclic:2"])
    assert code == 0
    assert lines[0] == "C2: order 2"


def test_sampled_verify_up_stays_sub_second(capsys):
    # sampled sweeps eliminate only the drawn generators; a pass over all
    # 2^30 or 3^24 generator indices would take minutes here
    for spec, p in (("cyclic:30", "2"), ("symmetric:4", "3")):
        t0 = time.perf_counter()
        argv = ["verify", "up", "--group", spec, "--p", p, "--sample", "5", "--json"]
        code, lines = run_lines(capsys, argv)
        elapsed = time.perf_counter() - t0
        assert code == 0 and json.loads(lines[0])["checked"] == 5
        assert elapsed < 1.0, f"sampled verify up on {spec} took {elapsed:.2f}s"


# `schur power --json` recorded before the power chain took over the binary
# monotonicity checks: a Schur-fixed code, a growing one, a ternary 2-cycle
SCHUR_POWER_GOLDEN = {
    ("cyclic:4", "2", "1,0,1,0"): (
        '{"complete":true,"dims":[2],"period":1,"regularity":1,'
        '"stabilized_dim":2,"stabilizer":[0,2]}\n'
    ),
    ("cyclic:8", "2", "1,1,0,0,0,0,0,0"): (
        '{"complete":true,"dims":[7,8],"period":1,"regularity":2,'
        '"stabilized_dim":8,"stabilizer":[0]}\n'
    ),
    ("cyclic:2", "3", "1,2"): (
        '{"complete":true,"dims":[1,1],"period":2,"regularity":1,'
        '"stabilized_dim":null,"stabilizer":null}\n'
    ),
}


def test_schur_power_json_matches_golden(capsys):
    for (spec, p, gen), expected in SCHUR_POWER_GOLDEN.items():
        argv = ["schur", "power", "--group", spec, "--p", p, "--gen", gen, "--json"]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == expected


def test_schur_fixed_points_past_the_enumeration_guard(capsys):
    # the full algebra of C32 has 2^32 codewords, past the guard; its
    # subgroup is read off the basis without a scan
    base = ["--group", "cyclic:32", "--p", "2", "--json", "--gen"]
    assert cli.run(["schur", "power"] + base + [",".join(["1", "1"] + ["0"] * 30)]) == 0
    assert capsys.readouterr().out == (
        '{"complete":true,"dims":[31,32],"period":1,"regularity":2,'
        '"stabilized_dim":32,"stabilizer":[0]}\n'
    )
    assert cli.run(["schur", "fixed-point"] + base + [",".join(["1"] + ["0"] * 31)]) == 0
    assert capsys.readouterr().out == '{"order":1,"subgroup":[0]}\n'


def test_sampled_sweeps_past_int64(capsys):
    # 3^40 - 1 generator indices do not fit in int64
    argv = ["--group", "cyclic:40", "--p", "3", "--sample", "5", "--json"]
    code, lines = run_lines(capsys, ["verify", "up"] + argv)
    assert code == 0
    report = json.loads(lines[0])
    assert report == {"checked": 5, "failures": [], "group": "C40", "p": 3}
    # the sampled ideals have 3^38 codewords or more, so the sweep gets past
    # the draw and stops at the enumeration guard
    assert cli.run(["search", "sweep"] + argv) == 2
    assert capsys.readouterr().err.startswith("infeasible: 3^")


# sha256 and line count of `search sweep --json` stdout, recorded before the
# orbit pass read its indices from digit-block tables: C20/F2 is the 2^20
# feasibility cap, and at n = 1 the index is a single digit block
SEARCH_SWEEP_GOLDEN = {
    ("cyclic:20", "2"): ("05ea923da9912777063a700c68cbb587fbffc8d6ee3e3852f2885de08efb48f4", 24),
    ("cyclic:12", "3"): ("3f1920e6aae6f87e3d9524297a50103ad6730b665703332cf9b0b641b1221506", 63),
    ("cyclic:8", "5"): ("3c33892a2511e0d2e5e0db60903cd0720d86c80973d7dbd981c1f3575bb694b6", 63),
    ("cyclic:1", "2"): ("a2f32396b0de07f1eff91bbd6670b44b6b84a1dbf8f8a7509caaa49a65ac843d", 1),
    ("cyclic:1", "3"): ("a2f32396b0de07f1eff91bbd6670b44b6b84a1dbf8f8a7509caaa49a65ac843d", 1),
}


@pytest.mark.parametrize("spec, p", list(SEARCH_SWEEP_GOLDEN))
def test_search_sweep_golden_at_the_caps(capsys, spec, p):
    assert cli.run(["search", "sweep", "--group", spec, "--p", p, "--json"]) == 0
    out = capsys.readouterr().out
    digest, lines = SEARCH_SWEEP_GOLDEN[(spec, p)]
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out.splitlines())) == (digest, lines)


# each malformed file with the command that reads it; every one exited 0 or
# exited 1 with a traceback
MALFORMED_FILES = {
    "p 2.5": ("code params", {"group": "cyclic:2", "p": 2.5, "basis": [[1, 1]]},
              "error: a code's p and basis entries must be integers"),
    "p [2]": ("code params", {"group": "cyclic:2", "p": [2], "basis": [[1, 1]]},
              "error: a code's p and basis entries must be integers"),
    "group 5": ("code params", {"group": 5, "p": 2, "basis": [[1, 1]]},
                "error: a code's group must be a spec string or a group object"),
    "basis 1e30": ("code params", {"group": "cyclic:2", "p": 2, "basis": [[1, 1e30]]},
                   "error: a code's p and basis entries must be integers"),
    "basis past int64": ("code params", {"group": "cyclic:2", "p": 2, "basis": [[1, 1 << 70]]},
                         "error: a code's p and basis entries must be integers"),
    "a list": ("code params", [["group", "p", "basis"]], "error: code file needs group, p, basis"),
    "table 0.5": ("group show", {"name": "C2", "order": 2, "table": [[0, 1], [1, 0.5]],
                                 "labels": ["e", "a"]},
                  "error: a group's order and table entries must be integers"),
    "table '0'": ("group show", {"name": "C2", "order": 2, "table": [[0, 1], [1, "0"]],
                                 "labels": ["e", "a"]},
                  "error: a group's order and table entries must be integers"),
    "order 2.0": ("group show", {"name": "C2", "order": 2.0, "table": [[0, 1], [1, 0]],
                                 "labels": ["e", "a"]},
                  "error: a group's order and table entries must be integers"),
    "embedded table 0.5": ("code params", {"group": {"name": "C2", "order": 2,
                                                     "table": [[0, 1], [1, 0.5]],
                                                     "labels": ["e", "a"]},
                                           "p": 2, "basis": [[1, 1]]},
                           "error: a group's order and table entries must be integers"),
    "basis [[3, 3]]": ("code params", {"group": "cyclic:2", "p": 2, "basis": [[3, 3]]},
                       "error: stored basis is not in canonical reduced form"),
    "basis [[1, -1]]": ("code params", {"group": "cyclic:2", "p": 3, "basis": [[1, -1]]},
                        "error: stored basis is not in canonical reduced form"),
    "labels 5": ("group show", {"name": "C2", "order": 2, "table": [[0, 1], [1, 0]],
                                "labels": 5},
                 "error: a group's labels must be a list of one string per element"),
    "labels 'ea'": ("group show", {"name": "C2", "order": 2, "table": [[0, 1], [1, 0]],
                                   "labels": "ea"},
                    "error: a group's labels must be a list of one string per element"),
    "labels [0, 1]": ("group show", {"name": "C2", "order": 2, "table": [[0, 1], [1, 0]],
                                     "labels": [0, 1]},
                      "error: a group's labels must be a list of one string per element"),
    "labels ['e']": ("group show", {"name": "C2", "order": 2, "table": [[0, 1], [1, 0]],
                                    "labels": ["e"]},
                     "error: a group's labels must be a list of one string per element"),
    "name 7": ("group show", {"name": 7, "order": 2, "table": [[0, 1], [1, 0]],
                              "labels": ["e", "a"]},
               "error: a group's name must be a string"),
    "embedded name 7": ("code params", {"group": {"name": 7, "order": 2,
                                                  "table": [[0, 1], [1, 0]],
                                                  "labels": ["e", "a"]},
                                        "p": 2, "basis": [[1, 1]]},
                        "error: a group's name must be a string"),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_a_malformed_file_is_a_usage_error(tmp_path, capsys, case):
    command, data, line = MALFORMED_FILES[case]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    option = "--code" if command.startswith("code") else "--group"
    assert cli.run(command.split() + [option, str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


@pytest.mark.parametrize("spec", ["quaternion8:5", "quaternion8:abc", "quaternion8:"])
def test_quaternion8_with_an_argument_is_a_usage_error(capsys, spec):
    # Q8 was built and the argument dropped, so this exited 0
    assert cli.run(["group", "show", "--group", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown group spec {spec!r}\n"


def test_a_zero_code_file_still_loads(tmp_path, capsys):
    # its empty basis reads as a float array, which holds no entry to check
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"group": "cyclic:2", "p": 3, "basis": []}))
    code, lines = run_lines(capsys, ["code", "ideal", "--code", str(zero), "--json"])
    assert code == 0 and json.loads(lines[0])["dim"] == 0


@pytest.mark.parametrize("command", ["verify up", "verify all", "search sweep"])
def test_exhaustive_sweeps_refuse_p_past_the_table_size(capsys, command):
    # a one-digit orbit table has p rows of (p - 1) * n int64 entries: on C1 the
    # uncertainty sweep peaked at 101.5 MB under tracemalloc at p = 2053, and
    # would need about 100 GB at p = 65521
    argv = command.split() + ["--group", "cyclic:1", "--p", "2053", "--json"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exhaustive sweeps need p <= 1024, not 2053\n"
    if command == "verify up":  # a sample builds no orbit table
        code, lines = run_lines(capsys, argv + ["--sample", "5"])
        assert code == 0
        assert json.loads(lines[0]) == {"checked": 5, "failures": [], "group": "C1", "p": 2053}
    assert cli.run(argv[:-2] + ["1021", "--json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify up", "verify all"])
def test_exhaustive_sweeps_refuse_indices_past_int64(capsys, command):
    # C64/F2 has 2^64 generator indices: its block tables held -2^63 (2^63
    # wrapped in int64) and the sweep ran on with nothing printed
    argv = command.split() + ["--group", "cyclic:64", "--p", "2", "--exhaustive", "--json"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exhaustive sweeps need p^|G| <= 2^63, not 2^64\n"
