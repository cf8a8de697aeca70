"""Command-line front end.

Exit codes: 0 when the command (and any checks it ran) succeeded, 1 when a
verification failed, 2 on usage errors, infeasible requests, or malformed
inputs.  All machine output goes through --json as canonical single-line
JSON (sorted keys, no whitespace) so reports are byte-comparable across
runs and worker counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import constructions, gcode as gc, groups, schur, theorems
from .errors import GuardExceeded, UnsupportedCover, VerificationError
from .ffield import PrimeField
from .galg import AlgElem
from .gcode import GCode

_FEASIBLE_ENUM = 1 << 20


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# every option a command can read; each command takes --json, --threads and
# the ones its handler reads, so an option it would ignore is a usage error
_OPTIONS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--threads": dict(type=int, default=None,
                      help="a no-op that every command accepts: all run in one thread"),
    "--seed": dict(type=int, default=None,
                   help="randomness seed (default 0); a sweep reads it only with --sample"),
    "--guard": dict(type=int, default=None, help="codeword enumeration cap"),
    "--group": dict(help="builtin spec (cyclic:8, elemabelian:2,3, ...) or JSON path"),
    "--p": dict(type=int, help="prime field modulus (alias --field)"),
    "--gen": dict(help="generator coefficients, ';'-separated for several"),
    "--code": dict(help="code JSON file, instead of --group, --p and --gen"),
    "--out": dict(help="write the resulting object to this path"),
    "--subgroup": dict(required=True, help="member indices, e.g. 0,2"),
    "--r": dict(type=int, required=True),
    "--m": dict(type=int, required=True),
    "--check-square": dict(action="store_true"),
    "--with": dict(dest="with_gen", required=True, help="second factor coefficients"),
    "--max-t": dict(type=int, default=None),
    "--exhaustive": dict(action="store_true",
                         help="force full enumeration past the feasibility cap"),
    "--sample": dict(type=int, default=None, help="check a seeded sample of N generators"),
    "--budget": dict(type=int, required=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcodelab",
        description="Group-algebra codes: construction, parameters, Schur "
        "products, and exhaustive verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    code, verify = "--code --group --p --gen", "--group --p --exhaustive"
    commands = {
        ("group", "build or inspect groups"): {
            "make": (_cmd_group, "--group --out"),
            "show": (_cmd_group, "--group --out"),
        },
        ("code", "ideals and their parameters"): {
            "ideal": (_cmd_code, f"{code} --out"),
            "params": (_cmd_code, f"{code} --guard"),
            "dual": (_cmd_code, f"{code} --out"),
            "induced": (_cmd_code, "--group --p --subgroup --out"),
        },
        ("construct", "named code families"): {
            "rm": (_cmd_construct_rm, "--r --m --check-square --guard --out"),
        },
        ("schur", "componentwise products and powers"): {
            "product": (_cmd_schur, f"{code} --with --out"),
            "power": (_cmd_schur, f"{code} --max-t"),
            "fixed-point": (_cmd_schur, code),
        },
        ("verify", "exhaustive theorem sweeps"): {
            "up": (_cmd_verify, f"{verify} --sample --seed"),
            "bound": (_cmd_verify, f"{verify} --guard"),
            "equality": (_cmd_verify, f"{verify} --guard"),
            "schur": (_cmd_verify, verify),
            "all": (_cmd_verify, f"{verify} --guard"),
        },
        ("search", "randomized searches and sweeps"): {
            "golay": (_cmd_search_golay, "--budget --seed --out"),
            "sweep": (_cmd_search_sweep, "--group --p --sample --seed --guard"),
        },
    }
    for (command, about), leaves in commands.items():
        leaf_sub = sub.add_parser(command, help=about).add_subparsers(
            dest="subcommand", required=True
        )
        for name, (handler, options) in leaves.items():
            leaf = leaf_sub.add_parser(name)
            for flag in ["--json", "--threads", *options.split()]:
                alias = ["--field"] if flag == "--p" else []
                leaf.add_argument(flag, *alias, **_OPTIONS[flag])
            leaf.set_defaults(handler=handler)
    return parser


# --- shared resolution -------------------------------------------------------


def _require(args, parser, *names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        parser.error(f"missing required options: {', '.join('--' + m for m in missing)}")


def _sweep_request(args, parser) -> tuple[groups.Group, PrimeField, dict]:
    """The group, field and driver keyword arguments of a sweep command.

    --group and --p are required; --seed needs --sample, since the seed only
    picks the sample (0 when absent); --exhaustive excludes --sample; past
    _FEASIBLE_ENUM generators the sweep needs one of the two, and the error
    names those the command has."""
    _require(args, parser, "group", "p")
    group, field = groups.from_spec(args.group), PrimeField(args.p)
    sample, seed = getattr(args, "sample", None), getattr(args, "seed", None)
    exhaustive = getattr(args, "exhaustive", False)
    if seed is not None and sample is None:
        parser.error("--seed needs --sample")
    if exhaustive and sample is not None:
        parser.error("--exhaustive and --sample exclude each other")
    if field.p**group.order > _FEASIBLE_ENUM and not exhaustive and sample is None:
        ways = {"exhaustive": "--exhaustive", "sample": "--sample N"}
        parser.error(
            f"{field.p}^{group.order} generators exceed the feasibility cap; pass "
            + " or ".join(way for dest, way in ways.items() if hasattr(args, dest))
        )
    # only the drivers that scan codewords read --guard
    kwargs = {"guard": args.guard} if hasattr(args, "guard") else {}
    if sample is not None:
        kwargs.update(sample=sample, sample_seed=0 if seed is None else seed)
    return group, field, kwargs


def _resolve_code(args, parser) -> GCode:
    if args.code:
        if (args.group, args.p, args.gen) != (None, None, None):
            parser.error("--code excludes --group, --p and --gen")
        return gc.load_code(args.code)
    _require(args, parser, "group", "p", "gen")
    group, field = groups.from_spec(args.group), PrimeField(args.p)
    return _ideal_from_text(group, field, args.gen, "--gen", parser)


def _ideal_from_text(group, field, text: str, option: str, parser) -> GCode:
    """The ideal generated by ';'-separated coefficient vectors; an option
    that names none is a usage error."""
    gens = [AlgElem.from_text(group, field, part) for part in text.split(";") if part.strip()]
    if not gens:
        parser.error(f"{option} must contain at least one coefficient vector")
    return gc.ideal_from_generators(group, field, gens)


def _emit_code(args, code: GCode, extra: dict | None = None) -> None:
    if args.out:
        gc.save_code(code, args.out)
    payload = {
        "group": code.group.name,
        "p": code.field.p,
        "dim": code.dim,
        "basis": code.basis.matrix.tolist(),
    }
    if extra:
        payload.update(extra)
    if args.json:
        print(_dump(payload))
    else:
        print(f"group={code.group.name} p={code.field.p} dim={code.dim}")
        for row in code.basis.matrix.tolist():
            print(" ".join(str(x) for x in row))
        for key, val in (extra or {}).items():
            print(f"{key}: {val}")


# --- handlers ----------------------------------------------------------------


def _cmd_group(args, parser) -> int:
    _require(args, parser, "group")
    g = groups.from_spec(args.group)
    if args.out:
        groups.save_group(g, args.out)
    if args.json:
        print(_dump(groups.group_to_dict(g)))
        return 0
    print(f"{g.name}: order {g.order}")
    print("labels:", " ".join(g.labels))
    if args.subcommand == "show" and g.order <= 24:
        width = max(len(lab) for lab in g.labels)
        for i in range(g.order):
            row = " ".join(g.labels[g.table[i, j]].rjust(width) for j in range(g.order))
            print(row)
    return 0


def _cmd_code(args, parser) -> int:
    if args.subcommand == "induced":
        _require(args, parser, "group", "p", "subgroup")
        group, field = groups.from_spec(args.group), PrimeField(args.p)
        members = [int(x) for x in args.subgroup.split(",")]
        code = gc.trivial_induced(group, field, groups.Subgroup(group, members))
    else:
        code = _resolve_code(args, parser)
    if args.subcommand == "dual":
        code = code.dual()
    if args.subcommand == "params":
        rep = code.params(guard=args.guard)
        if args.json:
            print(_dump({"group": code.group.name, "p": code.field.p, **rep.as_dict()}))
        else:
            print(
                f"n={rep.length} k={rep.dimension} d={rep.distance} "
                f"product={rep.product} bound_ok={rep.bound_ok} equality={rep.equality}"
            )
        return 0
    _emit_code(args, code)
    return 0


def _cmd_construct_rm(args, parser) -> int:
    code = constructions.reed_muller(args.r, args.m)
    extra = {}
    if args.check_square:
        extra = constructions.rm_schur_square_check(args.r, args.m)
    rep = code.params(guard=args.guard)
    _emit_code(args, code, extra={**rep.as_dict(), **extra})
    return 0


def _cmd_schur(args, parser) -> int:
    code = _resolve_code(args, parser)
    if args.subcommand == "product":
        other = _ideal_from_text(code.group, code.field, args.with_gen, "--with", parser)
        _emit_code(args, schur.schur_product(code, other))
        return 0
    if args.subcommand == "power":
        report = schur.schur_power_chain(code, max_t=args.max_t)
        payload = {
            "dims": report.dims,
            "regularity": report.regularity,
            "period": report.period,
            "complete": report.complete,
            "stabilizer": list(report.stabilizer_subgroup.members)
            if report.stabilizer_subgroup
            else None,
            "stabilized_dim": report.stabilized_code.dim
            if report.stabilized_code
            else None,
        }
        print(_dump(payload) if args.json else payload)
        return 0
    sub = schur.fixed_point_structure(code)
    payload = {"subgroup": list(sub.members), "order": len(sub)}
    print(_dump(payload) if args.json else payload)
    return 0


_VERIFY_DRIVERS = {
    "up": theorems.verify_uncertainty,
    "bound": theorems.verify_bound,
    "equality": theorems.verify_equality,
    "schur": theorems.verify_schur,
    "all": theorems.verify_all,
}


def _cmd_verify(args, parser) -> int:
    group, field, kwargs = _sweep_request(args, parser)
    report = _VERIFY_DRIVERS[args.subcommand](group, field, **kwargs)
    if args.json:
        print(_dump(report))
    else:
        print(
            f"verify {args.subcommand}: group={report['group']} p={report['p']} "
            f"checked={report['checked']} failures={len(report['failures'])}"
        )
        for f in report["failures"]:
            print(f"  FAIL {f}")
    return 1 if report["failures"] else 0


def _cmd_search_golay(args, parser) -> int:
    seed = 0 if args.seed is None else args.seed
    result = constructions.golay_search(args.budget, seed)
    if result is None:
        payload = {"found": False, "budget": args.budget, "seed": seed}
        print(_dump(payload) if args.json else f"no hit within {args.budget} trials")
        return 0
    rep = result.code.params()
    payload = {
        "found": True,
        "trial": result.trial,
        "seed": seed,
        "generator": result.generator.to_text(),
        **rep.as_dict(),
        "self_dual": True,  # golay_search returns self-dual codes only
    }
    if args.out:
        gc.save_code(result.code, args.out)
    print(_dump(payload) if args.json else payload)
    return 0


def _cmd_search_sweep(args, parser) -> int:
    group, field, kwargs = _sweep_request(args, parser)
    rows = sweep_report(group, field, **kwargs)
    if args.json:
        for row in rows:
            print(_dump(row))
    else:
        print(f"{'k':>4} {'d':>4} {'d*k':>5} {'ratio':>8} {'selforth':>9} {'sqdim':>6}")
        for row in rows:
            print(
                f"{row['k']:>4} {row['d']:>4} {row['product']:>5} "
                f"{row['ratio']:>8.4f} {str(row['self_orthogonal']):>9} "
                f"{row['square_dim']:>6}"
            )
    return 0


def sweep_report(
    group,
    field,
    sample: int | None = None,
    sample_seed: int = 0,
    guard: int | None = None,
) -> list[dict]:
    """One row per distinct cyclic ideal: parameters, bound ratio,
    self-orthogonality, and the Schur-square dimension; sorted by descending
    ratio with deterministic tie-breaks."""
    ideals = theorems.enumerate_cyclic_ideals(group, field, sample=sample, sample_seed=sample_seed)
    rows = []
    for fidx, code in ideals:
        rep = code.params(guard=guard)  # raises when d*k < |G|
        square = schur.schur_product(code, code)
        rows.append(
            {
                "generator_index": fidx,
                "k": rep.dimension,
                "d": rep.distance,
                "product": rep.product,
                "ratio": rep.product / group.order,
                "self_orthogonal": code.is_self_orthogonal(),
                "square_dim": square.dim,
            }
        )
    rows.sort(key=lambda r: (-r["ratio"], r["k"], r["generator_index"]))
    return rows


# one parser per process, built on first use (not at import)
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, parser)
    except SystemExit as exc:  # parser.error inside handlers
        return int(exc.code or 0)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except GuardExceeded as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except UnsupportedCover as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
