"""Command-line driver.

Subcommands:

  run    load a program (mini-language or event-program text) and a dataset,
         pick a pipeline stage to emit or compute target probabilities with
         one of: naive, exact, eager, lazy, hybrid, exact-d, hybrid-d
  gen    generate a correlated dataset (positive / mutex / markov schemes)
  check  sweep seeded random event programs: exact, exact-d at 1 and 2
         workers, and exact on the program's text emitted and parsed back,
         vs enumeration; exact-d must give the same bits at both

Reports go to stdout as a small table; ``--out`` additionally writes a
machine-readable JSON document (stable bytes for fixed inputs; wall-clock
time is printed to stdout only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .compile import BOUNDS_TOLERANCE, ConfigError, compile_targets
from .datagen import Dataset, gen_correlations
from .distributed import max_job_count, run_distributed
from .eventprog import (
    GroundError, ProgramSyntaxError, emit_event_program, ground,
    ground_folded, parse_event_program,
)
from .events import TypeMismatch
from .network import NetworkError, build_network
from .oracle import OracleError, oracle_probabilities, world_reports
from .randprog import random_instance
from .translate import translate_to_event_program
from .userlang import (
    format_user_program, parse_user_program, validate_user_program,
)

MODES = ("naive", "exact", "eager", "lazy", "hybrid", "exact-d", "hybrid-d")


class CliError(Exception):
    def __init__(self, stage, message):
        super().__init__("%s: %s" % (stage, message))
        self.stage = stage


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OracleError, ConfigError) as exc:
        print("error: compute: %s" % exc, file=sys.stderr)
        return 2


def build_parser():
    p = argparse.ArgumentParser(prog="manyworlds")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="interpret a program over a dataset")
    r.add_argument("--program", help="mini-language source file")
    r.add_argument("--event-program", help="event-program text file")
    r.add_argument("--data", required=True, help="dataset JSON file")
    r.add_argument("--mode", choices=MODES, default="exact")
    r.add_argument("--epsilon", type=float, default=0.0)
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--job-depth", type=int, default=3)
    r.add_argument("--folded", action="store_true")
    r.add_argument("--targets", action="append",
                   help="glob pattern over grounded identifiers (repeatable)")
    r.add_argument("--emit-stage",
                   choices=("ast", "event-program", "grounded", "network"))
    r.add_argument("--out", help="write the JSON report (or stage text) here")
    r.add_argument("--job-log", help="dump the distributed commit log (JSON)")
    r.set_defaults(func=cmd_run)

    g = sub.add_parser("gen", help="generate a correlated dataset")
    g.add_argument("--scheme", choices=("positive", "mutex", "markov"),
                   required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--group", type=int, default=4)
    g.add_argument("--l", type=int, default=2, help="literals per event")
    g.add_argument("--m", type=int, default=4, help="mutex set size")
    g.add_argument("--mutex-encoding", choices=("chain", "selector"),
                   default="chain")
    g.add_argument("--pool", type=int, help="variable pool (positive scheme)")
    g.add_argument("--certain", type=float, default=0.0)
    g.add_argument("--prob-lo", type=float, default=0.5)
    g.add_argument("--prob-hi", type=float, default=0.8)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--iter", type=int, default=3)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", help="exact, exact-d and text route vs "
                       "enumeration sweep")
    c.add_argument("--count", type=int, default=50)
    c.add_argument("--max-vars", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_check)
    return p


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _load_pipeline(args):
    """program + dataset -> (grounded-or-folded, dataset, stages, patterns).

    ``patterns`` is None when a user program has no Boolean array to target
    by default and ``--targets`` is not given; its text stages are then
    grounded with every declaration as a target."""
    try:
        dataset = Dataset.load(args.data)
    except Exception as exc:
        raise CliError("dataset", str(exc))
    variables = set(dataset.vartable.index)
    stages = {}

    if args.program and args.event_program:
        raise CliError("config", "--program and --event-program are exclusive")
    if args.program:
        try:
            with open(args.program) as fh:
                text = fh.read()
            ast = parse_user_program(text, filename=args.program)
        except ProgramSyntaxError as exc:
            raise CliError("parse", str(exc))
        stages["ast"] = lambda: format_user_program(ast)
        diags = validate_user_program(ast)
        if diags:
            raise CliError("validate", "; ".join(
                "%s:%s" % (args.program, d) for d in diags))
        try:
            translation = translate_to_event_program(ast, dataset)
        except Exception as exc:
            raise CliError("translate", str(exc))
        program = translation.program
        default_targets = _default_user_targets(translation, args.folded)
    elif args.event_program:
        try:
            with open(args.event_program) as fh:
                program = parse_event_program(fh.read(), args.event_program)
        except Exception as exc:
            raise CliError("parse", str(exc))
        default_targets = ("*",)
    else:
        raise CliError("config", "one of --program/--event-program is required")

    stages["event-program"] = lambda: emit_event_program(program)
    patterns = tuple(args.targets) if args.targets else default_targets
    try:
        grounded = (ground_folded if args.folded else ground)(
            program, patterns or ("*",), variables)
        stages["grounded"] = lambda: emit_event_program(grounded.as_program())
    except Exception as exc:
        raise CliError("ground", str(exc))
    return grounded, dataset, stages, patterns


def _default_user_targets(translation, folded):
    paths = translation.loop_final_paths if folded else translation.final_paths
    pick = None
    for var, (path, dims, kind) in paths.items():
        if kind == "bool" and dims:
            pick = var  # last Boolean family wins
    if pick is None:
        return None
    pattern = (translation.loop_final_pattern(pick) if folded
               else translation.final_pattern(pick))
    return (pattern,)


def cmd_run(args):
    _validate_run_config(args)
    grounded, dataset, stages, patterns = _load_pipeline(args)
    if args.emit_stage and args.emit_stage != "network":
        text = stages[args.emit_stage]()
        _write_text(args.out, text)
        return 0
    if patterns is None:
        raise CliError("config", "the program declares no Boolean array to "
                       "target by default; pass --targets")

    t0 = time.time()
    try:  # the program's one type check, in every mode
        net = build_network(grounded)
    except (NetworkError, TypeMismatch) as exc:
        raise CliError("network", str(exc))
    if args.emit_stage == "network":
        _write_text(args.out, net.dump())
        return 0
    if args.mode == "naive":
        report = _run_naive(grounded, dataset)
    else:
        if args.mode in ("exact-d", "hybrid-d"):
            scheme = "exact" if args.mode == "exact-d" else "hybrid"
            log = []
            result = run_distributed(net, dataset.vartable, args.epsilon, scheme,
                                     workers=args.workers,
                                     job_depth=args.job_depth, commit_log=log)
            report = result.as_dict()
            report["stats"]["job_bound"] = max_job_count(
                max(len(dataset.vartable), 1), args.job_depth)
            if args.job_log:
                with open(args.job_log, "w") as fh:
                    json.dump(log, fh, sort_keys=True, indent=1)
                    fh.write("\n")
        else:
            result = compile_targets(net, dataset.vartable, args.epsilon, args.mode)
            report = result.as_dict()
        if result.clamp:  # stderr, so that --out stays byte-stable
            print("note: float dust clamped: a final bound moved by %r "
                  "(tolerance %g)" % (result.clamp, BOUNDS_TOLERANCE),
                  file=sys.stderr)
    elapsed = time.time() - t0
    report["mode"] = args.mode

    _print_report(report, elapsed)
    if args.out:
        _write_text(args.out, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0


def _validate_run_config(args):
    approx = args.mode in ("eager", "lazy", "hybrid", "hybrid-d")
    if approx and args.epsilon <= 0:
        raise CliError("config", "mode %s needs --epsilon > 0" % args.mode)
    if not approx and args.epsilon:
        raise CliError("config", "--epsilon requires an approximation mode")
    if args.workers > 1 and args.mode not in ("exact-d", "hybrid-d"):
        raise CliError("config", "--workers > 1 requires exact-d or hybrid-d")
    if args.folded and args.mode == "naive":
        raise CliError("config", "naive mode enumerates worlds; --folded "
                       "applies to network modes")
    if args.workers < 1 or args.job_depth < 1:
        raise CliError("config", "workers and job depth must be >= 1")


def _run_naive(grounded, dataset):
    """The oracle's world walk: print each world, sum the target masses."""
    tset = list(grounded.targets)
    sums, total = dict.fromkeys(tset, 0.0), 0.0
    for idx, rep in enumerate(world_reports(grounded, dataset.vartable)):
        rec = {"world": idx, "probability": round(rep.probability, 12),
               "targets": {e: bool(rep.values[e]) for e in tset}}
        print(json.dumps(rec, sort_keys=True))
        total += rep.probability
        for e in tset:
            if rep.values[e] is True:
                sums[e] += rep.probability
    return {"targets": [{"eid": e, "lower": p, "upper": p}
                        for e, p in sums.items()],
            "stats": {"evaluations": idx + 1,  # the walk has a first world
                      "total_mass": total}}


def _print_report(report, elapsed):
    print("mode: %s" % report["mode"])
    width = max((len(t["eid"]) for t in report["targets"]), default=4)
    print("%-*s  %-12s %-12s" % (width, "eid", "lower", "upper"))
    for t in report["targets"]:
        print("%-*s  %-12.9f %-12.9f" % (width, t["eid"], t["lower"], t["upper"]))
    stats = report.get("stats", {})
    print(" ".join("%s=%s" % (k, v) for k, v in sorted(stats.items())))
    print("elapsed_s: %.3f" % elapsed)


def _write_text(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# gen / check
# ---------------------------------------------------------------------------


def cmd_gen(args):
    try:
        ds = gen_correlations(
            args.n, args.scheme, group=args.group, certain=args.certain,
            prob_range=(args.prob_lo, args.prob_hi), seed=args.seed, l=args.l,
            m=args.m, pool=args.pool, k=args.k, iterations=args.iter,
            dim=args.dim, mutex_encoding=args.mutex_encoding)
    except Exception as exc:
        raise CliError("gen", str(exc))
    ds.save(args.out)
    print("wrote %s: n=%d vars=%d scheme=%s" %
          (args.out, ds.n, len(ds.vartable), args.scheme))
    return 0


def cmd_check(args):
    bad = 0
    for i in range(args.count):
        seed = args.seed + i
        prog, vt, targets = random_instance(seed, max_vars=args.max_vars)
        g = ground(prog, targets, variables=set(vt.index))
        net = build_network(g)
        expected = oracle_probabilities(g, vt, targets).probabilities
        runs = [compile_targets(net, vt, 0.0, "exact")] + [
            run_distributed(net, vt, 0.0, "exact", workers=w, job_depth=2)
            for w in (1, 2)]
        worst = max(abs(bound - expected[tb.eid]) for result in runs
                    for tb in result.targets for bound in (tb.lower, tb.upper))
        bits = [[(tb.lower.hex(), tb.upper.hex()) for tb in result.targets]
                for result in runs[1:]]
        text = _text_route_failure(prog, vt, targets, expected)
        ok = worst < 1e-9 and bits[0] == bits[1] and text is None
        bad += not ok
        status = ("ok" if ok
                  else "FAIL: exact-d bounds differ at 1 and 2 workers"
                  if bits[0] != bits[1] else "FAIL" if worst >= 1e-9
                  else "FAIL: " + text)
        print("seed=%-6d vars=%-3d targets=%-2d err=%.2e %s" %
              (seed, len(vt), len(targets), worst, status))
    print("%d/%d instances matched" % (args.count - bad, args.count))
    return 1 if bad else 0


def _text_route_failure(prog, vt, targets, expected):
    """Why ``prog``'s text, emitted, parsed back, grounded and compiled
    exactly, misses the oracle's ``expected``; None if it does not."""
    try:
        g = ground(parse_event_program(emit_event_program(prog)), targets,
                   variables=set(vt.index))
        result = compile_targets(build_network(g), vt, 0.0, "exact")
    except (ProgramSyntaxError, GroundError, NetworkError,
            TypeMismatch) as exc:
        return "text route: %s" % exc
    if any(abs(bound - expected[tb.eid]) >= 1e-9 for tb in result.targets
           for bound in (tb.lower, tb.upper)):
        return "text route bounds differ from the oracle"
    return None


if __name__ == "__main__":
    sys.exit(main())
