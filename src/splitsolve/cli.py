"""Command-line front end.

Commands::

    splitsolve solve <config> [-o out.csv] [--steps auto|manual]
                              [--unsafe-steps] [--timings]
    splitsolve check <config>       (each norm(L[i]) with its source)
    splitsolve bench <suite> -o <dir>
    splitsolve diag  <config>

Exit codes: 0 success/converged, 1 configuration error (including an
admissibility refusal without ``--unsafe-steps``), 2 iteration budget
exhausted or a failed bench/diag check, 3 divergence.  The environment
variable ``SPLITSOLVE_SEED`` overrides the seed of any configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import benchmarks
from .config import ConfigError, build_problem, parse_config_file
from .convex import check_qualification, lower_to_inclusion, solve_convex
from .diagnostics import (
    build_product_ops,
    certify_Q_cocoercive,
    certify_skew,
    certify_strong_positivity,
)
from .operators import CLOSED_FORM_NORM_KINDS
from .reporting import write_run_csv
from .solver import (
    StoppingRule,
    certified_norms,
    geometric_errors,
    suggest_steps,
    validate_steps,
)

__all__ = ["main"]


def _env_seed():
    raw = os.environ.get("SPLITSOLVE_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"SPLITSOLVE_SEED must be an integer, got {raw!r}") from None


def _load(path: str):
    pc = parse_config_file(path)
    return build_problem(pc, seed=_env_seed())


def _step_config(cp, opts, mode_override=None):
    spec = lower_to_inclusion(cp)
    steps = opts.steps
    mode = mode_override or steps.mode
    lam = steps.lam
    schedule = (lambda n: lam)
    norms = certified_norms(spec)
    if mode == "auto":
        cfg = suggest_steps(spec, safety=steps.safety, lambda_schedule=schedule,
                            epsilon=steps.epsilon, norms=norms)
    else:
        if steps.tau is None or steps.sigmas is None:
            raise ConfigError("manual steps need both tau and sigma")
        cfg = validate_steps(spec, steps.tau, steps.sigmas,
                             lambda_schedule=schedule, epsilon=steps.epsilon,
                             norms=norms)
    return spec, cfg


def _admissibility_lines(cfg):
    return [
        f"rho = {cfg.rho:.17g}",
        f"beta = {cfg.beta:.17g}",
        f"delta = {cfg.delta:.17g}",
        f"admissible = {'yes' if cfg.admissible else 'no'}",
    ]


def cmd_solve(args) -> int:
    cp, opts = _load(args.config)
    spec, cfg = _step_config(cp, opts, args.steps)
    if not cfg.admissible and not args.unsafe_steps:
        print("refusing to solve: step sizes are inadmissible "
              "(rerun with --unsafe-steps to override)", file=sys.stderr)
        for line in _admissibility_lines(cfg):
            print(line, file=sys.stderr)
        return 1

    errors = None
    if opts.errors.kind == "geometric":
        errors = geometric_errors(cp.layout, opts.errors.amplitude,
                                  opts.errors.decay, seed=opts.seed)
    stop = StoppingRule(tol=opts.stop.tol, max_iter=opts.stop.max_iter,
                        kkt_tol=opts.stop.kkt_tol)
    report, gap = solve_convex(
        cp, cfg=cfg, stop=stop, errors=errors,
        allow_inadmissible=args.unsafe_steps, record_objective=True,
    )

    out = Path(args.output) if args.output else Path(args.config).with_suffix(".csv")
    write_run_csv(out, report, cfg, include_timings=args.timings)

    print(f"termination = {report.termination}")
    print(f"iterations = {report.iterations}")
    for line in _admissibility_lines(cfg):
        print(line)
    print(f"tau = {cfg.tau:.17g}")
    print("sigmas = " + " ".join(f"{s:.17g}" for s in cfg.sigmas))
    if gap.primal_value is not None:
        print(f"primal objective = {gap.primal_value:.17g}")
    if gap.dual_value is not None:
        print(f"dual objective = {gap.dual_value:.17g}")
    if gap.gap is not None:
        print(f"gap = {gap.gap:.17g}")
    print(f"kkt residual = {gap.kkt_residual:.17g}")
    for note in gap.notes:
        print(f"note: {note}")
    print("x = " + " ".join(f"{v:.17g}" for v in report.final_state.x))
    print(f"wrote {out}")
    if report.termination == "converged":
        return 0
    if report.termination == "max_iter":
        return 2
    print(f"failure: {report.failure}", file=sys.stderr)
    return 3


def cmd_check(args) -> int:
    cp, opts = _load(args.config)
    spec, cfg = _step_config(cp, opts)
    for i, (blk, nm) in enumerate(zip(spec.blocks, cfg.norms)):
        print(f"norm(L[{i}]) = {nm:.17g}")
        source = (f"closed form ({blk.L.kind})" if blk.L.kind in CLOSED_FORM_NORM_KINDS
                  else "power iteration")
        print(f"norm(L[{i}]) source = {source}")
    for line in _admissibility_lines(cfg):
        print(line)
    print(f"tau = {cfg.tau:.17g}")
    print("sigmas = " + " ".join(f"{s:.17g}" for s in cfg.sigmas))
    qual = check_qualification(cp)
    print(f"qualification = {qual.verdict}")
    if qual.reason:
        print(f"  ({qual.reason})")
    return 0


def cmd_bench(args) -> int:
    if args.suite not in benchmarks.SUITE_NAMES:
        print(f"unknown suite {args.suite!r}; known: "
              f"{', '.join(benchmarks.SUITE_NAMES)}", file=sys.stderr)
        return 1
    outcome = benchmarks.run_suite(args.suite)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, report in outcome.reports.items():
        write_run_csv(out_dir / f"{name}.csv", report)
    for check in outcome.checks:
        print(check.line())
    print(f"wrote CSVs to {out_dir}")
    return 0 if outcome.all_passed else 2


def cmd_diag(args) -> int:
    cp, opts = _load(args.config)
    spec, cfg = _step_config(cp, opts)
    ops = build_product_ops(spec, cfg)
    reports = [
        certify_skew(ops),
        certify_strong_positivity(ops),
        certify_Q_cocoercive(ops),
    ]
    ok = True
    for rep in reports:
        verdict = "PASS" if rep.passed else ("VACUOUS" if rep.vacuous else "FAIL")
        print(f"{rep.name}: {verdict} (margin {rep.margin:.3e}, "
              f"threshold {rep.threshold:g}, samples {rep.samples})")
        if rep.note:
            print(f"  {rep.note}")
        ok = ok and rep.passed
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsolve",
        description="Primal-dual splitting solver for structured convex programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured problem")
    p_solve.add_argument("config")
    p_solve.add_argument("-o", "--output", default=None,
                         help="run CSV path (default: config path with .csv)")
    p_solve.add_argument("--steps", choices=("auto", "manual"), default=None,
                         help="override the step mode from the config")
    p_solve.add_argument("--unsafe-steps", action="store_true",
                         help="run even when the step condition fails")
    p_solve.add_argument("--timings", action="store_true",
                         help="fill the wall_ms column (breaks byte-level "
                              "reproducibility)")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="report admissibility without solving")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="run a named benchmark suite")
    p_bench.add_argument("suite")
    p_bench.add_argument("-o", "--output", required=True, help="output directory")
    p_bench.set_defaults(func=cmd_bench)

    p_diag = sub.add_parser("diag", help="certify the product-space operators")
    p_diag.add_argument("config")
    p_diag.set_defaults(func=cmd_diag)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        where = getattr(args, "config", None)
        prefix = f"{where}:" if where else ""
        print(f"{prefix}{exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
