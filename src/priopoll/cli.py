"""Command-line front end.

Subcommands
    analyze   full analytic report (means, variances, queue lengths, PCL)
    simulate  replicated discrete-event simulation
    compare   gated/exhaustive/mixed side-by-side for selected queues
    sweep     vary one arrival rate over a grid, per-discipline low-class waits
    check     workload-conservation residual, non-zero exit when violated
    vacation  closed-form vacation-model sweep with the crossover rate

Exit codes: 0 ok, 1 I/O, schema or parameter error, 2 unstable model,
3 convergence failure, 4 conservation-check failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from .analytic import Analyzer, leftover_work, pcl_check
from .errors import IllConditioned, NoConvergence, PriopollError, UnstableSystem
from .model import DISCIPLINES, GATED, MIXED, load_model, validate
from .vacation import vacation_crossover, vacation_mean_wait_low

CHECK_TOL = 1e-5


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_to_table(csv_text: str) -> str:
    """Fixed-width rendering, finite floats shortened to 3 decimals."""
    rows = [line.split(",") for line in csv_text.strip().splitlines()]

    def fmt(cell: str) -> str:
        try:
            v = float(cell)
        except ValueError:
            return cell
        if not math.isfinite(v):
            return cell
        if v == int(v) and abs(v) < 1e15 and "." not in cell and "e" not in cell.lower():
            return cell
        return f"{v:.3f}"

    rows = [[fmt(c) for c in r] for r in rows]
    widths = [max(len(r[k]) if k < len(r) else 0 for r in rows)
              for k in range(max(len(r) for r in rows))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    return "\n".join(lines) + "\n"


def _emit(csv_text: str, args) -> None:
    if args.format == "table":
        _write(_csv_to_table(csv_text), args.out)
    else:
        _write(csv_text, args.out)


def cmd_analyze(args) -> int:
    model = load_model(args.model)
    report = Analyzer(model).report()
    _emit(report.to_csv(), args)
    return 0


def cmd_simulate(args) -> int:
    from .sim import replicate  # the simulator and numpy load only here

    model = load_model(args.model)
    validate(model)
    stats = replicate(model, args.seed, args.reps, args.cycles, args.warmup)
    _emit(stats.to_csv(model), args)
    return 0


def cmd_compare(args) -> int:
    model = load_model(args.model)
    validate(model)
    if args.queues:
        flagged = [int(tok) - 1 for tok in args.queues.split(",")]
    else:
        flagged = list(range(model.n))
    for i in flagged:
        if not 0 <= i < model.n:
            raise ValueError(f"queue index {i + 1} out of range")
    if len(set(flagged)) < len(flagged):
        raise ValueError(f"duplicate queue index in --queues {args.queues}")
    lines = ["combo,queue,class,discipline,mean_wait,var_wait,leftover_work,"
             "pcl_lhs,pcl_rhs,pcl_residual"]
    for combo in itertools.product(DISCIPLINES, repeat=len(flagged)):
        variant = model
        for i, disc in zip(flagged, combo):
            variant = variant.replace_queue(i, discipline=disc)
        label = "+".join(combo)
        analyzer = Analyzer(variant)
        rep = analyzer.report()
        for r in rep.classes:
            ez = leftover_work(analyzer.queues[r.queue])
            lines.append(f"{label},{r.queue + 1},{r.cls},{r.discipline},"
                         f"{r.mean_wait:.6g},{r.var_wait:.6g},{ez:.6g},,,")
        lines.append(f"{label},system,,,,,,{rep.pcl_lhs:.6g},{rep.pcl_rhs:.6g},"
                     f"{rep.pcl_residual:.6g}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _parse_sweep(spec: str):
    parts = spec.split(":")
    if len(parts) != 5:
        raise ValueError("sweep spec must be param:queue:start:stop:count, "
                         "e.g. lambda_high:Q1:0:0.6:50")
    param, queue_tok, start, stop, count = parts
    if param not in ("lambda_high", "lambda_low"):
        raise ValueError(f"unsupported sweep parameter {param!r}")
    queue = int(queue_tok.lstrip("Qq")) - 1
    return param, queue, float(start), float(stop), int(count)


def cmd_sweep(args) -> int:
    model = load_model(args.model)
    validate(model)
    param, qi, start, stop, count = _parse_sweep(args.sweep)
    if not 0 <= qi < model.n:
        raise ValueError(f"queue index {qi + 1} out of range")
    if count < 2 or stop <= start:
        raise ValueError("sweep grid must be strictly increasing")
    base = model.queues[qi]
    total = base.lambda_high + base.lambda_low
    lines = ["parameter,queue,value,discipline,mean_wait_low"]
    for k in range(count):
        x = start + (stop - start) * k / (count - 1)
        lam_h, lam_l = (x, base.lambda_low) if param == "lambda_high" else (base.lambda_high, x)
        if args.hold_total:
            if param == "lambda_high":
                lam_l = total - x
            else:
                lam_h = total - x
        for disc in (GATED, MIXED):
            if lam_l <= 0.0:
                lines.append(f"{param},{qi + 1},{x:.6g},{disc},")
                continue
            analyzer = Analyzer(model.replace_queue(qi, lambda_high=lam_h, lambda_low=lam_l,
                                                    discipline=disc))
            wl = analyzer.mean_wait(qi, "L")
            lines.append(f"{param},{qi + 1},{x:.6g},{disc},{wl:.6g}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_check(args) -> int:
    lhs, rhs, residual = pcl_check(load_model(args.model))
    _emit(f"pcl_lhs,pcl_rhs,pcl_residual\n{lhs:.6g},{rhs:.6g},{residual:.6g}\n", args)
    if residual > CHECK_TOL:
        print(f"conservation check failed: residual {residual:.3g} > {CHECK_TOL}",
              file=sys.stderr)
        return 4
    return 0


def cmd_vacation(args) -> int:
    rho, s = args.rho, args.vacation_length
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    star = vacation_crossover(rho, s)
    star_txt = f"{star:.8g}" if star is not None else ""
    lines = ["lambda_high,gated,mixed_ge,lambda_star"]
    for k in range(args.points):
        lam_h = rho * k / args.points  # endpoint rho excluded: no low class left
        g = vacation_mean_wait_low(lam_h, rho - lam_h, s, GATED)
        m = vacation_mean_wait_low(lam_h, rho - lam_h, s, MIXED)
        lines.append(f"{lam_h:.8g},{g:.8g},{m:.8g},{star_txt}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _add_common(p, model_required=True):
    if model_required:
        p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "table"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="priopoll", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analytic performance report")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="replicated simulation estimates")
    _add_common(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--warmup", type=int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="discipline variants side by side")
    _add_common(p)
    p.add_argument("--queues", default=None,
                   help="comma-separated 1-based queue list (default: all)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="arrival-rate sweep per discipline")
    _add_common(p)
    p.add_argument("--sweep", required=True,
                   help="param:queue:start:stop:count, e.g. lambda_high:Q1:0:0.6:50")
    p.add_argument("--hold-total", action="store_true",
                   help="keep the queue's total arrival rate constant")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("check", help="workload conservation residual")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("vacation", help="vacation-model closed-form sweep")
    _add_common(p, model_required=False)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--vacation-length", "--s", dest="vacation_length",
                   type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(fn=cmd_vacation)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnstableSystem as exc:
        print(f"error: unstable model: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, IllConditioned) as exc:
        print(f"error: convergence failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, PriopollError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
