"""Command-line front end: simulate, profile, pool, correlate.

Exit codes follow the usual convention: 0 on success, 1 on a runtime
failure (one-line diagnostic on stderr), 2 on bad flags (argparse usage).
Numeric CSV cells are written with 17 significant digits so text output
round-trips to the exact float; a cell holding a comma, quote or newline is
quoted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from io import StringIO
from pathlib import Path

from . import analysis, io, simulation, svg
from .errors import TextcharError

__all__ = ["main"]

_SIM_COLUMNS = ("parameter", "diversity", "density", "density_log", "homogeneity")
_CORRELATE_COLUMNS = ("metric", "score", "pearson_r", "n", "note")


def _num(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _int(text: str) -> int:
    # argparse names a failing type by its function, so spell it as ``int``.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _cap(text: str) -> int:
    # Homogeneity needs at least 3 points, so a smaller cap cannot yield one.
    value = _int(text)
    if value < 3:
        raise argparse.ArgumentTypeError(f"must be at least 3, got {value}")
    return value


def _seed(text: str) -> int:
    # numpy's SeedSequence takes only non-negative integers.
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _csv_text(header, rows) -> str:
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _require_inputs(*paths) -> None:
    for path in paths:
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(f"input path does not exist: {path}")


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _cmd_simulate(args) -> int:
    reports = simulation.run_scenario(
        args.scenario, dim=args.dims, points=args.points, seed=args.seed,
        outlier_radius=args.radius, spacing=args.spacing,
    )
    xs = [float(value) for value in simulation.SWEEPS[args.scenario]]
    cells = [
        [_num(x), _num(rep.diversity), _num(rep.density), _num(rep.density_log),
         _num(rep.homogeneity)]
        for x, rep in zip(xs, reports)
    ]
    _write_text(args.out, _csv_text(_SIM_COLUMNS, cells))

    if args.svg is not None:
        panels = [
            (name, [getattr(rep, name) for rep in reports])
            for name in ("diversity", "density", "homogeneity")
        ]
        try:
            svg.write_line_chart(
                args.svg, args.scenario, xs, panels,
                title=f"{args.scenario}, {args.dims} dims, seed {args.seed}",
            )
        except OSError:
            # A failed run leaves no output file, so the CSV goes too.
            if args.out is not None:
                Path(args.out).unlink(missing_ok=True)
            raise
    return 0


def _parse_fractions(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse fraction list {raw!r}") from None


def _cmd_profile(args) -> int:
    # Without --fractions, the profile is the one-fraction sweep at 1.0.
    fractions = [1.0] if args.fractions is None else _parse_fractions(args.fractions)
    _require_inputs(args.input)
    embeddings = io.read_vectors(args.input, args.format)
    sweep = analysis.downsample_sweep(embeddings, fractions, seed=args.seed,
                                      homogeneity_cap=args.cap)
    if args.fractions is None:
        doc = {"kind": "profile", **sweep[0].to_dict()}
    else:
        doc = {
            "kind": "sweep",
            "seed": args.seed,
            "rows": [
                {
                    "fraction": profile.fraction,
                    "size": profile.size,
                    "final": profile.final.to_dict(),
                    "profile": profile.to_dict(),
                }
                for profile in sweep
            ],
        }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_pool(args) -> int:
    _require_inputs(args.input)
    io.pool_token_file(args.input, args.out)
    return 0


def _cmd_correlate(args) -> int:
    _require_inputs(args.metrics, args.scores)
    finals = io.read_sweep(args.metrics)
    scores = io.read_scores(args.scores, finals)
    cells = [[entry.metric, entry.score, _num(entry.r), str(entry.n), entry.error or ""]
             for entry in analysis.correlation_report(list(finals.values()), scores)]
    _write_text(args.out, _csv_text(_CORRELATE_COLUMNS, cells))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textchar",
        description="Characteristic metrics (diversity, density, homogeneity) "
                    "for embedding vector collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="run a synthetic sweep and emit metric-vs-parameter CSV")
    sim.add_argument("--scenario", required=True, choices=sorted(simulation.SWEEPS),
                     help="which synthetic sweep to run")
    sim.add_argument("--dims", required=True, type=int,
                     help="dimensionality of the synthetic points")
    sim.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    sim.add_argument("--points", type=int, default=10_000,
                     help="points in the base cluster (default 10000)")
    sim.add_argument("--out", default=None,
                     help="CSV output path (default: stdout)")
    sim.add_argument("--svg", default=None,
                     help="also write an SVG line chart here")
    sim.add_argument("--radius", type=float, default=simulation.DEFAULT_SCALE_FACTOR,
                     help="outlier shell radius (outliers scenario)")
    sim.add_argument("--spacing", type=float, default=simulation.DEFAULT_SCALE_FACTOR,
                     help="sub-cluster center spacing (subclusters scenario)")
    sim.set_defaults(func=_cmd_simulate)

    prof = sub.add_parser(
        "profile", help="profile a labeled vector file, optionally sweeping "
                        "down-sampling fractions")
    prof.add_argument("--input", required=True, help="vector file to read")
    prof.add_argument("--format", required=True, choices=sorted(io.FORMATS),
                      help="input file format")
    prof.add_argument("--fractions", default=None,
                      help="comma-separated down-sampling fractions, e.g. 1.0,0.5")
    prof.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    prof.add_argument("--cap", type=_cap, default=None,
                      help="subsample classes larger than this for homogeneity")
    prof.add_argument("--out", default=None,
                      help="JSON output path (default: stdout)")
    prof.set_defaults(func=_cmd_profile)

    pool = sub.add_parser(
        "pool", help="mean-pool token-level vectors into one vector per sequence")
    pool.add_argument("--input", required=True, help="token-level jsonl file")
    pool.add_argument("--out", required=True, help="pooled jsonl output path")
    pool.set_defaults(func=_cmd_pool)

    corr = sub.add_parser(
        "correlate", help="correlate sweep metrics with external model scores")
    corr.add_argument("--metrics", required=True,
                      help="sweep JSON produced by `profile --fractions`")
    corr.add_argument("--scores", required=True,
                      help="CSV with a `fraction` column plus score columns")
    corr.add_argument("--out", default=None,
                      help="CSV output path (default: stdout)")
    corr.set_defaults(func=_cmd_correlate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TextcharError, OSError, ValueError) as exc:
        message = str(exc) or type(exc).__name__
        print(f"textchar: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
