"""Command-line front end: simulate, profile, pool, correlate.

Exit codes follow the usual convention: 0 on success, 1 on a runtime
failure (one-line diagnostic on stderr), 2 on bad flags (argparse usage).
Numeric CSV cells are written with 17 significant digits so text output
round-trips to the exact float.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, io, simulation, svg
from .errors import TextcharError

__all__ = [
    "build_parser",
    "cmd_correlate",
    "cmd_pool",
    "cmd_profile",
    "cmd_simulate",
    "main",
]

# CLI spellings of the scenario kinds.
_SCENARIOS = {
    "downsample": "down_sampling",
    "spread": "varying_spread",
    "outliers": "outliers",
    "subclusters": "sub_clusters",
}

_SIM_COLUMNS = ("parameter", "diversity", "density", "density_log", "homogeneity")


def _num(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _cap(text: str) -> int:
    # Homogeneity needs at least 3 points, so a smaller cap cannot yield one.
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError(f"must be at least 3, got {value}")
    return value


def _require_inputs(*paths) -> None:
    for path in paths:
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(f"input path does not exist: {path}")


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def cmd_simulate(args) -> int:
    kind = _SCENARIOS[args.scenario]
    spec = simulation.scenario(
        kind, dim=args.dims, points=args.points, seed=args.seed,
        outlier_radius=args.radius, spacing=args.spacing,
    )
    result = simulation.run_scenario(spec)

    lines = [",".join(_SIM_COLUMNS)]
    for row in result.rows:
        if row.report is None:
            raise RuntimeError(
                f"scenario row at parameter {row.parameter:g} failed: {row.error}"
            )
        rep = row.report
        lines.append(",".join([
            _num(row.parameter), _num(rep.diversity), _num(rep.density),
            _num(rep.density_log), _num(rep.homogeneity),
        ]))
    _write_text(args.out, "\n".join(lines) + "\n")

    if args.svg is not None:
        xs = [row.parameter for row in result.rows]
        panels = [
            (name, [getattr(row.report, name) for row in result.rows])
            for name in ("diversity", "density", "homogeneity")
        ]
        svg.write_line_chart(
            args.svg, args.scenario, xs, panels,
            title=f"{args.scenario}, {args.dims} dims, seed {args.seed}",
        )
    return 0


def _read_embeddings(args) -> io.LabeledEmbeddings:
    _require_inputs(args.input)
    return io.read_vectors(args.input, args.format)


def _parse_fractions(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse fraction list {raw!r}") from None


def cmd_profile(args) -> int:
    embeddings = _read_embeddings(args)
    if args.fractions is None:
        profile = analysis.profile_dataset(
            io.group_by_label(embeddings),
            homogeneity_cap=args.cap, seed=args.seed)
        doc = {"kind": "profile", **profile.to_dict()}
    else:
        sweep = analysis.downsample_sweep(
            embeddings, _parse_fractions(args.fractions), seed=args.seed,
            homogeneity_cap=args.cap)
        doc = {
            "kind": "sweep",
            "seed": sweep.seed,
            "rows": [
                {
                    "fraction": row.fraction,
                    "size": row.size,
                    "final": row.final.to_dict(),
                    "profile": row.profile.to_dict(),
                }
                for row in sweep.rows
            ],
        }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_pool(args) -> int:
    _require_inputs(args.input)
    io.pool_token_file(args.input, args.out)
    return 0


def cmd_correlate(args) -> int:
    _require_inputs(args.metrics, args.scores)
    sweep = io.read_sweep(args.metrics)
    names, table = io.read_scores(args.scores)

    sweep_fracs = set(sweep.fractions())
    unmatched = sorted(sweep_fracs.symmetric_difference(table))
    if unmatched:
        raise ValueError(
            "fractions do not join: " + ", ".join(format(f, "g") for f in unmatched)
        )
    for row in sweep.rows:
        row.scores = table[row.fraction]

    report = analysis.correlation_report(sweep, names)
    lines = ["metric,score,pearson_r,n,note"]
    for entry in report.entries:
        lines.append(",".join([
            entry.metric, entry.score, _num(entry.r), str(entry.n),
            entry.error or "",
        ]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textchar",
        description="Characteristic metrics (diversity, density, homogeneity) "
                    "for embedding vector collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="run a synthetic sweep and emit metric-vs-parameter CSV")
    sim.add_argument("--scenario", required=True, choices=sorted(_SCENARIOS),
                     help="which synthetic sweep to run")
    sim.add_argument("--dims", required=True, type=int,
                     help="dimensionality of the synthetic points")
    sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sim.add_argument("--points", type=int, default=10_000,
                     help="points in the base cluster (default 10000)")
    sim.add_argument("--out", default=None,
                     help="CSV output path (default: stdout)")
    sim.add_argument("--svg", default=None,
                     help="also write an SVG line chart here")
    sim.add_argument("--radius", type=float, default=None,
                     help="outlier shell radius (outliers scenario)")
    sim.add_argument("--spacing", type=float, default=None,
                     help="sub-cluster center spacing (subclusters scenario)")
    sim.set_defaults(func=cmd_simulate)

    prof = sub.add_parser(
        "profile", help="profile a labeled vector file, optionally sweeping "
                        "down-sampling fractions")
    prof.add_argument("--input", required=True, help="vector file to read")
    prof.add_argument("--format", required=True, choices=sorted(io.FORMATS),
                      help="input file format")
    prof.add_argument("--fractions", default=None,
                      help="comma-separated down-sampling fractions, e.g. 1.0,0.5")
    prof.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    prof.add_argument("--cap", type=_cap, default=None,
                      help="subsample classes larger than this for homogeneity")
    prof.add_argument("--out", default=None,
                      help="JSON output path (default: stdout)")
    prof.set_defaults(func=cmd_profile)

    pool = sub.add_parser(
        "pool", help="mean-pool token-level vectors into one vector per sequence")
    pool.add_argument("--input", required=True, help="token-level jsonl file")
    pool.add_argument("--out", required=True, help="pooled jsonl output path")
    pool.set_defaults(func=cmd_pool)

    corr = sub.add_parser(
        "correlate", help="correlate sweep metrics with external model scores")
    corr.add_argument("--metrics", required=True,
                      help="sweep JSON produced by `profile --fractions`")
    corr.add_argument("--scores", required=True,
                      help="CSV with a `fraction` column plus score columns")
    corr.add_argument("--out", default=None,
                      help="CSV output path (default: stdout)")
    corr.set_defaults(func=cmd_correlate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TextcharError, OSError, ValueError, RuntimeError, KeyError) as exc:
        message = str(exc) or type(exc).__name__
        print(f"textchar: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
