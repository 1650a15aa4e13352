"""Command-line entry point: single runs, grid sweeps, scheme comparisons.

Results land in one CSV with a fixed header and 6-decimal formatting;
sweep output additionally carries per-(scheme, blackholes) mean and 95%
confidence half-width rows so plots can be drawn without recomputation.
Exit codes: 0 on success, 1 for configuration errors (including a usage
error, an unreadable config file, an unwritable ``--out`` and a sweep
grid with an impossible point), 2 for run failures.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import ConfigError
from .runner import RunRecord, failed_record, run_scenario
from .scenario import SCHEMES, SEED_LIMIT, ScenarioConfig, parse_config

CSV_HEADER = (
    "scenario,scheme,blackholes,seed,throughput_pct,loss_pct,delay_s,"
    "mrr,vet_msgs,untrusted_paths,starved_flows"
)

_METRIC_COLUMNS = ("throughput_pct", "loss_pct", "delay_s", "mrr")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _row(cells: dict[str, object]) -> str:
    """One CSV line: ``cells`` in header order, metrics to 6 decimals."""
    return ",".join(
        _fmt(cells[column]) if column in _METRIC_COLUMNS else str(cells[column])
        for column in CSV_HEADER.split(",")
    )


def record_row(record: RunRecord) -> str:
    return _row({column: getattr(record, column) for column in CSV_HEADER.split(",")})


def write_csv(records: list[RunRecord], path: str | Path,
              summaries: list[str] | None = None) -> None:
    """Emit sorted data rows (plus optional pre-built summary rows)."""
    if not records:
        raise ValueError("write_csv needs at least one record")
    ordered = sorted(records, key=lambda r: (r.scheme, r.blackholes, r.seed))
    lines = [CSV_HEADER]
    lines.extend(record_row(r) for r in ordered)
    if summaries:
        lines.extend(summaries)
    Path(path).write_text("\n".join(lines) + "\n")


def _t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with integer ``df`` >= 1: the finite
    series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df)."""
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    if df % 2:
        term = total = math.cos(theta) if df > 1 else 0.0
        for k in range(1, (df - 1) // 2):
            term *= cos2 * (2 * k) / (2 * k + 1)
            total += term
        two_sided = 2 / math.pi * (theta + math.sin(theta) * total)
    else:
        term = total = 1.0
        for k in range(1, df // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        two_sided = math.sin(theta) * total
    return 0.5 + two_sided / 2


def t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t with integer ``df`` >= 1, for 0 < p < 1.

    Newton's method on the exact CDF, started from the normal quantile;
    the CDF is concave above 0 and convex below, so the iterates approach
    the root monotonically from that start.  Convergence is quadratic, so
    a step below 1e-12 of ``t`` leaves an error at the rounding floor of
    the CDF series.
    """
    log_norm = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    t = statistics.NormalDist().inv_cdf(p)
    for _ in range(100):
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = (_t_cdf(t, df) - p) / density
        t -= step
        if abs(step) <= 1e-12 * abs(t):
            break
    return t


def confidence_half_width(values: list[float]) -> float:
    """Student-t half width of the mean's 95% confidence interval."""
    if len(values) < 2:
        return 0.0
    spread = statistics.stdev(values)
    if spread == 0.0:
        return 0.0
    t_crit = t_quantile(0.975, len(values) - 1)
    return t_crit * spread / math.sqrt(len(values))


def _groups(records: list[RunRecord]) -> dict[tuple[str, int], list[RunRecord]]:
    """The successful runs per (scheme, blackholes), in key order."""
    groups: dict[tuple[str, int], list[RunRecord]] = {}
    for record in records:
        if not record.failed:
            groups.setdefault((record.scheme, record.blackholes), []).append(record)
    return dict(sorted(groups.items()))


def _aggregate(rows: list[RunRecord]) -> dict[str, tuple[float, float]]:
    """Metric -> (mean, ci95 half width) over the runs where it is defined."""
    per_metric = {}
    for column in _METRIC_COLUMNS:
        values = [v for v in (getattr(r, column) for r in rows) if not math.isnan(v)]
        per_metric[column] = (
            (sum(values) / len(values), confidence_half_width(values))
            if values else (math.nan, math.nan)
        )
    return per_metric


def summarize(records: list[RunRecord]) -> dict[tuple[str, int], dict[str, tuple[float, float]]]:
    """Per (scheme, blackholes): metric -> (mean, ci95 half width).

    Runs where a metric is undefined (nan) are excluded from that
    metric's aggregate; failed runs are excluded entirely.
    """
    return {key: _aggregate(rows) for key, rows in _groups(records).items()}


def summary_rows(records: list[RunRecord]) -> list[str]:
    lines = []
    for (scheme, blackholes), rows in _groups(records).items():
        per_metric = _aggregate(rows)
        for idx, kind in enumerate(("summary_mean", "summary_ci95")):
            cells = {column: pair[idx] for column, pair in per_metric.items()}
            # the overhead columns are not aggregated yet; the stored CSV
            # digests pin these zeros until the CSV re-baseline (ROADMAP item 4)
            cells.update(scenario=kind, scheme=scheme, blackholes=blackholes,
                         seed=len(rows), vet_msgs=0, untrusted_paths=0, starved_flows=0)
            lines.append(_row(cells))
    return lines


def sweep_records(
    base: ScenarioConfig,
    blackhole_values: list[int],
    seeds: list[int],
    schemes: list[str],
) -> list[RunRecord]:
    """Cross product of runs, executed and returned in deterministic order.

    A run that fails, ``run_scenario``'s ``SimulationError`` or any other
    exception a run raises, becomes a failed record with a warning, so one
    crashing run costs its own row, not the rows already finished; an
    exception other than ``SimulationError`` also prints its traceback."""
    records = []
    for scheme in schemes:
        for blackholes in blackhole_values:
            for seed in seeds:
                cfg = replace(base, scheme=scheme, blackholes=blackholes, seed=seed).validate()
                try:
                    record = run_scenario(cfg)
                except Exception as exc:
                    import traceback  # only a crash needs it; startup is measured

                    traceback.print_exc()
                    record = failed_record(cfg, f"internal error: {type(exc).__name__}: {exc}")
                if record.failed:
                    print(
                        f"warning: run failed (scheme={scheme} blackholes={blackholes} "
                        f"seed={seed}): {record.failure_reason}",
                        file=sys.stderr,
                    )
                records.append(record)
    return records


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # a usage error is a configuration error: exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value scenario file")
    for f in fields(ScenarioConfig):
        parser.add_argument(f"--{f.name}", type=str, metavar="V")


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(ScenarioConfig)
        if getattr(args, f.name, None) is not None
    }
    return parse_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relsim",
        description="Simulate black-hole attacks on on-demand routing and "
        "compare defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single scenario")
    _add_config_flags(run_p)
    run_p.add_argument("--out", metavar="FILE", help="write the CSV row here")

    sweep_p = sub.add_parser("sweep", help="grid over black hole counts and seeds")
    _add_config_flags(sweep_p)
    sweep_p.add_argument("--max-blackholes", type=int, default=10, metavar="N")
    sweep_p.add_argument("--seeds", type=int, default=30, metavar="K",
                         help="number of seeds, starting at --seed")
    sweep_p.add_argument("--schemes", default=",".join(SCHEMES), metavar="LIST")
    sweep_p.add_argument("--out", metavar="FILE", required=True)

    cmp_p = sub.add_parser("compare", help="all schemes at one black hole count")
    _add_config_flags(cmp_p)
    cmp_p.add_argument("--seeds", type=int, default=30, metavar="K")
    cmp_p.add_argument("--schemes", default=",".join(SCHEMES), metavar="LIST")
    cmp_p.add_argument("--out", metavar="FILE", required=True)
    return parser


def _parse_schemes(raw: str) -> list[str]:
    schemes = [item.strip() for item in raw.split(",") if item.strip()]
    for i, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise ConfigError(f"scheme: unknown scheme {scheme!r}")
        if scheme in schemes[:i]:
            raise ConfigError(f"scheme: duplicate scheme {scheme!r}")
    if not schemes:
        raise ConfigError("scheme: empty scheme list")
    return schemes


def _grid(
    args: argparse.Namespace, cfg: ScenarioConfig
) -> tuple[list[str], list[int], list[int]]:
    """The schemes, black hole counts and seeds a sweep or compare runs."""
    schemes = _parse_schemes(args.schemes)
    sweep = args.command == "sweep"
    if sweep and args.max_blackholes < 0:
        raise ConfigError("--max-blackholes must be >= 0")
    largest = args.max_blackholes if sweep else cfg.blackholes
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if cfg.seed + args.seeds > SEED_LIMIT:
        raise ConfigError("seed: --seed + --seeds - 1 must be below 2**64")
    # only blackholes varies along the grid and its bound is monotone, so
    # the largest value stands for every point; it is checked before the
    # grid is built, as a huge --max-blackholes could not be built at all
    replace(cfg, blackholes=largest).validate()
    blackhole_values = list(range(largest + 1)) if sweep else [largest]
    return schemes, blackhole_values, [cfg.seed + i for i in range(args.seeds)]


def _check_writable(path: str) -> None:
    """Fail before any run, not after it, when ``path`` cannot be written."""
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc.strerror or exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        grid = None if args.command == "run" else _grid(args, cfg)
        if args.out:
            _check_writable(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if grid is None:
        record = run_scenario(cfg)
        if args.out:
            write_csv([record], args.out)
        if record.failed:
            print(f"run failed: {record.failure_reason}", file=sys.stderr)
            return 2
        for line in (CSV_HEADER, record_row(record)):
            print(line)
        return 0

    schemes, blackhole_values, seeds = grid
    records = sweep_records(cfg, blackhole_values, seeds, schemes)
    write_csv(records, args.out, summaries=summary_rows(records))
    print(f"wrote {len(records)} runs to {args.out}")
    return 2 if any(r.failed for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
