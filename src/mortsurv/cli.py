"""Command-line entry points.

Five subcommands cover the pipeline end to end: ``simulate`` writes a
benchmark portfolio with its truth file, ``ingest`` turns raw loan files
into the canonical dataset CSV, ``fit`` samples the posterior, and
``predict``/``diagnose`` consume a dataset plus a draws file.  Output
files are deterministic for fixed inputs and seeds.

Exit codes: 0 success, 2 usage errors (argument parsing, or a named
input file that does not exist), 3 I/O failures, 4 invalid file content
or configuration, 5 sampler finished but failed the convergence gate.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .diagnostics import coverage_report
from .ingest import FileSchema, IngestConfig, ingest_portfolio, month_index
from .mcmc import PriorSpec, SamplerConfig, run_sampler, summarize
from .model import Dataset, LoanStatus, RiskKind
from .predict import RiskCurves, classify
from .synth import make_benchmark

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVALID = 4
EXIT_NONCONVERGED = 5
RHAT_GATE = 1.1


def _out_dir(args) -> Path:
    raw = args.out_dir or os.environ.get("MORTSURV_OUT_DIR") or "."
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _checked(parse, ok, what: str):
    """argparse type: ``parse`` the text, then require ``ok`` of the value."""

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return check


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _month(text: str) -> int:
    """argparse type for a YYYYMM month, as a month index."""
    try:
        return month_index(text, "yyyymm")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_simulate(args) -> None:
    config = fileio.read_simulate_config(args.config)
    out = _out_dir(args)
    dataset, truth = make_benchmark(config)
    fileio.write_dataset_csv(dataset, out / "dataset.csv")
    fileio.write_json(fileio.to_json(truth), out / "truth.json")
    print(f"wrote {dataset.n_loans} loans to {out / 'dataset.csv'}")
    for status in LoanStatus:
        print(f"  {status.value}: {dataset.count(status)}")


def cmd_fit(args) -> int:
    dataset = fileio.read_dataset_csv(args.dataset)
    if args.config is not None:
        prior, config = fileio.read_fit_config(args.config)
    else:
        prior, config = PriorSpec(), SamplerConfig()
    if args.prior_only:
        dataset = Dataset(loans=(), schema=dataset.schema)
    out = _out_dir(args)
    samples = run_sampler(dataset, prior, config)
    fileio.write_draws_csv(samples, out / "draws.csv")
    rows = summarize(samples)
    fileio.write_summary_csv(rows, out / "summary.csv")
    fileio.write_acceptance_csv(samples, out / "acceptance.csv")
    print(
        f"{samples.n_draws} draws ({config.n_chains} chains x {config.n_kept}) "
        f"on {dataset.n_loans} loans -> {out / 'draws.csv'}"
    )
    name_w = max(len(r.name) for r in rows)
    print(f"{'parameter':<{name_w}}  {'mean':>10}  {'sd':>10}  {'rhat':>6}  {'ess':>8}")
    for r in rows:
        print(
            f"{r.name:<{name_w}}  {r.mean:>10.4f}  {r.sd:>10.4f}  "
            f"{r.rhat:>6.3f}  {r.ess:>8.1f}"
        )
    if config.n_chains < 2:
        print(
            "convergence gate: not evaluated (split R-hat needs at least 2 chains)",
            file=sys.stderr,
        )
        return 0
    if config.n_kept < 4:
        print(
            "convergence gate: not evaluated (split R-hat needs at least 4 kept draws per chain)",
            file=sys.stderr,
        )
        return 0
    # NaN (constant draws) is skipped; +inf (stuck chains) fails the gate
    worst = max((r.rhat for r in rows if not math.isnan(r.rhat)), default=math.nan)
    if worst > RHAT_GATE:
        bad = [r.name for r in rows if r.rhat > RHAT_GATE]
        print(
            f"convergence gate: split R-hat > {RHAT_GATE} for {', '.join(bad)} "
            f"(worst {worst:.3f})",
            file=sys.stderr,
        )
        if not args.allow_nonconverged:
            return EXIT_NONCONVERGED
    return 0


def _check_schema(dataset: Dataset, samples) -> None:
    if tuple(samples.schema) != tuple(dataset.schema):
        raise ValueError(
            "draws and dataset disagree on covariate schema: "
            f"{list(samples.schema)} vs {list(dataset.schema)}"
        )


def _curve_filename(loan_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", loan_id) + ".csv"


def _curve_filenames(dataset: Dataset) -> list[str]:
    """One curve file name per loan; two loans mapping to one name is an error."""
    owner: dict[str, str] = {}
    for loan in dataset.loans:
        name = _curve_filename(loan.loan_id)
        if name in owner:
            raise ValueError(
                f"loan ids {owner[name]!r} and {loan.loan_id!r} both map to curves/{name}"
            )
        owner[name] = loan.loan_id
    return list(owner)


def cmd_predict(args) -> None:
    dataset = fileio.read_dataset_csv(args.dataset)
    samples = fileio.read_draws_csv(args.draws)
    _check_schema(dataset, samples)
    names = _curve_filenames(dataset) if args.curves else []
    out = _out_dir(args)

    def classified():
        for i, loan in enumerate(dataset.loans):
            rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(i,)))
            res = classify(loan.covariates, samples, loan.maturity, args.n_sims, rng)
            yield [loan.loan_id, res.p_default, res.p_prepay, res.p_mature, res.n_sims,
                   res.n_horizon_capped]

    fileio.write_csv(
        out / "classification.csv",
        ["loan_id", "p_default", "p_prepay", "p_mature", "n_sims", "n_horizon_capped"],
        classified(),
    )
    print(f"classified {dataset.n_loans} loans -> {out / 'classification.csv'}")

    if args.curves:
        curve_dir = out / "curves"
        curve_dir.mkdir(exist_ok=True)
        # the grid, and so each risk's baseline, is fixed by the maturity:
        # visit loans by maturity and recompute it only when that changes
        maturity = None
        for name, loan in sorted(zip(names, dataset.loans), key=lambda nl: nl[1].maturity):
            if loan.maturity != maturity:
                maturity = loan.maturity
                grid = np.linspace(maturity / args.grid_points, maturity, args.grid_points)
                baselines = {}
            cols = {}
            for risk in RiskKind:
                curves = RiskCurves(loan.covariates, samples, risk)
                if risk not in baselines:
                    baselines[risk] = curves.baseline(grid)
                rel, dens = curves.curves(grid, baselines[risk])
                cols[f"reliability_{risk.value}"] = rel
                cols[f"density_{risk.value}"] = dens
            rows = np.column_stack([grid, *cols.values()]).tolist()
            fileio.write_csv(curve_dir / name, ["time", *cols], rows)
        print(f"wrote {dataset.n_loans} curve files under {curve_dir}")


def cmd_diagnose(args) -> None:
    dataset = fileio.read_dataset_csv(args.dataset)
    samples = fileio.read_draws_csv(args.draws)
    _check_schema(dataset, samples)
    out = _out_dir(args)
    report = coverage_report(dataset.loans, samples, level=args.level)

    fileio.write_csv(
        out / "residuals.csv",
        ["loan_id", "status", "residual", "quantile", "interval_low", "interval_high", "in_interval"],
        (
            [r.loan_id, r.status.value, r.residual, r.quantile, r.interval_low, r.interval_high,
             int(r.in_interval)]
            for r in report.rows
        ),
    )
    fileio.write_csv(
        out / "coverage.csv",
        ["category", "level", "n_loans", "n_hits", "rate"],
        (
            [name, args.level, cell.n_loans, cell.n_hits, cell.rate]
            for name, cell in (("default", report.defaulted), ("prepaid", report.prepaid))
        ),
    )

    print(f"diagnosed {len(report.rows)} terminated loans -> {out / 'residuals.csv'}")
    for name, cell, status in (
        ("default", report.defaulted, LoanStatus.DEFAULTED),
        ("prepaid", report.prepaid, LoanStatus.PREPAID),
    ):
        quantiles = [r.quantile for r in report.rows if r.status is status]
        med = float(np.median(quantiles)) if quantiles else float("nan")
        print(
            f"  {name}: {cell.n_hits}/{cell.n_loans} in {args.level:.0%} interval "
            f"(rate {cell.rate:.3f}), median observed quantile {med:.3f}"
        )


def cmd_ingest(args) -> int:
    if args.schema is not None:
        if not Path(args.schema).is_file():
            print(f"error: schema file not found: {args.schema}", file=sys.stderr)
            return EXIT_USAGE
        schema = fileio.read_json(FileSchema, args.schema, "input file schema")
    else:
        schema = None
    blank = ("",) if args.accept_blank_repurchase else ()
    config = IngestConfig(
        data_end=args.data_end,
        maturity_years=args.maturity,
        min_category_freq=args.min_category_freq,
        max_reject_fraction=args.max_reject_fraction,
        prepaid_repurchase_values=IngestConfig.prepaid_repurchase_values + blank,
    )
    out = _out_dir(args)
    result = ingest_portfolio(args.origination, args.performance, schema, config)

    fileio.write_dataset_csv(result.dataset, out / "dataset.csv")
    fileio.write_json(fileio.to_json(result.preprocess), out / "preprocess.json")
    fileio.write_csv(
        out / "classified.csv",
        ["loan_id", "status", "time", "reason"],
        (
            [c.loan_id, c.status.value if c.status is not None else "excluded",
             "" if c.time is None else c.time, c.reason]
            for c in result.classified
        ),
    )
    fileio.write_csv(
        out / "rejects.csv",
        ["file", "line", "reason"],
        (
            [label, r.line_no, r.reason]
            for label, rejects in (
                ("origination", result.origination_rejects),
                ("performance", result.performance_rejects),
            )
            for r in rejects
        ),
    )

    print(f"ingested {result.dataset.n_loans} loans -> {out / 'dataset.csv'}")
    for key in sorted(result.counts):
        print(f"  {key}: {result.counts[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mortsurv",
        description="Competing-risks mortgage survival modeling: simulate, ingest, fit, predict, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--out-dir",
            default=None,
            help="output directory (default: $MORTSURV_OUT_DIR or current directory)",
        )

    p = sub.add_parser("simulate", help="generate a synthetic benchmark portfolio")
    p.add_argument("--config", required=True, help="simulation config JSON")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="sample the posterior for a dataset")
    p.add_argument("--dataset", required=True, help="canonical dataset CSV")
    p.add_argument("--config", default=None, help="fit config JSON (prior and sampler blocks)")
    p.add_argument("--prior-only", action="store_true", help="drop all loans; sample the prior")
    p.add_argument(
        "--allow-nonconverged",
        action="store_true",
        help=f"exit 0 even when some split R-hat exceeds {RHAT_GATE}",
    )
    # accepted and ignored (the sampler always runs one thread per risk), so
    # existing scripts that pass it, such as bench/run.py, keep working
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="classify loans and optionally write predictive curves")
    p.add_argument("--dataset", required=True)
    p.add_argument("--draws", required=True, help="draws CSV from fit")
    p.add_argument("--n-sims", type=_positive_int, default=10_000, help="simulations per loan")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--curves", action="store_true", help="also write per-loan curve files")
    p.add_argument("--grid-points", type=_positive_int, default=120)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("diagnose", help="residuals and interval coverage for terminated loans")
    p.add_argument("--dataset", required=True)
    p.add_argument("--draws", required=True)
    p.add_argument("--level", type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]"),
                   default=0.95, help="central interval level")
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("ingest", help="build a dataset from origination and performance files")
    p.add_argument("--origination", required=True)
    p.add_argument("--performance", required=True)
    p.add_argument("--schema", default=None, help="file layout JSON (default: packaged sample layout)")
    p.add_argument("--data-end", type=_month, default=IngestConfig.data_end,
                   help="observation cutoff month, YYYYMM")
    p.add_argument("--maturity", type=_positive_float, default=IngestConfig.maturity_years,
                   help="contract maturity in years")
    p.add_argument("--min-category-freq", default=IngestConfig.min_category_freq,
                   type=_checked(float, lambda v: 0 <= v < 1, "in [0, 1)"))
    p.add_argument("--max-reject-fraction", default=IngestConfig.max_reject_fraction,
                   type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]"))
    p.add_argument(
        "--accept-blank-repurchase",
        action="store_true",
        help="count a blank repurchase flag as a voluntary payoff",
    )
    common(p)
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return 0 if rc is None else rc


if __name__ == "__main__":
    sys.exit(main())
