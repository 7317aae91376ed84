"""Seeded input generators for the benchmark workloads.

Every generator takes an integer seed and writes files the program then
reads; the same seed always gives byte-identical files.  The program sees
only these files, never the generator's own records, which the output
checks use as ground truth.

Four kinds of input exist:

* a simulate config for ``mortsurv simulate`` (the criterion-4 book of the
  acceptance suite, continuous exit times);
* a raw origination/performance file pair in the packaged pipe-delimited
  layout, whose loans carry an intended label the ingest output must
  reproduce, including excluded loans and a few malformed rows;
* a held-out scoring book, partly on step covariate paths, whose event
  times come from ``synth.invert_survival``;
* a fixed posterior draw set written with ``fileio.write_draws_csv``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mortsurv import fileio, synth
from mortsurv.model import (
    CovariatePath,
    Dataset,
    LognormalBaseline,
    LoanObservation,
    LoanStatus,
    ModelParams,
    RiskKind,
)
from mortsurv.mcmc import PosteriorSamples

# the generating law of acceptance criterion 4
TRUTH = ModelParams(
    baseline_default=LognormalBaseline(2.8, 0.9**2),
    baseline_prepay=LognormalBaseline(1.6, 0.7**2),
    theta_default=np.array([-0.6, 0.5, -0.4, 0.3]),
    theta_prepay=np.array([0.3, -0.2, 0.4, -0.25]),
)
SCHEMA = ("intercept", "x1", "x2", "ind")
MATURITY = 30.0

# coefficients whose sign a 2000-loan fit recovers even from short chains:
# (column in the draws/summary files, sign of the true value)
CLEAR_EFFECTS = (("theta_default:x1", 1), ("theta_default:x2", -1), ("theta_prepay:x2", 1))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


# --- continuous synthetic book ---------------------------------------------------


def write_simulate_config(path: Path, n_loans: int, seed: int) -> None:
    """Config for ``mortsurv simulate``: the criterion-4 law at ``n_loans``."""
    config = {
        "n_loans": n_loans,
        "n_covariates": len(SCHEMA) - 1,
        "seed": seed,
        "maturity": MATURITY,
        "censor_time": None,
        "true": fileio.params_to_json_dict(TRUTH),
    }
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# --- raw loan-level file pair ----------------------------------------------------

DATA_END = "201401"
_DATA_END_MONTH = 2014 * 12
_JUDICIAL = ("FL", "NY", "IL", "NJ", "OH", "PA")
_NON_JUDICIAL = ("CA", "TX", "AZ", "GA", "WA", "CO")
# intended exclusions: (reason ingest reports, share of loans)
_EXCLUSIONS = (
    ("missing credit_score", 0.03),
    ("history ends before observation cutoff", 0.03),
    ("terminal zero-balance code 02", 0.02),
    ("payoff with unaccepted repurchase flag", 0.02),
    ("no performance history", 0.01),
    ("missing property_state", 0.01),
)


@dataclass(frozen=True)
class RawBook:
    """What the raw-pair generator meant the files to say.

    ``labels`` maps each loan id that has a parseable origination row to
    (status, time, reason): status is a dataset status value or
    ``"excluded"``, time is None for excluded loans.
    """

    labels: dict[str, tuple[str, float | None, str]]
    performance_rows: int
    rejected_rows: int


def _yyyymm(month: int) -> str:
    return f"{month // 12:04d}{month % 12 + 1:02d}"


def _orig_line(fields: dict[int, str]) -> str:
    row = [""] * 23
    for col, value in fields.items():
        row[col] = value
    return "|".join(row)


def _perf_line(loan_id: str, month: int, dlq: str = "0", rep: str = "", zb: str = "") -> str:
    return f"{loan_id}|{_yyyymm(month)}||{dlq}|||{rep}||{zb}"


def write_raw_pair(orig_path: Path, perf_path: Path, n_loans: int, seed: int) -> RawBook:
    """Origination and monthly performance files in the packaged layout.

    Outcomes follow the criterion-4 law (via ``synth.make_benchmark``),
    with exit times rounded up to whole months from a first payment date
    in 2002 and censored at the ``DATA_END`` cutoff.  Covariate x1 drives
    the credit score, x2 the interest rate, and the indicator the
    judicial-state flag; the other fields are seeded noise.
    """
    book, _ = synth.make_benchmark(
        synth.BenchmarkConfig(
            n_loans=n_loans, true_params=TRUTH, n_covariates=len(SCHEMA) - 1,
            maturity=MATURITY, seed=seed,
        )
    )
    rng = _rng(seed, 1)
    reasons = [r for r, _ in _EXCLUSIONS]
    shares = np.array([s for _, s in _EXCLUSIONS])
    exclusion = rng.choice(len(reasons) + 1, size=n_loans, p=[*shares, 1.0 - shares.sum()])

    orig_lines: list[str] = []
    perf_lines: list[str] = []
    labels: dict[str, tuple[str, float | None, str]] = {}
    rejected = 0
    for i, loan in enumerate(book.loans):
        loan_id = f"F{seed % 100000:05d}{i:07d}"
        _, x1, x2, ind = loan.covariates.values[0]
        fp = 2002 * 12 + int(rng.integers(0, 12))
        states = _JUDICIAL if ind else _NON_JUDICIAL
        fields = {
            0: str(int(np.clip(round(720 + 45 * x1), 300, 850))),
            1: _yyyymm(fp),
            2: "Y" if rng.uniform() < 0.2 else "N",
            5: str(int(rng.choice([0, 0, 0, 12, 25, 30]))),
            6: "2" if rng.uniform() < 0.1 else "1",
            7: str(rng.choice(["O", "I", "S"], p=[0.85, 0.1, 0.05])),
            8: "80",
            9: str(int(rng.integers(15, 50))),
            10: str(int(rng.integers(60, 400)) * 1000),
            12: f"{6.5 + 0.75 * x2:.3f}",
            16: str(states[int(rng.integers(0, len(states)))]),
            17: str(rng.choice(["SF", "PU", "CO"], p=[0.7, 0.2, 0.1])),
            19: loan_id,
            22: "2" if rng.uniform() < 0.5 else "1",
        }
        default_code = ("09", "03", "R")[int(rng.choice(3, p=[0.5, 0.3, 0.2]))]
        cut_at = fp + int(rng.integers(1, _DATA_END_MONTH - fp - 1))

        months = math.ceil(loan.time * 12.0)
        if loan.status is not LoanStatus.ACTIVE and fp + months <= _DATA_END_MONTH:
            status, last = loan.status, fp + months
            label = (status.value, months / 12.0, "")
        else:
            status, last = LoanStatus.ACTIVE, _DATA_END_MONTH
            label = (status.value, (last - fp) / 12.0, "")

        history = [_perf_line(loan_id, m) for m in range(fp, last)]
        if status is LoanStatus.PREPAID:
            history.append(_perf_line(loan_id, last, rep="N", zb="01"))
        elif status is LoanStatus.DEFAULTED and default_code == "R":
            history.append(_perf_line(loan_id, last, dlq="R"))
        elif status is LoanStatus.DEFAULTED:
            history.append(_perf_line(loan_id, last, dlq="3", zb=default_code))
        else:
            history.append(_perf_line(loan_id, last))

        reason = reasons[exclusion[i]] if exclusion[i] < len(reasons) else ""
        if reason == "missing credit_score":
            fields[0] = "9999"
        elif reason == "missing property_state":
            fields[16] = ""
        elif reason == "no performance history":
            history = []
        elif reason:
            # the history stops before the cutoff on a row that is no event
            ending = {
                "history ends before observation cutoff": {},
                "terminal zero-balance code 02": {"zb": "02"},
                "payoff with unaccepted repurchase flag": {"rep": "Y", "zb": "01"},
            }[reason]
            history = [_perf_line(loan_id, m) for m in range(fp, cut_at)]
            history.append(_perf_line(loan_id, cut_at, **ending))
        labels[loan_id] = ("excluded", None, reason) if reason else label

        orig_lines.append(_orig_line(fields))
        perf_lines.extend(history)
        # malformed rows, kept far below the 10% reject threshold
        if i % 400 == 7:
            orig_lines.append(_orig_line({**fields, 19: ""}))  # missing loan_id
            orig_lines.append(_orig_line(fields))  # duplicate loan_id
            perf_lines.append(f"{loan_id}|2003AB||0|||||")  # bad reporting date
            perf_lines.append("|200301||0|||||")  # missing loan_id
            rejected += 4
        if i % 400 == 211:
            orig_lines.append(_orig_line({**fields, 9: "abc", 19: loan_id + "X"}))  # bad dti
            rejected += 1

    orig_path.write_text("\n".join(orig_lines) + "\n", encoding="utf-8")
    perf_path.write_text("\n".join(perf_lines) + "\n", encoding="utf-8")
    return RawBook(labels=labels, performance_rows=len(perf_lines), rejected_rows=rejected)


# --- held-out scoring book and fixed draws -------------------------------------------


def _step_path(rng: np.random.Generator) -> CovariatePath:
    """Three observations a few years apart; x1 and x2 drift, ind is fixed."""
    m = 3
    obs = np.cumsum(rng.uniform(1.0, 4.0, size=m))
    values = np.empty((m, len(SCHEMA)))
    values[:, 0] = 1.0
    values[:, 1] = rng.standard_normal() + np.cumsum(0.5 * rng.standard_normal(m))
    values[:, 2] = rng.standard_normal() + np.cumsum(0.5 * rng.standard_normal(m))
    values[:, 3] = float(rng.integers(0, 2))
    return CovariatePath(obs_times=obs, values=values)


def scoring_book(n_loans: int, seed: int) -> Dataset:
    """Held-out loans under ``TRUTH``; every other loan has a step path.

    Both latent times come from ``synth.invert_survival`` and race to
    maturity, as in ``synth.simulate_loan``.
    """
    rng = _rng(seed, 2)
    loans = []
    for i in range(n_loans):
        if i % 2:
            path = _step_path(rng)
        else:
            x = np.array([1.0, *rng.standard_normal(2), float(rng.integers(0, 2))])
            path = CovariatePath.constant(x)
        t = {
            risk: synth.invert_survival(path, TRUTH.theta(risk), TRUTH.baseline(risk), rng.uniform())
            for risk in RiskKind
        }
        t_d, t_p = t[RiskKind.DEFAULT], t[RiskKind.PREPAY]
        if min(t_d, t_p) >= MATURITY:
            status, time = LoanStatus.ACTIVE, MATURITY
        elif t_d <= t_p:
            status, time = LoanStatus.DEFAULTED, t_d
        else:
            status, time = LoanStatus.PREPAID, t_p
        loans.append(LoanObservation(f"H{i:05d}", status, time, path, MATURITY))
    return Dataset(loans=tuple(loans), schema=SCHEMA)


def fixed_draws(n_chains: int, per_chain: int, seed: int) -> PosteriorSamples:
    """A posterior-like draw set: ``TRUTH`` with seeded jitter.

    The draws have real spread: on scoring-book loans the mixture's
    outcome probabilities differ from those of the single draw ``TRUTH``
    by 0.02-0.07.  That is finer than the predict checks resolve at the
    benchmark's sims per loan (see ``checks.check_predict``).  Default and
    prepay parameters are jittered independently.
    """
    rng = _rng(seed, 3)
    g = n_chains * per_chain
    p = len(SCHEMA)

    def near(value: float, sd: float) -> np.ndarray:
        return value + sd * rng.standard_normal(g)

    return PosteriorSamples(
        schema=SCHEMA,
        n_chains=n_chains,
        chain=np.repeat(np.arange(n_chains), per_chain),
        iteration=np.tile(np.arange(1, per_chain + 1), n_chains),
        mu_default=near(TRUTH.baseline_default.mu, 0.25),
        sigma2_default=TRUTH.baseline_default.sigma2 * np.exp(near(0.0, 0.15)),
        mu_prepay=near(TRUTH.baseline_prepay.mu, 0.25),
        sigma2_prepay=TRUTH.baseline_prepay.sigma2 * np.exp(near(0.0, 0.15)),
        theta_default=TRUTH.theta_default + 0.25 * rng.standard_normal((g, p)),
        theta_prepay=TRUTH.theta_prepay + 0.25 * rng.standard_normal((g, p)),
        acceptance={},
        final_scales={},
    )
