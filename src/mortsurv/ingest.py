"""Loan-level file ingestion: parsing, outcome labeling, design matrices.

The pipeline turns a pair of delimited files (one origination row per
loan, many monthly performance rows per loan) into a modeling dataset:

1. read both files once: one typed record per origination row, and the
   performance rows folded, in file order, into one ``LoanHistory`` per
   loan; rows that do not parse are rejected (a reject fraction above the
   configured threshold aborts);
2. label each loan Prepaid, Defaulted, Active, or Excluded from its
   history, measuring event times in years with a one-month floor;
3. fit preprocessing statistics on the labeled loans (standardization
   for quantitative fields, low-frequency merging for categorical ones)
   and build the design matrix by walking ``PreprocessSpec.schema``,
   each column built as its name says.

The performance file is the bulk of the input, so its reader does per
row only what the row needs: a row wide enough to hold every mapped
column has its five cells indexed and stripped directly (a shorter row,
or a schema leaving a field unmapped, reads cells through ``_cell``,
where a column past the row's end is blank), and each distinct date text
is parsed once per file (a text that fails to parse is not remembered,
so every row carrying it is rejected with its own line number).

Column positions, date format, and per-field missing-value codes live in
a FileSchema, so differently laid-out files only need a different JSON
schema, not new code.  A schema for the public single-family sample
layout ships with the package, as does the judicial-foreclosure state
table (versioned data, not code).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .model import CovariatePath, Dataset, LoanObservation, LoanStatus

__all__ = [
    "FileSchema",
    "IngestConfig",
    "IngestError",
    "ZeroVarianceError",
    "OriginationRecord",
    "LoanHistory",
    "RejectedRow",
    "ClassifiedLoan",
    "PreprocessSpec",
    "IngestResult",
    "month_index",
    "read_origination_file",
    "read_performance_file",
    "categorize",
    "fit_preprocess",
    "build_design",
    "ingest_portfolio",
    "load_judicial_states",
    "load_default_schema",
]

QUANT_FIELDS = (
    "credit_score",
    "mi_percent",
    "num_units",
    "dti",
    "upb",
    "interest_rate",
    "num_borrowers",
)
CAT_FIELDS = ("first_time_buyer", "occupancy_status", "property_type")
NUMBER_FIELDS = (*QUANT_FIELDS, "cltv")
TEXT_FIELDS = (*CAT_FIELDS, "property_state")
DEFAULT_ZB_CODES = ("03", "06", "09")
DATE_FORMATS = ("yyyymm", "yyyy-mm")
OTHER = "other"


class IngestError(ValueError):
    """Ingestion cannot proceed (bad schema, excess rejects, empty result)."""


class ZeroVarianceError(IngestError):
    """A quantitative field is constant and cannot be standardized."""


def month_index(text: str, date_format: str) -> int:
    """Calendar month as a flat integer (year * 12 + month - 1)."""
    if date_format == "yyyymm":
        if len(text) != 6 or not text.isdigit():
            raise ValueError(f"expected YYYYMM, got {text!r}")
        year, month = int(text[:4]), int(text[4:])
    elif date_format == "yyyy-mm":
        year_s, _, month_s = text.partition("-")
        if not (year_s.isdigit() and month_s.isdigit()):
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        year, month = int(year_s), int(month_s)
    else:
        raise ValueError(f"unknown date format {date_format!r}")
    if not (1 <= month <= 12):
        raise ValueError(f"month out of range in {text!r}")
    return year * 12 + month - 1


@dataclass(frozen=True)
class FileSchema:
    """Column layout and missing-value codes for one pair of input files."""

    origination_columns: dict[str, int]
    performance_columns: dict[str, int]
    delimiter: str = "|"
    has_header: bool = False
    date_format: str = "yyyymm"
    missing_codes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "loan_id" not in self.origination_columns:
            raise IngestError("origination_columns must map loan_id")
        for key in ("loan_id", "reporting_date"):
            if key not in self.performance_columns:
                raise IngestError(f"performance_columns must map {key}")

    def is_missing(self, fieldname: str, raw: str) -> bool:
        """The empty string, or one of the field's declared missing codes."""
        return raw == "" or raw in self.missing_codes.get(fieldname, ())

    @classmethod
    def from_json_dict(cls, d: dict) -> "FileSchema":
        """Build from a parsed schema JSON; a missing key or a value of the
        wrong type or range raises IngestError naming the key."""
        what = "input file schema"
        if not isinstance(d, dict):
            raise IngestError(f"{what}: expected a JSON object")

        def bad(key: str, expected: str, value) -> IngestError:
            return IngestError(f'{what}: "{key}" must be {expected}, got {json.dumps(value)}')

        columns = {}
        for key in ("origination_columns", "performance_columns"):
            if key not in d:
                raise IngestError(f'{what}: missing required key "{key}" (found {sorted(d)})')
            if not isinstance(d[key], dict):
                raise bad(key, "an object of column indices", d[key])
            for name, col in d[key].items():
                if isinstance(col, bool) or not isinstance(col, int) or col < 0:
                    raise bad(f"{key}.{name}", "a non-negative integer", col)
            columns[key] = d[key]
        delimiter = d.get("delimiter", "|")
        if not isinstance(delimiter, str) or not delimiter:
            raise bad("delimiter", "a non-empty string", delimiter)
        has_header = d.get("has_header", False)
        if not isinstance(has_header, bool):
            raise bad("has_header", "true or false", has_header)
        date_format = d.get("date_format", "yyyymm")
        if date_format not in DATE_FORMATS:
            raise bad("date_format", " or ".join(f'"{f}"' for f in DATE_FORMATS), date_format)
        missing_codes = d.get("missing_codes", {})
        if not isinstance(missing_codes, dict):
            raise bad("missing_codes", "an object of string lists", missing_codes)
        for name, codes in missing_codes.items():
            if not (isinstance(codes, list) and all(isinstance(c, str) for c in codes)):
                raise bad(f"missing_codes.{name}", "a list of strings", codes)
        return cls(
            **columns,
            delimiter=delimiter,
            has_header=has_header,
            date_format=date_format,
            missing_codes={k: tuple(v) for k, v in missing_codes.items()},
        )


def load_default_schema() -> FileSchema:
    """The packaged schema for the public single-family sample file layout."""
    text = resources.files("mortsurv.data").joinpath("freddie_sample_schema.json").read_text()
    return FileSchema.from_json_dict(json.loads(text))


def load_judicial_states() -> frozenset[str]:
    """Packaged table of states where foreclosure runs through the courts."""
    text = resources.files("mortsurv.data").joinpath("judicial_states.json").read_text()
    return judicial_states_from_json_dict(json.loads(text))


def judicial_states_from_json_dict(d: dict) -> frozenset[str]:
    """State codes from a judicial states JSON object (``{"version", "states"}``)."""
    if not isinstance(d, dict) or "states" not in d:
        raise IngestError('judicial states: missing required key "states"')
    return frozenset(d["states"])


@dataclass(frozen=True)
class OriginationRecord:
    """Typed origination row; None marks a missing value."""

    loan_id: str
    first_payment: int | None
    credit_score: float | None
    mi_percent: float | None
    num_units: float | None
    dti: float | None
    upb: float | None
    interest_rate: float | None
    num_borrowers: float | None
    first_time_buyer: str | None
    occupancy_status: str | None
    property_type: str | None
    property_state: str | None
    cltv: float | None  # parsed for completeness, never a covariate


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str


def _data_rows(path, schema: FileSchema):
    """(line number, unstripped fields) of each non-blank, non-header line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1 and schema.has_header:
                continue
            if not line.strip():
                continue
            yield line_no, line.rstrip("\r\n").split(schema.delimiter)


def _cell(fields: list[str], col: int | None) -> str:
    if col is None or col >= len(fields):
        return ""
    return fields[col].strip()


def read_origination_file(path, schema: FileSchema):
    """Parse origination rows into records.

    Returns (records, rejects).  A row is rejected for a missing loan id,
    a duplicate loan id, or an unparseable value that is not a declared
    missing code; missing codes simply yield None fields.
    """
    cols = schema.origination_columns
    records: list[OriginationRecord] = []
    rejects: list[RejectedRow] = []
    seen: set[str] = set()
    for line_no, fields in _data_rows(path, schema):
        loan_id = _cell(fields, cols.get("loan_id"))
        if not loan_id:
            rejects.append(RejectedRow(line_no, "missing loan_id"))
            continue
        if loan_id in seen:
            rejects.append(RejectedRow(line_no, f"duplicate loan_id {loan_id}"))
            continue
        try:
            record = _parse_origination(loan_id, fields, schema)
        except ValueError as exc:
            rejects.append(RejectedRow(line_no, str(exc)))
            continue
        seen.add(loan_id)
        records.append(record)
    return records, rejects


def _parse_origination(loan_id: str, fields: list[str], schema: FileSchema) -> OriginationRecord:
    """A blank cell, a declared missing code or an unmapped column gives
    None; the first unparseable field, in this loop's order, raises."""
    values: dict[str, int | float | str | None] = {}
    for name in ("first_payment_date", *NUMBER_FIELDS, *TEXT_FIELDS):
        raw = _cell(fields, schema.origination_columns.get(name))
        value = None
        if not schema.is_missing(name, raw):
            try:
                if name == "first_payment_date":
                    value = month_index(raw, schema.date_format)
                elif name in NUMBER_FIELDS:
                    value = float(raw)
                    if not math.isfinite(value):
                        raise ValueError(raw)
                else:
                    value = raw
            except ValueError as exc:
                detail = exc if name == "first_payment_date" else repr(raw)
                raise ValueError(f"bad {name}: {detail}") from None
        values[name] = value
    return OriginationRecord(loan_id, values.pop("first_payment_date"), **values)


@dataclass(frozen=True)
class IngestConfig:
    """Categorization and preprocessing knobs.

    ``data_end`` is the first month of the observation cutoff (a loan
    still alive then is Active); event times are
    max(1, months since origination) / 12 years.
    """

    data_end: int = month_index("201401", "yyyymm")
    prepaid_repurchase_values: tuple[str, ...] = ("N",)
    maturity_years: float = 30.0
    min_category_freq: float = 0.01
    max_reject_fraction: float = 0.10

    def __post_init__(self) -> None:
        if not (0.0 <= self.min_category_freq < 1.0):
            raise ValueError("min_category_freq must be in [0, 1)")
        if not (0.0 <= self.max_reject_fraction <= 1.0):
            raise ValueError("max_reject_fraction must be in [0, 1]")
        if not (0.0 < self.maturity_years < math.inf):
            raise ValueError("maturity_years must be positive and finite")


@dataclass(slots=True)
class LoanHistory:
    """What labeling needs from one loan's monthly performance rows.

    Rows are folded in file order, in any month order.  ``last_zero_balance``
    belongs to the last row in file order among those at ``last_month``;
    ``n_rows`` counts the folded rows, duplicates included.
    """

    last_month: int
    last_zero_balance: str
    prepaid_month: int | None = None  # first month with an accepted voluntary payoff
    default_month: int | None = None  # first month with a default code or REO
    n_rows: int = 0

    def add(
        self,
        month: int,
        delinquency: str,
        zero_balance: str,
        repurchase: str,
        accepted_repurchase: tuple[str, ...],
    ) -> None:
        """Fold one row: delinquency "R" marks REO, zero_balance is "" or two digits."""
        self.n_rows += 1
        if month >= self.last_month:
            self.last_month = month
            self.last_zero_balance = zero_balance
        if (
            zero_balance == "01"
            and repurchase in accepted_repurchase
            and (self.prepaid_month is None or month < self.prepaid_month)
        ):
            self.prepaid_month = month
        if (zero_balance in DEFAULT_ZB_CODES or delinquency == "R") and (
            self.default_month is None or month < self.default_month
        ):
            self.default_month = month


def read_performance_file(path, schema: FileSchema, config: IngestConfig):
    """Fold monthly performance rows into one ``LoanHistory`` per loan.

    Returns (histories by loan id, rejects).  Rows need a loan id and a
    parseable reporting date; one-digit zero-balance codes are left-padded
    so the file variants "1" and "01" compare equal, and repurchase flags
    are upper-cased.
    """
    cols = schema.performance_columns
    id_col, date_col = cols["loan_id"], cols["reporting_date"]
    dlq_col, rep_col, zb_col = (cols.get(k) for k in ("delinquency", "repurchase", "zero_balance"))
    # a row this wide holds every mapped column, so its cells are indexed
    # directly; with a field unmapped every row takes the _cell path
    mapped = (id_col, date_col, dlq_col, rep_col, zb_col)
    width = math.inf if None in mapped else max(mapped) + 1
    accepted = config.prepaid_repurchase_values
    months: dict[str, int] = {}  # raw date text -> month, parsed ones only
    histories: dict[str, LoanHistory] = {}
    rejects: list[RejectedRow] = []
    for line_no, fields in _data_rows(path, schema):
        if len(fields) >= width:
            loan_id, raw_date = fields[id_col].strip(), fields[date_col].strip()
            dlq, rep, zb = fields[dlq_col].strip(), fields[rep_col].strip(), fields[zb_col].strip()
        else:
            loan_id, raw_date, dlq, rep, zb = (_cell(fields, col) for col in mapped)
        if not loan_id:
            rejects.append(RejectedRow(line_no, "missing loan_id"))
            continue
        month = months.get(raw_date)
        if month is None:
            try:
                month = months[raw_date] = month_index(raw_date, schema.date_format)
            except ValueError:
                rejects.append(RejectedRow(line_no, f"bad reporting_date: {raw_date!r}"))
                continue
        if len(zb) == 1:
            zb = "0" + zb
        history = histories.get(loan_id)
        if history is None:
            history = histories[loan_id] = LoanHistory(month, zb)
        history.add(month, dlq, zb, rep.upper(), accepted)
    return histories, rejects


@dataclass(frozen=True)
class ClassifiedLoan:
    """Outcome label for one loan; status None means Excluded."""

    loan_id: str
    status: LoanStatus | None
    time: float | None
    reason: str


def categorize(
    origination_month: int | None,
    history: LoanHistory | None,
    config: IngestConfig,
) -> tuple[LoanStatus | None, float | None, str]:
    """Label one loan from its folded history (None when it has no rows).

    The loan takes the chronologically first terminal event: Prepaid at
    the first voluntary-payoff month (zero balance 01 with an accepted
    repurchase flag), Defaulted at the first month with a default
    zero-balance code or REO delinquency, default winning a same-month
    tie.  Otherwise Active when the history reaches ``data_end`` with no
    payoff code, else Excluded with a reason.  Taking first qualifying
    months makes the label insensitive to duplicated rows.
    """
    if origination_month is None:
        return None, None, "missing first_payment_date"
    if history is None:
        return None, None, "no performance history"

    prepaid, default = history.prepaid_month, history.default_month
    last_zb = history.last_zero_balance
    if default is not None and (prepaid is None or default <= prepaid):
        status, month = LoanStatus.DEFAULTED, default
    elif prepaid is not None:
        status, month = LoanStatus.PREPAID, prepaid
    elif history.last_month >= config.data_end and last_zb == "":
        status, month = LoanStatus.ACTIVE, history.last_month
    elif last_zb == "01":
        return None, None, "payoff with unaccepted repurchase flag"
    elif last_zb:
        return None, None, f"terminal zero-balance code {last_zb}"
    else:
        return None, None, "history ends before observation cutoff"
    if month < origination_month:
        return None, None, "event precedes origination"
    return status, max(1, month - origination_month) / 12.0, ""


@dataclass(frozen=True)
class PreprocessSpec:
    """Frozen preprocessing decisions, serializable and replayable.

    ``quantitative`` maps field name to (mean, sd) used for
    standardization; ``categorical`` maps field name to its baseline
    level, indicator column levels, and raw-value grouping; unseen or
    missing raw values fall to the "other" group when one exists and to
    the baseline (all indicators zero) otherwise.  The judicial-state
    membership is copied in at fit time so a spec is self-contained.
    """

    quantitative: dict[str, tuple[float, float]]
    categorical: dict[str, dict]
    judicial_states: tuple[str, ...]
    version: int = 1

    @property
    def schema(self) -> tuple[str, ...]:
        cols: list[str] = list(QUANT_FIELDS)
        cols.append("intercept")
        for name in CAT_FIELDS[:2]:
            cols.extend(f"{name}:{lvl}" for lvl in self.categorical[name]["columns"])
        cols.append("judicial_state")
        cols.extend(
            f"{CAT_FIELDS[2]}:{lvl}" for lvl in self.categorical[CAT_FIELDS[2]]["columns"]
        )
        return tuple(cols)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "quantitative": {k: [v[0], v[1]] for k, v in self.quantitative.items()},
            "categorical": self.categorical,
            "judicial_states": list(self.judicial_states),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PreprocessSpec":
        return cls(
            quantitative={k: (float(v[0]), float(v[1])) for k, v in d["quantitative"].items()},
            categorical={
                k: {
                    "baseline": v["baseline"],
                    "columns": list(v["columns"]),
                    "map": dict(v["map"]),
                }
                for k, v in d["categorical"].items()
            },
            judicial_states=tuple(d["judicial_states"]),
            version=int(d["version"]),
        )


def fit_preprocess(
    records: list[OriginationRecord],
    judicial_states: frozenset[str] | None = None,
    min_category_freq: float = 0.01,
) -> PreprocessSpec:
    """Learn standardization and grouping from the modeling population.

    Quantitative statistics use the population convention (ddof 0) over
    non-missing values; a constant field raises ZeroVarianceError since
    its standardized column would be ill-defined.  Categorical levels
    seen in less than ``min_category_freq`` of non-missing rows merge
    into "other"; the most frequent level becomes the baseline and gets
    no column.
    """
    if not records:
        raise IngestError("cannot fit preprocessing on zero loans")
    states = judicial_states if judicial_states is not None else load_judicial_states()

    quantitative: dict[str, tuple[float, float]] = {}
    for name in QUANT_FIELDS:
        vals = np.array(
            [getattr(r, name) for r in records if getattr(r, name) is not None], dtype=float
        )
        if vals.size == 0:
            raise IngestError(f"field {name} has no usable values")
        mean = float(np.mean(vals))
        sd = float(np.std(vals))
        if sd == 0.0:
            raise ZeroVarianceError(f"field {name} is constant ({mean}); cannot standardize")
        quantitative[name] = (mean, sd)

    categorical: dict[str, dict] = {}
    for name in CAT_FIELDS:
        counts = Counter(
            getattr(r, name) for r in records if getattr(r, name) is not None
        )
        total = sum(counts.values())
        if total == 0:
            raise IngestError(f"field {name} has no usable values")
        kept = {lvl for lvl, c in counts.items() if c / total >= min_category_freq}
        merged = set(counts) - kept
        if kept:
            # baseline: most frequent kept level, ties broken lexicographically
            baseline = min(kept, key=lambda lvl: (-counts[lvl], lvl))
            columns = sorted(kept - {baseline})
            if merged:
                columns.append(OTHER)
        else:
            # every level is rare: all rows collapse to one group, no columns
            baseline = OTHER
            columns = []
        mapping = {lvl: (lvl if lvl in kept else OTHER) for lvl in sorted(counts)}
        categorical[name] = {"baseline": baseline, "columns": columns, "map": mapping}

    return PreprocessSpec(
        quantitative=quantitative,
        categorical=categorical,
        judicial_states=tuple(sorted(states)),
    )


def build_design(records: list[OriginationRecord], spec: PreprocessSpec) -> np.ndarray:
    """(n, p) covariate matrix: one row per record, columns in ``spec.schema`` order.

    Each column is built as its name says: a quantitative field is
    standardized, ``intercept`` is 1, ``judicial_state`` is membership of
    the property state, and ``<field>:<level>`` is 1 where the field's
    grouped value is that level (a missing or unseen value is grouped as
    "other").  Every record must have its quantitative fields and state
    (see ``_missing_required``).
    """
    states = frozenset(spec.judicial_states)
    x = np.empty((len(records), len(spec.schema)))
    for j, name in enumerate(spec.schema):
        if name in spec.quantitative:
            mean, sd = spec.quantitative[name]
            x[:, j] = [(getattr(r, name) - mean) / sd for r in records]
        elif name == "intercept":
            x[:, j] = 1.0
        elif name == "judicial_state":
            x[:, j] = [r.property_state in states for r in records]
        else:
            fieldname, _, level = name.partition(":")
            grouping = spec.categorical[fieldname]["map"]
            x[:, j] = [grouping.get(getattr(r, fieldname), OTHER) == level for r in records]
    return x


@dataclass(frozen=True)
class IngestResult:
    """Everything the pipeline produced, including what it threw away."""

    dataset: Dataset
    preprocess: PreprocessSpec
    classified: tuple[ClassifiedLoan, ...]
    origination_rejects: tuple[RejectedRow, ...]
    performance_rejects: tuple[RejectedRow, ...]
    counts: dict[str, int]


def _missing_required(rec: OriginationRecord) -> str | None:
    """First required design field the record lacks, or None if complete."""
    for name in QUANT_FIELDS:
        if getattr(rec, name) is None:
            return name
    if rec.property_state is None:
        return "property_state"
    return None


def _check_reject_fraction(n_rejects: int, n_rows: int, label: str, config: IngestConfig):
    if n_rows and n_rejects / n_rows > config.max_reject_fraction:
        raise IngestError(
            f"{label} file: {n_rejects}/{n_rows} rows rejected, over the "
            f"{config.max_reject_fraction:.0%} threshold"
        )


def ingest_portfolio(
    origination_path,
    performance_path,
    schema: FileSchema | None = None,
    config: IngestConfig | None = None,
) -> IngestResult:
    """Run the full pipeline from raw files to a modeling dataset.

    Loans keep origination-file order.  Excluded loans appear in
    ``classified`` with their reason but not in the dataset; ``counts``
    tallies every category plus rejected rows.
    """
    schema = schema if schema is not None else load_default_schema()
    config = config if config is not None else IngestConfig()

    orig_records, orig_rejects = read_origination_file(origination_path, schema)
    histories, perf_rejects = read_performance_file(performance_path, schema, config)
    _check_reject_fraction(
        len(orig_rejects), len(orig_records) + len(orig_rejects), "origination", config
    )
    n_perf_rows = sum(h.n_rows for h in histories.values())
    _check_reject_fraction(
        len(perf_rejects), n_perf_rows + len(perf_rejects), "performance", config
    )

    classified: list[ClassifiedLoan] = []
    kept: list[tuple[OriginationRecord, ClassifiedLoan]] = []
    for rec in orig_records:
        status, time, reason = categorize(rec.first_payment, histories.get(rec.loan_id), config)
        if status is not None:
            # exclude design-incomplete loans up front so the preprocessing
            # statistics are fitted on exactly the loans entering the dataset
            missing = _missing_required(rec)
            if missing is not None:
                status, time, reason = None, None, f"missing {missing}"
        label = ClassifiedLoan(rec.loan_id, status, time, reason)
        classified.append(label)
        if status is not None:
            kept.append((rec, label))

    if not kept:
        raise IngestError("no loan survived categorization")
    modeling = [rec for rec, _ in kept]
    spec = fit_preprocess(modeling, min_category_freq=config.min_category_freq)
    # one observation per loan at obs_time 1.0, as CovariatePath.constant;
    # the values check catches a standardized column that overflowed
    paths = CovariatePath._from_columns(
        np.ones(len(modeling)),
        build_design(modeling, spec),
        np.arange(len(modeling)),
        spec.schema,
        lambda row: f"loan {modeling[row].loan_id}",
    )
    loans = tuple(
        LoanObservation(
            loan_id=label.loan_id,
            status=label.status,
            time=label.time,
            covariates=path,
            maturity=config.maturity_years,
        )
        for (_, label), path in zip(kept, paths)
    )
    dataset = Dataset(loans=loans, schema=spec.schema)
    counts = Counter(
        c.status.value if c.status is not None else "excluded" for c in classified
    )
    counts["rejected_rows"] = len(orig_rejects) + len(perf_rejects)
    return IngestResult(
        dataset=dataset,
        preprocess=spec,
        classified=tuple(classified),
        origination_rejects=tuple(orig_rejects),
        performance_rejects=tuple(perf_rejects),
        counts=dict(counts),
    )
