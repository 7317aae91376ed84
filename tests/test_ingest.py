"""Loan-file ingestion: parsing, outcome classification, preprocessing,
and the end-to-end portfolio build."""

from __future__ import annotations

import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortsurv import (
    CovariatePath,
    Dataset,
    IngestConfig,
    IngestError,
    LoanObservation,
    LoanStatus,
    ZeroVarianceError,
    ingest_portfolio,
)
from mortsurv.fileio import from_json, read_dataset_csv, to_json, write_dataset_csv
from mortsurv.ingest import (
    DEFAULT_ZB_CODES,
    QUANT_FIELDS,
    FileSchema,
    LoanHistory,
    OriginationRecord,
    PreprocessSpec,
    RejectedRow,
    _cell,
    _data_rows,
    build_design,
    categorize,
    fit_preprocess,
    load_default_schema,
    load_judicial_states,
    month_index,
    read_origination_file,
    read_performance_file,
)
from mortsurv.synth import BenchmarkConfig, make_benchmark

from conftest import params_small


def orow(cs="720", fpd="200501", ftb="N", mi="0", units="1", occ="O", cltv="80",
         dti="30", upb="150000", rate="5.5", state="CA", ptype="SF", lid="L001",
         nb="2"):
    row = [""] * 23
    row[0] = cs
    row[1] = fpd
    row[2] = ftb
    row[5] = mi
    row[6] = units
    row[7] = occ
    row[8] = cltv
    row[9] = dti
    row[10] = upb
    row[12] = rate
    row[16] = state
    row[17] = ptype
    row[19] = lid
    row[22] = nb
    return "|".join(row)


def prow(lid, ym, dlq="0", rep="", zb=""):
    row = [""] * 9
    row[0] = lid
    row[1] = ym
    row[3] = dlq
    row[6] = rep
    row[8] = zb
    return "|".join(row)


def mon(ym):
    return month_index(ym, "yyyymm")


def perf(lid, ym, dlq="0", rep="", zb=""):
    """A row as folded: (month, delinquency, zero balance, repurchase); ``lid`` only names the case."""
    return mon(ym), dlq, zb, rep


def fold(rows, config):
    """One loan's (month, delinquency, zero balance, repurchase) rows, folded in
    list order by the call ``read_performance_file`` makes per row."""
    if not rows:
        return None
    history = LoanHistory(rows[0][0], rows[0][2])
    for month, dlq, zb, rep in rows:
        history.add(month, dlq, zb, rep, config.prepaid_repurchase_values)
    return history


def label(origination_month, rows, config):
    return categorize(origination_month, fold(rows, config), config)


def record_stub(**kw):
    base = dict(loan_id="X", first_payment=mon("200501"),
                credit_score=700.0, mi_percent=0.0, num_units=1.0, dti=30.0,
                upb=150000.0, interest_rate=5.5, num_borrowers=2.0, cltv=80.0,
                first_time_buyer="N", occupancy_status="O", property_type="SF",
                property_state="CA")
    base.update(kw)
    return OriginationRecord(**base)


def varied_records(n=12, **overrides):
    """Records with nonconstant quantitative fields (standardization needs spread)."""
    recs = []
    for i in range(n):
        kw = dict(loan_id=f"L{i}", credit_score=600.0 + 10 * i, dti=20.0 + i,
                  upb=1e5 + 1000 * i, mi_percent=float(i % 30),
                  num_units=float(1 + (i % 3)), interest_rate=4 + 0.1 * (i % 7),
                  num_borrowers=float(1 + (i % 2)))
        for k, v in overrides.items():
            kw[k] = v(i) if callable(v) else v
        recs.append(record_stub(**kw))
    return recs


CFG = IngestConfig()  # data_end = Jan 2014


# --- low-level parsing ----------------------------------------------------------


def test_month_index_arithmetic():
    assert mon("200502") - mon("200501") == 1
    assert mon("200601") - mon("200501") == 12
    with pytest.raises(ValueError):
        mon("200513")
    with pytest.raises(ValueError):
        mon("20051")


def test_origination_parsing_and_missing_codes(tmp_path):
    f = tmp_path / "orig.txt"
    f.write_text("\n".join([
        orow(lid="A1"),
        orow(lid="A2", cs="9999", dti="999"),  # missing sentinels
        orow(lid="A3", cs="not_a_number"),
    ]) + "\n")
    schema = load_default_schema()
    records, rejects = read_origination_file(f, schema)
    assert [r.loan_id for r in records] == ["A1", "A2"]
    assert records[0].credit_score == 720.0
    assert records[1].credit_score is None
    assert records[1].dti is None
    assert len(rejects) == 1
    assert rejects[0].line_no == 3
    assert "credit_score" in rejects[0].reason


def test_blank_cell_is_missing_even_when_codes_omit_it(tmp_path):
    f = tmp_path / "orig.txt"
    f.write_text(orow(lid="A1", dti="") + "\n" + orow(lid="A2", dti="999") + "\n")
    schema = replace(load_default_schema(), missing_codes={"dti": ("999",)})
    records, rejects = read_origination_file(f, schema)
    assert rejects == []
    assert [(r.loan_id, r.dti, r.credit_score) for r in records] == [
        ("A1", None, 720.0), ("A2", None, 720.0)]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_origination_number_rejects_its_row(tmp_path, cell):
    f = tmp_path / "orig.txt"
    f.write_text(orow(lid="A1") + "\n" + orow(lid="A2", cs=cell) + "\n"
                 + orow(lid="A3", cltv=cell) + "\n")
    records, rejects = read_origination_file(f, load_default_schema())
    assert [r.loan_id for r in records] == ["A1"]
    assert rejects == [RejectedRow(2, f"bad credit_score: {cell!r}"),
                       RejectedRow(3, f"bad cltv: {cell!r}")]


def test_origination_duplicate_and_blank_id_rejected(tmp_path):
    f = tmp_path / "orig.txt"
    f.write_text("\n".join([orow(lid="A1"), orow(lid="A1"), orow(lid="")]) + "\n")
    records, rejects = read_origination_file(f, load_default_schema())
    assert len(records) == 1
    assert len(rejects) == 2


def test_performance_zero_balance_left_padded(tmp_path):
    f = tmp_path / "perf.txt"
    f.write_text(prow("A1", "200506", zb="3") + "\n" +
                 prow("A1", "200507", rep="n", zb="01") + "\n")
    histories, rejects = read_performance_file(f, load_default_schema(), CFG)
    assert not rejects
    history = histories["A1"]
    assert history.default_month == mon("200506")  # "3" is default code 03
    assert history.prepaid_month == mon("200507")  # "n" upper-cased, an accepted "N"
    assert history.last_zero_balance == "01"
    assert history.n_rows == 2


@pytest.mark.parametrize("maturity", [0.0, -1.0, float("inf"), float("nan")])
def test_config_rejects_maturity_not_positive_and_finite(maturity):
    with pytest.raises(ValueError, match="maturity_years"):
        IngestConfig(maturity_years=maturity)


# --- outcome classification ------------------------------------------------------


def test_prepayment_needs_accepted_repurchase_flag():
    hist = [perf("A", "200501"), perf("A", "200607", rep="N", zb="01")]
    status, time, _ = label(mon("200501"), hist, CFG)
    assert status is LoanStatus.PREPAID
    assert time == pytest.approx(18 / 12)

    hist_bad = [perf("A", "200501"), perf("A", "200607", rep="Y", zb="01")]
    status, time, reason = label(mon("200501"), hist_bad, CFG)
    assert status is None
    assert "repurchase" in reason


def test_blank_repurchase_accepted_only_when_configured():
    hist = [perf("A", "200501"), perf("A", "200607", rep="", zb="01")]
    status, _, _ = label(mon("200501"), hist, CFG)
    assert status is None
    lax = IngestConfig(prepaid_repurchase_values=("N", ""))
    status, _, _ = label(mon("200501"), hist, lax)
    assert status is LoanStatus.PREPAID


def test_default_codes_and_reo_delinquency():
    for zb in ("03", "06", "09"):
        hist = [perf("A", "200501"), perf("A", "200612", zb=zb)]
        status, time, _ = label(mon("200501"), hist, CFG)
        assert status is LoanStatus.DEFAULTED
        assert time == pytest.approx(23 / 12)
    hist = [perf("A", "200501"), perf("A", "200612", dlq="R")]
    status, _, _ = label(mon("200501"), hist, CFG)
    assert status is LoanStatus.DEFAULTED


def test_first_qualifying_month_wins():
    hist = [
        perf("A", "200501"),
        perf("A", "200502", zb="03"),
        perf("A", "200509", rep="N", zb="01"),
    ]
    status, time, _ = label(mon("200501"), hist, CFG)
    assert status is LoanStatus.DEFAULTED
    assert time == pytest.approx(1 / 12)


def test_same_month_event_floors_to_one_month():
    hist = [perf("A", "200501", rep="N", zb="01")]
    status, time, _ = label(mon("200501"), hist, CFG)
    assert status is LoanStatus.PREPAID
    assert time == pytest.approx(1 / 12)


def test_duplicated_history_rows_do_not_change_outcome():
    hist = [perf("A", "200501"), perf("A", "200607", rep="N", zb="01")]
    doubled = sorted(hist + hist, key=lambda r: r[0])
    assert label(mon("200501"), hist, CFG) == label(mon("200501"), doubled, CFG)


def test_active_needs_report_at_or_past_cutoff():
    live = [perf("A", "200501"), perf("A", "201401")]
    status, time, _ = label(mon("200501"), live, CFG)
    assert status is LoanStatus.ACTIVE
    assert time == pytest.approx((mon("201401") - mon("200501")) / 12)

    stale = [perf("A", "200501"), perf("A", "201312")]
    status, _, reason = label(mon("200501"), stale, CFG)
    assert status is None
    assert "cutoff" in reason


def test_unknown_terminal_code_excluded():
    hist = [perf("A", "200501"), perf("A", "200607", zb="15")]
    status, _, reason = label(mon("200501"), hist, CFG)
    assert status is None
    assert "15" in reason


@pytest.mark.parametrize("origination, hist", [
    ("200501", [perf("A", "200401", zb="03")]),  # default
    ("200501", [perf("A", "200401", rep="N", zb="01")]),  # prepaid
    ("201403", [perf("A", "201312"), perf("A", "201401")]),  # active at the cutoff
], ids=["default", "prepaid", "active"])
def test_event_before_origination_excluded(origination, hist):
    assert label(mon(origination), hist, CFG) == (None, None, "event precedes origination")


def test_no_history_excluded():
    status, _, reason = label(mon("200501"), [], CFG)
    assert status is None
    assert "history" in reason


def test_missing_first_payment_date_excluded():
    hist = [perf("A", "200501"), perf("A", "201402")]
    status, _, reason = label(None, hist, CFG)
    assert status is None
    assert "first_payment" in reason


def reference_label(origination_month, rows, config):
    """Labeling before the fold: a stable sort by month, then a scan."""
    if origination_month is None:
        return None, None, "missing first_payment_date"
    if not rows:
        return None, None, "no performance history"
    history = sorted(rows, key=lambda r: r[0])
    prepaid = next((m for m, _, zb, rep in history
                    if zb == "01" and rep in config.prepaid_repurchase_values), None)
    default = next((m for m, dlq, zb, _ in history
                    if zb in DEFAULT_ZB_CODES or dlq == "R"), None)

    def timed(status, month):
        if month < origination_month:
            return None, None, "event precedes origination"
        return status, max(1, month - origination_month) / 12.0, ""

    if default is not None and (prepaid is None or default <= prepaid):
        return timed(LoanStatus.DEFAULTED, default)
    if prepaid is not None:
        return timed(LoanStatus.PREPAID, prepaid)
    last_month, _, last_zb, _ = history[-1]
    if last_month >= config.data_end and last_zb == "":
        return timed(LoanStatus.ACTIVE, last_month)
    if last_zb not in ("", "01"):
        return None, None, f"terminal zero-balance code {last_zb}"
    if last_zb == "01":
        return None, None, "payoff with unaccepted repurchase flag"
    return None, None, "history ends before observation cutoff"


# (loan, months before/after the cutoff, delinquency, repurchase, zero balance) as written
RAW_ROW = st.tuples(
    st.integers(0, 2),
    st.integers(-4, 2),
    st.sampled_from(["0", "3", "R"]),
    st.sampled_from(["", "N", "n", "Y"]),
    st.sampled_from(["", "1", "01", "3", "03", "06", "09", "02", "15"]),
)


@st.composite
def unsorted_rows(draw):
    rows = draw(st.lists(RAW_ROW, max_size=12))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # exact duplicates
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=unsorted_rows(), origination=st.integers(-6, 0), blank_ok=st.booleans())
def test_fold_labels_like_sorted_scan(rows, origination, blank_ok):
    config = IngestConfig(prepaid_repurchase_values=("N", "") if blank_ok else ("N",))
    end = config.data_end

    def ym(month):
        return f"{month // 12:04d}{month % 12 + 1:02d}"

    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "perf.txt"
        f.write_text("".join(prow(f"L{k}", ym(end + dm), dlq=dlq, rep=rep, zb=zb) + "\n"
                             for k, dm, dlq, rep, zb in rows))
        histories, rejects = read_performance_file(f, load_default_schema(), config)
    assert not rejects
    assert sum(h.n_rows for h in histories.values()) == len(rows)
    for k in range(3):
        loan_rows = [(end + dm, dlq, "0" + zb if len(zb) == 1 else zb, rep.upper())
                     for j, dm, dlq, rep, zb in rows if j == k]
        assert (categorize(end + origination, histories.get(f"L{k}"), config)
                == reference_label(end + origination, loan_rows, config))


def reference_read_performance(path, schema, config):
    """The performance reader with every field read through ``_cell`` and
    ``month_index`` called on every row."""
    cols = schema.performance_columns
    histories, rejects = {}, []
    for line_no, fields in _data_rows(path, schema):
        loan_id = _cell(fields, cols["loan_id"])
        if not loan_id:
            rejects.append(RejectedRow(line_no, "missing loan_id"))
            continue
        raw_date = _cell(fields, cols["reporting_date"])
        try:
            month = month_index(raw_date, schema.date_format)
        except ValueError:
            rejects.append(RejectedRow(line_no, f"bad reporting_date: {raw_date!r}"))
            continue
        zb = _cell(fields, cols.get("zero_balance"))
        zb = "0" + zb if len(zb) == 1 else zb
        if loan_id not in histories:
            histories[loan_id] = LoanHistory(month, zb)
        histories[loan_id].add(month, _cell(fields, cols.get("delinquency")), zb,
                               _cell(fields, cols.get("repurchase")).upper(),
                               config.prepaid_repurchase_values)
    return histories, rejects


SCHEMAS = {
    "yyyymm": load_default_schema(),
    "yyyy-mm": replace(load_default_schema(), date_format="yyyy-mm"),
    "no-delinquency": replace(load_default_schema(), performance_columns={
        k: v for k, v in load_default_schema().performance_columns.items()
        if k != "delinquency"}),
}
PADDED = st.sampled_from(["", " ", "  "])


@st.composite
def performance_files(draw):
    """(schema name, file bytes): rows in the default column layout, some
    shorter than the mapped width, cells padded, repeated bad dates, CRLF
    endings and blank lines."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    months = [f"2013{m:02d}" for m in (1, 2, 11, 12)] + ["201401"]
    bad = ["2003AB", "200513", "2005-1", "", "20051"]
    if name == "yyyy-mm":
        months = [f"{m[:4]}-{m[4:]}" for m in months]
        bad = ["2003-AB", "2005-13", "200501", "", "2005-"]
    cell = {
        0: st.sampled_from(["L1", "L2", "L3", ""]),
        1: st.sampled_from(months + bad[:1] * 3 + bad),
        3: st.sampled_from(["0", "3", "R", ""]),
        6: st.sampled_from(["", "N", "n", "Y"]),
        8: st.sampled_from(["", "1", "01", "3", "03", "09", "02"]),
    }
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        width = draw(st.sampled_from([2, 4, 7, 8, 9, 9, 9, 12]))
        cells = []
        for col in range(width):
            text = draw(cell[col]) if col in cell else draw(st.sampled_from(["", "x"]))
            cells.append(draw(PADDED) + text + draw(PADDED))
        lines.append("|".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return name, "".join(line + end for line in lines).encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=performance_files(), blank_ok=st.booleans())
def test_performance_reader_equals_per_cell_reference(tmp_path_factory, case, blank_ok):
    name, body = case
    config = IngestConfig(prepaid_repurchase_values=("N", "") if blank_ok else ("N",))
    f = tmp_path_factory.getbasetemp() / "oracle_perf.txt"
    f.write_bytes(body)
    assert (read_performance_file(f, SCHEMAS[name], config)
            == reference_read_performance(f, SCHEMAS[name], config))


def test_performance_reader_equals_per_cell_reference_on_benchmark_layout(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    gen.write_raw_pair(tmp_path / "orig.txt", tmp_path / "perf.txt", 300, 5)
    config = IngestConfig()
    got = read_performance_file(tmp_path / "perf.txt", load_default_schema(), config)
    assert got == reference_read_performance(tmp_path / "perf.txt", load_default_schema(), config)
    assert len(got[0]) > 250 and got[1]


# --- preprocessing ----------------------------------------------------------------


def test_standardization_is_population_moments():
    recs = varied_records(4)
    spec = fit_preprocess(recs, min_category_freq=0.01)
    mean, sd = spec.quantitative["credit_score"]
    vals = np.array([600.0, 610.0, 620.0, 630.0])
    assert mean == pytest.approx(vals.mean())
    assert sd == pytest.approx(vals.std())  # ddof=0


def test_zero_variance_aborts():
    recs = [record_stub(loan_id=f"L{i}") for i in range(3)]
    with pytest.raises(ZeroVarianceError):
        fit_preprocess(recs)


def test_rare_levels_merge_and_most_frequent_is_baseline():
    # SF x 120, CO x 78, PU x 2 of 200: PU is under the 1.5% floor
    recs = varied_records(
        200, property_type=lambda i: "SF" if i < 120 else ("CO" if i < 198 else "PU"))
    spec = fit_preprocess(recs, min_category_freq=0.015)
    pt = spec.categorical["property_type"]
    assert pt["baseline"] == "SF"
    assert "CO" in pt["columns"]
    assert "PU" not in pt["columns"]
    assert "other" in pt["columns"]
    assert pt["map"]["PU"] == "other"


def test_unseen_level_maps_to_other_when_kept():
    recs = varied_records(
        200, property_type=lambda i: "SF" if i < 120 else ("CO" if i < 198 else "PU"))
    spec = fit_preprocess(recs, min_category_freq=0.015)
    x, = build_design([record_stub(property_type="MH")], spec)
    schema = list(spec.schema)
    assert x[schema.index("property_type:other")] == 1.0
    assert x[schema.index("property_type:CO")] == 0.0


def test_unseen_level_falls_to_baseline_without_other_group():
    recs = varied_records(12, property_type=lambda i: "SF" if i % 3 else "CO")
    spec = fit_preprocess(recs, min_category_freq=0.01)
    assert "other" not in spec.categorical["property_type"]["columns"]
    x, = build_design([record_stub(property_type="MH")], spec)
    schema = list(spec.schema)
    assert x[schema.index("property_type:CO")] == 0.0


def test_build_design_fills_every_column_by_its_name():
    # occupancy: O x 60, "I:2" x 38 kept, S x 2 under the 3% floor -> other;
    # property type: SF x 70, CO x 30, nothing rare so no other group
    recs = varied_records(
        100,
        first_time_buyer=lambda i: "Y" if i % 2 else "N",
        occupancy_status=lambda i: "O" if i < 60 else ("I:2" if i < 98 else "S"),
        property_type=lambda i: "CO" if i % 10 < 3 else "SF",
        property_state=lambda i: "FL" if i % 4 == 0 else "CA",
    )
    spec = fit_preprocess(recs, judicial_states=frozenset({"FL", "NY"}),
                          min_category_freq=0.03)
    assert spec.schema[7:] == (
        "intercept", "first_time_buyer:Y", "occupancy_status:I:2", "occupancy_status:other",
        "judicial_state", "property_type:CO")
    probes = [
        record_stub(loan_id="kept", credit_score=650.0, first_time_buyer="Y",
                    occupancy_status="I:2", property_type="CO", property_state="NY"),
        record_stub(loan_id="merged", first_time_buyer=None, occupancy_status="S",
                    property_type="MH", property_state="CA"),
        record_stub(loan_id="unseen", first_time_buyer="N", occupancy_status="I",
                    property_type="SF", property_state="TX"),
    ]
    # quantitative columns are (x - mean) / sd with the fitted population moments
    x_fit = build_design(recs, spec)
    np.testing.assert_allclose(x_fit[:, :7].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(x_fit[:, :7].std(axis=0), 1.0, rtol=1e-12)
    x_probes = build_design(probes, spec)
    assert x_probes.shape == (3, len(spec.schema))
    indicators = {
        # ftb:Y, occ:I:2, occ:other, judicial, ptype:CO
        "kept": [1, 1, 0, 1, 1],
        "merged": [0, 0, 1, 0, 0],  # missing ftb -> baseline (no other group);
                                    # S merged -> other; unseen MH -> baseline
        "unseen": [0, 0, 1, 0, 0],  # unseen "I" (not "I:2") -> other
    }
    for rec, x in zip(probes, x_probes):
        for j, name in enumerate(QUANT_FIELDS):
            mean, sd = spec.quantitative[name]
            assert x[j] == (getattr(rec, name) - mean) / sd, name
        assert x[7] == 1.0
        assert list(x[8:]) == indicators[rec.loan_id], rec.loan_id


def test_judicial_state_membership():
    states = load_judicial_states()
    assert "FL" in states and "NY" in states and "OH" in states
    assert "CA" not in states and "TX" not in states
    assert len(states) == 25


def test_preprocess_spec_json_roundtrip():
    recs = varied_records(12, first_time_buyer=lambda i: "Y" if i % 3 else "N")
    spec = fit_preprocess(recs)
    again = from_json(PreprocessSpec, to_json(spec), "preprocess JSON")
    assert again == spec
    assert again.schema == spec.schema


def test_schema_order_quants_then_intercept_then_categoricals():
    recs = varied_records(
        12,
        first_time_buyer=lambda i: "Y" if i % 2 else "N",
        occupancy_status=lambda i: "I" if i % 3 == 0 else "O",
    )
    spec = fit_preprocess(recs)
    s = list(spec.schema)
    assert s[:7] == ["credit_score", "mi_percent", "num_units", "dti", "upb",
                     "interest_rate", "num_borrowers"]
    assert s[7] == "intercept"
    ftb = [c for c in s if c.startswith("first_time_buyer:")]
    occ = [c for c in s if c.startswith("occupancy_status:")]
    assert ftb and occ
    assert s.index(ftb[0]) < s.index(occ[0]) < s.index("judicial_state")
    assert "cltv" not in s  # parsed for screening, never a covariate


# --- end to end --------------------------------------------------------------------


@pytest.fixture()
def toy_files(tmp_path):
    orig = tmp_path / "orig.txt"
    orig.write_text("\n".join([
        orow(lid="L001", cs="720", fpd="200501", ftb="Y", occ="O", state="FL",
             ptype="SF", mi="25", dti="30", upb="150000", rate="5.5", nb="2"),
        orow(lid="L002", cs="680", fpd="200503", ftb="N", occ="O", state="CA",
             ptype="SF", mi="0", dti="38", upb="220000", rate="6.0", nb="1"),
        orow(lid="L003", cs="750", fpd="200506", ftb="N", occ="I", state="NY",
             ptype="CO", mi="12", dti="25", upb="310000", rate="5.8", nb="2",
             units="2"),
        orow(lid="L004", cs="640", fpd="200502", ftb="Y", occ="O", state="TX",
             ptype="PU", mi="30", dti="44", upb="125000", rate="6.4", nb="1"),
        orow(lid="L005", cs="705", fpd="200504", ftb="N", occ="S", state="OH",
             ptype="SF", mi="0", dti="33", upb="180000", rate="5.9", nb="2"),
        orow(lid="L006", cs="9999", fpd="200505", ftb="N", occ="O", state="IL",
             ptype="SF", mi="0", dti="999", upb="160000", rate="6.1", nb="1"),
    ]) + "\n")
    rows = [
        prow("L001", "200501"), prow("L001", "200606", rep="N", zb="01"),
        prow("L002", "200503"), prow("L002", "200703", dlq="3", zb="03"),
        prow("L003", "200506"), prow("L003", "201402"),
        prow("L004", "200502"), prow("L004", "200801", dlq="R"),
        prow("L005", "200504"), prow("L005", "201212"),
        prow("L006", "200505"), prow("L006", "200610", rep="N", zb="01"),
    ]
    perf_file = tmp_path / "perf.txt"
    perf_file.write_text("\n".join(rows) + "\n")
    return orig, perf_file


def test_portfolio_end_to_end(toy_files):
    orig, perf_file = toy_files
    result = ingest_portfolio(orig, perf_file)
    assert result.counts == {"prepaid": 1, "default": 2, "active": 1,
                             "excluded": 2, "rejected_rows": 0}
    by_id = {l.loan_id: l for l in result.dataset.loans}
    assert by_id["L001"].time == pytest.approx(17 / 12)
    assert by_id["L002"].time == pytest.approx(2.0)
    assert by_id["L004"].status is LoanStatus.DEFAULTED
    assert by_id["L003"].status is LoanStatus.ACTIVE
    reasons = {c.loan_id: c.reason for c in result.classified if c.status is None}
    assert "cutoff" in reasons["L005"]
    assert "credit_score" in reasons["L006"]


def test_built_columns_are_standardized(toy_files):
    orig, perf_file = toy_files
    result = ingest_portfolio(orig, perf_file)
    x = np.vstack([l.covariates.values[0] for l in result.dataset.loans])
    schema = list(result.dataset.schema)
    for j, name in enumerate(schema[:7]):
        assert abs(x[:, j].mean()) < 1e-12, name
        assert abs(x[:, j].std() - 1.0) < 1e-12, name
    assert np.all(x[:, schema.index("intercept")] == 1.0)
    by_id = {l.loan_id: l.covariates.values[0, schema.index("judicial_state")]
             for l in result.dataset.loans}
    assert by_id["L001"] == 1.0  # FL
    assert by_id["L003"] == 1.0  # NY
    assert by_id["L002"] == 0.0  # CA
    assert by_id["L004"] == 0.0  # TX


def test_missing_property_state_excluded_not_built(toy_files):
    orig, perf_file = toy_files
    with orig.open("a") as fh:
        fh.write(orow(lid="L007", cs="690", fpd="200501", state="", dti="35") + "\n")
    with perf_file.open("a") as fh:
        fh.write(prow("L007", "200501") + "\n" + prow("L007", "200606", rep="N", zb="01") + "\n")
    result = ingest_portfolio(orig, perf_file)
    reasons = {c.loan_id: c.reason for c in result.classified if c.status is None}
    assert reasons["L007"] == "missing property_state"
    assert "L007" not in {l.loan_id for l in result.dataset.loans}
    assert result.counts["excluded"] == 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_standardized_column_that_overflows_names_the_field(toy_files):
    orig, perf_file = toy_files
    lines = orig.read_text().splitlines()
    for k in (0, 1):
        cells = lines[k].split("|")
        cells[10] = "1.7e308"  # finite, but the column's mean overflows
        lines[k] = "|".join(cells)
    orig.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IngestError, match="^field upb cannot be standardized: its mean "
                                              r"\(inf\) or standard deviation \(inf\) overflows$"):
            ingest_portfolio(orig, perf_file)


def test_reject_threshold_aborts(tmp_path):
    orig = tmp_path / "orig.txt"
    orig.write_text("\n".join(
        [orow(lid=f"L{i}", cs=str(650 + i)) for i in range(5)]
        + [orow(lid="") for _ in range(5)]  # 50% rejects
    ) + "\n")
    perf_file = tmp_path / "perf.txt"
    perf_file.write_text(prow("L0", "200501") + "\n")
    with pytest.raises(IngestError):
        ingest_portfolio(orig, perf_file,
                         config=IngestConfig(max_reject_fraction=0.1))


def _reference_layout(obs_times, values) -> dict[str, np.ndarray]:
    """A path's arrays as the checked constructor stored them before every
    path went through the bulk builder: its checks, then boundaries 0, the
    midpoints between consecutive times, and inf."""
    times = np.array(obs_times, dtype=float, copy=True)
    vals = np.array(values, dtype=float, copy=True).reshape(times.size, -1)
    assert times.ndim == 1 and times.size > 0
    assert np.all(np.isfinite(times)) and times[0] > 0.0
    assert np.all(np.diff(times) > 0.0)
    assert np.all(np.isfinite(vals))
    bounds = np.empty(times.size + 1)
    bounds[0] = 0.0
    bounds[1:-1] = 0.5 * (times[:-1] + times[1:])
    bounds[-1] = np.inf
    return {"obs_times": times, "values": vals, "boundaries": bounds}


def test_bulk_built_paths_are_read_only_and_bitwise_checked(toy_files, tmp_path):
    orig, perf_file = toy_files
    result = ingest_portfolio(orig, perf_file)
    by_id = {r.loan_id: r for r in read_origination_file(orig, load_default_schema())[0]}
    design = build_design([by_id[loan.loan_id] for loan in result.dataset.loans],
                          result.preprocess)
    steps = {
        "s1": ([0.25, 1.0, 1.75, 4.0], [[0.1, -2.0], [0.3, 1e-300], [-0.0, 5.0], [7.0, 0.5]]),
        "c1": ([1.0], [[1.5, -0.25]]),
        "s2": ([0.5, 0.5000000000000001], [[1.0, 2.0], [3.0, 4.0]]),
    }
    step = Dataset(loans=(
        LoanObservation("s1", LoanStatus.PREPAID, 2.5, CovariatePath(*steps["s1"])),
        LoanObservation("c1", LoanStatus.ACTIVE, 3.0, CovariatePath.constant([1.5, -0.25])),
        LoanObservation("s2", LoanStatus.DEFAULTED, 0.5, CovariatePath(*steps["s2"])),
    ), schema=("a", "b"))
    write_dataset_csv(step, tmp_path / "step.csv")
    pairs = [(loan.covariates, _reference_layout([1.0], x))
             for loan, x in zip(result.dataset.loans, design)]
    for loan in step.loans + read_dataset_csv(tmp_path / "step.csv").loans:
        pairs.append((loan.covariates, _reference_layout(*steps[loan.loan_id])))
    # make_benchmark's covariates, drawn again from each loan's own generator
    config = BenchmarkConfig(n_loans=25, true_params=params_small(4), n_covariates=3, seed=6)
    for i, loan in enumerate(make_benchmark(config)[0].loans):
        rng = np.random.default_rng(np.random.SeedSequence(6, spawn_key=(i,)))
        x = np.concatenate(([1.0], rng.standard_normal(2), [float(rng.integers(0, 2))]))
        pairs.append((loan.covariates, _reference_layout([1.0], x)))
    assert len(pairs) == len(result.dataset.loans) + 6 + 25
    for path, checked in pairs:
        for name in ("obs_times", "values", "boundaries"):
            got, want = getattr(path, name), checked[name]
            assert not got.flags.writeable, name
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("change, says", [
    ({"origination_columns": {"loan_id": -1}},
     '"origination_columns.loan_id" must be a non-negative integer, got -1'),
    ({"delimiter": ""}, '"delimiter" must be a non-empty string, got ""'),
    ({"date_format": "mm/yyyy"}, '"date_format" must be "yyyymm" or "yyyy-mm", got "mm/yyyy"'),
])
def test_file_schema_checks_its_values(change, says):
    with pytest.raises(IngestError) as exc:
        replace(load_default_schema(), **change)
    assert str(exc.value).startswith(says)


@pytest.mark.parametrize("change, says", [
    ({"performance_columns": {"loan_id": 0}},
     'performance_columns: missing required key "reporting_date"'),
    ({"missing_codes": {"zero_balance": ["X"]}}, "missing_codes: unknown keys ['zero_balance']"),
    ({"origination_columns": {"dti": 9}}, 'origination_columns: missing required key "loan_id"'),
])
def test_file_schema_maps_are_checked_by_the_decoder(change, says):
    """The keys of the schema's maps are checked when it is read, in the
    decoder's block form."""
    with pytest.raises(ValueError) as exc:
        from_json(FileSchema, {**to_json(load_default_schema()), **change}, "input file schema")
    assert str(exc.value).startswith(f"input file schema {says}")
