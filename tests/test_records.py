"""Every library record is a NamedTuple: checked records check on every path that builds one, and none takes a new
attribute or a changed field."""

import copy
import pickle
import re

import pytest

from threshold_lab import (
    BetaPrior,
    BinomialModel,
    BinomialOutcome,
    CriticalValue,
    DiagnosticityGain,
    EvidenceReport,
    JitterViolation,
    PrepReport,
    SweepGrid,
    SweepRow,
    ThresholdEvidence,
    ZTestDesign,
    sweep_report,
)

REPORT = EvidenceReport(-2.5, -4.5, 7.38905609893065, 0.880797077977882, 0.1353352832366127)

# (record, its repr, and for a checked record a field, a bad value for it and the start of the ValueError it raises)
RECORDS = [
    (BinomialOutcome(10, 5), "BinomialOutcome(n=10, s=5)", ("s", 11, "success count s must be an integer in [0, 10]")),
    (BinomialModel(0.5), "BinomialModel(theta=0.5)", ("theta", 1.5, "theta must be a real number in [0, 1]")),
    (BetaPrior(1.0, 2.0), "BetaPrior(a=1.0, b=2.0)", ("a", 0.0, "prior shape a must be a positive real")),
    (ZTestDesign(0.0, 0.5, 1.0, 0.05, 0.2), "ZTestDesign(mu0=0.0, mu_alt=0.5, sigma=1.0, alpha=0.05, beta=0.2)",
     ("mu_alt", 0.0, "mu_alt must differ from mu0")),
    (SweepGrid((20, 40), (0.05,)),
     "SweepGrid(n_values=(20, 40), alphas=(0.05,), mode=<SelectionMode.NEAREST_TO_ALPHA: 'nearest'>, "
     "tail=<TailConvention.TWO_SIDED_SYMMETRIC: 'two'>, prior=BetaPrior(a=1.0, b=1.0))",
     ("alphas", (0.01, 0.05), "alphas must be strictly decreasing")),
    (REPORT, "EvidenceReport(log_l0=-2.5, log_l1=-4.5, bf01=7.38905609893065, posterior_h0=0.880797077977882, "
             "posterior_odds_h1=0.1353352832366127)", None),
    (SweepRow(0.05, 20, None, None, None, None, "nearest", "two"),
     "SweepRow(alpha=0.05, n=20, s_selected=None, p_achieved=None, log_bf01=None, posterior_h0=None, "
     "mode='nearest', tail='two')", None),
    (PrepReport(0.05, 0.9, 0.1), "PrepReport(p_in=0.05, p_rep=0.9, failure_prob=0.1)", None),
    (CriticalValue(60, 0.05), "CriticalValue(s=60, p_achieved=0.05)", None),
    (ThresholdEvidence(60, 0.05, REPORT), f"ThresholdEvidence(s=60, p_achieved=0.05, report={REPORT!r})", None),
    (JitterViolation(0.05, 20, 40, 0.01), "JitterViolation(alpha=0.05, n_prev=20, n=40, posterior_drop=0.01)", None),
    (DiagnosticityGain(2.0, 8.0, 4.0), "DiagnosticityGain(odds_a=2.0, odds_b=8.0, ratio=4.0)", None),
]


@pytest.mark.parametrize("record,shown,bad", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_a_record_is_an_immutable_named_tuple_that_keeps_its_checks(record, shown, bad):
    # _replace and _make skip __new__'s checks unless the record's _make calls the class
    cls = type(record)
    assert isinstance(record, tuple) and cls._fields == tuple(record._asdict())
    assert repr(record) == shown
    assert record == cls(*record) == cls(**record._asdict()) == pickle.loads(pickle.dumps(record))
    assert type(pickle.loads(pickle.dumps(record))) is cls and hash(record) == hash(cls(*record))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    if bad is None:
        return
    field, value, message = bad
    builds = [lambda: record._replace(**{field: value}),
              lambda: cls._make(value if f == field else v for f, v in record._asdict().items())]
    if hasattr(copy, "replace"):  # Python 3.13
        builds.append(lambda: copy.replace(record, **{field: value}))
    for build in builds:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()


def test_sweep_rows_list_their_fields_in_column_order():
    # emit writes a row's values in field order under the _COLUMNS header
    assert SweepRow._fields == tuple(sweep_report._COLUMNS)
