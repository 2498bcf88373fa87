"""Convergence harness behavior: determinism, trend grading, schema."""

import json

import numpy as np

from mscrn.verify import VerifyReport, _trend_verdict, verify_convergence


def test_trend_verdicts():
    assert _trend_verdict([0.1], [0.01]) == "not-applicable"
    assert _trend_verdict([0.3, 0.2, 0.1], [0.0, 0.0, 0.0]) == "decreasing"
    # one non-monotone step within twice the combined errors passes
    assert _trend_verdict([0.3, 0.2, 0.21], [0.01, 0.01, 0.01]) == "decreasing"
    # a large jump fails
    assert _trend_verdict([0.3, 0.2, 0.5], [0.01, 0.01, 0.01]) == "non-monotone"
    # two non-monotone steps fail even when small
    assert _trend_verdict([0.3, 0.301, 0.302, 0.303],
                          [0.01, 0.01, 0.01, 0.01]) == "non-monotone"


def test_verify_ab_small(ab_doc):
    report = verify_convergence(ab_doc.model, ab_doc.scaling, [10, 100],
                                replicas=300, times=[0.5, 1.0],
                                x0_scaled=ab_doc.initial_scaled(), seed=5)
    assert report.observables == ["A"]
    assert len(report.errors) == 2
    assert report.errors[1] < report.errors[0]
    assert report.trend == "decreasing"
    payload = report.to_jsonable()
    assert payload["schema_version"] == 1
    assert payload["per_N"][0]["N"] == 10
    json.dumps(payload)   # serializable
    csv = report.to_csv()
    assert csv.splitlines()[0] == VerifyReport.CSV_HEADER
    assert len(csv.splitlines()) == 1 + 1 * 2 * 2


def test_verify_deterministic(ab_doc):
    kwargs = dict(n_grid=[20], replicas=50, times=[0.5],
                  x0_scaled=ab_doc.initial_scaled(), seed=9)
    r1 = verify_convergence(ab_doc.model, ab_doc.scaling, **kwargs)
    r2 = verify_convergence(ab_doc.model, ab_doc.scaling, **kwargs)
    assert r1.to_json() == r2.to_json()


def test_verify_single_point_grid(ab_doc):
    report = verify_convergence(ab_doc.model, ab_doc.scaling, [50],
                                replicas=100, times=[1.0],
                                x0_scaled=ab_doc.initial_scaled(), seed=2)
    assert report.trend == "not-applicable"


def test_verify_conserved_observables(conserved_doc):
    report = verify_convergence(conserved_doc.model, conserved_doc.scaling,
                                [30], replicas=200, times=[0.5],
                                x0_scaled=np.array([3.0, 0.0, 0.0]), seed=4)
    assert report.observables == ["S", "c1"]
    assert report.final_error < 0.3
