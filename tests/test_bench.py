"""Benchmark harness: record layout, determinism, summaries, CSV output.

The heavy standard configurations run in the acceptance suite; here a tiny
custom problem exercises the machinery.
"""

import csv
import dataclasses

import numpy as np
import pytest

from cpdkit.bench import (
    CSV_COLUMNS,
    BenchConfig,
    RunRecord,
    gcr,
    run_benchmark,
    sim1_config,
    sim2_config,
    summarize,
    write_csv,
)


def tiny_config(**overrides):
    base = BenchConfig(name="tiny", shape=(6, 6, 6, 6), rank=2, snr_db=30.0,
                       runs=2, seed=5, max_iters=150)
    return dataclasses.replace(base, **overrides)


def test_standard_configs():
    cfg1 = sim1_config(runs=10, seed=7)
    assert (cfg1.shape, cfg1.rank, cfg1.snr_db) == ((20,) * 5, 48, 20.0)
    assert cfg1.max_iters == 100
    cfg2 = sim2_config(runs=3, seed=1, scale=25)
    assert (cfg2.name, cfg2.shape, cfg2.rank) == ("sim2", (25,) * 5, 5)


def test_run_benchmark_record_layout():
    records = run_benchmark(tiny_config())
    assert len(records) == 4
    assert [r.method for r in records] == ["als", "mrcpd", "als", "mrcpd"]
    assert [r.run for r in records] == [0, 0, 1, 1]
    for rec in records:
        assert rec.fit_observed <= 1.0
        assert np.isfinite(rec.msir_mean)
        assert rec.runtime_s > 0
        if rec.method == "mrcpd":
            assert rec.eps_k is not None and rec.eps_k >= 0
            assert rec.bound_slack is not None
            assert rec.bound_slack >= -1e-6     # the bound held
        else:
            assert rec.eps_k is None and rec.bound_slack is None


def test_run_benchmark_deterministic_modulo_runtime():
    a = run_benchmark(tiny_config())
    b = run_benchmark(tiny_config())
    for ra, rb in zip(a, b):
        assert ra.method == rb.method and ra.run == rb.run
        assert ra.fit_noiseless == rb.fit_noiseless
        assert ra.fit_observed == rb.fit_observed
        assert ra.msir_mean == rb.msir_mean
        assert ra.converged == rb.converged
        assert ra.eps_k == rb.eps_k
        assert ra.bound_slack == rb.bound_slack


def test_run_benchmark_seed_changes_data():
    a = run_benchmark(tiny_config())
    b = run_benchmark(tiny_config(seed=6))
    assert a[0].fit_observed != b[0].fit_observed


def fake_records():
    mk = lambda m, r, f, rt, ms: RunRecord(
        method=m, run=r, fit_noiseless=f, fit_observed=f, msir_mean=ms,
        runtime_s=rt, converged=True)
    return [
        mk("als", 0, 0.995, 2.0, 20.0),
        mk("als", 1, 0.50, 4.0, 10.0),
        mk("mrcpd", 0, 0.999, 1.0, 50.0),
        mk("mrcpd", 1, 0.992, 3.0, 40.0),
    ]


def test_gcr():
    recs = fake_records()
    assert gcr(recs, 0.99, "als") == 50.0
    assert gcr(recs, 0.99, "mrcpd") == 100.0
    assert gcr(recs, 0.999, "mrcpd") == 50.0
    with pytest.raises(ValueError):
        gcr(recs, 0.99, "other")


def test_summarize():
    out = summarize(fake_records())
    assert set(out) == {"als", "mrcpd"}
    assert out["als"]["gcr_pct"] == 50.0
    assert out["als"]["median_runtime_s"] == 3.0
    assert out["mrcpd"]["mean_msir_db"] == 45.0
    assert out["als"]["mean_fit_noiseless"] == pytest.approx(0.7475)


def test_write_csv_round_trip(tmp_path):
    recs = fake_records()
    recs[0] = dataclasses.replace(recs[0], eps_k=1.25e-3, bound_slack=0.5)
    path = tmp_path / "out.csv"
    write_csv(recs, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 5
    # floats are written with repr, so parsing them back is lossless
    assert float(rows[1][CSV_COLUMNS.index("fit_noiseless")]) == 0.995
    assert float(rows[1][CSV_COLUMNS.index("eps_k")]) == 1.25e-3
    assert rows[1][CSV_COLUMNS.index("converged")] == "True"
    # absent optional fields serialize as empty cells
    assert rows[2][CSV_COLUMNS.index("eps_k")] == ""


def test_written_csv_cells_parse_as_plain_numbers(tmp_path):
    path = tmp_path / "bench.csv"
    run_benchmark(tiny_config(runs=1), out_csv=path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["method"] for r in rows] == ["als", "mrcpd"]
    numeric = ("fit_noiseless", "fit_observed", "msir_mean", "runtime_s",
               "eps_k", "bound_slack")
    for row in rows:
        assert row["converged"] in ("True", "False")
        for col in numeric:
            if row[col] != "":
                float(row[col])
    assert rows[1]["bound_slack"] != ""
