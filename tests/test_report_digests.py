"""The benchmark jobs emit the reports whose digests the benchmark recorded,
so a report that drifts fails here and not only in the benchmark: every
symbolic job, every domain_scan job (the exhaustive and sampled scans and
`limit`) and every pointwise job: the four division jobs, the m = 2 ratio
job, whose dense products take the bytes-packed Kronecker path, and the
p = 7 ratio and det jobs (about 0.3 s each), whose top squares take the
decimal path and whose powers are the longest chains.  Each job runs at
variant 0.  perfbench/ is only read: its job list, its gate and its
digests."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dworklab import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))  # for its own imports
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_jobs(bench, jobs):
    digests = json.loads(bench.DIGESTS.read_text())
    for job in jobs:
        rc, text, *_ = bench.run_job(cli, job)
        assert bench.check(rc, text, digests[job.id][0]) == [], job.id


def test_symbolic_reports_match_the_recorded_digests(bench):
    jobs = bench.jobs_for("symbolic_g1", 0)
    assert len(jobs) == 6
    _check_jobs(bench, jobs)


def test_pointwise_reports_match_the_recorded_digests(bench):
    jobs = (bench.jobs_for("pointwise_division", 0)
            + bench.jobs_for("pointwise_kron", 0))
    assert [job.id for job in jobs][4:] == [
        "pointwise_kron/ratio_p7", "pointwise_kron/det_p7",
        "pointwise_kron/ratio_p5_ext2"]
    _check_jobs(bench, jobs)


def test_domain_scan_reports_match_the_recorded_digests(bench):
    jobs = bench.jobs_for("domain_scan", 0)
    assert [job.id for job in jobs] == [
        "domain_scan/scan_exhaustive_g1", "domain_scan/scan_sample_g2",
        "domain_scan/limit_g1"]
    _check_jobs(bench, jobs)


def test_the_tracer_resolves_every_name_the_benchmark_measures(bench):
    """The tracer rebinds every dworklab name it plans to wrap, and every
    per-layer metric that BENCHMARK.json names resolves to something it
    measures (a span of the plan, a counter or a derived ratio), read here
    over one empty untraced and one empty traced pass.  A renamed layer,
    say ``dwork._pointwise_scan``, fails here and not only in a traced
    benchmark run, which exits with "BENCHMARK.json names ..."."""
    tracer = bench.Tracer()
    tracer.install()
    try:
        assert tracer.missed == []
    finally:
        tracer.uninstall()
    names = [metric["name"] for metric in bench.load_spec()["per_layer"]]
    try:
        values, _ = bench.per_layer(names, tracer,
                                    [(False, 1.0, []), (True, 1.0, [])])
    except SystemExit as exc:
        pytest.fail(str(exc))
    assert sorted(values) == sorted(names)
