"""The symbolic benchmark jobs emit the reports whose digests the benchmark
recorded, so a report that drifts fails here and not only in the benchmark.
perfbench/ is only read: its job list, its gate and its digests."""

import importlib.util
import json
import sys
from pathlib import Path

from dworklab import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_symbolic_reports_match_the_recorded_digests(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))  # for its own imports
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    digests = json.loads(bench.DIGESTS.read_text())
    jobs = bench.jobs_for("symbolic_g1", 0)
    assert len(jobs) == 6
    for job in jobs:
        rc, text, *_ = bench.run_job(cli, job)
        assert bench.check(rc, text, digests[job.id][0]) == [], job.id
