#!/usr/bin/env python3
"""Closed-loop benchmark of the dworklab CLI verifiers.

Run from the repository root:

    python3 perfbench/run.py --workload pointwise_kron --seed 0 --seconds 30 --trace 0

One client runs a workload's jobs through `dworklab.cli.run` in this process,
one after another, with no threads and DWORKLAB_THREADS unset.  It repeats
whole passes over the job list until the run, set-up probes included, has
taken about --seconds.  Each job passes when it exits 0, every verdict in
its report is "pass", and the sha256 of its report equals the digest
recorded in digests.json for that job and input variant.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, with times
in seconds at reference speed (speed.py) so that the swings of a shared
machine cancel; the meta line gives the raw wall-clock values.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics; its
spans are written to perfbench/out/.  The last line of stdout is the JSON
result; the line before it holds metadata that gates nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from speed import SpeedSampler
from tracer import COUNTERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

perf = time.perf_counter

# --seed selects one of this many input variants; every variant's report
# digests are recorded, so every run checks every report byte for byte.
VARIANTS = 32

# (job name, argv, work units per job, the (p, N, m) contexts the job builds
# with ctx_new).  {v} is the input variant and {point} the `limit` point
# index, both derived from --seed.  Units: domain points verified (pointwise
# workloads), residue tuples classified (domain_scan; `limit` classifies the
# whole 25^3-tuple domain to pick its point) and verdicts (symbolic_g1).
# Pointwise jobs sample their points over the residue field (N = 1).
WORKLOADS = {
    "pointwise_kron": [
        ("ratio_p7", "congruence --theorem ratio --p 7 --N 6 --s 4 --g 2"
         " --points 4 --seed {v}", 4, ((7, 6, 1), (7, 1, 1))),
        ("det_p7", "congruence --theorem det --p 7 --N 6 --s 4 --g 2"
         " --points 4 --seed {v}", 4, ((7, 6, 1), (7, 1, 1))),
        ("ratio_p5_ext2", "congruence --theorem ratio --p 5 --N 5 --s 3 --g 2"
         " --points 20 --ext 2 --seed {v}", 20, ((5, 5, 2), (5, 1, 2))),
    ],
    "pointwise_division": [
        ("coS_p5", "kz-verify --check coS --p 5 --N 5 --g 2 --s 3 --points 4"
         " --ext 2 --seed {v}", 4, ((5, 5, 2), (5, 1, 2))),
        ("residual_p5", "kz-verify --check residual --p 5 --N 5 --g 2 --s 4"
         " --points 4 --ext 2 --seed {v}", 4, ((5, 5, 2), (5, 1, 2))),
        ("der2_p5", "congruence --theorem der2 --p 5 --N 5 --s 3 --g 2"
         " --points 4 --ext 2 --seed {v}", 4, ((5, 5, 2), (5, 1, 2))),
        ("der_p5_m2", "congruence --theorem der --p 5 --N 7 --s 3 --m 2 --g 2"
         " --points 4 --ext 2 --seed {v}", 4, ((5, 7, 2), (5, 1, 2))),
    ],
    "domain_scan": [
        ("scan_exhaustive_g1", "domain-scan --p 5 --g 1 --m 2 --exhaustive"
         " --seed {v}", 25**3, ((5, 1, 2),)),
        ("scan_sample_g2", "domain-scan --p 5 --g 2 --m 2 --sample 5000"
         " --seed {v}", 5000, ((5, 1, 2),)),
        ("limit_g1", "limit --p 5 --N 6 --g 1 --m 2 --point {point} --smax 4"
         " --seed {v}", 25**3, ((5, 6, 2), (5, 1, 2))),
    ],
    "symbolic_g1": [
        (name, f"congruence --theorem {name} --p 3 --N 5 --s 3 --g 1"
         " --symbolic --seed {v}", 1, ((3, 5, 1),))
        for name in ("ratio", "decomp", "det", "der2", "1.6i")
    ] + [
        ("phi", "kz-verify --check phi --p 3 --N 5 --g 1 --s 3 --seed {v}", 1,
         ((3, 5, 1),)),
    ],
}

# Warn when a workload stops stressing the layer it was chosen for:
# (layer, lowest and highest expected share of traced job wall time, share
# as a function of the span stats {name: [calls, total_s, self_s, id]}).
SHAPES = {
    "pointwise_kron": (
        "self time in dense.dense_mul.*.large", 0.5, 1.0,
        lambda st: sum(v[2] for n, v in st.items()
                       if n.startswith("dense.dense_mul.")
                       and n.endswith(".large"))),
    "pointwise_division": (
        "self time in dense.dense_div_linear", 0.5, 1.0,
        lambda st: st.get("dense.dense_div_linear", [0, 0, 0])[2]),
    "domain_scan": (
        "time under limits.scan_domain and limits.sample_domain_points",
        0.5, 1.0,
        lambda st: sum(v[1] for n, v in st.items()
                       if n in ("limits.scan_domain",
                                "limits.sample_domain_points"))),
    "symbolic_g1": (
        "self time in dense.*", 0.0, 0.05,
        lambda st: sum(v[2] for n, v in st.items()
                       if n.startswith("dense."))),
}


class Job(NamedTuple):
    id: str
    argv: list
    units: int
    contexts: tuple


class Record(NamedTuple):
    job: Job
    start: float
    wall: float
    failures: list


def jobs_for(workload, seed):
    v = seed % VARIANTS
    return [Job(f"{workload}/{name}",
                argv.format(v=v, point=389 * v).split(), units, contexts)
            for name, argv, units, contexts in WORKLOADS[workload]]


# -- running and checking jobs ------------------------------------------------


def run_job(cli, job):
    """Run one job in this process: (exit code, report text, start, wall)."""
    buf = io.StringIO()
    t0 = perf()
    try:
        rc = cli.run(job.argv, out=buf)
    except Exception as exc:  # a traceback is a failed job, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), t0, perf() - t0


def check(rc, text, expected):
    """Reasons a job failed; empty when it passed."""
    failures = [] if rc == 0 else [f"exit {rc}"]
    if not text:
        failures.append("no report")
    for line in text.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            failures.append("report line is not JSON")
            continue
        for key in ("verdict", "bound_verdict"):
            if doc.get(key, "pass") != "pass":
                failures.append(f"{key} {doc[key]}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != expected:
        failures.append("digest differs from the recorded one" if expected
                        else "no recorded digest")
    return failures


def run_pass(cli, jobs, expected, tracer=None, first_id=0):
    records = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_id + i
        rc, text, start, wall = run_job(cli, job)
        records.append(Record(job, start, wall,
                              check(rc, text, expected[job.id])))
    return records


def tally(records):
    return len(records), sum(1 for r in records if r.failures)


def self_test(cli, digests):
    """The gate counts a tampered digest and a non-zero exit as failures."""
    job = jobs_for("symbolic_g1", 0)[-2]
    good = digests[job.id][0]
    tampered = format(int(good, 16) ^ 1, "064x")
    bad_exit = Job("self-test/not-prime",
                   job.argv[:job.argv.index("--p") + 1] + ["4"]
                   + job.argv[job.argv.index("--p") + 2:], 1, ())
    cases = [(job, good), (job, tampered), (bad_exit, good)]
    with contextlib.redirect_stderr(io.StringIO()):
        records = [Record(j, 0.0, 0.0, check(*run_job(cli, j)[:2], want))
                   for j, want in cases]
    return tally(records) == (3, 2) and not records[0].failures


# -- set-up time ---------------------------------------------------------------


# Set-up probes per second of job time.  The probes run between passes, so
# that they sample the same moments of a shared machine as the jobs do.
PROBE_EVERY = 0.8


def setup_prober(contexts):
    """A function timing one set-up in a fresh interpreter.

    Runs one warm-up probe first, which compiles the bytecode.
    """
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC),
           json.dumps(sorted(contexts))]

    def probe():
        """(set-up seconds, start and end of the probe's process)."""
        t0 = perf()
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        return float(res.stdout.split()[-1]), t0, perf()

    probe()
    return probe


# -- measurement loops ----------------------------------------------------------


def measure(cli, jobs, expected, seconds, tracer=None, probe=None):
    """Repeat whole rounds until the next one would overrun `seconds`.

    A round is one pass, or with a tracer one untraced pass followed by one
    traced pass.  With `probe`, each round ends with about one set-up probe
    per PROBE_EVERY seconds of its job time.  Returns
    ([(traced, pass wall, records)], [probe results]).
    """
    kinds = (False, True) if tracer is not None else (False,)
    passes, probes = [], []
    start = perf()
    while True:
        for traced in kinds:
            if traced:
                tracer.install()
            try:
                recs = run_pass(cli, jobs, expected,
                                tracer if traced else None,
                                first_id=len(passes) * len(jobs))
            finally:
                if traced:
                    tracer.uninstall()
            passes.append((traced, sum(r.wall for r in recs), recs))
        if probe is not None:
            count = round(passes[-1][1] / PROBE_EVERY)
            probes += [probe() for _ in range(max(1, count))]
        elapsed = perf() - start
        rounds = len(passes) // len(kinds)
        if elapsed * (rounds + 1) / rounds > seconds:
            return passes, probes


def timings(records, job_seconds, setup_seconds):
    """The timed end-to-end metrics, from one duration per job record and
    one per set-up probe.

    `verdict_s.p50` is the median over the workload's jobs of each job's
    mean time across the passes: averaging a job over the whole run before
    taking the median keeps a few slow seconds from deciding the value.
    """
    per_job = {}
    for r, t in zip(records, job_seconds):
        per_job.setdefault(r.job.id, []).append(t)
    return {
        "work_per_s": sum(r.job.units for r in records if not r.failures)
        / sum(job_seconds),
        "verdict_s.p50": statistics.median(
            statistics.fmean(ts) for ts in per_job.values()),
        "setup_s": statistics.median(setup_seconds),
    }


def end_to_end(passes, probes, sampler):
    """End-to-end metrics of the untraced passes, with times at reference
    speed (see speed.py), and the same timings from raw wall times."""
    records = [r for _, _, recs in passes for r in recs]
    values = timings(
        records,
        [sampler.calibrated(r.start, r.start + r.wall) for r in records],
        [sampler.calibrated(t0, t1, s) for s, t0, t1 in probes])
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    raw = timings(records, [r.wall for r in records],
                  [s for s, _, _ in probes])
    return values, raw


def per_layer(names, tracer, passes):
    """Per-layer metrics from the traced passes, as means per traced pass."""
    traced = [(w, recs) for t, w, recs in passes if t]
    plain = [w for t, w, _ in passes if not t]
    n = len(traced)
    stats, counts = tracer.stats, tracer.counts
    job_wall = sum(w for w, _ in traced)
    root = stats.get("cli.run", [0, 0.0, 0.0])

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "trace.coverage": ratio(root[1] - root[2], job_wall),
        "trace.overhead": ratio(statistics.median(w for w, _ in traced),
                                statistics.median(plain)) - 1.0,
        "failed_ratio": ratio(*reversed(tally(
            [r for _, _, recs in passes for r in recs]))),
        "hasse_witt.DenseCache.get.hit_ratio": ratio(
            counts["hasse_witt.DenseCache.get.hits"],
            counts["hasse_witt.DenseCache.get.hits"]
            + counts["hasse_witt.DenseCache.get.misses"]),
        "limits.sample_domain_points.accept_ratio": ratio(
            counts["limits.sample_domain_points.points"],
            counts["limits.sample_domain_points.hw_calls"]),
    }
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif stat in ("calls", "self_s") and span in tracer.span_names:
            row = stats.get(span, [0, 0.0, 0.0])
            out[name] = (row[0] if stat == "calls" else row[2]) / n
        elif name in COUNTERS:
            out[name] = counts[name] / n
        else:
            raise SystemExit(f"BENCHMARK.json names {name}, which the "
                             "tracer does not measure")
    return out, job_wall


# -- metadata ---------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision():
    """HEAD of the checkout; "unknown" outside a git repository."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_variant": args.seed % VARIANTS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted(SRC.rglob("*.py"))),
    }


# -- main ---------------------------------------------------------------------------


def load_spec():
    """Metric names and units from BENCHMARK.json, checked against this file."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from perfbench/run.py")
    return spec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf()
    if not (SRC / "dworklab" / "cli.py").is_file():
        raise SystemExit(f"no dworklab sources under {SRC}")
    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload}; "
                         f"choose from {', '.join(WORKLOADS)}")
    os.environ.pop("DWORKLAB_THREADS", None)
    # One core for this process and its set-up probes, so that the speed
    # samples (speed.py) see the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jobs = jobs_for(args.workload, args.seed)
    digests = json.loads(DIGESTS.read_text())
    v = args.seed % VARIANTS
    expected = {j.id: digests.get(j.id, [None] * VARIANTS)[v] for j in jobs}

    if not args.trace:
        # Before the import, so that the warm-up probe compiles the bytecode
        # this process then imports, and peak_rss_mb never includes compiling.
        probe = setup_prober({c for j in jobs for c in j.contexts})
    sys.path.insert(0, str(SRC))
    from dworklab import cli

    meta = metadata(args)
    gate_ok = self_test(cli, digests)
    meta["gate_self_test"] = "pass" if gate_ok else "fail"
    if args.trace:
        tracer = Tracer()
        passes, _ = measure(cli, jobs, expected,
                            args.seconds - (perf() - started), tracer)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, job_wall = per_layer(names, tracer, passes)
        meta["names_left_unwrapped"] = tracer.missed
        layer, lo, hi, share_of = SHAPES[args.workload]
        share = share_of(tracer.stats) / job_wall
        meta["shape"] = {"layer": layer, "share": share, "expected": [lo, hi]}
        if not lo <= share <= hi:
            print(f"warning: {args.workload} no longer stresses its layer: "
                  f"{share:.1%} {layer}, expected {lo:.0%} to {hi:.0%}",
                  file=sys.stderr)
        spans = OUT / f"spans-{args.workload}.tsv.gz"
        tracer.write(spans)
        meta["spans_file"] = str(spans.relative_to(ROOT))
        meta["spans"] = len(tracer.spans) // 5
    else:
        with SpeedSampler() as sampler:
            passes, probes = measure(cli, jobs, expected,
                                     args.seconds - (perf() - started),
                                     probe=probe)
        values, meta["wall_clock"] = end_to_end(passes, probes, sampler)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        names = list(units)
        meta["verdict_s_samples"] = sum(len(recs) for _, _, recs in passes)
        meta["setup_s_samples"] = len(probes)
        meta["speed_samples"] = len(sampler.durations)
        meta["verdict_s_tail"] = (
            "not reported: verdict_s.p50 is a median over the workload's "
            f"{len(jobs)} jobs, which leaves fewer than ten samples beyond "
            "any higher percentile")
    records = [r for _, _, recs in passes for r in recs]
    attempted, failed = tally(records)
    meta["pass_walls"] = [[int(t), w] for t, w, _ in passes]
    meta["failures"] = sorted({f"{r.job.id}: {', '.join(r.failures)}"
                               for r in records if r.failures})
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": gate_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
