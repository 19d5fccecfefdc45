"""Record the sha256 of every benchmark job's report, for every input variant.

Usage (from the repository root): python3 perfbench/record_digests.py [WORKLOAD ...]

Each job runs through the standalone CLI (`python3 -m dworklab`) in a fresh
process, so the benchmark's in-process runs are also checked to emit the
same bytes as the command line.  A job that exits non-zero or reports a
verdict other than "pass" aborts the recording.  Each workload's digests
are merged into digests.json as soon as they are complete, so recorders
for different workloads may run side by side.
"""

import hashlib
import json
import os
import subprocess
import sys

import run


def record(job):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    env.pop("DWORKLAB_THREADS", None)
    res = subprocess.run([sys.executable, "-m", "dworklab", *job.argv],
                         capture_output=True, text=True, env=env, timeout=600)
    failures = run.check(res.returncode, res.stdout, None)
    if failures != ["no recorded digest"]:
        raise SystemExit(f"{job.id} {' '.join(job.argv)}: {failures}")
    return hashlib.sha256(res.stdout.encode()).hexdigest()


def save(entries):
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    table.update(entries)
    tmp = run.DIGESTS.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, run.DIGESTS)


def main(workloads):
    for workload in workloads or run.WORKLOADS:
        entries = {f"{workload}/{name}": [] for name, *_ in
                   run.WORKLOADS[workload]}
        for v in range(run.VARIANTS):
            for job in run.jobs_for(workload, v):
                entries[job.id].append(record(job))
            print(f"{workload} variant {v} recorded", file=sys.stderr)
        save(entries)


if __name__ == "__main__":
    main(sys.argv[1:])
