"""Record the output digests that later runs are compared against.

    python3 perfbench/record_references.py

Run at the commit whose outputs are the reference.  Every workload is
recorded for seeds 0-31, each job once per seed; a job whose output fails
its own check is reported and nothing is written for that workload.  Jobs
whose output does not depend on the seed are recorded once, under "fixed".
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCES, ROOT, Gate, collect_files, digest, import_package, run_job
from perfbench.workloads import WORKLOADS

SEEDS = range(32)


def record(name: str) -> bool:
    package = import_package()
    work = ROOT / ".perfbench_work" / f"record-{name}"
    fixed: dict[str, str] = {}
    rows: dict[str, str] = {}
    labels: list[str] = []
    ok = True
    for seed in SEEDS:
        workload = WORKLOADS[name](seed, str(work))
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for path, text in workload.inputs.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        gate = Gate(seed)
        seeded: dict[str, str] = {}
        for job in workload.warmup + workload.jobs:
            if job.label in (seeded if job.seeded else fixed):
                continue
            outcome = run_job(package, job)
            collect_files(job, outcome)
            gate.judge(job, outcome)
            (seeded if job.seeded else fixed)[job.label] = digest(job, outcome)
        for failure in gate.failures:
            print(f"{name} seed {seed}: FAILED {failure}", file=sys.stderr)
        ok = ok and not gate.failures
        labels = sorted(seeded)
        if labels:
            rows[str(seed)] = "".join(seeded[label] for label in labels)
        print(f"{name} seed {seed}: {len(seeded)} seeded jobs recorded", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    if ok:
        REFERENCES.mkdir(exist_ok=True)
        doc = {"fixed": dict(sorted(fixed.items())), "seeded_labels": labels, "seeds": rows}
        (REFERENCES / f"{name}.json").write_text(json.dumps(doc, indent=0) + "\n")
    return ok


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    results = [record(name) for name in sorted(WORKLOADS)]
    print("all recorded" if all(results) else "NOT recorded: a job failed its check")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
