"""Run one bergefree benchmark workload and print its metrics.

    python3 perfbench/run.py --workload planes|corpus|search --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/` and driven in-process through `bergefree.cli.main(argv)`, with stdout
and stderr captured, so interpreter start-up does not swamp short jobs.
Load is a closed loop: one client, jobs one after another, no threads, and
BERGE_THREADS unset so the default single-worker path is measured.

A run runs B = max(2, round(S / nominal batch time)) identical batches of
the workload's job list, so a run always does the same work for a given S
and every percentile falls on the same job rank.  It sets up afresh
SETUP_REPEATS times before each batch and after the last one, so the
set-ups are spread over the run like the batches; setup_s is their median.

Job times are given in reference units (unit "ref"): a job's seconds over
the seconds of a fixed computation of the benchmark's own, sampled during
and around the job (see hostspeed.py).  The host this runs on is shared and
the same job can run up to 2x slower for minutes while other tenants load
it; in reference units that swing cancels, while a change to the program
moves the figures as it moves seconds.  Traced batches are not sampled.
From the untraced job runs, in reference units:

    wall_ref      median over batches of the batch's summed job latencies
    job_p50_ref   median job latency
    job_tail_ref  latency at the highest percentile with 10 jobs beyond it

The same figures in plain seconds are printed in the report above the
result line.

Every job's output is checked: exit code implied by how the input was
built, an independent check of witnesses and known answers, byte equality
with the digests recorded at the seed commit, and byte equality across the
run's batches.  A run without a references file fails; a seed outside the
recorded ones compares its seed-dependent jobs across batches only, and the
report says so.  failed_ratio is the `failed`
count over `attempted` in the result line.

--trace 0 prints the end-to-end metrics.  --trace 1 traces every other
batch (see trace.py) and prints the per-layer metrics, per traced batch;
trace.overhead_s is the spans of a traced batch times the cost of one
wrapper call, measured in the same run.  (The traced batch time minus the
untraced one is printed too, but with a few batches it is mostly noise.)
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import Sampler  # noqa: E402
from perfbench.trace import LAYERS, PACKAGE, Tracer, layer_metrics, span_cost  # noqa: E402
from perfbench.workloads import WORKLOADS, Job, Outcome, Workload  # noqa: E402

SETUP_REPEATS = 2
TAIL_BEYOND = 10
REFERENCES = ROOT / "perfbench" / "references"
UNITS = {"wall_ref": "ref", "job_p50_ref": "ref", "job_tail_ref": "ref",
         "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import the package afresh, as a new process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    return package


def run_job(package, job: Job) -> Outcome:
    for path in job.outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    code, doc, error = None, None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if job.argv is not None:
                code = package.cli.main(job.argv)
            else:
                doc = job.call(package)
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    if doc is not None:
        stdout = json.dumps(doc, separators=(",", ":")) + "\n"
    return Outcome(code, stdout, err.getvalue(), {}, seconds, error, start)


def collect_files(job: Job, outcome: Outcome) -> None:
    for path in job.outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outcome.files[path] = fh.read()


def digest(job: Job, outcome: Outcome) -> str:
    """Digest of what must stay byte-identical: exit code, stdout and the
    output files, with the wall_time_s field dropped from search records."""
    h = hashlib.sha256(f"{outcome.exit_code}\n".encode())
    h.update(outcome.stdout.encode())
    for path in job.outputs:
        data = outcome.files.get(path, b"<missing>")
        if path.endswith(".jsonl"):
            try:
                records = [json.loads(line) for line in data.decode().splitlines()]
            except ValueError:
                records = None   # not JSON lines: digest the bytes as written
            if records is not None:
                for record in records:
                    if isinstance(record, dict):
                        record.pop("wall_time_s", None)
                data = "".join(json.dumps(r, separators=(",", ":")) + "\n"
                               for r in records).encode()
        h.update(b"\0" + data)
    return h.hexdigest()[:8]


class Gate:
    """Decides, job by job, whether an outcome is right."""

    def __init__(self, seed: int, references: dict | None = None):
        """references: a document written by record_references.py, or None
        to check without references (when recording them, and in tests)."""
        self.seed = seed
        self.references = references is not None
        self.fixed: dict[str, str] = {}
        self.seeded: dict[str, str] = {}
        self.seed_recorded = False
        if references is not None:
            self.fixed = references["fixed"]
            row = references["seeds"].get(str(seed))
            if row is not None:
                self.seeded = {label: row[8 * i:8 * i + 8]
                               for i, label in enumerate(references["seeded_labels"])}
            self.seed_recorded = row is not None or not references["seeded_labels"]
        self.first: dict[str, str] = {}
        self.checked: dict[tuple[str, str], list[str]] = {}
        self.compared = 0
        self.seeded_compared = 0
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, job: Job, outcome: Outcome) -> None:
        self.attempted += 1
        errors = []
        if outcome.error is not None:
            errors.append("raised:\n" + outcome.error)
        elif "Traceback" in outcome.stderr:
            errors.append("traceback on stderr")
        if outcome.exit_code != job.expect_exit:
            errors.append(f"exit {outcome.exit_code}, want {job.expect_exit}")
        if outcome.error is None:
            key = (job.label, digest(job, outcome))
            if key not in self.checked:
                try:
                    self.checked[key] = job.check(outcome) if job.check else []
                except Exception:
                    self.checked[key] = ["check raised:\n" + traceback.format_exc()]
            errors += self.checked[key]
            if self.references and (self.seed_recorded or not job.seeded):
                reference = (self.seeded if job.seeded else self.fixed).get(job.label)
                if reference is None:
                    errors.append("no reference recorded for this job")
                else:
                    self.compared += 1
                    self.seeded_compared += job.seeded
                    if reference != key[1]:
                        errors.append(f"output {key[1]} differs from reference {reference}")
            if self.first.setdefault(job.label, key[1]) != key[1]:
                errors.append("output differs from the same job in an earlier batch")
        if errors:
            self.failures.append(f"{job.label}: " + "; ".join(errors))

    @property
    def reference_note(self) -> str:
        note = (f"{self.compared} job runs compared with references recorded at the seed "
                f"commit, {self.seeded_compared} of them seed-dependent")
        if not self.seed_recorded:
            note += (f"; WARNING: no references recorded for seed {self.seed}, so no "
                     f"seed-dependent job was compared with one (only across batches)")
        return note


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = max(0, count - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / count, count


def environment(seed: int) -> str:
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"machine={platform.machine()} platform={platform.platform()} seed={seed} "
            f"BERGE_THREADS={os.environ.get('BERGE_THREADS', 'unset (1 worker)')}")


def set_up(name: str, seed: int, work: Path):
    """Import, generate and write the inputs, and run the warm-up jobs."""
    package = import_package()
    workload: Workload = WORKLOADS[name](seed, str(work))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for path, text in workload.inputs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    warm = [(job, run_job(package, job)) for job in workload.warmup]
    return package, workload, warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("BERGE_THREADS", None)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    references = REFERENCES / f"{args.workload}.json"
    if not references.is_file():
        print(f"error: no references file {references}", file=sys.stderr)
        return 2
    gate = Gate(args.seed, json.loads(references.read_text()))
    setups: list[float] = []

    def timed_set_up():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            package, workload, warm = set_up(args.workload, args.seed, work)
            setups.append(time.perf_counter() - start)
            for job, outcome in warm:
                collect_files(job, outcome)
                gate.judge(job, outcome)
        return package, workload

    package, workload = timed_set_up()
    batches = max(2, round(args.seconds / workload.batch_s))
    tracer = Tracer()
    walls: list[tuple[float, float]] = []             # untraced batches: ref units, seconds
    traced_walls: list[float] = []                    # traced batches: seconds
    latencies: list[tuple[float, float, str]] = []    # untraced job runs: ref units, seconds, class
    samples: list[float] = []                         # host speed samples: seconds each
    for batch in range(batches):
        if batch:
            package, workload = timed_set_up()
        if args.trace and batch % 2 == 1:
            tracer.install()
            outcomes = []
            for index, job in enumerate(workload.jobs):
                tracer.job = batch * len(workload.jobs) + index
                outcomes.append(run_job(package, job))
            tracer.uninstall()
            traced_walls.append(sum(outcome.seconds for outcome in outcomes))
        else:
            with Sampler() as sampler:
                outcomes = [run_job(package, job) for job in workload.jobs]
            runs = []
            for job, outcome in zip(workload.jobs, outcomes):
                outcome.seconds, value = sampler.measure(
                    outcome.started, outcome.started + outcome.seconds)
                runs.append((value, outcome.seconds, job.size))
            latencies += runs
            walls.append((sum(r[0] for r in runs), sum(r[1] for r in runs)))
            samples += [e - s for s, e in zip(sampler.starts, sampler.ends)]
        for job, outcome in zip(workload.jobs, outcomes):
            collect_files(job, outcome)
            gate.judge(job, outcome)
    timed_set_up()
    shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(w for w, _ in walls)
    p50 = statistics.median(v for v, _, _ in latencies)
    tail_ref, tail_pct, count = tail([v for v, _, _ in latencies])
    tail_class = next(size for v, _, size in latencies if v == tail_ref)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = len(gate.failures)
    end_to_end = {
        "wall_ref": wall,
        "job_p50_ref": p50,
        "job_tail_ref": tail_ref,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    seconds = {
        "wall_s": statistics.median(s for _, s in walls),
        "job_p50_s": statistics.median(s for _, s, _ in latencies),
        "job_tail_s": tail([s for _, s, _ in latencies])[0],
    }

    print(f"bergefree benchmark: workload={args.workload} batches={batches} "
          f"jobs/batch={len(workload.jobs)} trace={args.trace}")
    print(f"env: {environment(args.seed)}")
    for name, value in end_to_end.items():
        print(f"{name:12s} {value:.6f} {UNITS[name]}")
    for name, value in seconds.items():
        print(f"{name:12s} {value:.6f} s (plain seconds, not in the result line)")
    quartiles = statistics.quantiles(samples, n=4)
    print(f"host speed: 1 ref = {statistics.median(samples) * 1e3:.3f} ms median, quartiles "
          f"{quartiles[0] * 1e3:.3f} {quartiles[2] * 1e3:.3f} ms, {len(samples)} samples")
    print(f"job_tail_ref is p{tail_pct:.1f} of {count} jobs "
          f"({TAIL_BEYOND} beyond it), size class {tail_class}")
    classes: dict[str, list[float]] = {}
    for value, _, size in latencies:
        classes.setdefault(size, []).append(value)
    total = sum(v for v, _, _ in latencies)
    for size, values in sorted(classes.items(), key=lambda item: -sum(item[1])):
        print(f"  class {size:12s} jobs={len(values):4d} median={statistics.median(values):.4f} ref "
              f"share of time={sum(values) / total:.3f}")
    print(f"failed_ratio {failed}/{gate.attempted} = {failed / gate.attempted:.6f}")
    print(f"reference: {gate.reference_note}")
    if not gate.seed_recorded:
        print(f"reference: {gate.reference_note}", file=sys.stderr)
    for failure in gate.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    if args.trace:
        traced_batches = len(traced_walls)
        metrics = layer_metrics(tracer.spans, traced_batches)
        cost = span_cost()
        metrics["trace.overhead_s"] = len(tracer.spans) / traced_batches * cost
        print(f"trace overhead: {len(tracer.spans) / traced_batches:.0f} spans per batch x "
              f"{cost * 1e6:.3f} us per wrapper call; traced minus untraced batch time "
              f"{statistics.median(traced_walls) - seconds['wall_s']:+.3f} s "
              f"({traced_batches} traced, {len(walls)} untraced batches)")
        spans_path = ROOT / ".perfbench_work" / f"spans-{args.workload}.tsv.gz"
        tracer.write(str(spans_path))
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        result = {name: {"value": value, "unit": _unit(name)}
                  for name, value in sorted(metrics.items())}
    else:
        result = {name: {"value": value, "unit": UNITS[name]}
                  for name, value in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": gate.attempted,
                      "failed": failed, "metrics": result}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
