"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run small slices of each workload, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, inputs, run  # noqa: E402
from perfbench.trace import Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

COUNTS = ("calls", "nodes", "_ratio")


def small_slice(name: str, seed: int, work: Path):
    workload = WORKLOADS[name](seed, str(work))
    work.mkdir(parents=True, exist_ok=True)
    for path, text in workload.inputs.items():
        Path(path).write_text(text)
    keep = {"planes": lambda job: job.size == "q3" or job.label == "bounds",
            "corpus": lambda job: job.size != "free-k5",
            "search": lambda job: job.size == "n5"}[name]
    return [job for job in workload.jobs if keep(job)][:40]


def run_slice(jobs, tracer=None):
    package = run.import_package() if tracer is None else sys.modules["bergefree"]
    if tracer is not None:
        tracer.install()
    try:
        outcomes = [run.run_job(package, job) for job in jobs]
    finally:
        if tracer is not None:
            tracer.uninstall()
    for job, outcome in zip(jobs, outcomes):
        run.collect_files(job, outcome)
    return outcomes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_byte_identical_and_counts_repeat(name, tmp_path):
    jobs = small_slice(name, 7, tmp_path)
    gate = run.Gate(7)
    plain = run_slice(jobs)
    digests = [run.digest(job, out) for job, out in zip(jobs, plain)]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        traced = run_slice(jobs, tracer)
        assert [run.digest(job, out) for job, out in zip(jobs, traced)] == digests
        for job, outcome in zip(jobs, traced):
            gate.judge(job, outcome)
        metrics = layer_metrics(tracer.spans, 1)
        counts.append({k: v for k, v in metrics.items() if any(c in k for c in COUNTS)})
    assert gate.failures == []
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_inputs_follow_the_seed(tmp_path):
    first = WORKLOADS["corpus"](3, str(tmp_path)).inputs
    assert first == WORKLOADS["corpus"](3, str(tmp_path)).inputs
    assert first != WORKLOADS["corpus"](4, str(tmp_path)).inputs

    def warm_up(seed):
        workload = WORKLOADS["corpus"](seed, str(tmp_path))
        paths = {path for job in workload.warmup if job.argv for path in job.argv[2:3]}
        return [job.label for job in workload.warmup], {p: workload.inputs[p] for p in paths}
    assert warm_up(3) == warm_up(4)


def test_own_berge_check_on_built_inputs():
    import random
    n, hyperedges = inputs.blow_up(2)
    assert not checks.has_berge_c4(hyperedges)
    planted = inputs.plant_cycle(n, hyperedges, 4, random.Random(1))
    assert checks.has_berge_c4(planted)
    assert checks.has_berge_c4([[0, 1], [1, 2], [2, 3], [3, 0]])
    assert not checks.has_berge_c4([[0, 1], [1, 2], [2, 3]])


def test_witness_check_rejects_bad_witnesses():
    hyperedges = [[0, 1], [1, 2], [2, 3], [0, 3]]
    good = {"vertices": [0, 1, 2, 3], "hyperedges": [0, 1, 2, 3]}
    assert checks.witness_errors(hyperedges, good, 4) == []
    assert checks.witness_errors(hyperedges, {"vertices": [0, 3, 2, 1],
                                              "hyperedges": [3, 2, 1, 0]}, 4)
    assert checks.witness_errors(hyperedges, {"vertices": [0, 1, 2, 3],
                                              "hyperedges": [0, 1, 2, 2]}, 4)
    assert checks.witness_errors(hyperedges, good, 3)


def test_gate_counts_wrong_exit_codes_and_changed_bytes(tmp_path):
    jobs = small_slice("search", 1, tmp_path)[:2]
    outcomes = run_slice(jobs)
    references = {"fixed": {jobs[0].label: "00000000"}, "seeded_labels": [], "seeds": {}}
    gate = run.Gate(1, references)
    gate.judge(jobs[0], outcomes[0])
    outcomes[1].exit_code = 1
    gate.judge(jobs[1], outcomes[1])
    assert gate.attempted == 2 and len(gate.failures) == 2
    assert "differs from reference" in gate.failures[0]
    assert "no reference recorded" in gate.failures[1]


def test_gate_says_when_the_seed_has_no_references(tmp_path):
    jobs = [job for job in small_slice("corpus", 40, tmp_path) if job.argv][:1]
    references = {"fixed": {}, "seeded_labels": [jobs[0].label], "seeds": {"1": "00000000"}}
    gate = run.Gate(40, references)
    gate.judge(jobs[0], run_slice(jobs)[0])
    assert gate.failures == [] and gate.compared == 0
    assert not gate.seed_recorded and "WARNING" in gate.reference_note


def test_digest_ignores_search_wall_time(tmp_path):
    job = small_slice("search", 1, tmp_path)[0]
    outcome = run_slice([job])[0]
    before = run.digest(job, outcome)
    path = job.outputs[0]
    record = json.loads(outcome.files[path])
    record["wall_time_s"] += 1.0
    outcome.files[path] = (json.dumps(record) + "\n").encode()
    assert run.digest(job, outcome) == before


def test_tail_leaves_ten_jobs_beyond():
    value, percentile, count = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and count == 100 and percentile == 90.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sampler_takes_out_handler_time_and_divides_by_nearby_samples():
    from perfbench.hostspeed import Sampler
    sampler = Sampler()
    # samples of 1 ms every 10 ms, then 2 ms ones from t = 1 s on
    for i in range(200):
        start = i * 0.01
        sampler.starts.append(start)
        sampler.ends.append(start + (0.001 if start < 1.0 else 0.002))
    seconds, ref = sampler.measure(0.2005, 0.3005)   # 10 samples of 1 ms inside
    assert abs(seconds - 0.090) < 1e-9 and abs(ref - 90.0) < 1e-6
    seconds, ref = sampler.measure(1.5005, 1.6005)   # same job on a host at half speed
    assert abs(seconds - 0.080) < 1e-9 and abs(ref - 40.0) < 1e-6


def test_sampler_stops_its_timer():
    import signal
    from perfbench.hostspeed import Sampler
    with Sampler() as sampler:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert len(sampler.starts) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
