"""The three workloads: seeded inputs, the job batch, and each job's check.

A job is one CLI invocation (`bergefree.cli.main(argv)`, run in-process) or,
where the CLI has no flag for it, one library call.  Every job carries the
exit code its input implies and an independent check of its output.

Why these workloads:
  planes  relabeled PG(2,q) blow-ups, q = 3/5/7.  Every input is Berge-C4-free,
          so each verify and lemmas job walks the detector's whole free
          path; the q=7 jobs carry the largest share of the batch, and the
          construct/bounds jobs give the plane build and certificate work.
  corpus  240 small jobs at n = 40..100: inherited-free inputs and planted
          Berge-C3/C4/C5s.  Cyclic inputs stop early and exercise the SDR
          witness step, free k=5 jobs form the tail and run the general-k
          engine, and CLI/JSON work is a large share of each job.
  search  the exact search at n = 5, 6, 7.  The time is in search.py; berge
          only checks the final witness, so a change to berge alone should
          leave this workload unchanged.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import checks
from .inputs import blow_up, hypergraph_json, plant_cycle, relabel

# Known answers: exact maxima of sum(|h|-3) over Berge-C4-free multihypergraphs
# by (n, max_mult); at n = 5, 6 the pruned and unpruned searches agree, and
# n = 7 (orbit representatives) reproduces 12 at max_mult 3.
BEST_WEIGHT = {(5, 1): 4, (5, 2): 5, (5, 3): 6, (6, 1): 7, (6, 2): 8, (6, 3): 9,
               (7, 1): 10, (7, 2): 11, (7, 3): 12}
# Node counts fixed by the search order: (n, max_mult, mode) -> nodes_explored.
NODES = {(5, 3, "pruned"): 53, (6, 3, "pruned"): 1808, (7, 3, "orbit"): 6058}


@dataclass
class Job:
    label: str                     # unique within the batch
    size: str                      # size class, for the report
    argv: Optional[list[str]] = None           # CLI arguments, or
    call: Optional[Callable[[object], object]] = None  # call(package) -> JSON doc
    outputs: list[str] = field(default_factory=list)   # files the job writes
    expect_exit: int = 0
    check: Optional[Callable[["Outcome"], list[str]]] = None
    seeded: bool = True            # output depends on the workload seed


@dataclass
class Outcome:
    exit_code: Optional[int]
    stdout: str
    stderr: str
    files: dict[str, bytes]
    seconds: float
    error: Optional[str] = None    # traceback text when the job raised
    started: float = 0.0           # time.perf_counter() when the job began


@dataclass
class Workload:
    batch_s: float                 # nominal batch time at the seed commit
    inputs: dict[str, str]         # file name -> contents, written at set-up
    jobs: list[Job]
    warmup: list[Job]


def _verify_job(label, size, path, hyperedges, k, free) -> Job:
    def check(out: Outcome) -> list[str]:
        if free:
            ok = out.stdout == "" and f"Berge-C{k}-free" in out.stderr
            return [] if ok else ["free input: unexpected verify output"]
        return checks.witness_errors(hyperedges, checks.parse_json(out.stdout), k)
    return Job(label, size, ["verify", "-i", path, "--k", str(k)],
               expect_exit=0 if free else 1, check=check)


def _lemmas_job(label, size, path, n, hyperedges, free, sample=None) -> Job:
    argv = ["lemmas", "-i", path]
    vertices = list(range(n))
    if sample is not None:
        size_, seed = sample
        argv += ["--sample", str(size_), "--seed", str(seed)]
        vertices = sorted(random.Random(seed).sample(range(n), min(size_, n)))
    weight = sum(max(0, len(h) - 3) for h in hyperedges)

    def check(out: Outcome) -> list[str]:
        doc = checks.parse_json(out.stdout)
        if free:
            return checks.lemma_report_errors(doc, n, vertices, weight)
        if not isinstance(doc, dict) or "berge_c4_witness" not in doc:
            return ["planted input: lemmas printed no Berge-C4 witness"]
        return checks.witness_errors(hyperedges, doc["berge_c4_witness"], 4)
    return Job(label, size, argv, expect_exit=0 if free else 1, check=check)


def _embed_job(label, size, path, out_path, hyperedges) -> Job:
    def check(out: Outcome) -> list[str]:
        return checks.embedding_errors(
            hyperedges, checks.parse_json(out.files[out_path].decode()))
    return Job(label, size, ["embed", "-i", path, "-o", out_path],
               outputs=[out_path], check=check)


def planes(seed: int, work: str) -> Workload:
    rng = random.Random(f"planes:{seed}")
    inputs: dict[str, str] = {}
    jobs: list[Job] = []
    for q, copies in ((7, 1), (5, 4), (3, 1)):
        base_n, base = blow_up(q)
        for r in range(copies):
            n, hyperedges = relabel(base_n, base, rng)
            name = f"q{q}r{r}"
            path = os.path.join(work, f"{name}.json")
            inputs[path] = hypergraph_json(n, hyperedges)
            size = f"q{q}"
            jobs.append(_verify_job(f"verify-{name}", size, path, hyperedges, 4, True))
            jobs.append(_lemmas_job(f"lemmas-{name}", size, path, n, hyperedges, True,
                                    sample=(16, rng.randrange(10**6))))
            if r == 0:
                jobs.append(_embed_job(f"embed-{name}", size, path,
                                       os.path.join(work, f"{name}.embed.json"), hyperedges))
    for q in (23, 31):
        out_path = os.path.join(work, f"construct{q}.json")

        def check(out: Outcome, q=q, out_path=out_path) -> list[str]:
            doc = checks.parse_json(out.files[out_path].decode())
            return checks.construct_errors(doc, out.stderr, q)
        jobs.append(Job(f"construct-q{q}", f"construct{q}",
                        ["construct", "--q", str(q), "--certify", "-o", out_path],
                        outputs=[out_path], check=check, seeded=False))
    values = [42, 798, 6000]
    jobs.append(Job("bounds", "bounds", ["bounds", "--n", ",".join(map(str, values))],
                    check=lambda out: checks.bounds_errors(out.stdout, values),
                    seeded=False))
    rng.shuffle(jobs)
    warmup = [job for job in jobs if job.size == "q3"][:3]
    return Workload(12.5, inputs, jobs, warmup)


def _corpus_input(shape: random.Random, order: random.Random, q: int, fraction: float,
                  spot: float, k: int | None = None):
    """A hyperedge subset of the q blow-up keeping about `fraction` of it,
    padded with isolated vertices to n = low + spot * (100 - low), where low
    is the larger of 40 and the blow-up's order, with a Berge-Ck planted when
    k is given, then relabeled.  `shape` picks
    the subset and the plant, `order` the labels and the hyperedge order."""
    base_n, base = blow_up(q)
    subset = [h for h in base if shape.random() < fraction]
    low = max(40, base_n)
    n = low + round(spot * (100 - low))
    if k is not None:
        subset = plant_cycle(n, subset, k, shape)
    return relabel(n, subset, order)


def _spread(i: int, count: int) -> float:
    """The i-th of `count` points spread evenly over [0, 1], in a fixed
    scrambled order so that neighbouring indices differ."""
    return ((i * 37) % count + 0.5) / count


def corpus(seed: int, work: str) -> Workload:
    # The seed relabels every input and orders hyperedges and jobs; which
    # hyperedges an input keeps and where a cycle is planted are the same on
    # every seed, so the batch costs about the same whatever the seed.
    rng = random.Random(f"corpus:{seed}")
    shape = random.Random("corpus:shape")
    inputs: dict[str, str] = {}
    jobs: list[Job] = []

    def add_input(name: str, n: int, hyperedges) -> str:
        path = os.path.join(work, f"{name}.json")
        inputs[path] = hypergraph_json(n, hyperedges)
        return path

    # 100 inherited-free inputs: 70 verify --k 4, 15 verify --k 5, 15 lemmas.
    for i in range(100):
        if 70 <= i < 85:
            n, hs = _corpus_input(shape, rng, 3, 0.65, _spread(i, 15))
        else:
            n, hs = _corpus_input(shape, rng, 2 + i % 2, 0.3 + 0.6 * _spread(i, 100),
                                  _spread(i, 50))
        path = add_input(f"free{i}", n, hs)
        if i < 70:
            jobs.append(_verify_job(f"verify4-free{i}", "free-k4", path, hs, 4, True))
        elif i < 85:
            jobs.append(_verify_job(f"verify5-free{i}", "free-k5", path, hs, 5, True))
        else:
            jobs.append(_lemmas_job(f"lemmas-free{i}", "free-lemmas", path, n, hs, True))
    # 100 planted inputs: 60 Berge-C4 (45 verify, 15 lemmas), 20 C3, 20 C5.
    for i in range(100):
        k = 4 if i < 60 else 3 if i < 80 else 5
        n, hs = _corpus_input(shape, rng, 2 + i % 2, 0.3 + 0.6 * _spread(i, 100),
                              _spread(i, 50), k)
        path = add_input(f"planted{i}", n, hs)
        if 45 <= i < 60:
            jobs.append(_lemmas_job(f"lemmas-planted{i}", "planted", path, n, hs, False))
        else:
            jobs.append(_verify_job(f"verify{k}-planted{i}", "planted", path, hs, k, False))
    # 40 library calls to the greedy generator (the CLI has no command for it).
    for i in range(40):
        jobs.append(_greedy_job(f"greedy{i}", 20 + (i * 17) % 41, rng.randrange(2**31)))
    rng.shuffle(jobs)
    # Warm-up: one job of each size class on inputs from a fixed seed, so
    # set-up does the same work whatever the workload seed.
    warm_rng = random.Random("corpus:warmup")
    n, hs = _corpus_input(warm_rng, warm_rng, 3, 0.6, 0.5)
    path = add_input("warmup-free", n, hs)
    planted_n, planted = _corpus_input(warm_rng, warm_rng, 2, 0.6, 0.5, 4)
    planted_path = add_input("warmup-planted", planted_n, planted)
    warmup = [_verify_job("warmup-verify4-free", "free-k4", path, hs, 4, True),
              _verify_job("warmup-verify5-free", "free-k5", path, hs, 5, True),
              _lemmas_job("warmup-lemmas-free", "free-lemmas", path, n, hs, True),
              _verify_job("warmup-verify4-planted", "planted", planted_path, planted, 4, False),
              _greedy_job("warmup-greedy", 40, 1)]
    for job in warmup:
        job.seeded = False
    return Workload(5.0, inputs, jobs, warmup)


def _greedy_job(label, n, gen_seed) -> Job:
    def call(bf):
        return bf.generators.random_greedy_hypergraph(n, (4, 8), 150, rng=gen_seed).to_json_dict()

    def check(out: Outcome) -> list[str]:
        return checks.hypergraph_errors(checks.parse_json(out.stdout), n, (4, 8))
    return Job(label, "greedy", call=call, check=check)


def search(seed: int, work: str) -> Workload:
    rng = random.Random(f"search:{seed}")
    jobs: list[Job] = []

    def cli_job(label, n, argv, max_mult, mode):
        out_path = os.path.join(work, f"{label}.jsonl")

        def check(out: Outcome) -> list[str]:
            lines = out.files[out_path].decode().splitlines()
            if len(lines) != 1:
                return [f"search wrote {len(lines)} records, want 1"]
            return checks.search_errors(json.loads(lines[0]), n, max_mult,
                                        BEST_WEIGHT[n, max_mult], NODES.get((n, max_mult, mode)))
        return Job(label, f"n{n}", ["search", "--n", str(n), *argv, "-o", out_path],
                   outputs=[out_path], check=check, seeded=False)

    for n in (5, 6):
        for max_mult in (1, 2, 3):
            for mode in ("pruned", "unpruned"):
                argv = ["--max-mult", str(max_mult)] + (["--unpruned"] if mode == "unpruned" else [])
                jobs.append(cli_job(f"search-n{n}-m{max_mult}-{mode}", n, argv, max_mult, mode))
    jobs.append(cli_job("search-n6-default", 6, [], 3, "pruned"))
    for max_mult in (1, 2, 3):
        def call(bf, max_mult=max_mult):
            result = bf.search.max_weight_exact(7, max_mult=max_mult,
                                                first_level_orbit_reps=True)
            return {"best_weight": result.best_weight, "nodes_explored": result.nodes_explored,
                    "witness": result.witness.to_json_dict()}

        def check(out: Outcome, max_mult=max_mult) -> list[str]:
            return checks.search_errors(checks.parse_json(out.stdout), 7, max_mult,
                                        BEST_WEIGHT[7, max_mult], NODES.get((7, max_mult, "orbit")))
        jobs.append(Job(f"search-n7-m{max_mult}-orbit", "n7", call=call, check=check,
                        seeded=False))
    rng.shuffle(jobs)
    warmup = [job for job in jobs if job.size == "n5"]
    return Workload(7.5, {}, jobs, warmup)


WORKLOADS = {"planes": planes, "corpus": corpus, "search": search}
