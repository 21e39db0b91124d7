"""Command-line surface: exit statuses, file formats, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import bergefree as bf
from bergefree.cli import MAX_PLANE_ORDER, _plane_order, main
from bergefree.constructions import largest_fitting_prime
from conftest import hypergraphs
from oracles import colors_of, largest_fitting_prime_upward


def write_hypergraph(tmp_path, name, h):
    path = tmp_path / name
    bf.save_hypergraph(h, str(path))
    return str(path)


@pytest.fixture
def loose_file(tmp_path, loose_four_cycle):
    return write_hypergraph(tmp_path, "loose.json", loose_four_cycle)


def test_construct_q2_then_verify(tmp_path, capsys):
    out = tmp_path / "q2.json"
    assert main(["construct", "--q", "2", "-o", str(out)]) == 0
    h = bf.load_hypergraph(str(out))
    assert h.n == 42 and bf.weight(h) == 63
    assert main(["verify", "-i", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # no witness on a free input
    assert "Berge-C4-free" in captured.err


def test_construct_with_certificate(tmp_path, capsys):
    out = tmp_path / "q2.json"
    assert main(["construct", "--q", "2", "--certify", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert '"certified": true' in err
    assert "detector: Berge-C4-free confirmed" in err


def test_construct_certify_detects_on_the_written_text(tmp_path, capsys, monkeypatch):
    """Up to the detector cap the detector reads the text construct writes:
    a writer that appends four copies of {0, 1, 2, 3}, a Berge-C4 the
    plane's certificate cannot see, makes construct exit 1 and write no
    file."""
    import bergefree.cli
    import bergefree.constructions

    def planted(plane, n):
        *pieces, tail = bergefree.constructions.plane_blow_up_json(plane, n)
        return [*pieces, ",[0,1,2,3]" * 4 + tail]

    monkeypatch.setattr(bergefree.cli, "plane_blow_up_json", planted)
    out = tmp_path / "q3.json"
    assert main(["construct", "--q", "3", "--certify", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines()[1:] == ["detector disagrees with certificate"]
    assert '"certified": true' in captured.err.splitlines()[0]


def test_construct_by_target_n(tmp_path):
    out = tmp_path / "n50.json"
    assert main(["construct", "--n", "50", "-o", str(out)]) == 0
    h = bf.load_hypergraph(str(out))
    assert h.n == 50 and bf.weight(h) == 63


def test_construct_rejects_non_prime(tmp_path, capsys):
    assert main(["construct", "--q", "4", "-o", str(tmp_path / "x.json")]) == 2
    captured = capsys.readouterr()
    assert "prime" in captured.err
    assert captured.err == "error: q must be prime (prime powers unsupported), got 4\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q", ["4", "9"])
def test_construct_refuses_prime_powers_with_empty_stdout(tmp_path, capsys, q):
    out = tmp_path / "x.json"
    assert main(["construct", "--q", q, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: q must be prime (prime powers unsupported), got {q}\n"


CERTIFIED = 'certificate: {"certified": true, "obstruction_kind": null, "obstruction": null}\n'
DETECTED = "detector: Berge-C4-free confirmed\n"


CONSTRUCT_PINS = [
    (["--q", "2"], "1f1981b7636f009408159e901481052e8a85e837111eb9d9d703136e84354f6c",
     "", "n=42 hyperedges=21 weight=63 (q=2)"),
    (["--q", "2", "--certify"], "1f1981b7636f009408159e901481052e8a85e837111eb9d9d703136e84354f6c",
     CERTIFIED + DETECTED, "n=42 hyperedges=21 weight=63 (q=2)"),
    (["--q", "3"], "bba0423db920e9e008837e1bc8b01356375895ce72bac07e3d6e05d594fc761a",
     "", "n=78 hyperedges=52 weight=156 (q=3)"),
    (["--q", "3", "--certify"], "bba0423db920e9e008837e1bc8b01356375895ce72bac07e3d6e05d594fc761a",
     CERTIFIED + DETECTED, "n=78 hyperedges=52 weight=156 (q=3)"),
    (["--q", "5"], "7d1e6ec9d5dcb4187a14b8e060f13b9fc257edc3b4dbab26f055ca99ad10d4dc",
     "", "n=186 hyperedges=186 weight=558 (q=5)"),
    (["--q", "5", "--certify"], "7d1e6ec9d5dcb4187a14b8e060f13b9fc257edc3b4dbab26f055ca99ad10d4dc",
     CERTIFIED, "n=186 hyperedges=186 weight=558 (q=5)"),
    (["--q", "7"], "b91e26e5a4a00ce5ebc7484731f4ca7fd3fd3ccdb7dcdb0c7f31e2ad7c7e3d01",
     "", "n=342 hyperedges=456 weight=1368 (q=7)"),
    (["--q", "7", "--certify"], "b91e26e5a4a00ce5ebc7484731f4ca7fd3fd3ccdb7dcdb0c7f31e2ad7c7e3d01",
     CERTIFIED, "n=342 hyperedges=456 weight=1368 (q=7)"),
    (["--q", "13"], "d9a5edb971ede2777141456aea09e42bd50196103111da57d3839fe4e90804e6",
     "", "n=1098 hyperedges=2562 weight=7686 (q=13)"),
    (["--q", "13", "--certify"], "d9a5edb971ede2777141456aea09e42bd50196103111da57d3839fe4e90804e6",
     CERTIFIED, "n=1098 hyperedges=2562 weight=7686 (q=13)"),
    (["--q", "23"], "20e886491b7a6cd39c7d2ff828d03f9c8b3ab8a150cdb2758ff54f069841945f",
     "", "n=3318 hyperedges=13272 weight=39816 (q=23)"),
    (["--q", "23", "--certify"], "20e886491b7a6cd39c7d2ff828d03f9c8b3ab8a150cdb2758ff54f069841945f",
     CERTIFIED, "n=3318 hyperedges=13272 weight=39816 (q=23)"),
    (["--q", "31"], "a0a4c848dd31ba5922d57e13c8386fa187070cecfcf280721a46efbbd5b8a689",
     "", "n=5958 hyperedges=31776 weight=95328 (q=31)"),
    (["--q", "31", "--certify"], "a0a4c848dd31ba5922d57e13c8386fa187070cecfcf280721a46efbbd5b8a689",
     CERTIFIED, "n=5958 hyperedges=31776 weight=95328 (q=31)"),
    (["--q", "97"], "b973c27f80d3ca793a345d4d51f7898a669cb3611f1fe3b6d9d0437bb495b8e2",
     "", "n=57042 hyperedges=931686 weight=2795058 (q=97)"),
    (["--q", "97", "--certify"], "b973c27f80d3ca793a345d4d51f7898a669cb3611f1fe3b6d9d0437bb495b8e2",
     CERTIFIED, "n=57042 hyperedges=931686 weight=2795058 (q=97)"),
    (["--n", "42"], "1f1981b7636f009408159e901481052e8a85e837111eb9d9d703136e84354f6c",
     "", "n=42 hyperedges=21 weight=63 (q=2)"),
    (["--n", "50"], "e681cf5250f84eff3efa591e7516d096f7dfaf3e59690c8eae208a97cf80fcdc",
     "", "n=50 hyperedges=21 weight=63 (q=2)"),
    (["--n", "100"], "64567c06ae886f78865dff0babcac442dc47a419be46ccf313020230d2c407ee",
     "", "n=100 hyperedges=52 weight=156 (q=3)"),
    (["--n", "100", "--certify"], "64567c06ae886f78865dff0babcac442dc47a419be46ccf313020230d2c407ee",
     CERTIFIED + DETECTED, "n=100 hyperedges=52 weight=156 (q=3)"),
    (["--n", "798"], "f118352516a84223805af7ea329e1904582d88e422d19f6ef5e1c5d4f83adfa6",
     "", "n=798 hyperedges=1596 weight=4788 (q=11)"),
    (["--n", "5000"], "d5dd33aa6d897d48db398f37032dc465f9566ff643da3b9603851e20caeb66d4",
     "", "n=5000 hyperedges=13272 weight=39816 (q=23)"),
]


@pytest.mark.parametrize("argv, digest, checks, wrote", CONSTRUCT_PINS,
                         ids=["_".join(arg.lstrip("-") for arg in case[0])
                              for case in CONSTRUCT_PINS])
def test_construct_bytes_are_pinned(tmp_path, capsys, argv, digest, checks, wrote):
    """The written file and the stderr report are byte-stable; the digests
    were recorded before construct wrote its rows straight from the plane,
    and the q = 97 ones before it wrote the JSON text from the line lists."""
    out = tmp_path / "plane.json"
    assert main(["construct", *argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{checks}wrote {wrote} to {out}\n"


def test_construct_writes_rows_without_building_a_hypergraph(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("construct above the detector cap writes the rows directly")

    import bergefree.cli
    import bergefree.constructions
    import bergefree.core
    monkeypatch.setattr(bergefree.constructions, "blow_up", refuse)
    monkeypatch.setattr(bergefree.core, "save_hypergraph", refuse)
    monkeypatch.setattr(bergefree.cli, "Hypergraph", refuse)
    out = tmp_path / "q5.json"
    assert main(["construct", "--q", "5", "--certify", "-o", str(out)]) == 0
    assert bf.weight(bf.load_hypergraph(str(out))) == 558


def test_construct_writes_text_without_rows_or_the_json_encoder(tmp_path, monkeypatch):
    """Above the detector cap (n = 186 > 100) construct --certify builds no
    row tuple and never encodes JSON: the file is plane_blow_up_json's text."""
    def refuse(*args, **kwargs):
        raise AssertionError("construct above the detector cap writes the text directly")

    import bergefree.cli
    import bergefree.constructions
    import bergefree.core
    for module in (bergefree.cli, bergefree.core):
        monkeypatch.setattr(module, "dumps_canonical", refuse)
    monkeypatch.setattr(bergefree.constructions, "plane_blow_up_rows", refuse)
    out = tmp_path / "q5.json"
    assert main(["construct", "--q", "5", "--certify", "-o", str(out)]) == 0
    monkeypatch.undo()
    assert out.read_text() == bergefree.core.dumps_canonical(
        {"n": 186, "hyperedges": bf.plane_blow_up_rows(bf.projective_plane_incidence(5))})


def test_construct_builds_no_graph_and_runs_no_graph_scan(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("construct reads the plane's line lists, not its graph")

    import bergefree.berge
    import bergefree.constructions
    import bergefree.core
    monkeypatch.setattr(bergefree.core.Graph, "__post_init__", refuse)
    for module in (bergefree.berge, bergefree.constructions, bf):
        monkeypatch.setattr(module, "find_c4_in_graph", refuse)
        monkeypatch.setattr(module, "find_triangle", refuse)
    certified = tmp_path / "q5c.json"
    plain = tmp_path / "q5.json"
    assert main(["construct", "--q", "5", "--certify", "-o", str(certified)]) == 0
    assert main(["construct", "--q", "5", "-o", str(plain)]) == 0
    assert certified.read_bytes() == plain.read_bytes()
    assert bf.lower_bound_construction(200).weight == 558


def test_construct_round_trip_is_byte_stable(tmp_path):
    first = tmp_path / "a.json"
    assert main(["construct", "--q", "3", "-o", str(first)]) == 0
    second = tmp_path / "b.json"
    bf.save_hypergraph(bf.load_hypergraph(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_verify_reports_witness_with_status_one(loose_file, capsys):
    assert main(["verify", "-i", loose_file, "--k", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == [0, 1, 2, 3]
    assert sorted(doc["hyperedges"]) == [0, 1, 2, 3]


def test_verify_other_cycle_lengths(loose_file):
    assert main(["verify", "-i", loose_file, "--k", "3"]) == 0
    assert main(["verify", "-i", loose_file, "--k", "8"]) == 0


def _relabelled_blowup(q):
    """The 3-fold blow-up of PG(2, q) with shuffled vertex labels and
    hyperedge order."""
    blown = bf.blow_up(bf.projective_plane_incidence(q).graph(), 3)
    rng = random.Random(q)
    image = rng.sample(range(blown.n), blown.n)
    hyperedges = [frozenset(image[v] for v in h) for h in blown.hyperedges]
    rng.shuffle(hyperedges)
    return bf.Hypergraph(blown.n, tuple(hyperedges))


def _planted(k, seed):
    """About 70% of the q = 3 blow-up's hyperedges on 78 to 100 shuffled
    vertices, plus a Berge-Ck whose hyperedges carry 0-3 extra vertices."""
    rng = random.Random(seed)
    blown = bf.blow_up(bf.projective_plane_incidence(3).graph(), 3)
    n = rng.randint(blown.n, 100)
    image = rng.sample(range(n), blown.n)
    kept = [frozenset(image[v] for v in h) for h in blown.hyperedges if rng.random() < 0.7]
    cycle = rng.sample(range(n), k)
    for i in range(k):
        pair = {cycle[i], cycle[(i + 1) % k]}
        kept.append(frozenset(pair | set(rng.sample(range(n), rng.randint(0, 3)))))
    rng.shuffle(kept)
    return bf.Hypergraph(n, tuple(kept))


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    built = {"q3": _relabelled_blowup(3), "q5": _relabelled_blowup(5)}
    for k in (3, 5):
        for seed in (1, 2):
            built[f"c{k}s{seed}"] = _planted(k, seed)
    return {name: write_hypergraph(root, f"{name}.json", h) for name, h in built.items()}


@pytest.mark.parametrize("name, k, status, digest", [
    ("q3", 2, 1, "8bed82414167d8d83e08830c22d824131bb73aa8bbac0a7b181612c253ff2f30"),
    ("q3", 3, 1, "db2b091bd4ec2955c62791eae0304207bcd03eeae3c7b4e417351f2f1241aa39"),
    ("q3", 5, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("q3", 6, 1, "de4a1c580e843de81bdc2bd846778b7c7b82774525ccb461d657a93cddad8059"),
    ("q5", 2, 1, "13113711d5b0c1682fe53f9f0d2b13f8c1325ede03ffd3979a70f254ad0754eb"),
    ("q5", 3, 1, "958da93d750c7825cda983366adeec73c1da3d90b963d74c442263e9c78556e5"),
    ("q5", 5, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("q5", 6, 1, "5de4448afe61cd077af63c6070b005c7a7cd27906d93ff59ff6db0a65a3d5eda"),
    ("c3s1", 2, 1, "6a0084c05c7fd95f83b14ac9fbef6a2a1db6c9a4f459d3532e75b70d55242429"),
    ("c3s1", 3, 1, "4fcaf642b03cdec7124c59b8c00ca8109aa3623dbabb72f95eba08aaf6db4f82"),
    ("c3s1", 5, 1, "b3041150bda210e4295fcec666096d091597c681f03a6174bf21000daaef03b1"),
    ("c3s1", 6, 1, "589badd37b0a73685ffd4d52b411023599bd2a018a566dc93e6e6b4e330e2535"),
    ("c3s2", 2, 1, "f6aa0f8c0a60b64e9c05957def0ab2e452885a0b8ffd4b130f12a795dbad6ac9"),
    ("c3s2", 3, 1, "66ef85b13a6bf98e1432bfc5275bf3ce8a715c75f0c221ca47f3ba433ab5f686"),
    ("c3s2", 5, 1, "66139e8c3590f1e3f2df3b1d4547f68d62719992fe8e3a6f8e7accd1ecf3d86a"),
    ("c3s2", 6, 1, "e174c4a671f4565e31e13992cdaa674b79505f9c199ab993ec7a6a654b012646"),
    ("c5s1", 2, 1, "ae0caf95335a7d49241cf84be660d7210c82d8fc8fa0ffdbe8817f0e6385037a"),
    ("c5s1", 3, 1, "7aab9ccfcd0d4993efcc95e7552fd075abc77583ea651449ccb6ad8d470985ff"),
    ("c5s1", 5, 1, "51b787b62fb11b175f659cb39be9fbdfceec1759c94b4fdaec34f59ff33edae6"),
    ("c5s1", 6, 1, "6fc4fb2dc15ecf6c3d051b7dbd5a0cd3dfc0dad2429a306c4345f1cd83b3e2c9"),
    ("c5s2", 2, 1, "5e11d6552c49e4dafdbabdd3f7f406ea457e2079a620eea4a800176cb85ee512"),
    ("c5s2", 3, 1, "9a187cbc5e497d491192284ca492d9b4a7479901640a65129930103903a4b4d5"),
    ("c5s2", 5, 1, "6c0c50db01b9c431fbbc39791638826e0314c6a73d9e125255772f343bca5719"),
    ("c5s2", 6, 1, "246d8767a78b1a790aa2dd2ababc7e4200561316fe975bcdacbfafc93c9091dc"),
])
def test_verify_witness_bytes_are_pinned(pinned_inputs, capsys, name, k, status, digest):
    """verify --k K prints the same witness bytes and exit status as before
    the twin-class gate ran for every k: q3/q5 are relabelled blow-ups,
    cKsS a planted Berge-Ck on a subset of the q = 3 blow-up."""
    assert main(["verify", "-i", pinned_inputs[name], "--k", str(k)]) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _loose_cycle(length):
    """A loose C_length whose hyperedge i holds i, i + 1 and a private
    vertex, with shuffled vertex labels and hyperedge order."""
    rng = random.Random(length)
    image = rng.sample(range(2 * length), 2 * length)
    hyperedges = [frozenset({image[i], image[(i + 1) % length], image[length + i]})
                  for i in range(length)]
    rng.shuffle(hyperedges)
    return bf.Hypergraph(2 * length, tuple(hyperedges))


def _relabelled_plane_with_chord(q):
    """The incidence graph of PG(2, q) as 2-sets, plus a 2-set joining two
    points (which share a line), with shuffled vertex labels and hyperedge
    order."""
    base = bf.projective_plane_incidence(q).graph()
    count = q * q + q + 1  # points are 0..count-1
    rng = random.Random(q)
    edges = sorted(base.edges) + [tuple(rng.sample(range(count), 2))]
    image = rng.sample(range(base.n), base.n)
    hyperedges = [frozenset(image[v] for v in edge) for edge in edges]
    rng.shuffle(hyperedges)
    return bf.Hypergraph(base.n, tuple(hyperedges))


@pytest.fixture(scope="module")
def twin_free_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("twin_free")
    built = {"loose4": _loose_cycle(4), "loose5": _loose_cycle(5),
             "q3chord": _relabelled_plane_with_chord(3)}
    return {name: write_hypergraph(root, f"{name}.json", h) for name, h in built.items()}


@pytest.mark.parametrize("name, k, status, digest", [
    ("loose4", 2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loose4", 3, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loose4", 4, 1, "dc75fb05208916b6062bd4fc37483de33ab2075021e694007a042ee4e8987072"),
    ("loose4", 5, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loose4", 6, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loose5", 2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loose5", 3, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loose5", 4, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loose5", 5, 1, "fb38c72b4fb1438b8e2fe54e1a1f7dca957a8a40b6171109bdb23f7211a42b99"),
    ("loose5", 6, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("q3chord", 2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("q3chord", 3, 1, "f23ef7cc1bc727b14966022e028deb6575a853446eb1f0bcce0cbbeecc1c7193"),
    ("q3chord", 4, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("q3chord", 5, 1, "b1187d617709df0a1d5657e06b7e143c48502ab9bdbfb08057ce65e1c7021184"),
    ("q3chord", 6, 1, "8c50023fac146e9dc27d25c2ce6d212daeae9b177b78878c7421cf5b4e8ddf54"),
])
def test_verify_twin_free_witness_bytes_are_pinned(twin_free_inputs, capsys, name, k,
                                                   status, digest):
    """verify --k K prints the same witness bytes and exit status as when
    inputs without twins skipped the twin-class gate: no two vertices of
    these inputs lie in the same hyperedges."""
    assert main(["verify", "-i", twin_free_inputs[name], "--k", str(k)]) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_decides_the_q7_blowup_c5_free(tmp_path, capsys):
    src = write_hypergraph(tmp_path, "q7.json", _relabelled_blowup(7))
    assert main(["verify", "-i", src, "--k", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Berge-C5-free" in captured.err


def test_verify_decides_the_q13_construction_c5_free_without_a_hall_test(
        tmp_path, capsys, monkeypatch):
    """verify --k 5 on the file construct --q 13 writes: the start filter
    of the k != 4 gate yields no class, so the gate decides it free with no
    closed walk and no Hall test."""
    import bergefree.berge as berge
    out = tmp_path / "q13.json"
    assert main(["construct", "--q", "13", "-o", str(out)]) == 0
    capsys.readouterr()
    calls = {"walks": 0, "hall": 0}
    walk, hall = berge._closed_walk, berge._hall

    def counted_walk(*args):
        calls["walks"] += 1
        return walk(*args)

    def counted_hall(slots):
        calls["hall"] += 1
        return hall(slots)

    monkeypatch.setattr(berge, "_closed_walk", counted_walk)
    monkeypatch.setattr(berge, "_hall", counted_hall)
    assert main(["verify", "-i", str(out), "--k", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Berge-C5-free" in captured.err
    assert calls == {"walks": 0, "hall": 0}


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", "-i", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
    # every command that reads -i words a missing file the same way
    missing = tmp_path / "nope.json"
    for argv in (["verify"], ["embed", "-o", str(tmp_path / "out.json")], ["lemmas"]):
        assert main([*argv, "-i", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_verify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "hyperedges": [[0, 0]]}')
    assert main(["verify", "-i", str(bad)]) == 2
    assert "hyperedges[0]" in capsys.readouterr().err
    trailing = tmp_path / "trailing.json"
    trailing.write_text('{"n": 3,')
    assert main(["verify", "-i", str(trailing)]) == 2


# Each case is an exception a command raises and main turns into exit 2:
# argv with IN (a valid input), BAD (a malformed one), OUT (a writable
# output) and NODIR (an output in a missing directory), and the one
# stderr line, with {} standing for the NODIR path.
RAISED_TO_MAIN = [
    (["construct", "--q", "2", "-o", "NODIR"], "[Errno 2] No such file or directory: '{}'"),
    (["verify", "-i", "BAD"], "hyperedges[0]: repeated vertex in [0, 0]"),
    (["verify", "-i", "IN", "--k", "1"], "Berge cycle length must be >= 2, got 1"),
    (["embed", "-i", "IN", "-o", "NODIR"], "[Errno 2] No such file or directory: '{}'"),
    (["lemmas", "-i", "BAD"], "hyperedges[0]: repeated vertex in [0, 0]"),
    (["search", "--n", "4", "--max-mult", "0", "-o", "OUT"], "max_mult must be >= 1, got 0"),
    (["search", "--n", "4", "-o", "NODIR"], "[Errno 2] No such file or directory: '{}'"),
]


@pytest.mark.parametrize("argv, message", RAISED_TO_MAIN,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in RAISED_TO_MAIN])
def test_raised_errors_exit_two_with_one_line(tmp_path, capsys, argv, message):
    """A load, format, argument or write error raised inside a command
    exits 2 with its own message on one stderr line, nothing on stdout and
    no output file (missing inputs and a non-prime --q have their own
    tests above)."""
    (tmp_path / "in.json").write_text('{"n": 4, "hyperedges": [[0, 1, 2, 3]]}')
    (tmp_path / "bad.json").write_text('{"n": 3, "hyperedges": [[0, 0]]}')
    paths = {"IN": tmp_path / "in.json", "BAD": tmp_path / "bad.json",
             "OUT": tmp_path / "out.json", "NODIR": tmp_path / "no" / "out.json"}
    before = sorted(tmp_path.iterdir())
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and sorted(tmp_path.iterdir()) == before
    assert captured.err == f"error: {message.format(paths['NODIR'])}\n"


def test_embed_writes_colored_graph(tmp_path, capsys):
    src = write_hypergraph(tmp_path, "h.json",
                           bf.Hypergraph(6, ({0, 1, 2, 3}, {0, 1, 4, 5})))
    out = tmp_path / "cg.json"
    assert main(["embed", "-i", src, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc == {"n": 6, "edges": [[0, 1, 0], [0, 1, 1]]}
    assert colors_of(bf.ColoredGraph.from_json_dict(doc), 0, 1) == (0, 1)


def test_lemmas_pass_on_trivial_input(tmp_path, capsys):
    src = write_hypergraph(tmp_path, "h.json", bf.Hypergraph(4, ({0, 1, 2, 3},)))
    assert main(["lemmas", "-i", src]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["observation1"]["ok"] is True
    assert doc["lemma_suite"]["ok"] is True
    assert doc["lemma_suite"]["k27_free"] is True


def test_lemmas_refuse_non_free_input(loose_file, capsys):
    assert main(["lemmas", "-i", loose_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    witness = doc["berge_c4_witness"]
    assert witness["vertices"] == [0, 1, 2, 3]


def test_lemmas_sampled_run_is_seed_deterministic(tmp_path, capsys):
    built = bf.lower_bound_construction(42)
    src = write_hypergraph(tmp_path, "b.json", built.hypergraph)
    assert main(["lemmas", "-i", src, "--sample", "7", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["lemmas", "-i", src, "--sample", "7", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert len(doc["lemma_suite"]["checked_vertices"]) == 7
    assert main(["lemmas", "-i", src, "--sample", "7", "--seed", "4"]) == 0
    other = json.loads(capsys.readouterr().out)
    assert other["lemma_suite"]["checked_vertices"] != doc["lemma_suite"]["checked_vertices"]


@pytest.mark.parametrize("q, sample, digest", [
    ("2", [], "b1f01e646dbfd4a1067aef417d7b545de9e9513c6d8bf6034e62dd50b71a8073"),
    ("2", ["--sample", "10", "--seed", "5"],
     "eb204ae414bc391dc6db3e65cf91deffdf795123c56fe67a23306e4d82a7bdf1"),
    ("3", [], "e03475d2c851b63a2d9b7e5254a5e78f552569bfb9a8f7678d5bb148aaebe185"),
    ("3", ["--sample", "10", "--seed", "5"],
     "b9550c64152880a9a8437777c00f89634bc7e1fac1e84229cb43834aa0029003"),
])
def test_lemmas_report_bytes_are_pinned(tmp_path, capsys, q, sample, digest):
    """The lemma report is byte-stable: its sha256 must not drift."""
    src = tmp_path / f"q{q}.json"
    assert main(["construct", "--q", q, "-o", str(src)]) == 0
    capsys.readouterr()
    assert main(["lemmas", "-i", str(src), *sample]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_lemmas_report_bytes_are_pinned_where_g_aux_has_edges(tmp_path, capsys):
    """A greedy input on which some vertex has G_aux and G'_aux edges, so
    the K_{5,5} check and the inclusion rule run; the sha256 must not
    drift."""
    h = bf.random_greedy_hypergraph(20, (4, 8), 60, 28)
    src = write_hypergraph(tmp_path, "greedy.json", h)
    assert main(["lemmas", "-i", src]) == 0
    out = capsys.readouterr().out
    assert any(row["g_aux_prime_edges"] for row in json.loads(out)["lemma_suite"]["rows"])
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1c7dae74a25a664b5f082932b88661f51cd8ee8c2d30e48a5c932d8dda015664"


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _run_alone(argv, cwd):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from bergefree.cli import main; sys.exit(main())",
         *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120)
    return result.returncode, result.stdout, result.stderr


def test_calls_in_one_process_match_calls_alone(tmp_path):
    """The parser is built once per process: a lemmas run without --sample
    after one with it, and a good call after an argument error (exit 2),
    give the exit code, stdout and stderr each gives in a process of its
    own."""
    src = write_hypergraph(tmp_path, "h.json", bf.lower_bound_construction(42).hypergraph)
    calls = [
        ["lemmas", "-i", src, "--sample", "3"],
        ["lemmas", "-i", src],
        ["lemmas", "-i", src, "--sample", "three"],
        ["verify", "-i", src, "--k", "3"],
        ["construct", "--q", "2", "--n", "50", "-o", str(tmp_path / "out.json")],
        ["lemmas", "-i", src, "--sample", "3", "--seed", "1"],
    ]
    assert bf.cli.build_parser() is bf.cli.build_parser()
    in_process = [_run_in_process(argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 1, 2, 0]
    for argv, got in zip(calls, in_process):
        assert got == _run_alone(argv, tmp_path), argv


# Every branch of cli._parse: the command's own parser, and the full parse
# for an empty argv, a first word that is no command, "--" and words left
# over.  Each row is an argv, its exit code and a piece of its stdout or
# stderr; F is an input with a Berge-C3 and no Berge-C4, P a search output.
DISPATCH_ARGVS = [
    (["verify", "-i", "F"], 0, "Berge-C4-free"),
    (["verify", "-i", "F", "--k", "3"], 1, '{"vertices":[0,1,2],"hyperedges":[0,1,2]}'),
    ([], 2, "berge: error: the following arguments are required: command"),
    (["-h"], 0, "usage: berge [-h] {construct,verify,"),
    (["verify", "-h"], 0, "usage: berge verify [-h] -i INPUT [--k K]"),
    (["verify", "-i", "F", "-h"], 0, "usage: berge verify [-h] -i INPUT [--k K]"),
    (["verif", "-i", "F"], 2, "berge: error: argument command: invalid choice: 'verif'"),
    (["verify", "-i", "F", "--bogus"], 2, "berge: error: unrecognized arguments: --bogus"),
    (["lemmas", "-i", "F", "--sam", "3"], 0, '"seed":0,"sample":3,'),
    (["search", "--n", "5", "--max", "2", "-o", "P"], 0, "n=5 best_weight=5 nodes=43"),
    (["verify", "--", "-i", "F"], 2,
     "berge verify: error: the following arguments are required: -i/--input"),
    (["verify", "-i"], 2, "berge verify: error: argument -i/--input: expected one argument"),
    (["verify", "-i", "F", "--k", "x"], 2, "berge verify: error: argument --k: invalid int"),
    (["-x", "verify"], 2, "berge verify: error: the following arguments are required"),
]


@pytest.mark.parametrize("argv, code, text", DISPATCH_ARGVS,
                         ids=[" ".join(argv) for argv, _, _ in DISPATCH_ARGVS])
def test_each_parse_branch_matches_the_call_alone(tmp_path, monkeypatch, argv, code, text):
    """Help, usage, errors and results come out with the same exit code,
    stdout and stderr in process as in a process of their own.  The help
    is wrapped at 80 columns on both sides; search's elapsed time is
    masked, as it differs run to run."""
    monkeypatch.setenv("COLUMNS", "80")
    src = write_hypergraph(tmp_path, "h.json", bf.lower_bound_construction(42).hypergraph)
    names = {"F": src, "P": str(tmp_path / "search.jsonl")}
    argv = [names.get(a, a) for a in argv]

    def masked(run):
        code, out, err = run
        return code, out, re.sub(r"\(\d+\.\d{3}s\)", "(elapsed)", err)
    got = masked(_run_in_process(argv))
    assert got[0] == code and text in got[1] + got[2]
    assert got == masked(_run_alone(argv, tmp_path))


def test_a_valid_call_is_parsed_once(tmp_path, monkeypatch, capsys):
    """A call that starts with a command is parsed by that command's parser
    alone; the top-level parser does not classify it first."""
    src = write_hypergraph(tmp_path, "h.json", bf.lower_bound_construction(42).hypergraph)
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(["verify", "-i", src]) == 0
    assert parsed == ["berge verify"]
    assert capsys.readouterr().err == "Berge-C4-free\n"


def test_lemmas_rejects_negative_sample(tmp_path, capsys):
    src = write_hypergraph(tmp_path, "h.json", bf.Hypergraph(4, ({0, 1, 2, 3},)))
    assert main(["lemmas", "-i", src, "--sample", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_search_appends_jsonl(tmp_path, capsys):
    out = tmp_path / "results.jsonl"
    assert main(["search", "--n", "4", "-o", str(out)]) == 0
    assert main(["search", "--n", "4", "--max-mult", "1", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["best_weight"] == 3 and first["pruned"] is True
    assert second["best_weight"] == 1 and second["max_mult"] == 1
    assert first["witness"]["hyperedges"] == [[0, 1, 2, 3]] * 3
    assert "wall_time_s" in first and "nodes_explored" in first


def test_search_counters_go_to_stderr_only(tmp_path, capsys):
    """The work counters are on the stderr line; the record written to -o
    keeps its fields, so its bytes do not depend on them."""
    out = tmp_path / "results.jsonl"
    assert main(["search", "--n", "6", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("n=6 best_weight=9 nodes=1808 expanded=229 closing_masks=1580 "
                          "distinct_closings=89 wide_leaves=1381 (")
    record = json.loads(out.read_text())
    assert sorted(record) == ["best_weight", "exhaustive", "max_mult", "n", "nodes_explored",
                              "pruned", "wall_time_s", "witness"]


def test_search_unwritable_output_exits_two_before_the_search(tmp_path, capsys, monkeypatch):
    """An -o that cannot be opened for appending (here a directory) exits 2
    with one line on stderr before the search starts (max_weight_exact is
    patched to fail if it is reached).  A bad --n or --max-mult still exits
    2 and leaves no file at a writable -o."""
    import bergefree.cli

    def searched(*args, **kwargs):
        pytest.fail("the search ran before -o was checked")

    monkeypatch.setattr(bergefree.cli, "max_weight_exact", searched)
    for argv in (["--n", "5"], ["--n", "9", "--allow-large"]):
        assert main(["search", *argv, "-o", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "Is a directory" in captured.err and captured.err.count("\n") == 1
    monkeypatch.undo()
    results = tmp_path / "r.jsonl"
    for argv in (["--n", "8"], ["--n", "-1"], ["--n", "5", "--max-mult", "0"]):
        assert main(["search", *argv, "-o", str(results)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert not results.exists()


def test_search_guard_maps_to_exit_two(tmp_path, capsys):
    assert main(["search", "--n", "9", "-o", str(tmp_path / "r.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "--allow-large" in err and "n <= 7" in err
    assert "Traceback" not in err


def test_search_ceiling_maps_to_exit_two(tmp_path, capsys, monkeypatch):
    """An n above the search's ceiling exits 2 with one line on stderr and
    nothing written to -o, with --allow-large or without it, before the
    candidate universe is built (patched to raise if it is)."""
    import bergefree.search
    reached = []

    def universe(*args):
        reached.append(True)
        raise MemoryError

    monkeypatch.setattr(bergefree.search, "candidate_universe", universe)
    results = tmp_path / "r.jsonl"
    for n, flags in (("17", []), ("30", ["--allow-large"]), ("99999999999", ["--allow-large"])):
        assert main(["search", "--n", n, *flags, "-o", str(results)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not results.exists() and not reached
        assert captured.err == f"error: n={n} exceeds the search's ceiling n <= 16\n"


# Runs `berge lemmas` with the suite's projection builder
# (embedding._projection, which sizes what the suite allocates) patched to
# raise MemoryError, under a 512 MiB address-space cap set in this process
# only, so a real allocation of the declared size fails fast instead of
# filling the host's memory.  The first argument names a file the patch
# creates.
_LEMMAS_OUT_OF_MEMORY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
import bergefree.embedding as embedding
from bergefree.cli import main
reached = sys.argv.pop(1)
def out_of_memory(*args):
    open(reached, "w").close()
    raise MemoryError
embedding._projection = out_of_memory
sys.exit(main())
"""


def test_out_of_memory_maps_to_exit_two(tmp_path, capsys, monkeypatch):
    """A declared size too large to allocate for ends in exit 2 with one
    line on stderr and nothing on stdout.  The allocation that would fail
    is patched to raise MemoryError, so no real size is ever allocated;
    lemmas runs with --sample (without it, a declared n this large is
    refused before the suite runs) in a child process under an
    address-space cap, so if it allocated the declared size before the
    patched one, the test fails (the patch is never reached) rather than
    exhausting memory."""
    import bergefree.search
    big = tmp_path / "big.json"
    big.write_text('{"n":99999999999,"hyperedges":[]}')
    message = "error: {} ran out of memory\n"

    reached = tmp_path / "reached"
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LEMMAS_OUT_OF_MEMORY, str(reached), "lemmas", "-i", str(big),
         "--sample", "5"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert reached.exists() and result.stdout == ""
    assert result.stderr == message.format("lemmas")

    calls = []

    def out_of_memory(*args):
        calls.append(True)
        raise MemoryError

    monkeypatch.setattr(bergefree.search, "candidate_universe", out_of_memory)
    results = tmp_path / "r.jsonl"
    assert main(["search", "--n", "16", "--allow-large", "-o", str(results)]) == 2
    captured = capsys.readouterr()
    assert calls and captured.out == "" and not results.exists()
    assert captured.err == message.format("search")


@pytest.mark.parametrize("n", [2**63, 10**30])
def test_a_declared_n_too_large_to_index_maps_to_exit_two(tmp_path, capsys, n):
    """A declared n of 2^63 or more cannot size a list (verify's id lists)
    or a range (lemmas --sample's draw): each raises OverflowError before it
    allocates anything, and exits 2 with one stderr line and nothing on
    stdout."""
    src = tmp_path / "h.json"
    src.write_text(f'{{"n": {n}, "hyperedges": [[0,1],[1,2],[2,3],[3,0]]}}')
    for argv, command in ((["verify", "-i", str(src), "--k", "4"], "verify"),
                          (["lemmas", "-i", str(src), "--sample", "3"], "lemmas")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {command}: the declared size is too large to index\n"


@pytest.mark.parametrize("cycle", [False, True], ids=["free", "loose_cycle"])
def test_a_walk_deeper_than_the_stack_is_answered(tmp_path, capsys, cycle):
    """verify --k 1000 on 1,000 hyperedges: a loose 1000-cycle, or a
    999-cycle whose first hyperedge holds a third vertex plus one hyperedge
    apart, which has no Berge-C1000.  Both walk 1,000 steps deep, more than
    the interpreter's stack has frames; the walk and its Hall tests run on
    explicit stacks, so the cycle exits 1 with its checked witness and the
    other input exits 0."""
    if cycle:
        doc = {"n": 1000, "hyperedges": [[i, (i + 1) % 1000] for i in range(1000)]}
    else:
        doc = {"n": 1002, "hyperedges": [[0, 1, 2], *([i, i + 1] for i in range(2, 999)),
                                         [999, 0], [1000, 1001]]}
    assert len(doc["hyperedges"]) == 1000
    src = tmp_path / "h.json"
    src.write_text(json.dumps(doc))
    code = main(["verify", "-i", str(src), "--k", "1000"])
    captured = capsys.readouterr()
    if cycle:
        assert code == 1 and captured.err == ""
        found = json.loads(captured.out)
        assert found["vertices"] == list(range(1000))
        bf.validate_witness(bf.Hypergraph.from_json_dict(doc),
                            bf.BergeCycleWitness(tuple(found["vertices"]),
                                                 tuple(found["hyperedges"])))
    else:
        assert code == 0 and captured.out == ""
        assert captured.err == "Berge-C1000-free\n"


def test_a_search_deeper_than_the_stack_maps_to_exit_two(tmp_path, capsys, monkeypatch):
    """The exact search recurses once per chosen hyperedge; a RecursionError
    from it (patched in here) exits 2 with one stderr line and nothing on
    stdout, not a traceback."""
    def too_deep(*args, **kwargs):
        raise RecursionError

    monkeypatch.setattr(bf.cli, "max_weight_exact", too_deep)
    assert main(["search", "--n", "5", "-o", str(tmp_path / "r.jsonl")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: search: the search went deeper than the "
                            "interpreter's stack allows\n")


@pytest.mark.parametrize("n, sample, refused", [
    (10**6, [], True),
    (57_043, [], True),
    (57_042, [], False),
    (10**6, ["--sample", "5"], False),
])
def test_lemmas_refuses_a_declared_n_above_the_largest_construction(
        tmp_path, capsys, monkeypatch, n, sample, refused):
    """Without --sample, lemmas refuses a declared n above 57,042, the n of
    the q = 97 blow-up construct writes, with exit 2 and one stderr line
    before the suite runs.  The suite is patched to raise, so no declared
    size is ever allocated."""
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(bf.cli, "verify_lemma_suite", reached)
    src = tmp_path / "h.json"
    src.write_text(f'{{"n":{n},"hyperedges":[]}}')
    argv = ["lemmas", "-i", str(src), *sample]
    if not refused:
        with pytest.raises(Reached):
            main(argv)
        return
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: n={n} is above 57042, the largest n construct writes; "
                            f"check a sample of vertices with --sample\n")


def test_bounds_table(capsys):
    assert main(["bounds", "--n", "0,4,42"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "asymptotic" in captured.err
    row42 = next(line for line in lines if line.strip().startswith("42"))
    assert "55.56" in row42 and "63" in row42
    row4 = next(line for line in lines if line.strip().startswith("4 "))
    assert "3" in row4.split()


def test_bounds_rejects_garbage(capsys):
    assert main(["bounds", "--n", "1,two"]) == 2


@pytest.mark.parametrize("values", [",,", ""])
def test_bounds_rejects_an_empty_list(capsys, values):
    assert main(["bounds", "--n", values]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --n wants at least one vertex count, got {values!r}\n"


def test_bounds_rejects_negative_before_printing(capsys):
    assert main(["bounds", "--n", "5,-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def _bounds_row(capsys, n):
    assert main(["bounds", "--n", str(n)]) == 0
    return capsys.readouterr().out.splitlines()[1].split()


@pytest.mark.parametrize("n", [42, 100, 798, 6000])
def test_bounds_construction_column_matches_built_construction(capsys, n):
    built = bf.lower_bound_construction(n)
    assert _bounds_row(capsys, n)[-2:] == [str(built.weight), f"{built.achieved_ratio:.4f}"]


def test_bounds_builds_no_plane(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bounds must not build a plane")

    import bergefree.cli
    import bergefree.constructions
    monkeypatch.setattr(bergefree.constructions, "blow_up", refuse)
    monkeypatch.setattr(bergefree.constructions, "projective_plane_incidence", refuse)
    monkeypatch.setattr(bergefree.constructions, "plane_blow_up_rows", refuse)
    monkeypatch.setattr(bergefree.cli, "plane_blow_up_json", refuse)
    monkeypatch.setattr(bergefree.cli, "projective_plane_incidence", refuse)
    # q = 97 is the largest prime with 6(q^2+q+1) <= 60000
    assert _bounds_row(capsys, 60000)[-2] == str(3 * (97 * 97 + 97 + 1) * 98)


def test_bounds_huge_n_matches_upward_walk(capsys):
    n = 10**30
    # walk upward through a window below isqrt(n / 6), where the answer lies
    q = largest_fitting_prime_upward(n, start=math.isqrt(n // 6) - 2000)
    assert q is not None
    built_weight = 3 * (q * q + q + 1) * (q + 1)
    scale = n ** 1.5
    assert _bounds_row(capsys, n) == [str(n), f"{0.5 * scale:.2f}",
                                      f"{scale / (2 * math.sqrt(6)):.2f}",
                                      str(built_weight), f"{built_weight / scale:.4f}"]


def test_bounds_refuses_n_beyond_the_primality_range_before_printing(capsys):
    # 10^210 also overflows n ** 1.5 as a float
    assert main(["bounds", "--n", f"42,{10**210}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


# 2^61 - 1 is prime; trial division on it ran for more than 10 s.
HUGE_PRIME = 2**61 - 1


@pytest.mark.parametrize("argv", [["--q", str(HUGE_PRIME)], ["--q", str(10**210)],
                                  ["--n", str(10**30)], ["--q", "101"], ["--n", "61818"]])
def test_construct_refuses_orders_above_the_guard(tmp_path, capsys, argv):
    out = tmp_path / "big.json"
    start = time.perf_counter()
    assert main(["construct", *argv, "--certify", "-o", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and str(MAX_PLANE_ORDER) in captured.err


def test_construct_guard_runs_before_any_primality_test(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no primality test or plane build above the guard")

    import bergefree.cli
    import bergefree.constructions
    monkeypatch.setattr(bergefree.constructions, "is_prime", refuse)
    monkeypatch.setattr(bergefree.cli, "projective_plane_incidence", refuse)
    monkeypatch.setattr(bergefree.constructions, "plane_blow_up_rows", refuse)
    monkeypatch.setattr(bergefree.cli, "plane_blow_up_json", refuse)
    for argv in (["--q", str(HUGE_PRIME)], ["--n", str(10**210)]):
        assert main(["construct", *argv, "-o", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().out == ""


def test_construct_guard_refuses_exactly_the_orders_above_it():
    # 61817 is the last n whose largest fitting prime is 97 (the next is 101)
    for n in [*range(-6, 240000, 7), 61817, 61818]:
        args = argparse.Namespace(q=None, n=n)
        q = largest_fitting_prime(n)
        if q is not None and q <= MAX_PLANE_ORDER:
            assert _plane_order(args) == q, n
        else:
            with pytest.raises(ValueError):
                _plane_order(args)


# -- drawn arguments -------------------------------------------------------

HUGE = [10**12, 10**18, 2**63, -(10**18)]
ints = st.one_of(st.integers(-3, 12), st.sampled_from(HUGE))
# beyond the construct size guard, and for bounds up to beyond float range
GUARDED = [HUGE_PRIME, 10**30, 10**210]
bounds_ints = st.one_of(ints, st.sampled_from(GUARDED))
# plane orders and sizes stay small, non-prime or above the size guard: a
# large plane is real work
plane_ints = st.one_of(st.integers(-3, 6),
                       st.sampled_from([-(10**18), 10**18, 2**64, *GUARDED]))
plane_sizes = st.one_of(st.integers(-3, 60), st.sampled_from([-(10**18), *GUARDED]))

malformed_files = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(str.encode),
    st.sampled_from([
        b"", b"[]", b"3", b"null", b'"n"', b"{}", b'{"n": 3}', b'{"hyperedges": []}',
        b'{"n": -1, "hyperedges": []}', b'{"n": 3, "hyperedges": [[0, 3]]}',
        b'{"n": 3, "hyperedges": [[0, 0]]}', b'{"n": 3, "hyperedges": [[true, 1]]}',
        b'{"n": 3, "hyperedges": [[0.5, 1]]}', b'{"n": 3, "hyperedges": [["0", 1]]}',
        b'{"n": 3, "hyperedges": {"0": [0, 1]}}', b'{"n": 3, "hyperedges": [7]}',
        b'{"n": "3", "hyperedges": []}', b'{"n": 3, "hyperedges": [[0, 1]]',
        b"\xff\xfe{", b"[" * 5000 + b"]" * 5000,
        b'{"n": 1000000000000000000000000000000, "hyperedges": [[0,1],[1,2],[2,3],[3,0]]}',
    ]),
)
valid_files = hypergraphs(max_n=7, max_m=5, min_size=2, max_size=5).map(
    lambda h: json.dumps(h.to_json_dict()).encode())
files = st.one_of(valid_files, malformed_files, st.sampled_from(["missing", "directory"]))


@st.composite
def cli_arguments(draw):
    """(argv with FILE/OUT placeholders, input file content or kind,
    output file name)."""
    command = draw(st.sampled_from(["construct", "verify", "embed", "lemmas",
                                    "search", "bounds", "nonsense"]))
    argv = [command]
    if command == "construct":
        flag, values = draw(st.sampled_from([("--q", plane_ints), ("--n", plane_sizes)]))
        argv += [flag, str(draw(values))]
        if draw(st.booleans()):
            argv.append("--certify")
        argv += ["-o", "OUT"]
    elif command == "verify":
        argv += ["-i", "FILE"]
        if draw(st.booleans()):
            argv += ["--k", str(draw(ints))]
    elif command == "embed":
        argv += ["-i", "FILE", "-o", "OUT"]
    elif command == "lemmas":
        argv += ["-i", "FILE"]
        if draw(st.booleans()):
            argv += ["--sample", str(draw(ints))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(ints))]
    elif command == "search":
        argv += ["--n", str(draw(st.one_of(st.integers(-3, 6), st.just(-(10**18)))))]
        if draw(st.booleans()):
            argv += ["--max-mult", str(draw(ints))]
        if draw(st.booleans()):
            argv.append("--unpruned")
        if draw(st.booleans()):
            argv.append("--allow-large")
        argv += ["-o", "OUT"]
    elif command == "bounds":
        parts = draw(st.lists(st.one_of(bounds_ints.map(str),
                                        st.sampled_from(["", "x", "1.5", " 7"])),
                              max_size=4))
        argv += ["--n", ",".join(parts)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-o"])))
    return argv, draw(files), draw(st.sampled_from(["out.json", "no/such/dir/out.json"]))


@settings(max_examples=300)
@given(cli_arguments())
def test_cli_exit_contract_on_drawn_arguments(drawn):
    argv, content, output = drawn
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        path = root / "input.json"
        if content == "directory":
            path.mkdir()
        elif content != "missing":
            path.write_bytes(content)
        argv = [str(path) if a == "FILE" else str(root / output) if a == "OUT" else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                pytest.fail(f"{argv} raised:\n{traceback.format_exc()}")
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
