"""Command-line entry point wiring the library together.

Commands:
    construct --q <prime> | --n <int> [--certify] -o FILE
    verify    -i FILE [--k K]
    embed     -i FILE -o FILE
    lemmas    -i FILE [--sample N] [--seed S]
    search    --n <int> [--max-mult M] [--unpruned] [--allow-large] [-o FILE]
    bounds    --n a,b,c

Exit status is the only success/failure channel: 0 means free/pass,
1 means a cycle or violation was found, 2 means an I/O or format problem,
an argument too large to answer (a plane order above MAX_PLANE_ORDER, a
search n above CEILING_MAX_N, a bounds n beyond the proven range of
is_prime, a lemmas n above LEMMAS_MAX_N without --sample, or a declared
size of 2^63 or more, which cannot index a list or range: OverflowError),
a search deeper than the interpreter's stack (RecursionError: verify's
closed walk runs on an explicit stack, but the exact search recurses once
per chosen hyperedge) or a run out of memory (MemoryError).  The commands
are straight-line code: main is the one place that turns OSError,
ValueError (FormatError included), RecursionError, MemoryError and
OverflowError into exit 2 with one stderr line.  An
AssertionError from a library self-check stays a traceback: it is a bug,
not an input error.

Each call is parsed once (_parse): an argv that starts with a command goes
straight to that command's parser.  An empty argv, one whose first word is
no command, one holding "--" and one with words left over take the full
parse of the top-level parser, which prints the help, usage and errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from functools import cache
from typing import Mapping, Optional, Sequence

from .berge import find_berge_cycle, is_berge_c4_free
from .constructions import (
    certify_plane_blowup_free,
    largest_fitting_prime,
    plane_blow_up_json,
    projective_plane_incidence,
    theoretical_bounds,
)
from .core import Hypergraph, dumps_canonical, load_hypergraph, loads_document
from .embedding import NotBergeC4FreeError, build_embedded_graph, verify_lemma_suite
from .search import CEILING_MAX_N, GUARD_MAX_N, check_size, max_weight_exact

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_ERROR = 2

# Run the direct Berge detector on constructions up to this many vertices.
DETECTOR_SIZE_CAP = 100

# Largest plane order construct builds: q = 97 gives about 10^6 hyperedges,
# written in 0.4-0.5 s at a peak RSS of about 26 MB as a process (Python
# 3.11, 2-vCPU host); --certify's line-list C4 test adds 0.6-0.8 s and
# takes the peak to about 50 MB.
MAX_PLANE_ORDER = 97

# lemmas without --sample refuses a declared n above that of the largest file
# construct writes: the suite sizes by the vertices on a placed edge, but the
# report has a row per vertex, and its Berge-C4 precondition
# (find_berge_cycle) allocates two lists per declared vertex in
# berge._twin_classes, the id lists and the vertex classes.
LEMMAS_MAX_N = 6 * (MAX_PLANE_ORDER * MAX_PLANE_ORDER + MAX_PLANE_ORDER + 1)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _plane_order(args: argparse.Namespace) -> int:
    """Order of the plane construct builds: --q, or the largest prime that
    fits on --n vertices.  Raises ValueError above MAX_PLANE_ORDER, checked
    before any primality test on a large value."""
    if args.q is not None:
        if args.q > MAX_PLANE_ORDER:
            raise ValueError(f"plane order {args.q} is above the largest supported "
                             f"order {MAX_PLANE_ORDER}")
        return args.q
    # No order above isqrt(n // 6) fits; at more than twice the cap a prime
    # between the two fits (Bertrand's postulate), so the answer is too big.
    if math.isqrt(max(args.n, 0) // 6) <= 2 * MAX_PLANE_ORDER:
        q = largest_fitting_prime(args.n)
        if q is None:
            raise ValueError(f"need n >= 42 for the smallest plane blow-up, got {args.n}")
        if q <= MAX_PLANE_ORDER:
            return q
    raise ValueError(f"n={args.n} fits a plane above the largest supported "
                     f"order {MAX_PLANE_ORDER}")


def cmd_construct(args: argparse.Namespace) -> int:
    """Write the 3-fold blow-up of PG(2, q) as canonical JSON.

    plane_blow_up_json yields the text straight from the plane's line
    lists, one piece per point, with no row tuple and no JSON encoder, and
    the file takes the pieces as they come, so the whole text is never
    held in memory.  The stderr counts follow from the same lists: one
    hyperedge per incidence, each of weight 6 - 3.
    certify_plane_blowup_free reads the lists too, so the plane's graph is
    never built.  Up to DETECTOR_SIZE_CAP vertices the pieces are joined
    once, and the direct detector runs on the Hypergraph loaded from that
    text, the text then written, so it checks the writer too.
    PlaneIncidence's check of its line lists is the one validation: every
    line index is below N = q^2 + q + 1, so every plane vertex u is below
    2N and every copy 3u + 2 below 6N <= n.
    """
    q = _plane_order(args)
    plane = projective_plane_incidence(q)
    n = 6 * len(plane.points) if args.n is None else args.n  # isolated padding
    pieces = plane_blow_up_json(plane, n)
    if args.certify:
        certificate = certify_plane_blowup_free(plane)
        print(f"certificate: {json.dumps(certificate.to_json_dict())}", file=sys.stderr)
        if not certificate.certified:
            return EXIT_FOUND
        if n <= DETECTOR_SIZE_CAP:
            pieces = ["".join(pieces)]
            if not is_berge_c4_free(Hypergraph.from_json_dict(loads_document(pieces[0]))):
                print("detector disagrees with certificate", file=sys.stderr)
                return EXIT_FOUND
            print("detector: Berge-C4-free confirmed", file=sys.stderr)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
    edges = sum(map(len, plane.lines_through))
    print(f"wrote n={n} hyperedges={edges} weight={3 * edges} (q={q}) to {args.output}",
          file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    witness = find_berge_cycle(load_hypergraph(args.input), args.k)
    if witness is None:
        print(f"Berge-C{args.k}-free", file=sys.stderr)
        return EXIT_OK
    print(dumps_canonical(witness.to_json_dict()), end="")
    return EXIT_FOUND


def cmd_embed(args: argparse.Namespace) -> int:
    colored = build_embedded_graph(load_hypergraph(args.input))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(colored.to_json_dict()))
    print(f"wrote {len(colored.colored_edges)} colored edges to {args.output}",
          file=sys.stderr)
    return EXIT_OK


def cmd_lemmas(args: argparse.Namespace) -> int:
    if args.sample is not None and args.sample < 0:
        raise ValueError(f"--sample must be >= 0, got {args.sample}")
    hypergraph = load_hypergraph(args.input)
    if args.sample is None and hypergraph.n > LEMMAS_MAX_N:
        raise ValueError(f"n={hypergraph.n} is above {LEMMAS_MAX_N}, the largest n construct "
                         f"writes; check a sample of vertices with --sample")
    vertices = None
    if args.sample is not None:
        rng = random.Random(args.seed)
        count = min(args.sample, hypergraph.n)
        vertices = sorted(rng.sample(range(hypergraph.n), count))
    try:
        suite = verify_lemma_suite(hypergraph, vertices=vertices)
    except NotBergeC4FreeError as exc:
        print(dumps_canonical({"berge_c4_witness": exc.witness.to_json_dict()}), end="")
        return EXIT_FOUND
    report = {
        "seed": args.seed,
        "sample": args.sample,
        "observation1": suite.observation1.to_json_dict(),
        "lemma_suite": suite.to_json_dict(),
    }
    print(dumps_canonical(report), end="")
    return EXIT_OK if suite.ok else EXIT_FOUND


def _check_appendable(path: str) -> None:
    """Raise OSError unless path opens for appending.  A file this creates
    is removed again, so a run that fails later leaves none behind."""
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def cmd_search(args: argparse.Namespace) -> int:
    check_size(args.n, args.allow_large, "--allow-large")
    # an unwritable -o is found before the search, not after it
    _check_appendable(args.output)
    start = time.perf_counter()
    result = max_weight_exact(
        args.n,
        max_mult=args.max_mult,
        pruned=not args.unpruned,
        allow_large=args.allow_large,
    )
    elapsed = time.perf_counter() - start
    record = {
        "n": result.n,
        "best_weight": result.best_weight,
        "witness": result.witness.to_json_dict(),
        "nodes_explored": result.nodes_explored,
        "exhaustive": True,
        "max_mult": args.max_mult,
        "pruned": not args.unpruned,
        "wall_time_s": round(elapsed, 6),
    }
    with open(args.output, "a", encoding="utf-8") as fh:
        fh.write(dumps_canonical(record))
    print(f"n={result.n} best_weight={result.best_weight} "
          f"nodes={result.nodes_explored} expanded={result.expanded} "
          f"closing_masks={result.closing_masks} "
          f"distinct_closings={result.distinct_closings} wide_leaves={result.wide_leaves} "
          f"({elapsed:.3f}s) -> {args.output}",
          file=sys.stderr)
    return EXIT_OK


def _bounds_row(n: int) -> str:
    """One row of the bounds table; ValueError for an n whose plane order
    is beyond the range is_prime decides.  That check comes first, and it
    keeps n ** 1.5 far inside float range."""
    construction = ""
    ratio = ""
    if n >= 42:
        # weight of lower_bound_construction(n): 3 per edge of PG(2, q)
        q = largest_fitting_prime(n)
        built_weight = 3 * (q * q + q + 1) * (q + 1)
        construction = str(built_weight)
        ratio = f"{built_weight / n ** 1.5:.4f}"
    upper, lower = theoretical_bounds(n)
    exact = ""
    if n <= 5:
        exact = str(max_weight_exact(n).best_weight)
    return f"{n:>6} {upper:>12.2f} {lower:>12.2f} {exact:>7} {construction:>13} {ratio:>8}"


def cmd_bounds(args: argparse.Namespace) -> int:
    try:
        values = [int(part) for part in args.n.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"--n wants a comma-separated integer list, got {args.n!r}") from None
    if not values:
        raise ValueError(f"--n wants at least one vertex count, got {args.n!r}")
    for n in values:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
    rows = []
    for n in values:  # every row is computed before anything is printed
        try:
            rows.append(_bounds_row(n))
        except ValueError as exc:
            raise ValueError(f"n={n}: {exc}") from None
    print("asymptotic comparators (o(1) terms dropped)", file=sys.stderr)
    header = f"{'n':>6} {'upper':>12} {'lower':>12} {'exact':>7} {'construction':>13} {'ratio':>8}"
    print(header)
    for row in rows:
        print(row)
    return EXIT_OK


@cache
def _parsers() -> tuple[argparse.ArgumentParser, Mapping[str, argparse.ArgumentParser]]:
    """The `berge` parser and its command parsers by name, the map
    add_subparsers returns as its choices, built once per process:
    parse_args keeps no state between calls and returns a new namespace
    each time."""
    parser = argparse.ArgumentParser(
        prog="berge",
        description="Construct, detect, and verify Berge-C4-free hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a plane blow-up hypergraph as JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int, help="prime plane order; n becomes 6(q^2+q+1)")
    group.add_argument("--n", type=int, help="target vertex count (>= 42); pads with isolated vertices")
    p.add_argument("--certify", action="store_true",
                   help="run the blow-up certificate and, size permitting, the direct detector")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("verify", help="exit 0 iff the hypergraph is Berge-Ck-free")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--k", type=int, default=4)

    p = sub.add_parser("embed", help="write the embedded colored graph as JSON")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("lemmas", help="run the observation and lemma verifiers")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--sample", type=int, default=None,
                   help="check a seeded sample of this many vertices instead of all")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search", help="exact extremal weight for small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-mult", type=int, default=3)
    p.add_argument("--unpruned", action="store_true",
                   help="disable the admissible bound (cross-check mode)")
    p.add_argument("--allow-large", action="store_true",
                   help=f"override the n <= {GUARD_MAX_N} guard, up to the "
                        f"ceiling n <= {CEILING_MAX_N}")
    p.add_argument("-o", "--output", default="search_results.jsonl",
                   help="JSON-lines results file (appended)")

    p = sub.add_parser("bounds", help="tabulate asymptotic comparators per n")
    p.add_argument("--n", required=True, help="comma-separated vertex counts")

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The `berge` parser, built once per process."""
    return _parsers()[0]


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed once, by the parser of the command it starts with: the
    top-level parser would hand that parser the same words.  An empty
    argv, a first word that is no command, an argv holding "--" (whose
    handling moved between Python versions) and one the command's parser
    leaves words over from take the full parse_args instead, so help,
    usage and every error keep their bytes."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv and "--" not in argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # looked up at each call, so the parser holds no command function
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        return _fail(str(exc))
    except RecursionError:
        return _fail(f"{args.command}: the search went deeper than the interpreter's stack allows")
    except MemoryError:
        return _fail(f"{args.command} ran out of memory")
    except OverflowError:
        return _fail(f"{args.command}: the declared size is too large to index")


if __name__ == "__main__":
    sys.exit(main())
