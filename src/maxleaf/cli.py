"""Command-line front end for instance generators, kernelization, decision,
approximation, exact solving, verification and benchmarking.

Exit codes: 0 success, 1 tree rejected by `verify`, 2 malformed input (a
missing, unreadable or unwritable file, such as a directory or a file
without permission, or bad graph/tree text), 3 infeasible instance (a vertex
is unreachable from the root), 4 internal error (an invariant violation or
any other unexpected ValueError), 5 unmet precondition (well-formed input the
command does not accept: an instance above the `exact` limit, k < 1, a
generator parameter out of range, a `bench` count below 1).

Every command but `gen` looks for a spanning out-tree, which a graph file
with fewer than n - 1 arcs lacks for every root; `graphio.load_graph`
reads such a file as None without building its n vertices.  `verify`
then reads the tree file, prints `INVALID: the graph has fewer than n - 1
arcs, so no out-tree spans it` and exits 1, and every other command
answers as on the two-vertex digraph without arcs, which has no spanning
out-tree either (`approx`, `kernelize` and `exact` exit 3, `decide` prints
FALSE).
"""
from __future__ import annotations

import argparse
import sys

from . import graphio
from .approx import approximate, approximate_each_root
from .digraph import build, verify_outbranching
from .errors import (GraphFormatError, InfeasibleError, InternalInvariantError,
                     PreconditionError)
from .exact import DEFAULT_LIMIT, maxleaf_exact
from .gen import FAMILIES, GenSpec, generate
from .reduce import decide, kernelize

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4
EXIT_PRECONDITION = 5


def _save(text, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _save_kernel(args, reduced, trace):
    """Write the kernel to `--out` and its trace to `--trace`, each when
    given."""
    if args.out:
        _save(graphio.format_graph(reduced), args.out)
    if args.trace:
        _save(trace.to_text(), args.trace)


def _load(path):
    """The digraph of a graph file; the two-vertex digraph without arcs for
    a file with fewer than n - 1 arcs (module docstring)."""
    return graphio.load_graph(path) or build(2, 0, ())


def cmd_gen(args, out, err):
    spec = GenSpec(args.family, args.size if args.family != "random" else args.n,
                   seed=args.seed, arc_probability=args.p)
    d = generate(spec)
    text = graphio.format_graph(d)
    if args.out:
        _save(text, args.out)
    else:
        out.write(text)
    if args.dot:
        _save(graphio.to_dot(d), args.dot)
    return EXIT_OK


def cmd_kernelize(args, out, err):
    d = _load(args.graph)
    reduced, trace = kernelize(d)
    _save_kernel(args, reduced, trace)
    out.write(f"{d.n} {d.m} -> {reduced.n} {reduced.m} ({len(trace)} steps)\n")
    return EXIT_OK


def cmd_decide(args, out, err):
    d = _load(args.graph)
    decision = decide(d, args.k)
    if decision.verdict == "TRUE":
        out.write(f"TRUE (witness leaves={decision.witness.leaf_count})\n")
        if args.witness:
            _save(graphio.format_tree(decision.witness), args.witness)
    elif decision.verdict == "FALSE":
        out.write("FALSE\n")
    else:
        out.write(f"REDUCED (n={decision.reduced.n} m={decision.reduced.m}"
                  f" < threshold {decision.threshold})\n")
        _save_kernel(args, decision.reduced, decision.trace)
    return EXIT_OK


def cmd_approx(args, out, err):
    d = _load(args.graph)
    if args.all_roots:
        best = None
        for root, tree, report in approximate_each_root(d):
            if best is None or tree.leaf_count > best[1].leaf_count:
                best = (root, tree, report)
        if best is None:
            raise InfeasibleError("no root reaches every vertex")
        root, tree, report = best
        out.write(f"root={root}\n")
    else:
        tree, report = approximate(d)
    out.write(report.format())
    out.write(f"leaves={tree.leaf_count}\n")
    if args.tree:
        _save(graphio.format_tree(tree), args.tree)
    if args.dot:
        _save(graphio.to_dot(d, tree=tree), args.dot)
    return EXIT_OK


def cmd_exact(args, out, err):
    d = _load(args.graph)
    result = maxleaf_exact(d, limit=args.limit)
    out.write(f"{result.maxleaf}\n")
    if args.witness:
        _save(graphio.format_tree(result.witness), args.witness)
    return EXIT_OK


def cmd_verify(args, out, err):
    d = graphio.load_graph(args.graph)
    t = graphio.load_tree(args.tree)
    if d is None:
        out.write("INVALID: the graph has fewer than n - 1 arcs, so no out-tree spans it\n")
        return 1
    check = verify_outbranching(d, t)
    if check.ok:
        out.write(f"OK leaves={check.leaf_count}\n")
        return EXIT_OK
    out.write(f"INVALID: {check.reason}\n")
    return 1


def cmd_bench(args, out, err):
    if args.count < 1:
        raise PreconditionError("--count must be at least 1")
    rows = []
    for i in range(args.count):
        if args.family == "random":
            spec = GenSpec("random", args.n, seed=args.seed + i, arc_probability=args.p)
        else:
            spec = GenSpec(args.family, args.size + i, seed=args.seed)
        d = generate(spec)
        tree, report = approximate(d)
        exact = maxleaf_exact(d, limit=args.limit).maxleaf
        ratio = exact / tree.leaf_count
        rows.append((i, d.n, d.m, report.l, report.h, exact, tree.leaf_count, ratio))
    out.write("instance,n,m,l,h,exact,approx,ratio\n")
    worst = None
    for row in rows:
        out.write(",".join(str(x) for x in row[:7]) + f",{row[7]:.4f}\n")
        if worst is None or row[7] > worst[7]:
            worst = row
    err.write(f"worst ratio {worst[7]:.4f} on instance {worst[0]}\n")
    return EXIT_OK


def build_parser():
    """The `maxleaf` parser and its subcommand parsers by command name."""
    parser = argparse.ArgumentParser(
        prog="maxleaf",
        description="Rooted maximum leaf outbranchings: kernelize, decide, approximate, solve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance and write the graph file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--size", type=int, default=3, help="family size parameter")
    p.add_argument("--n", type=int, default=10, help="vertex count (random family)")
    p.add_argument("--p", type=float, default=0.3, help="arc probability (random family)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output graph file (default stdout)")
    p.add_argument("--dot", help="also write a DOT rendering here")

    p = sub.add_parser("kernelize", help="reduce an instance to its rule fixpoint")
    p.add_argument("graph")
    p.add_argument("--out", help="write the reduced graph here")
    p.add_argument("--trace", help="write the reduction trace here")

    p = sub.add_parser("decide", help="decide whether k leaves are achievable, or kernelize")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--witness", help="write the witness tree here on TRUE")
    p.add_argument("--out", help="write the reduced graph here on REDUCED")
    p.add_argument("--trace", help="write the reduction trace here on REDUCED")

    p = sub.add_parser("approx", help="factor-92 approximation")
    p.add_argument("graph")
    p.add_argument("--tree", help="write the tree here")
    p.add_argument("--dot", help="write a DOT rendering with the tree bolded")
    p.add_argument("--all-roots", action="store_true",
                   help="try every vertex as root and keep the best tree")

    p = sub.add_parser("exact", help="exact maximum leaf count by exhaustive search")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.add_argument("--witness", help="write the optimal tree here")

    p = sub.add_parser("verify", help="check a (graph, tree) pair")
    p.add_argument("graph")
    p.add_argument("tree")

    p = sub.add_parser("bench", help="sweep a generator and emit CSV rows")
    p.add_argument("--family", choices=FAMILIES, default="random")
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

    return parser, sub.choices


_PARSER, _COMMANDS = build_parser()


def _parse(argv):
    """`_PARSER.parse_args(argv)`.  When the first token names a command,
    that command's parser reads the rest alone, which is all the top-level
    parser would hand it; any other argv, and one with tokens the command
    leaves over, goes through the top-level parser, so usage and errors
    come out as they do there."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        args, rest = _COMMANDS[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    args = _parse(argv)
    command = globals()["cmd_" + args.command]  # at call time, so a rebound cmd_* runs
    try:
        return command(args, out, err)
    except (GraphFormatError, OSError, UnicodeDecodeError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_FORMAT
    except InfeasibleError as exc:
        err.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except PreconditionError as exc:
        err.write(f"unmet precondition: {exc}\n")
        return EXIT_PRECONDITION
    except InternalInvariantError as exc:
        err.write(f"internal invariant violation: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:
        err.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
