#!/usr/bin/env python3
"""maxleaf benchmark: seeded CLI workloads, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload approx-dense --seed 1 --seconds 20 --trace 0

It builds the workload's corpus from the seed (set-up), then drives
`maxleaf.cli.main(argv, out, err)` in-process, one call per command and
instance, in passes over the corpus until `--seconds` have elapsed.  Only
the `main` call is timed; parsing the output and checking it happen after.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
one untraced pass and two traced passes and prints per-layer metrics from
the spans.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

SETUP_REPEATS = 7
MIN_PASSES = 2
TRACED_PASSES = 2

# Metrics the last JSON line carries, with their units (see BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "leaves_total": "count",
}
PER_LAYER = {
    "cli.self_s": "s",
    "graphio.parse_s": "s",
    "graphio.format_s": "s",
    "digraph.build_calls": "count",
    "digraph.build_s": "s",
    "digraph.normalize_calls": "count",
    "digraph.normalize_s": "s",
    "digraph.dominators_calls": "count",
    "digraph.dominators_s": "s",
    "digraph.reachable_calls": "count",
    "digraph.verify_s": "s",
    "reduce.rule1_scan_s": "s",
    "reduce.rule1_fired": "count",
    "reduce.rule2_fired": "count",
    "reduce.rule3_fired": "count",
    "reduce.rule3_probes": "count",
    "reduce.rule3_yield": "arcs/probe",
    "reduce.lift_s": "s",
    "reduce.kernel_n_total": "count",
    "reduce.kernel_m_total": "count",
    "reduce.settled_ratio": "ratio",
    "stnum.two_connected_checks": "count",
    "stnum.arc_delete_yield": "arcs/check",
    "approx.chosen_bound1": "count",
    "approx.chosen_bound2": "count",
    "approx.chosen_majbound": "count",
    "exact.explored": "count",
    "trace.overhead_ratio": "ratio",
}

# Span names each workload is predicted to enter; the traced run fails its
# self-check when one of them is never entered.
EXPECTED_SPANS = {
    "approx-dense": {
        "gen.gen_random", "graphio.format_graph", "cli.main", "graphio.parse_graph",
        "approx.approximate", "digraph.normalize", "digraph.find_cutvertex",
        "digraph.dominators_from_maps", "approx.weak_bipaths", "stnum.rr_numbering",
        "stnum.reduce_indegrees", "stnum.two_disjoint_root_paths", "digraph.is_2connected",
        "bounds.bound1_tree", "bounds.bound2_tree", "bounds.vertex_cover_third",
        "bounds.acyclic_many_leaves", "approx.majbound_tree", "reduce.lift",
        "digraph.verify_outbranching", "graphio.format_tree", "digraph.RootedDigraph"},
    "kernel-sparse": {
        "gen.gen_random", "digraph.build", "digraph.normalize", "cli.main",
        "graphio.parse_graph", "reduce.kernelize", "reduce.decide",
        "digraph.find_cutvertex", "reduce.apply_rule1", "reduce.find_rule3",
        "reduce.apply_rule3", "digraph.reachable", "reduce.find_bipath4",
        "reduce.apply_rule2", "reduce.large_indegree_witness", "reduce.lift",
        "digraph.verify_outbranching", "graphio.format_graph", "graphio.format_tree"},
    "extremal": {
        "gen.gen_t_l", "gen.gen_boloney", "cli.main", "approx.approximate",
        "reduce.kernelize", "reduce.find_rule3", "reduce.find_bipath4",
        "stnum.rr_numbering", "approx.weak_bipaths", "approx.majbound_tree",
        "bounds.bound1_tree", "bounds.bound2_tree", "reduce.lift",
        "digraph.verify_outbranching"},
    "small-raw": {
        "digraph.build", "cli.main", "graphio.parse_graph", "digraph.normalize",
        "approx.approximate", "reduce.kernelize", "reduce.decide",
        "exact.maxleaf_exact", "reduce.lift", "digraph.verify_outbranching"},
}

# Counts that must repeat exactly between the two traced passes.
DETERMINISTIC_SUFFIXES = ("_calls", "_fired", "_probes", "_checks", "explored")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import maxleaf from this checkout's src/; None when it is missing."""
    if not (SRC / "maxleaf" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import maxleaf
    if Path(maxleaf.__file__).resolve().parent != (SRC / "maxleaf").resolve():
        return None
    return maxleaf


# -- calls ------------------------------------------------------------------


def argv_for(op, inst, outdir):
    base = str(outdir / inst.name)
    if op == "approx":
        return ["approx", inst.path, "--tree", base + ".approx.tree"]
    if op == "kernelize":
        return ["kernelize", inst.path, "--out", base + ".kernel.graph"]
    if op == "decide":
        return ["decide", inst.path, "-k", str(inst.k),
                "--witness", base + ".decide.tree", "--out", base + ".decide.graph"]
    if op == "exact":
        return ["exact", inst.path, "--witness", base + ".exact.tree"]
    raise ValueError(op)


def run_pass(cli, calls, tracer=None):
    """One pass over the corpus; returns (speed.Calibrated call times, outputs).

    `cli.main` is looked up on every call, so the traced wrapper is used
    while tracing is installed."""
    timing = speed.Calibrated()
    outputs = []
    for inst, _, argv in calls:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.instance = inst.name
        start = perf_counter()
        try:
            code = cli.main(argv, out, err)
        except (Exception, SystemExit) as exc:
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        timing.add(perf_counter() - start)
        outputs.append((code, out.getvalue(), err.getvalue()))
    timing.flush()
    return timing, outputs


def check_pass(checks, instances, calls, outputs, outdir):
    """Check every output of one pass; returns (parsed results, failures)."""
    from maxleaf import graphio
    parsed = {inst.name: {} for inst in instances}
    failures = []
    graphs = {}
    for (inst, op, _), (code, stdout, stderr) in zip(calls, outputs):
        if code != 0:
            failures.append(f"{inst.name} {op}: exit {code}: {stderr.strip()}")
            continue
        base = outdir / inst.name
        try:
            if inst.name not in graphs:
                graphs[inst.name] = graphio.load_graph(inst.path)
            d = graphs[inst.name]
            if op == "approx":
                res, fails = checks.check_approx(d, stdout, base.with_suffix(".approx.tree"))
            elif op == "kernelize":
                res, fails = checks.check_kernelize(stdout, base.with_suffix(".kernel.graph"))
            elif op == "decide":
                res, fails = checks.check_decide(d, stdout, inst.k,
                                                 base.with_suffix(".decide.tree"),
                                                 base.with_suffix(".decide.graph"))
            else:
                res, fails = checks.check_exact(d, stdout, base.with_suffix(".exact.tree"))
        except Exception as exc:  # a malformed output is a failed check
            res, fails = None, [f"{inst.name} {op}: check raised {type(exc).__name__}: {exc}"]
        failures.extend(f"{inst.name} {op}: {f}" for f in fails)
        if res is not None:
            parsed[inst.name][op] = res
    for inst in instances:
        failures.extend(checks.check_instance(inst, parsed[inst.name]))
    return parsed, failures


def same_outputs(first, other):
    """Number of calls whose exit code or stdout differ from the first pass."""
    return sum(1 for a, b in zip(first, other) if a[:2] != b[:2])


# -- metrics ----------------------------------------------------------------


def output_metrics(instances, parsed):
    leaves = 0
    kern_n = kern_m = 0
    decides = settled = 0
    ratios = []
    for inst in instances:
        res = parsed[inst.name]
        if "approx" in res:
            leaves += res["approx"]["leaves"]
            opt = inst.optimum if inst.optimum is not None else res.get("exact", {}).get("maxleaf")
            if opt is not None:
                ratios.append(opt / res["approx"]["leaves"])
        if "kernelize" in res:
            kern_n += res["kernelize"]["n"]
            kern_m += res["kernelize"]["m"]
        if "decide" in res:
            decides += 1
            if res["decide"]["verdict"] != "REDUCED":
                settled += 1
            if res["decide"]["verdict"] == "TRUE":
                leaves += res["decide"]["leaves"]
    out = {"leaves_total": leaves}
    if any("kernelize" in parsed[i.name] for i in instances):
        out["kernel_n_total"] = kern_n
        out["kernel_m_total"] = kern_m
    if decides:
        out["settled_ratio"] = settled / decides
    if ratios:
        out["opt_ratio_max"] = max(ratios)
    return out


def fingerprint(instances, parsed):
    rows = {}
    for inst in instances:
        res = parsed[inst.name]
        row = {}
        if "approx" in res:
            row["approx_leaves"] = res["approx"]["leaves"]
            row["approx_chosen"] = res["approx"]["chosen"]
        if "kernelize" in res:
            row["kernel"] = [res["kernelize"]["n"], res["kernelize"]["m"]]
        if "decide" in res:
            row["decide"] = res["decide"]["verdict"]
            if "leaves" in res["decide"]:
                row["decide_leaves"] = res["decide"]["leaves"]
        if "exact" in res:
            row["exact"] = res["exact"]["maxleaf"]
        rows[inst.name] = row
    return rows


def layer_metrics(tr, spans, counts, setup_spans, scale):
    """Every per-layer metric, from one traced pass and the traced set-up;
    times are multiplied by `scale`, the pass's host-speed factor."""
    table = tr.summarize(spans)
    setup = tr.summarize(setup_spans)

    def incl(name, src=table):
        return src.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    probes = tr.count_under(spans, "digraph.reachable", {"reduce.find_rule3"})
    checks_2c = tr.count_under(spans, "digraph.is_2connected", {"stnum.reduce_indegrees"})
    m = {
        "cli.self_s": sum(v["self_s"] for k, v in table.items() if k.startswith("cli.")),
        "graphio.parse_s": incl("graphio.parse_graph") + incl("graphio.parse_tree"),
        "graphio.format_s": (incl("graphio.format_graph", setup)
                             + incl("graphio.format_tree", setup)),
        "gen.generate_s": sum(v["inclusive_s"] for k, v in setup.items()
                              if k.startswith("gen.")),
        "digraph.build_calls": calls("digraph.RootedDigraph"),
        "digraph.build_s": incl("digraph.RootedDigraph"),
        "digraph.normalize_calls": calls("digraph.normalize"),
        "digraph.normalize_s": incl("digraph.normalize"),
        "digraph.dominators_calls": calls("digraph.dominators_from_maps"),
        "digraph.dominators_s": incl("digraph.dominators_from_maps"),
        "digraph.reachable_calls": calls("digraph.reachable"),
        "digraph.verify_s": incl("digraph.verify_outbranching"),
        "reduce.rule1_scan_s": tr.time_not_under(spans, "digraph.find_cutvertex",
                                                 {"digraph.is_2connected"}),
        "reduce.rule2_scan_s": incl("reduce.find_bipath4"),
        "reduce.rule3_scan_s": incl("reduce.find_rule3"),
        "reduce.rule1_fired": calls("reduce.apply_rule1"),
        "reduce.rule2_fired": calls("reduce.apply_rule2"),
        "reduce.rule3_fired": calls("reduce.apply_rule3"),
        "reduce.rule3_probes": probes,
        "reduce.rule3_yield": calls("reduce.apply_rule3") / probes if probes else 0.0,
        "reduce.rewrite_s": sum(incl(f"reduce.apply_rule{i}") for i in (1, 2, 3)),
        "reduce.lift_s": incl("reduce.lift"),
        "reduce.witness_s": incl("reduce.large_indegree_witness"),
        "stnum.numbering_s": incl("stnum.rr_numbering"),
        "stnum.reduce_indegrees_s": incl("stnum.reduce_indegrees"),
        "stnum.two_connected_checks": checks_2c,
        "stnum.arc_delete_yield": (counts["stnum.arcs_deleted"] / checks_2c
                                   if checks_2c else 0.0),
        "stnum.disjoint_paths_s": incl("stnum.two_disjoint_root_paths"),
        "bounds.bound1_s": incl("bounds.bound1_tree"),
        "bounds.bound2_s": incl("bounds.bound2_tree"),
        "bounds.cover_s": incl("bounds.vertex_cover_third"),
        "bounds.many_leaves_s": incl("bounds.acyclic_many_leaves"),
        "approx.weak_bipaths_s": incl("approx.weak_bipaths"),
        "approx.majbound_s": incl("approx.majbound_tree"),
        "approx.chosen_bound1": counts["approx.chosen_bound1"],
        "approx.chosen_bound2": counts["approx.chosen_bound2"],
        "approx.chosen_majbound": counts["approx.chosen_majbound"],
        "exact.solve_s": incl("exact.maxleaf_exact"),
        "exact.explored": counts["exact.explored"],
    }
    for name in m:
        if name.endswith("_s"):
            m[name] *= scale
    return m, table


def unit_of(name):
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_ratio_max"):
        return "ratio"
    return END_TO_END.get(name, "count")


# -- runs -------------------------------------------------------------------


def setup(corpus, workload, seed, directory, repeats):
    """Build the corpus `repeats` times; returns (instances, manifest,
    speed.Calibrated build times).

    Later builds overwrite the files of the first one: deleting and
    re-creating hundreds of files made the build time swing by a factor of
    two with the disk's background work."""
    timing = speed.Calibrated(interval=0)
    directory.mkdir(parents=True)
    for _ in range(repeats):
        start = perf_counter()
        instances, manifest = corpus.build_corpus(workload, seed, directory)
        timing.add(perf_counter() - start)
    return instances, manifest, timing


def measure(cli, checks, instances, calls, outdir, seconds, least):
    """At least `least` untraced passes, then more while the next one is
    expected to end before `seconds` plus half a pass.  The first pass's
    outputs are checked; later ones must repeat them."""
    passes, failures = [], []
    first = parsed = None
    elapsed = 0.0
    while len(passes) < least or elapsed * (1 + 0.5 / len(passes)) < seconds:
        start = perf_counter()
        timing, outputs = run_pass(cli, calls)
        elapsed += perf_counter() - start
        passes.append(timing)
        if first is None:
            first = outputs
            parsed, failures = check_pass(checks, instances, calls, outputs, outdir)
        else:
            failures.extend(["output differs from the first pass"]
                            * same_outputs(first, outputs))
    return passes, first, parsed, failures


def main(argv=None):
    args = parse_args(argv)
    maxleaf = import_package()
    if maxleaf is None:
        print(f"error: no maxleaf package under {SRC}", file=sys.stderr)
        return 2
    import checks
    import corpus
    import tracer as tr
    from maxleaf import cli

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = WORK / f"{tag}-{os.getpid()}"
    indir, outdir = rundir / "in", rundir / "out"
    try:
        return run(args, tag, indir, outdir, cli, corpus, checks, tr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def run(args, tag, indir, outdir, cli, corpus, checks, tr):
    repeats = SETUP_REPEATS if not args.trace else 1
    instances, manifest, setup_timing = setup(corpus, args.workload, args.seed, indir, repeats)
    outdir.mkdir(parents=True)
    calls = [(inst, op, argv_for(op, inst, outdir)) for inst in instances for op in inst.ops]

    passes, first, parsed, failures = measure(
        cli, checks, instances, calls, outdir, 0 if args.trace else args.seconds,
        1 if args.trace else MIN_PASSES)
    attempted = sum(len(p.raw) for p in passes)
    walls = [sum(p.scaled) for p in passes]
    times = [t for p in passes for t in p.scaled]
    outputs = output_metrics(instances, parsed)
    summary = {
        "setup_s": statistics.median(setup_timing.scaled),
        "wall_s": statistics.median(walls),
        "call_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **outputs,
    }
    if len(calls) >= 200:
        summary["call_p95_s"] = statistics.quantiles(times, n=20)[18]

    layers = table = None
    if args.trace:
        layers, table, trace_failures, traced_walls, traced_calls = traced_run(
            args, indir, outdir, instances, manifest, calls, first, cli, corpus, tr)
        failures += trace_failures
        attempted += traced_calls
        layers["trace.overhead_ratio"] = statistics.median(traced_walls) / walls[0]
        layers["reduce.kernel_n_total"] = outputs.get("kernel_n_total", 0)
        layers["reduce.kernel_m_total"] = outputs.get("kernel_m_total", 0)
        layers["reduce.settled_ratio"] = outputs.get("settled_ratio", 0.0)

    summary["fail_ratio"] = len(failures) / attempted
    fp = fingerprint(instances, parsed)
    fp_digest = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()
    manifest_digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "platform": platform.platform()},
        "manifest_sha256": manifest_digest, "manifest": manifest,
        "setup_s_each": setup_timing.scaled, "setup_raw_s_each": setup_timing.raw,
        "wall_s_each": walls, "wall_raw_s_each": [sum(p.raw) for p in passes],
        "call_s_each": [p.scaled for p in passes],
        "reference_loop_s": [t for p in passes for t in p.samples],
        "calls_per_pass": len(calls), "attempted": attempted,
        "failures": failures, "summary": summary, "fingerprint_sha256": fp_digest,
        "fingerprint": fp, "layers": layers, "spans": table,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    env = report["environment"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']}")
    print(f"# corpus: {len(instances)} instances, manifest sha256 {manifest_digest}")
    print(f"# passes: {len(walls)} untraced, {len(calls)} calls each; "
          f"attempted={attempted} failed={len(failures)} (base: calls attempted)")
    for f in failures[:20]:
        print(f"# FAIL {f}")
    for name, value in summary.items():
        print(f"metric {name} {value!r} {unit_of(name)}")
    if layers is not None:
        for name, value in layers.items():
            print(f"layer {name} {value!r} {unit_of(name)}")
        top = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:8]
        for name, row in top:
            print(f"# self {name} {row['self_s']:.4f} s (raw) in {row['calls']} calls")
    print(f"# fingerprint sha256 {fp_digest}")

    wanted = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else summary
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def traced_run(args, indir, outdir, instances, manifest, calls, first, cli, corpus, tr):
    """Traced set-up and two traced passes; returns (layer metrics, span
    table, failures, traced pass walls, calls made)."""
    tracer = tr.Tracer()
    installed = tr.Installation(tracer)
    failures = [f"untraced binding {b}" for b in installed.stale_bindings()]
    try:
        tracer.instance = "setup"
        _, traced_manifest = corpus.build_corpus(args.workload, args.seed, indir)
        if traced_manifest != manifest:
            failures.append("traced set-up built a different corpus")
        setup_spans = tracer.spans
        passes = []
        for _ in range(TRACED_PASSES):
            tracer.reset()
            timing, outputs = run_pass(cli, calls, tracer)
            failures.extend(["traced output differs from the untraced pass"]
                            * same_outputs(first, outputs))
            passes.append((timing, tracer.spans, tracer.counts))
    finally:
        installed.remove()

    results = [layer_metrics(tr, spans, counts, setup_spans, sum(t.scaled) / sum(t.raw))
               for t, spans, counts in passes]
    entered = set(results[0][1]) | set(tr.summarize(setup_spans))
    for name in sorted(EXPECTED_SPANS[args.workload] - entered):
        failures.append(f"span {name} never entered on {args.workload}")
    for name in results[0][0]:
        if name.endswith(DETERMINISTIC_SUFFIXES):
            values = [r[0][name] for r in results]
            if len(set(values)) != 1:
                failures.append(f"count {name} differs between traced passes: {values}")
    layers = {name: (statistics.median(r[0][name] for r in results)
                     if name.endswith("_s") else results[0][0][name])
              for name in results[0][0]}
    return (layers, results[0][1], failures, [sum(p[0].scaled) for p in passes],
            len(calls) * TRACED_PASSES)


if __name__ == "__main__":
    sys.exit(main())
