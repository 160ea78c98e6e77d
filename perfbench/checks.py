"""Output checks and per-instance fingerprints, run outside the timed calls.

Each check returns a list of failure messages; every message counts as one
failure.  Checks reload every written tree or kernel from its file, so they
test what a user of the CLI would get.
"""
from __future__ import annotations

import re
from fractions import Fraction

from maxleaf import graphio
from maxleaf.digraph import verify_outbranching
from maxleaf.reduce import kernelize

_KERNEL_RE = re.compile(r"^(\d+) (\d+) -> (\d+) (\d+) \((\d+) steps\)$")
_TRUE_RE = re.compile(r"^TRUE \(witness leaves=(\d+)\)$")
_REDUCED_RE = re.compile(r"^REDUCED \(n=(\d+) m=(\d+) < threshold (\d+)\)$")


def _tree_check(d, path, what):
    """Reload a tree file and verify it against the input; (leaves, failures)."""
    tree = graphio.load_tree(path)
    res = verify_outbranching(d, tree)
    if not res.ok:
        return None, [f"{what}: {res.reason}"]
    return res.leaf_count, []


def _kernel_check(path, n, m, what):
    kern = graphio.load_graph(path)
    fails = []
    if (kern.n, kern.m) != (n, m):
        fails.append(f"{what}: file has n={kern.n} m={kern.m}, printed n={n} m={m}")
    _, trace = kernelize(kern)
    if len(trace):
        fails.append(f"{what}: re-kernelizing the kernel took {len(trace)} steps")
    return fails


def check_approx(d, stdout, tree_path):
    fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    leaves = int(fields["leaves"])
    got, fails = _tree_check(d, tree_path, "approx tree")
    if got is not None and got != leaves:
        fails.append(f"approx: printed {leaves} leaves, tree file has {got}")
    lower, upper = Fraction(fields["lower"]), int(fields["upper"])
    if leaves < lower:
        fails.append(f"approx: {leaves} leaves below the printed lower bound {lower}")
    return {"leaves": leaves, "chosen": fields["chosen"], "upper": upper}, fails


def check_kernelize(stdout, kernel_path):
    m = _KERNEL_RE.match(stdout.strip())
    if not m:
        return None, [f"kernelize: unparsable output {stdout!r}"]
    _, _, kn, km, steps = map(int, m.groups())
    return {"n": kn, "m": km, "steps": steps}, _kernel_check(kernel_path, kn, km, "kernel")


def check_decide(d, stdout, k, witness_path, kernel_path):
    line = stdout.strip()
    m = _TRUE_RE.match(line)
    if m:
        leaves = int(m.group(1))
        got, fails = _tree_check(d, witness_path, "decide witness")
        if got is not None and got != leaves:
            fails.append(f"decide: printed {leaves} leaves, witness file has {got}")
        if leaves < k:
            fails.append(f"decide: TRUE witness has {leaves} < k={k} leaves")
        return {"verdict": "TRUE", "leaves": leaves}, fails
    m = _REDUCED_RE.match(line)
    if m:
        kn, km, threshold = map(int, m.groups())
        fails = _kernel_check(kernel_path, kn, km, "decide kernel")
        if kn >= threshold:
            fails.append(f"decide: REDUCED kernel n={kn} not below threshold {threshold}")
        return {"verdict": "REDUCED", "n": kn, "m": km}, fails
    if line == "FALSE":
        return {"verdict": "FALSE"}, ["decide: FALSE on an instance connected from the root"]
    return None, [f"decide: unparsable output {stdout!r}"]


def check_exact(d, stdout, witness_path):
    value = int(stdout.strip())
    got, fails = _tree_check(d, witness_path, "exact witness")
    if got is not None and got != value:
        fails.append(f"exact: printed {value}, witness has {got} leaves")
    return {"maxleaf": value}, fails


def check_instance(inst, results):
    """Cross-command checks on one instance; results maps op -> parsed output."""
    fails = []
    approx = results.get("approx")
    if approx is None:
        return fails
    if inst.optimum is not None and approx["leaves"] > inst.optimum:
        fails.append(f"{inst.name}: approx {approx['leaves']} above the family optimum "
                     f"{inst.optimum}")
    exact = results.get("exact")
    if exact is not None:
        if not approx["leaves"] <= exact["maxleaf"] <= approx["upper"]:
            fails.append(f"{inst.name}: expected approx {approx['leaves']} <= exact "
                         f"{exact['maxleaf']} <= upper {approx['upper']}")
        decide = results.get("decide")
        if decide is not None and decide["verdict"] == "TRUE" and exact["maxleaf"] < inst.k:
            fails.append(f"{inst.name}: decide TRUE for k={inst.k} but optimum is "
                         f"{exact['maxleaf']}")
    return fails
