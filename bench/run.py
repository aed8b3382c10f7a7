"""facetkit benchmark: exact-answer workloads, timed end to end and by layer.

Run from the repository root (standard library only):

    python3 bench/run.py                     # every workload, end-to-end table
    python3 bench/run.py --workload cp29 --seed 1 --seconds 5 --trace 0
    python3 bench/run.py --workload algebra --trace 1

One workload per invocation: set up its inputs (timed in this process and in
fresh interpreters), run passes until --seconds have gone by (at least one),
check every answer exactly, then probe the known 11-vertex collapse failure
once in a child process.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  bench/README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from math import comb
from pathlib import Path

from spans import Tracer, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 11  # this process plus ten fresh interpreters
CHILD_TIMEOUT_S = 60
PROBE_VERTICES = 11
PROBE_TIMEOUT_S = 90

# (n, d, node_budget); a budget of None runs the search to exhaustion
SEARCHES = {
    "cp29": (9, 4, None),
    "budget105": (10, 5, 20_000),
    "budget115": (11, 5, 100_000),
}
WORKLOADS = (*SEARCHES, "algebra")

ISO_INPUTS = (
    "standard_sphere(6)",
    "kuehnel_complex(3)",
    "kuehnel_complex(4)",
    "kuehnel_complex(5)",
    "cyclic_complementary_complex()",
    "projective_plane_6()",
)
# Reduced integral homology, nonzero groups only, as {dimension: (rank, torsion)}.
# Kuehnel's (2d+3)-vertex complex for odd d is the twisted S^(d-1) bundle over
# S^1 (Wang sequence: H1 = Z, H(d-1) = Z/2); the standard 8-sphere has H8 = Z.
HOMOLOGY_INPUTS = {
    "kuehnel_complex(5)": {1: (1, ()), 4: (0, (2,))},
    "standard_sphere(8)": {8: (1, ())},
}
COLLAPSE_VERTICES = (9, 10)
WEAK_PM_72_CLASSES = 13

# span name -> the per-layer metric holding its self time; together these
# partition the traced wall time of a pass
SELF_TIME_METRIC = {
    "search": "search.dfs_s",
    "search.verify": "search.verify_s",
    "search.dedupe": "search.dedupe_s",
    "canonical": "canonical.s",
    "complexes.classify": "complexes.classify_s",
    "complementarity": "complementarity.s",
    "homology": "homology.self_s",
    "homology.snf": "homology.snf_s",
    "collapse": "collapse.s",
    "enumeration": "enumeration.self_s",
    "lemmas": "lemmas.self_s",
}


# -- set-up -------------------------------------------------------------------


def import_facetkit():
    """Import facetkit from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        fk = importlib.import_module("facetkit")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import facetkit from {SRC}: {exc}")
    if Path(fk.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: facetkit was imported from {fk.__file__}, not from {SRC}")
    return fk


def setup(workload: str, seed: int):
    """Import facetkit and build the workload's inputs.

    Returns (facetkit, inputs, seconds, atlas seconds)."""
    start = time.perf_counter()
    fk = import_facetkit()
    atlas_s = 0.0
    if workload in SEARCHES:
        n, d, budget = SEARCHES[workload]
        inputs = {"n": n, "d": d, "node_budget": budget}
        if budget is None:
            inputs["profile"] = fk.forced_profile(n, d).counts
    else:
        atlas_start = time.perf_counter()
        named = {
            "standard_sphere(6)": fk.standard_sphere(6),
            "standard_sphere(8)": fk.standard_sphere(8),
            "kuehnel_complex(3)": fk.kuehnel_complex(3),
            "kuehnel_complex(4)": fk.kuehnel_complex(4),
            "kuehnel_complex(5)": fk.kuehnel_complex(5),
            "cyclic_complementary_complex()": fk.cyclic_complementary_complex(),
            "projective_plane_6()": fk.projective_plane_6(),
        }
        atlas_s = time.perf_counter() - atlas_start
        rng = random.Random(seed)
        relabeled = {}
        for name in ISO_INPUTS:
            vertices = named[name].vertices
            images = list(vertices)
            rng.shuffle(images)
            relabeled[name] = fk.relabel(named[name], dict(zip(vertices, images)))
        lemmas = importlib.import_module("facetkit.lemmas")
        inputs = {
            "named": named,
            "relabeled": relabeled,
            "simplices": {n: fk.build([range(n)]) for n in COLLAPSE_VERTICES},
            "lemma_ids": [cid for cid, c in lemmas.REGISTRY.items() if c.tier == lemmas.FAST],
        }
    return fk, inputs, time.perf_counter() - start, atlas_s


def run_child(*extra: str, timeout: float) -> dict:
    """Run this script in a fresh interpreter and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *extra],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {extra} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# -- answer checks ------------------------------------------------------------


def verified_profile(facets, n: int, d: int) -> tuple[int, ...] | None:
    """The f-vector of the complex with these facet masks if it is an n-vertex
    pure d-dimensional closed weak pseudomanifold that is complementary, else
    None.  Recomputed from the masks alone, without facetkit."""
    full = (1 << n) - 1
    vertex_mask = 0
    faces: set[int] = set()
    ridges: dict[int, int] = {}
    for f in facets:
        if f.bit_count() != d + 1:
            return None
        vertex_mask |= f
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
        rest = f
        while rest:
            low = rest & -rest
            ridges[f ^ low] = ridges.get(f ^ low, 0) + 1
            rest ^= low
    if vertex_mask != full or set(ridges.values()) != {2}:
        return None
    if any((m in faces) == ((full ^ m) in faces) for m in range(1, full)):
        return None
    counts = [0] * (d + 1)
    for m in faces:
        counts[m.bit_count() - 1] += 1
    return tuple(counts)


def search_check(inputs: dict):
    n, d, budget = inputs["n"], inputs["d"], inputs["node_budget"]

    def check(report) -> str | None:
        unverified = sum(verified_profile(c, n, d) is None for c in report.classes)
        if unverified:
            return f"{unverified} reported class(es) fail re-verification"
        if budget is not None:
            if report.nodes > budget or not (report.complete or report.nodes == budget):
                return f"{report.nodes} nodes against a budget of {budget}"
            if report.classes:
                return f"{report.class_count} classes, expected 0"
            return None
        if not report.complete:
            return "search did not exhaust"
        if report.class_count != 1:
            return f"{report.class_count} classes, expected 1"
        profile = verified_profile(report.classes[0], n, d)
        euler = sum((-1) ** k * f for k, f in enumerate(profile))
        if profile != tuple(inputs["profile"]):
            return f"f-vector {profile}, expected forced_profile {tuple(inputs['profile'])}"
        if euler != 3:
            return f"Euler characteristic {euler}, expected 3"
        if profile[2] != comb(n, 3):
            return "not 3-neighbourly"
        return None

    return check


def collapse_check(n: int):
    def check(trace) -> str | None:
        if trace is None:
            return "reported not collapsible"
        if not trace.is_point or len(trace.steps) != 2 ** (n - 1) - 1:
            return f"{len(trace.steps)} collapses do not reduce the simplex to a point"
        return None

    return check


def homology_check(expected: dict):
    def check(profile) -> str | None:
        want = tuple(expected.get(k, (0, ())) for k in range(len(profile.groups)))
        return None if profile.groups == want else f"groups {profile.groups}, expected {want}"

    return check


def iso_check(fk, left, right):
    def check(cert) -> str | None:
        if cert is None:
            return "reported not isomorphic"
        if not fk.verify_isomorphism(left, right, cert.mapping):
            return "certificate fails verify_isomorphism"
        return None

    return check


def lemma_check(result) -> str | None:
    return None if result.passed else "; ".join(result.lines)


def enumeration_check(report) -> str | None:
    if not report.complete or report.class_count != WEAK_PM_72_CLASSES:
        return f"{report.class_count} classes (complete={report.complete}), expected {WEAK_PM_72_CLASSES}"
    return None


# -- workloads ----------------------------------------------------------------


def make_ops(workload: str, fk, inputs: dict) -> list[tuple]:
    """One pass: (label, span name, function, args, check) per operation.

    Complexes are copied for every pass, so no pass reuses face sets that an
    earlier pass memoized on the same object."""

    def fresh(c):
        return fk.Complex(c.facet_masks, c.vertex_mask)

    if workload in SEARCHES:
        n, d, budget = inputs["n"], inputs["d"], inputs["node_budget"]
        kwargs = {} if budget is None else {"node_budget": budget}
        label = f"search_complementary({n}, {d}" + (f", node_budget={budget})" if budget else ")")
        return [(label, "search", lambda: fk.search_complementary(n, d, **kwargs), (), search_check(inputs))]
    lemmas = importlib.import_module("facetkit.lemmas")
    ops = [
        (f"run_check({cid})", "lemmas", lemmas.run_check, (cid,), lemma_check)
        for cid in inputs["lemma_ids"]
    ]
    ops.append(
        (
            "enumerate_weak_pseudomanifolds(7, 2)",
            "enumeration",
            fk.enumerate_weak_pseudomanifolds,
            (7, 2),
            enumeration_check,
        )
    )
    for name, expected in HOMOLOGY_INPUTS.items():
        args = (fresh(inputs["named"][name]),)
        ops.append((f"homology({name})", "homology", fk.homology, args, homology_check(expected)))
    for name in ISO_INPUTS:
        left, right = fresh(inputs["named"][name]), fresh(inputs["relabeled"][name])
        check = iso_check(fk, left, right)
        ops.append((f"is_isomorphic({name}, relabeled)", "canonical", fk.is_isomorphic, (left, right), check))
    for n, simplex in inputs["simplices"].items():
        label = f"is_collapsible({n}-vertex simplex)"
        ops.append((label, "collapse", fk.is_collapsible, (fresh(simplex),), collapse_check(n)))
    return ops


def trace_targets(fk, tracer: Tracer) -> list[tuple]:
    """The module-level names each layer resolves at call time, wrapped."""
    search = importlib.import_module("facetkit.search")
    enumeration = importlib.import_module("facetkit.enumeration")
    # `facetkit.homology` is the re-exported function; fetch the module itself
    homology = importlib.import_module("facetkit.homology")
    snf = homology.smith_normal_form

    def smith_normal_form(mat):
        cells = len(mat) * (len(mat[0]) if mat else 0)
        counters = tracer.counters
        counters["homology.snf_max_cells"] = max(counters.get("homology.snf_max_cells", 0), cells)
        return snf(mat)

    w = tracer.wrap
    return [
        (search, "canonical_form", w("canonical", search.canonical_form)),
        (search, "is_complementary", w("complementarity", search.is_complementary)),
        (search, "_verify_candidate", w("search.verify", search._verify_candidate)),
        (search, "_dedupe", w("search.dedupe", search._dedupe)),
        (enumeration, "canonical_form", w("canonical", enumeration.canonical_form)),
        (enumeration, "is_acyclic", w("homology", enumeration.is_acyclic)),
        (enumeration, "is_collapsible", w("collapse", enumeration.is_collapsible)),
        (homology, "smith_normal_form", w("homology.snf", smith_normal_form)),
        (fk.Complex, "classify_pseudomanifold", w("complexes.classify", fk.Complex.classify_pseudomanifold)),
    ]


def run_pass(ops, tracer: Tracer | None = None) -> dict:
    """Time each operation, then check its answer outside the timed region."""
    rows, results = [], {}
    for label, span, fn, args, check in ops:
        start = time.perf_counter()
        try:
            result = tracer.call(span, fn, *args) if tracer else fn(*args)
        except Exception as exc:  # a raising operation is a failed one; the pass goes on
            seconds = time.perf_counter() - start
            traceback.print_exc()
            rows.append({"op": label, "s": seconds, "ok": False, "why": repr(exc)[:300]})
            continue
        seconds = time.perf_counter() - start
        why = check(result)
        if why is not None:
            print(f"bench: {label}: {why}", file=sys.stderr)
        rows.append({"op": label, "s": seconds, "ok": why is None, "why": why})
        results[span] = result
    wall_s = sum(r["s"] for r in rows)
    return {"wall_s": wall_s, "traced": tracer is not None, "ops": rows, "results": results}


def probe_main() -> None:
    """Child process: the 11-vertex simplex is collapsible, so this must
    return a trace to a point; today the recursive search raises instead."""
    fk = import_facetkit()
    simplex = fk.build([range(PROBE_VERTICES)])
    start = time.perf_counter()
    try:
        why = collapse_check(PROBE_VERTICES)(fk.is_collapsible(simplex))
        outcome = "ok" if why is None else "wrong"
    except Exception as exc:  # the known defect raises RecursionError; report, don't crash
        outcome, why = "raised", repr(exc)[:300]
    print(json.dumps({"outcome": outcome, "why": why, "s": time.perf_counter() - start}))


def run_probe() -> dict:
    try:
        return run_child("--probe", timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"outcome": "timeout", "why": f"no answer within {PROBE_TIMEOUT_S} s", "s": PROBE_TIMEOUT_S}
    except RuntimeError as exc:
        return {"outcome": "crashed", "why": str(exc)[-300:], "s": None}


# -- metrics ------------------------------------------------------------------


def layer_metrics(tracer: Tracer, traced: dict, pass_id: int, atlas_s: float) -> dict[str, tuple[float, str]]:
    summary = tracer.summary(pass_id)
    unknown = set(summary) - set(SELF_TIME_METRIC)
    if unknown:
        raise RuntimeError(f"spans without a self-time metric: {sorted(unknown)}")

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    search = traced["results"].get("search")
    enum = traced["results"].get("enumeration")
    nodes = search.nodes if search else 0
    labeled = search.labeled_count if search else 0
    leaves = calls("search.verify")
    canonical_calls = calls("canonical")
    m = {metric: (self_s(name), "s") for name, metric in SELF_TIME_METRIC.items()}
    m.update(
        {
            "search.nodes": (nodes, "count"),
            "search.labeled": (labeled, "count"),
            "search.leaves": (leaves, "count"),
            "search.leaf_yield": (labeled / leaves if search and leaves else 0.0, "ratio"),
            "search.nodes_per_dfs_s": (nodes / m["search.dfs_s"][0] if nodes else 0.0, "1/s"),
            "canonical.calls": (canonical_calls, "count"),
            "canonical.ms_per_call": (
                1000 * m["canonical.s"][0] / canonical_calls if canonical_calls else 0.0,
                "ms",
            ),
            "complexes.classify_calls": (calls("complexes.classify"), "count"),
            "complementarity.calls": (calls("complementarity"), "count"),
            "homology.snf_calls": (calls("homology.snf"), "count"),
            "homology.snf_max_cells": (tracer.counters.get("homology.snf_max_cells", 0), "count"),
            "collapse.calls": (calls("collapse"), "count"),
            "enumeration.nodes": (enum.nodes if enum else 0, "count"),
            "enumeration.labeled_per_class": (
                enum.labeled_count / enum.class_count if enum and enum.class_count else 0.0,
                "ratio",
            ),
            "lemmas.fast_tier_s": (summary.get("lemmas", {}).get("total_s", 0.0), "s"),
            "atlas.build_s": (atlas_s, "s"),
            "trace.wall_s": (traced["wall_s"], "s"),
        }
    )
    return m


def mean_metrics(per_pass: list[dict]) -> dict[str, tuple[float, str]]:
    """Average over traced passes; sums stay sums, so self times still add up.
    Counts repeat exactly from pass to pass and stay whole numbers."""
    out = {}
    for name, (_, unit) in per_pass[0].items():
        mean = statistics.fmean(p[name][0] for p in per_pass)
        out[name] = (round(mean) if unit == "count" else mean, unit)
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, inputs: dict) -> dict:
    if workload in SEARCHES:
        described = {k: inputs[k] for k in ("n", "d", "node_budget")}
        seed_effect = "none: a search depends only on (n, d, node_budget)"
    else:
        described = {
            "lemma_ids": inputs["lemma_ids"],
            "enumerate_weak_pseudomanifolds": [7, 2],
            "homology": list(HOMOLOGY_INPUTS),
            "is_isomorphic": list(ISO_INPUTS),
            "is_collapsible_vertices": list(COLLAPSE_VERTICES),
        }
        seed_effect = "drives the vertex relabelings of the is_isomorphic inputs"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "seed_effect": seed_effect,
        "inputs": dict(described, jobs=1),
    }


# -- entry points -------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    fk, inputs, own_setup_s, own_atlas_s = setup(workload, seed)
    samples = [{"setup_s": own_setup_s, "atlas_s": own_atlas_s}]
    for _ in range(SETUP_SAMPLES - 1):
        args = ("--setup-only", "--workload", workload, "--seed", str(seed))
        samples.append(run_child(*args, timeout=CHILD_TIMEOUT_S))
    setup_s = statistics.median(s["setup_s"] for s in samples)
    atlas_s = statistics.median(s["atlas_s"] for s in samples)

    tracer = Tracer() if trace else None
    reference = []
    if tracer:
        gc.collect()
        reference.append(run_pass(make_ops(workload, fk, inputs)))  # untraced, for trace.overhead_s
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        ops = make_ops(workload, fk, inputs)
        gc.collect()
        if tracer:
            tracer.pass_id = len(passes)
            with patched(trace_targets(fk, tracer)):
                passes.append(run_pass(ops, tracer))
        else:
            passes.append(run_pass(ops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = run_probe()

    executions = [row for p in reference + passes for row in p["ops"]]
    failed_ops = {row["op"] for row in executions if not row["ok"]}
    distinct_ops = len({row["op"] for row in executions}) + 1  # plus the probe
    error_rate = (len(failed_ops) + (probe["outcome"] != "ok")) / distinct_ops
    correct = not failed_ops and probe["outcome"] != "wrong"

    if tracer:
        metrics = mean_metrics([layer_metrics(tracer, p, i, atlas_s) for i, p in enumerate(passes)])
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - reference[0]["wall_s"], "s")
        attributed = sum(metrics[name][0] for name in SELF_TIME_METRIC.values())
        traced_wall = metrics["trace.wall_s"][0]
        if abs(attributed - traced_wall) > 1e-3 + 1e-4 * traced_wall:
            message = f"self times sum to {attributed:.6f} s, traced wall is {traced_wall:.6f} s"
            print(f"bench: {message}", file=sys.stderr)
            correct = False
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json", {"workload": workload, "seed": seed})
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "error_rate": (error_rate, "ratio"),
        }

    print(f"workload {workload}: seed {seed}, {len(passes)} pass(es), trace {int(trace)}")
    for p in reference + passes:
        print(f"  pass ({'traced' if p['traced'] else 'untraced'}): {p['wall_s']:.4f} s")
    setup_list = ", ".join(f"{s['setup_s']:.4f}" for s in samples)
    print(f"  set-up samples: {setup_list} s")
    print(f"  probe is_collapsible({PROBE_VERTICES}-vertex simplex): {probe['outcome']} {probe['why'] or ''}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    record = {
        "workload": workload,
        "provenance": provenance(workload, seed, inputs),
        "seconds": seconds,
        "setup_samples": samples,
        "passes": [{k: p[k] for k in ("wall_s", "traced", "ops")} for p in reference + passes],
        "probe": probe,
        "error_rate": {
            "failed_ops": sorted(failed_ops) + ([] if probe["outcome"] == "ok" else ["probe"]),
            "ops": distinct_ops,
        },
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(executions),
                "failed": sum(not row["ok"] for row in executions),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter, one after another."""
    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=180,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"]) if results else []
    print("\n" + f"{'workload':<12}" + "".join(f"{n:>26}" for n in names))
    for workload, r in results.items():
        cells = "".join(f"{r['metrics'][n]['value']:>20.6g} {r['metrics'][n]['unit']:<5}" for n in names)
        print(f"{workload:<12}{cells}")
    print(
        json.dumps(
            {
                "correct": status == 0 and all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{n}": v for w, r in results.items() for n, v in r["metrics"].items()},
            }
        )
    )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.probe:
        probe_main()
        return 0
    if args.setup_only:
        _, _, setup_s, atlas_s = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "atlas_s": atlas_s}))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
