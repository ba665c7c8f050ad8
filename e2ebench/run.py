#!/usr/bin/env python3
"""End-to-end benchmark: edge list on disk -> partition on disk.

Run from the repository root:

    python3 e2ebench/run.py --workload web-sync-p4 --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --smoke

The script builds e2ebench/ (which compiles the library from src/) in
.bench_build/e2ebench, generates the workload's edge list from --seed into
.bench_work/inputs (untimed, cached per seed), and runs the C++ program
e2e_bench, which times the whole pipeline in one process, one job at a time:
read -> build -> (pack) -> delegate partition -> distributed_infomap -> write
clustering.

It prints a human-readable table, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (medians over the timed runs, tracing off); with --trace 1
they are the per-layer ones, including the span-level numbers of one extra run
with the flight recorder on. A full record of each invocation, environment
included, is written to .bench_work/results/.

nmi_truth is measured against the LFR generator's planted communities; R-MAT
plants none, so the web workloads measure it against sequential Infomap's
partition of the same graph, computed once at generation.

--smoke runs every workload once at toy size, then once with a deliberately
perturbed assignment that the output check must report as failed; it exits 0
only when both behave.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
WORK_DIR = ROOT / ".bench_work"
DEADLINE_S = 170  # the whole invocation must end within 180 s

# Why these three (BENCHMARK.json says it per workload): web-sync-p4 puts
# hubs, the sync round's swap and stage-2 merging on the critical path;
# social-async-p4 is dominated by local move search and uses the async
# engine's packed exchange; web-blocks-p1 is the same graph with no peers, so
# a comm change must not move it, and it alone times blockgraph pack/decode.
# Ranks are threads and threads_per_rank is 1, so no workload asks for more
# threads than a 4-core host has.
WORKLOADS = {
    "web-sync-p4": {"graph": "rmat", "ranks": 4, "engine": "sync", "backend": "resident"},
    "social-async-p4": {"graph": "lfr", "ranks": 4, "engine": "async", "backend": "resident"},
    "web-blocks-p1": {"graph": "rmat", "ranks": 1, "engine": "sync", "backend": "blocks"},
}

END_TO_END = [  # (name, unit)
    ("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
    ("edges_per_s", "1/s"), ("codelength_bits", "bits"),
    ("nmi_truth", "ratio"), ("peak_rss_mb", "MB"),
]
TIMED_LAYERS = [  # medians over the untraced runs
    ("graph.read_s", "s"), ("graph.build_s", "s"), ("graph.pack_s", "s"),
    ("graph.block_decode_s", "s"), ("partition.delegate_s", "s"),
    ("core.stage1_s", "s"), ("core.stage2_s", "s"),
    ("core.outside_stages_s", "s"), ("core.find_s", "s"), ("core.hub_s", "s"),
    ("core.swap_s", "s"), ("core.other_s", "s"), ("io.write_s", "s"),
    ("bench.unattributed_s", "s"),
]
COUNTED_LAYERS = [  # from the first timed run; all but the model gap are exact
    # counts, identical on every run of one input
    ("graph.block_misses", "count"), ("partition.arc_imbalance", "ratio"),
    ("partition.ghosts_max", "count"), ("core.stage1_rounds", "count"),
    ("core.stage2_levels", "count"), ("core.moves", "count"),
    ("core.arcs_scanned.find", "count"), ("core.arcs_scanned.swap", "count"),
    ("core.delta_evals", "count"), ("core.module_updates", "count"),
    ("comm.collectives", "count"), ("comm.messages", "count"),
    ("comm.bytes", "bytes"), ("comm.packed_streams", "count"),
    ("perf.model_gap_pts", "pts"),
]
TRACED_LAYERS = [
    ("comm.wait_pct", "%"), ("core.critical_path_s", "s"),
    ("core.setup_span_s", "s"), ("core.merge_s", "s"),
    ("core.redistribute_s", "s"), ("core.projection_s", "s"),
    ("obs.overhead_pct", "%"), ("obs.anomalies", "count"),
]
PER_LAYER = TIMED_LAYERS + COUNTED_LAYERS + TRACED_LAYERS + [("fail_rate", "ratio")]
SPANS = {"Setup": "core.setup_span_s", "MergeLevel": "core.merge_s",
         "Redistribute": "core.redistribute_s",
         "FinalProjection": "core.projection_s"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining(start):
    return max(1.0, DEADLINE_S - (time.monotonic() - start))


def build():
    """Configure (once) and build e2e_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit("e2ebench: run from the repository root (src/ not found)")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise SystemExit("e2ebench: cmake not found")
    tmp = BUILD_DIR / "tmp"  # keeps the compiler's temporaries in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            [cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release", *gen],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
        if cfg.returncode != 0:
            log(cfg.stdout)
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise SystemExit("e2ebench: cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    res = subprocess.run(
        [cmake, "--build", str(BUILD_DIR), "--target", "e2e_bench", "-j", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if res.returncode != 0:
        log(res.stdout)
        raise SystemExit("e2ebench: build failed")
    return BUILD_DIR / "e2e_bench"


def generate(exe, family, size, seed, start):
    """Untimed: the workload's inputs from the seed, cached per seed."""
    inputs = WORK_DIR / "inputs" / f"{family}-{size}-{seed}"
    meta = inputs / "meta.json"
    if not meta.exists():
        tmp = inputs.with_name(inputs.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        out = subprocess.run([str(exe), "gen", family, size, str(seed), str(tmp)],
                             stdout=subprocess.PIPE, text=True,
                             timeout=remaining(start), check=True)
        (tmp / "meta.json").write_text(out.stdout)
        shutil.rmtree(inputs, ignore_errors=True)
        tmp.rename(inputs)
    return inputs, json.loads(meta.read_text())


def drive(exe, wl, inputs, seconds, trace, start, perturb=False, keep_as=None):
    """One e2e_bench process: warm-up, timed loop, optional traced run. The
    traced run's trace and profile are kept as results/<keep_as>.*.json."""
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(exe), "run", str(inputs), str(work), str(wl["ranks"]),
           wl["engine"], wl["backend"], str(seconds), str(int(trace))]
    if perturb:
        cmd.append("--perturb")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=remaining(start), check=True)
        raw = json.loads(out.stdout.strip().splitlines()[-1])
        if trace and raw.get("traced"):
            raw["traced"].update(span_seconds(work / "trace.json"))
            raw["traced"].update(profile_layers(work / "profile.json"))
            if keep_as:
                kept = WORK_DIR / "results"
                kept.mkdir(parents=True, exist_ok=True)
                for f in ("trace.json", "profile.json"):
                    shutil.move(work / f, kept / f"{keep_as}.{f}")
        return raw
    finally:
        shutil.rmtree(work, ignore_errors=True)


def span_seconds(trace_path):
    """Self time of the solver's structure spans, summed per rank; the
    slowest rank's. Redistribute nests inside MergeLevel, so MergeLevel's
    self time excludes it and the two add up."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    per_rank, stacks = {}, {}
    for e in events:
        stack = stacks.setdefault(e.get("tid"), [])
        if e["ph"] == "B":
            stack.append([e, 0.0])  # (begin event, nested structure-span time)
        elif e["ph"] == "E":
            b, nested = stack.pop()
            if b["name"] not in SPANS:
                continue
            dur = (e["ts"] - b["ts"]) * 1e-6
            key = (SPANS[b["name"]], e["tid"])
            per_rank[key] = per_rank.get(key, 0.0) + dur - nested
            outer = next((s for s in reversed(stack) if s[0]["name"] in SPANS), None)
            if outer is not None:
                outer[1] += dur
    return {m: max([v for (k, _), v in per_rank.items() if k == m], default=0.0)
            for m in SPANS.values()}


def profile_layers(profile_path):
    """Comm wait share and critical path from the causal-profile digest."""
    d = json.loads(Path(profile_path).read_text())
    wall = sum(r["wall_us"] for r in d["ranks"])
    wait = sum(r["wait_us"] for r in d["ranks"])
    return {"comm.wait_pct": 100.0 * wait / wall if wall > 0 else 0.0,
            "core.critical_path_s": d["critical_path_us"] * 1e-6}


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def environment(raw, seed, meta):
    env = dict(raw["env"])
    env["nproc"] = os.cpu_count()
    env["seed"] = seed
    env["generated"] = meta
    env["git_commit"] = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            env["git_commit"] = git.stdout.strip()
    env["valid"] = env["build_type"] == "Release"
    return env


def metrics_of(raw, trace):
    runs = raw["runs"]
    if trace:
        out = {k: median_of(runs, k) for k, _ in TIMED_LAYERS}
        out.update({k: raw["counters"][k] for k, _ in COUNTED_LAYERS})
        traced = dict(raw["traced"])
        traced["obs.overhead_pct"] = 100.0 * (traced["solve_s"] / median_of(runs, "solve_s") - 1.0)
        out.update({k: traced[k] for k, _ in TRACED_LAYERS})
        out["fail_rate"] = raw["failed"] / raw["attempted"]
        units = dict(PER_LAYER)
    else:
        edges = raw["counters"]["graph.edges"]
        out = {k: median_of(runs, k) for k in ("wall_s", "setup_s", "solve_s", "peak_rss_mb")}
        out["edges_per_s"] = statistics.median(edges / r["wall_s"] for r in runs)
        out["codelength_bits"] = raw["check"]["codelength_bits"]
        out["nmi_truth"] = raw["check"]["nmi_truth"]
        units = dict(END_TO_END)
    return {k: {"value": out[k], "unit": units[k]} for k in units}


def report(name, wl, env, raw, metrics):
    log_lines = [
        f"workload {name}: p={wl['ranks']} {wl['engine']} {wl['backend']}, "
        f"seed {env['seed']}, {raw['counters']['graph.vertices']} vertices, "
        f"{raw['counters']['graph.edges']} edges, truth: {env['generated']['truth']}",
        f"  env: nproc={env['nproc']} affinity={env['affinity_cpus']} "
        f"build={env['build_type']}{'' if env['valid'] else ' (INVALID: not Release)'} "
        f"compiler={env['compiler']} commit={env['git_commit']}",
        f"  runs: {len(raw['runs'])} timed (+1 warm-up"
        f"{', +1 traced' if 'traced' in raw else ''}), attempted {raw['attempted']}, "
        f"failed {raw['failed']}, fail_rate {raw['failed'] / raw['attempted']:.3f}",
    ]
    for f in raw["failures"]:
        log_lines.append(f"  FAILED {f['reason']}")
    for k, m in metrics.items():
        log_lines.append(f"  {k:<28} {m['value']:>16.6g} {m['unit']}")
    print("\n".join(log_lines), flush=True)


def run_workload(exe, args, start):
    wl = WORKLOADS[args.workload]
    inputs, meta = generate(exe, wl["graph"], "full", args.seed, start)
    raw = drive(exe, wl, inputs, args.seconds, args.trace, start,
                keep_as=f"{args.workload}-seed{args.seed}")
    env = environment(raw, args.seed, meta)
    correct = (raw["failed"] == 0 and env["valid"] and bool(raw["runs"])
               and (not args.trace or bool(raw.get("traced"))))
    metrics = metrics_of(raw, args.trace) if correct else {}
    if correct:
        report(args.workload, wl, env, raw, metrics)
    else:
        for f in raw["failures"]:
            log(f"FAILED {f['reason']}")
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps({"workload": args.workload, "env": env, "metrics": metrics,
                    "raw": raw}, indent=1))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


def smoke(exe, start):
    """Toy-size self-test of the pipeline and of the output check."""
    ok = True
    for name, wl in WORKLOADS.items():
        inputs, _ = generate(exe, wl["graph"], "toy", 1, start)
        raw = drive(exe, wl, inputs, 0, True, start)
        passed = raw["failed"] == 0 and bool(raw.get("traced"))
        print(f"smoke {name}: attempted {raw['attempted']}, failed {raw['failed']}"
              f" -> {'ok' if passed else 'FAIL'}")
        ok = ok and passed
    wl = WORKLOADS["web-sync-p4"]
    inputs, _ = generate(exe, wl["graph"], "toy", 1, start)
    raw = drive(exe, wl, inputs, 0, False, start, perturb=True)
    caught = raw["failed"] == raw["attempted"] and not raw["runs"]
    print(f"smoke perturbed assignment: attempted {raw['attempted']}, failed "
          f"{raw['failed']} -> {'caught' if caught else 'MISSED'}")
    for f in raw["failures"][:1]:
        print(f"  {f['reason']}")
    return 0 if ok and caught else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    exe = build()
    start = time.monotonic()  # the deadline excludes a first, cold build
    if args.smoke:
        return smoke(exe, start)
    return run_workload(exe, args, start)


if __name__ == "__main__":
    sys.exit(main())
