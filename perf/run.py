#!/usr/bin/env python3
"""Repository benchmark: build aio_perf, run workloads, check outputs, print metrics.

  python3 perf/run.py [--seconds S] [--trace 1]
      Every workload, one after another, each in its own process.  Prints
      `<workload> <metric> <median> <unit> q1=... q3=... n=...` per metric and
      writes an aio-perf-v1 document to perf/build/result.json.  --trace 1
      adds the traced pass and its per-layer metrics.
  python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload.  The last stdout line is one JSON object with `correct`,
      `attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
      per-layer metrics with --trace 1).
  python3 perf/run.py --compare A.json B.json
      Per workload and end-to-end metric: agree, worse or unresolved.
  python3 perf/run.py --selftest
      Corrupts one reference value and shows the operation counted as failed.
  python3 perf/run.py --rebaseline
      Rewrites perf/references.json from a run at the default seed.

Metric names, units and bounds come from BENCHMARK.json at the repo root.
The exit status is non-zero when the build fails, a workload process fails,
or (in the all-workloads mode) any output check fails.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
BINARY = BUILD / "aio_perf"
WORK = BUILD / "work"
SPEC = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"
RESULT = BUILD / "result.json"

WORKLOADS = ("jaguar_224k", "jaguar_224k_sharded", "variability_16k", "observed_65k")
# variability_16k draws its background load from the seed.  The others only
# rotate file placement over a clean machine's identical OSTs, which must not
# change any result, so their references hold at every seed.
SEEDED = {"variability_16k"}
DEFAULT_SEED = 710
CHILD_BUDGET_S = 165  # all workload processes of one invocation, build excluded

# Per-layer self-time spans, named layer.call as aio_perf records them.
BUILD_SPANS = ("fs.build", "net.build", "shard.build")
SIM_SPANS = ("engine.run", "shard.run", "mpiio.sample", "adaptive.sample", "engine.advance")
FRAC_SPANS = ("fs.build", "net.build", "shard.build", "transport.kickoff", "engine.run",
              "shard.run", "mpiio.sample", "adaptive.sample", "engine.advance", "obs.attach",
              "obs.journal_write", "obs.journal_load", "obs.analyze", "obs.trace_export")
COUNTS = ("engine.events", "net.messages", "net.bytes", "mds.ops", "protocol.steals",
          "protocol.grants", "index.blocks", "obs.records", "obs.journal_bytes",
          "obs.trace_bytes", "alloc.run_count", "shard.msgs_posted", "shard.windows_executed",
          "shard.windows_skipped", "shard.barrier_rounds")
SHARD_PARTS = ("execute", "barrier", "merge", "skip")


class BenchError(Exception):
    pass


def host_cpus():
    return len(os.sched_getaffinity(0))


def child_env():
    """The caller's environment without the simulator's AIO_* knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("AIO_")}


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources at {ROOT / 'src'}; the benchmark builds them")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(host_cpus())])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, env=child_env())
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    WORK.mkdir(parents=True, exist_ok=True)


def run_child(workload, seed, seconds, deadline, traced=False, min_reps=3):
    """Runs aio_perf for one workload and returns its JSON document."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--shards", str(min(4, host_cpus())), "--min-reps", str(min_reps),
           "--work-dir", str(WORK)]
    if traced:
        cmd += ["--traced", "--trace-out", str(BUILD / f"{workload}.trace.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: aio_perf did not finish in time") from e
    if done.returncode != 0:
        raise BenchError(f"{workload}: aio_perf exited with status {done.returncode}")
    return json.loads(done.stdout)


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)["workloads"]


def evaluate(doc, refs):
    """(attempted, failed, problems): every operation of every repetition must
    pass aio_perf's own checks, equal repetition 0, and equal the reference
    fingerprint where one applies to this seed."""
    reps = doc["reps"]
    ref = refs.get(doc["workload"])
    if ref is not None and ref["seed"] is not None and ref["seed"] != doc["seed"]:
        ref = None
    base = [op["fp"] for op in reps[0]["ops"]]
    attempted = failed = 0
    problems = []
    for rep in reps:
        for i, op in enumerate(rep["ops"]):
            attempted += 1
            why = op["error"]
            if not why and op["fp"] != base[i]:
                why = "differs from repetition 0"
            if not why and ref is not None and (i >= len(ref["ops"]) or op["fp"] != ref["ops"][i]):
                why = "differs from the reference fingerprint"
            if why:
                failed += 1
                problems.append(f"{doc['workload']} rep {rep['rep']} op {i} ({op['label']}): {why}")
    return attempted, failed, problems


def phase_durs(doc, name):
    """Per-repetition duration of one phase span, warm-up repetition dropped."""
    return [r["times"][name]["dur"] for r in doc["reps"][1:] if name in r["times"]]


END_TO_END = {
    "wall_s": lambda doc: phase_durs(doc, "rep"),
    "setup_s": lambda doc: phase_durs(doc, "setup"),
    "run_s": lambda doc: phase_durs(doc, "run"),
    "peak_rss_mb": lambda doc: [doc["peak_rss_mb"]],
}


def layer_values(rep):
    """Per-layer metrics of one traced repetition."""
    times, counts = rep["times"], rep["counts"]

    def self_s(name):
        return times.get(name, {}).get("self", 0.0)

    wall = times["rep"]["dur"]
    events = counts["engine.events"]
    v = {
        "workload.job_s": self_s("workload.job"),
        "rig.build_s": sum(self_s(n) for n in BUILD_SPANS),
        "sim.run_s": sum(self_s(n) for n in SIM_SPANS),
        "rig.teardown_s": self_s("rig.teardown"),
        "trace.unattributed_frac": self_s("rep") / wall,
    }
    v["engine.ns_per_event"] = v["sim.run_s"] / events * 1e9
    for n in FRAC_SPANS:
        v[n + "_frac"] = self_s(n) / wall
    for n in COUNTS:
        v[n] = counts.get(n, 0)
    v["alloc.per_event"] = counts["alloc.run_count"] / events
    shard_total = sum(counts.get(f"shard.{p}_s", 0.0) for p in SHARD_PARTS)
    for p in SHARD_PARTS:
        v[f"shard.{p}_frac"] = counts.get(f"shard.{p}_s", 0.0) / shard_total if shard_total else 0.0
    v["shard.imbalance"] = counts.get("shard.imbalance", 0.0)
    return v


def per_layer_samples(traced, untraced):
    # A repetition that threw has no counts; its operations are already failed.
    rows = [layer_values(r) for r in traced["reps"][1:] if "engine.events" in r["counts"]]
    if not rows:
        raise BenchError(f"{traced['workload']}: no traced repetition completed")
    samples = {k: [row[k] for row in rows] for k in rows[0]}
    traced_run = statistics.median(phase_durs(traced, "run"))
    untraced_run = statistics.median(phase_durs(untraced, "run"))
    samples["trace.overhead_frac"] = [traced_run / untraced_run - 1.0]
    return samples


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def metric_block(declared, samples, workload):
    out = {}
    for m in declared:
        if m["name"] not in samples:
            raise BenchError(f"{workload}: metric {m['name']} is not measured")
        s = summarize(samples[m["name"]])
        s.update({k: m[k] for k in ("unit", "better", "bound") if k in m})
        s["samples"] = samples[m["name"]]
        out[m["name"]] = s
    return out


def print_block(workload, block):
    for name, s in block.items():
        print(f"{workload} {name} {s['median']:.6g} {s['unit']} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")


def measure(workload, seed, seconds, trace, spec, refs, deadline, traced_seconds=None):
    """Runs one workload (untraced, then traced when asked) and returns its
    checked, summarized result."""
    untraced = run_child(workload, seed, seconds, deadline)
    docs = [untraced]
    result = {"end_to_end": metric_block(
        spec["end_to_end"], {k: f(untraced) for k, f in END_TO_END.items()}, workload)}
    if trace:
        traced = run_child(workload, seed, seconds if traced_seconds is None else traced_seconds,
                           deadline, traced=True)
        docs.append(traced)
        result["per_layer"] = metric_block(
            spec["per_layer"], per_layer_samples(traced, untraced), workload)
    attempted = failed = 0
    problems = []
    for doc in docs:
        a, f, p = evaluate(doc, refs)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    result.update({"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "problems": problems[:20], "shards": untraced["shards"],
                   "compiler": untraced["compiler"], "build_type": untraced["build_type"]})
    return result


def git_commit():
    # The ceiling keeps git from searching above the checkout.
    env = dict(child_env(), GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cmd_one(args, spec):
    refs = load_references()
    deadline = time.monotonic() + CHILD_BUDGET_S
    # --trace 1 splits the budget: half untraced (the overhead baseline), half traced.
    seconds = args.seconds / 2 if args.trace else args.seconds
    r = measure(args.workload, args.seed, seconds, args.trace, spec, refs, deadline)
    block = r["per_layer"] if args.trace else r["end_to_end"]
    print_block(args.workload, block)
    for p in r["problems"]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
        "metrics": {k: {"value": s["median"], "unit": s["unit"]} for k, s in block.items()},
    }))
    return 0


def cmd_all(args, spec):
    refs = load_references()
    doc = {"schema": "aio-perf-v1", "git_commit": git_commit(), "host_cpus": host_cpus(),
           "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
           "workloads": {}}
    ok = True
    for w in WORKLOADS:
        deadline = time.monotonic() + CHILD_BUDGET_S
        r = measure(w, args.seed, args.seconds, args.trace, spec, refs, deadline,
                    traced_seconds=0)
        doc["workloads"][w] = r
        doc.update({k: r[k] for k in ("shards", "compiler", "build_type")})
        print_block(w, r["end_to_end"])
        if args.trace:
            print_block(w, r["per_layer"])
        print(f"{w} failed {r['failed']} of {r['attempted']} operations", flush=True)
        for p in r["problems"]:
            print(f"FAILED {p}", file=sys.stderr)
        ok = ok and r["correct"]
    with open(RESULT, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"result: {RESULT.relative_to(ROOT)}")
    return 0 if ok else 1


def cmd_compare(paths, spec):
    """agree: B's median is within the bound of A's; worse: it is not;
    unresolved: either side's quartile spread is wider than the bound."""
    a, b = (json.load(open(p)) for p in paths)
    verdicts = []
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        for m in spec["end_to_end"]:
            sa = a["workloads"][w]["end_to_end"][m["name"]]
            sb = b["workloads"][w]["end_to_end"][m["name"]]
            bound = m["bound"]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
            change = (sb["median"] - sa["median"]) / sa["median"]
            if m["better"] == "higher":
                change = -change
            verdict = ("unresolved" if spread > bound else
                       "worse" if change > bound else "agree")
            verdicts.append(verdict)
            print(f"{w} {m['name']} {verdict} A={sa['median']:.6g} B={sb['median']:.6g} "
                  f"change={change:+.2%} spread={spread:.2%} bound={bound:.0%}")
    print(f"{verdicts.count('agree')} agree, {verdicts.count('worse')} worse, "
          f"{verdicts.count('unresolved')} unresolved")
    return 0 if verdicts and all(v == "agree" for v in verdicts) else 1


def cmd_selftest():
    """A one-ulp change to one reference value must fail that operation in
    every repetition, and the true references must pass."""
    refs = load_references()
    workload = "observed_65k"
    doc = run_child(workload, DEFAULT_SEED, 0, time.monotonic() + CHILD_BUDGET_S, min_reps=1)
    _, clean_failed, problems = evaluate(doc, refs)
    corrupt = json.loads(json.dumps(refs))
    fp = corrupt[workload]["ops"][0]
    fp["io_seconds"] = math.nextafter(fp["io_seconds"], math.inf)
    attempted, failed, bad = evaluate(doc, corrupt)
    reps = len(doc["reps"])
    print(f"selftest: true references: {clean_failed} failed; one-ulp corrupted io_seconds: "
          f"{failed} of {attempted} operations failed")
    for p in problems + bad:
        print(f"  {p}")
    ok = clean_failed == 0 and failed == reps
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def cmd_rebaseline():
    workloads = {}
    for w in WORKLOADS:
        doc = run_child(w, DEFAULT_SEED, 0, time.monotonic() + CHILD_BUDGET_S, min_reps=0)
        ops = doc["reps"][0]["ops"]
        errors = [op["error"] for op in ops if op["error"]]
        if errors:
            raise BenchError(f"{w}: cannot baseline a failing run: {errors[0]}")
        workloads[w] = {"seed": DEFAULT_SEED if w in SEEDED else None,
                        "ops": [op["fp"] for op in ops]}
    with open(REFERENCES, "w") as f:
        json.dump({"schema": "aio-perf-references-v1", "default_seed": DEFAULT_SEED,
                   "workloads": workloads}, f, indent=1)
        f.write("\n")
    print(f"wrote {REFERENCES.relative_to(ROOT)}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--rebaseline", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return cmd_compare(args.compare, spec)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build()
        if args.selftest:
            return cmd_selftest()
        if args.rebaseline:
            return cmd_rebaseline()
        return cmd_one(args, spec) if args.workload else cmd_all(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perf/run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
