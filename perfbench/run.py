#!/usr/bin/env python3
"""Postcard benchmark: batch LP slots and served admissions.

Run from the root of a source tree:

    python3 perfbench/run.py --workload lp-throttled --seed 1 --seconds 45 --trace 0

It builds the worker (perfbench/worker.ml) and postcard_serve with dune,
drives one workload, checks the outputs, prints the metrics with their
units and sample counts, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
also makes a traced run and reports the per-layer metrics, a layer table
and a Chrome trace_event file under perfbench/out/. --seed defaults to
DEFAULT_SEED; HOLDOUT_SEED (9173) is a seed kept out of tuning, for
checking that a claim holds on an unseen seed (--seed 9173).

Workloads (each one process, one connection, no worker domains):
- lp-throttled: the postcard LP scheduler on complete 10-DC topologies
  with 30 GB links, 1..8 files per slot, deadlines 1..3 (Fig. 6 regime).
  Nearly all time is in the LP stack; admission control re-solves after
  every dropped file, which is where the slot tail sits.
- serve-loopback: postcard_serve --clock manual with its default
  postcard-tiered scheduler, 8 DCs with 100 GB links, the paper mix, and
  a fixed --faults scenario of link and datacenter outages that strands
  admitted transfers. One closed-loop client submits each slot's
  requests one at a time, waiting for each verdict, then ticks. This is
  the path users hit: wire, Protocol, Session, Engine.offer, ledger
  tier, plus the engine's strand/re-offer path at the ticks. The LP does
  little here, so it is the control for LP work. The manual clock keeps
  slot assignment, verdicts and cost independent of timing.

A run replays a fixed set of instances (topology plus arrival script,
all derived from the seed and generated before timing starts) as often
as fits in --seconds, at least once: lp-throttled's 192 instances fill
about one replay, serve-loopback's 48 about five. The more distinct
instances, the less a percentile moves from seed to seed. Replays do
identical work (the worker checks that), so a slot's or request's time
is the median of its replays: the host's speed moves by up to 2x in
phases of seconds to minutes, and the median gives the typical speed
over the run, where the minimum would give whichever fast phase the run
happened to catch. setup_s is the median over many launches.

Host speed also moves between runs, by more than any bound a time metric
could carry, and within a run by 10-30% over seconds. So every end-to-end
time is reported at the speed of a reference host: the worker launches a
probe (perfbench/probe.ml) about once a second, which times its own
launch and a fixed amount of allocation and garbage collection; on
serve-loopback it also times loopback round trips to an echoing probe.
The probe links nothing from the program, so a change to the program
cannot move it. The worker scales each episode's (batch) or session's
(serve) times by the reference host's probe work time over that of the
probe taken nearest to it (serve: the geometric mean of that and the
same ratio of echo round trips), before it takes medians over replays;
a run-wide factor misses the moves within a run (see host_speed in
worker.ml).
setup_s is divided by the median probe launch time over
PROBE_LAUNCH_REF_NS. The values as measured are printed beside the
scaled ones. A launch probe is started the way the set-up it scales
starts: by this script beside each batch worker launch, by the worker
beside each daemon.

"attempted" counts the files offered over all replays; "failed" counts
operations that errored (an error event, a missing verdict, a broken
invariant), which also fails the run. A rejected or lost file is a valid
outcome: it shows in delivered_pct and in the printed per-replay counts.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("lp-throttled", "serve-loopback")
DEFAULT_SEED = 1
HOLDOUT_SEED = 9173  # never used while tuning; pass it as --seed
SETUP_LAUNCHES = 31
# The probe's median launch time on a 2-vCPU Intel Xeon 2.1 GHz VM.
PROBE_LAUNCH_REF_NS = 1.5e6
WORKER_TIMEOUT_S = 150
SETTLE_S = 60

WORKER = os.path.join("_build", "default", "perfbench", "worker.exe")
SERVE = os.path.join("_build", "default", "bin", "postcard_serve.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
OUT = os.path.join("perfbench", "out")

END_TO_END = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("slot_ms_p50", "ms"),
    ("slot_ms_p90", "ms"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("cost_per_interval", "cost"),
    ("delivered_pct", "%"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, layer, end-to-end metric it should move, workloads)
PER_LAYER = [
    ("setup.process_ms", "ms", "process start: runtime, Scheduler.register probes", "setup_s", "all"),
    ("setup.build_ms", "ms", "Topology.complete, scripts, Scheduler.make_exn, Engine.init/Session.create", "setup_s", "all"),
    ("engine.step_self_ms", "ms", "sim.Engine step minus scheduler", "slot_ms_p50", "serve-loopback"),
    ("engine.fault_slot_ms", "ms", "sim.Engine + sim.Faults", "slot_ms_p90", "serve-loopback"),
    ("engine.stranded_files", "count", "sim.Engine + sim.Faults", "delivered_pct", "serve-loopback"),
    ("engine.recovered_files", "count", "sim.Engine + sim.Faults", "delivered_pct", "serve-loopback"),
    ("engine.lost_files", "count", "sim.Engine + sim.Faults", "delivered_pct", "serve-loopback"),
    ("sched.schedule_ms", "ms", "postcard.Scheduler.schedule", "slot_ms_p50, slot_ms_p90", "lp-throttled"),
    ("sched.share_pct", "%", "postcard.Scheduler.schedule", "slot_ms_p50, slot_ms_p90", "lp-throttled"),
    ("lp.solves_per_slot", "count", "Postcard_scheduler admission control", "slot_ms_p90, verdict_ms_p90", "lp-throttled"),
    ("lp.retry_solve_pct", "%", "Postcard_scheduler admission control", "slot_ms_p90, verdict_ms_p90", "lp-throttled"),
    ("lp.pivots_per_solve", "count", "lp.Simplex + Basis_map warm start", "slot_ms_p50", "lp-throttled"),
    ("lp.dual_pivot_pct", "%", "lp.Simplex + Basis_map warm start", "slot_ms_p50", "lp-throttled"),
    ("lp.refactorizations_per_solve", "count", "lp.Simplex + Basis_map warm start", "slot_ms_p50", "lp-throttled"),
    ("lp.warm_fallbacks", "count", "lp.Simplex + Basis_map warm start", "slot_ms_p50", "lp-throttled"),
    ("lp.us_per_pivot", "us", "lp.Simplex + sparselin.Lu/Eta kernels", "slot_ms_p50", "lp-throttled"),
    ("lu.factorizations_per_solve", "count", "lp.Simplex + sparselin.Lu/Eta kernels", "slot_ms_p50", "lp-throttled"),
    ("lp.solver_failures", "count", "solves treated as infeasible (postcard.scheduler warnings)", "delivered_pct", "lp-throttled"),
    ("sched.admit_us", "us", "Scheduler.tiered", "verdict_ms_p50, verdict_ms_p90, cost_per_interval", "serve-loopback"),
    ("tier.fast_pct", "%", "Scheduler.tiered", "verdict_ms_p50, verdict_ms_p90, cost_per_interval", "serve-loopback"),
    ("tier.fallback_ms", "ms", "Scheduler.tiered", "verdict_ms_p50, verdict_ms_p90, cost_per_interval", "serve-loopback"),
    ("ledger.admit_us", "us", "Ledger_scheduler (+ netgraph.Paths, Linkview)", "verdict_ms_p50, decisions_per_s", "serve-loopback; none on lp-throttled"),
    ("session.self_us", "us", "serve.Session + Engine.offer bookkeeping", "verdict_ms_p50", "serve-loopback"),
    ("protocol.decode_us", "us", "serve.Protocol", "verdict_ms_p50, decisions_per_s", "serve-loopback"),
    ("protocol.encode_us", "us", "serve.Protocol", "verdict_ms_p50, decisions_per_s", "serve-loopback"),
    ("protocol.events_per_request", "count", "serve.Protocol", "verdict_ms_p50, decisions_per_s", "serve-loopback"),
    ("wire.us_per_request", "us", "postcard_serve loop + loopback socket", "verdict_ms_p50", "serve-loopback"),
    ("trace.overhead_pct", "%", "the benchmark's own probes", "none (end-to-end runs are untraced)", "all"),
    ("trace.uncovered_pct", "%", "the benchmark's own probes", "none (end-to-end runs are untraced)", "all"),
]


class Failure(Exception):
    """A broken invariant or a failed step; names the workload."""


def log(msg):
    print(msg, flush=True)


def quantile(values, q):
    """Linear interpolation between closest ranks."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_process(args, timeout, what):
    """Run a child in its own process group; kill the group on any exit
    path, so neither it nor a daemon it launched outlives this run."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Failure(f"{what}: no result within {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if err.strip():
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise Failure(f"{what}: exit status {proc.returncode}")
    return out


def worker(workload, mode, seed, seconds=0.0, chrome=""):
    args = [WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode,
            "--seconds", repr(float(seconds)), "--serve-exe", SERVE, "--probe-exe", PROBE]
    if chrome:
        args += ["--chrome", chrome]
    launched = time.monotonic_ns()
    out = run_process(args + ["--launched-ns", str(launched)], WORKER_TIMEOUT_S,
                      f"worker --mode {mode}")
    return json.loads(out.strip().splitlines()[-1])


def probe_launch_ns():
    """Launch the host-speed probe as a worker is launched; return the
    nanoseconds from launch to its main."""
    launched = time.monotonic_ns()
    return int(run_process([PROBE, str(launched)], 30, "probe").split()[0])


def canon(j):
    return json.dumps(j, sort_keys=True)


def strip_counts(det):
    return {k: v for k, v in det.items() if k not in ("solves", "pivots")}


def build_id():
    h = hashlib.sha1()
    for path in (WORKER, SERVE):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_across_runs(workload, seed, dets):
    """Outputs for one seed must not change between runs of one build:
    compare with what earlier runs of this build recorded. Solve and
    pivot counts exist only for traced runs."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"det-{workload}-{seed}-{build_id()}.json")
    earlier = {}
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
    for i, d in dets.items():
        e = earlier.get(str(i))
        if e is None:
            continue
        if "solves" not in e or "solves" not in d:
            e, d = strip_counts(e), strip_counts(d)
        if canon(e) != canon(d):
            raise Failure(f"deterministic outputs: instance {i} differs from an earlier run of this build")
    for i, d in dets.items():
        if "solves" in d or str(i) not in earlier:
            earlier[str(i)] = d
    with open(path, "w") as f:
        json.dump(earlier, f, sort_keys=True)


def host_stamp():
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    commit = cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    if not commit:
        h = hashlib.sha1()
        for top in ("lib", "bin", "perfbench"):
            for dirpath, dirs, files in sorted(os.walk(top)):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith((".ml", ".mli", "dune", ".py")):
                        with open(os.path.join(dirpath, name), "rb") as f:
                            h.update(name.encode() + f.read())
        commit = "tree-" + h.hexdigest()[:12]
    return {
        "nproc": os.cpu_count(),
        "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"]) or cmd(["ocamlopt", "-version"]),
        "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
    }


def build():
    """Build the binaries. After a build that compiled anything, wait
    SETTLE_S: right after a full build on a 2-vCPU VM, a 10-s run read
    1.6x slower (echo probe 1.8x) than the same run 40 s later."""
    def stamps():
        return [os.stat(p).st_mtime_ns if os.path.exists(p) else None
                for p in (WORKER, SERVE, PROBE)]
    before = stamps()
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/worker.exe", "perfbench/probe.exe",
         "bin/postcard_serve.exe"],
        capture_output=True, text=True, timeout=850, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise Failure("build failed")
    if stamps() != before:
        log(f"fresh build: waiting {SETTLE_S} s for the host to settle before timing")
        time.sleep(SETTLE_S)


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics.

def untraced(workload, seed, seconds):
    if workload == "serve-loopback":
        return untraced_serve(seed, seconds)
    # Half the setup launches before the timed run and half after, so the
    # median spans the host's speed over the whole run.
    launches = []

    def setup():
        launches.append(probe_launch_ns())
        return worker(workload, "setup", seed)
    setups = [setup() for _ in range(SETUP_LAUNCHES // 2)]
    r = worker(workload, "run", seed, seconds)
    setups += [r] + [setup() for _ in range(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)]
    split = (f"process {statistics.median(s['process_ns'] for s in setups) / 1e6:.3f} ms"
             f" + build {statistics.median(s['build_ns'] for s in setups) / 1e6:.3f} ms")
    # One record per instance: the worker has checked that its replays
    # agree and kept each slot's median time over them.
    eps = r["episodes"]
    dets = {e["instance"]: e["det"] for e in eps}

    def per_verdict(key):
        return [ns / 1e6 for e in eps for ns, n in zip(e[key], e["decided"]) for _ in range(n)]
    return {
        "setups_ns": [s["setup_ns"] for s in setups],
        "setup_split": split,
        "slot_ms": [ns / 1e6 for e in eps for ns in e["step_ref_ns"]],
        "verdict_ms": per_verdict("step_ref_ns"),
        "slot_ms_raw": [ns / 1e6 for e in eps for ns in e["step_ns"]],
        "verdict_ms_raw": per_verdict("step_ns"),
        "decisions": sum(sum(e["decided"]) for e in eps),
        "timed_s": sum(e["wall_ref_ns"] for e in eps) / 1e9,
        "timed_s_raw": sum(e["wall_ns"] for e in eps) / 1e9,
        "cost": statistics.fmean(d["cost_per_interval"] for d in dets.values()),
        "offered_bytes": sum(d["offered_bytes"] for d in dets.values()),
        "delivered_bytes": sum(d["delivered_bytes"] for d in dets.values()),
        "rss_kb": [r["hwm_kb"]],
        "offered": sum(d["offered"] for d in dets.values()),
        "rejected": sum(d["rejected"] for d in dets.values()),
        "lost": sum(d["lost"] for d in dets.values()),
        "cycles": r["cycles"],
        "dets": dets,
        "probe": (launches, len(r["probe_work_ns"])),
    }


def untraced_serve(seed, seconds):
    r = worker("serve-loopback", "run", seed, seconds)
    ss = r["sessions"]
    dets = {s["instance"]: s["det"] for s in ss}
    ends = [d["session_end"] for d in dets.values()]
    return {
        "setups_ns": r["setups_ns"],
        "setup_split": "daemon launch to listening, connect and hello",
        "slot_ms": [ns / 1e6 for s in ss for ns in s["slot_ref_ns"]],
        "verdict_ms": [ns / 1e6 for s in ss for ns in s["verdict_ref_ns"]],
        "slot_ms_raw": [ns / 1e6 for s in ss for ns in s["slot_ns"]],
        "verdict_ms_raw": [ns / 1e6 for s in ss for ns in s["verdict_ns"]],
        "decisions": sum(len(s["verdict_ns"]) for s in ss),
        "timed_s": sum(s["loop_ref_ns"] for s in ss) / 1e9,
        "timed_s_raw": sum(s["loop_ns"] for s in ss) / 1e9,
        "cost": statistics.fmean(e["cost_per_interval"] for e in ends),
        "offered_bytes": sum(e["offered_bytes"] for e in ends),
        "delivered_bytes": sum(e["delivered_bytes"] for e in ends),
        "rss_kb": r["hwm_kb"],
        "offered": sum(d["accepted"] + d["rejected"] for d in dets.values()),
        "rejected": sum(d["rejected"] for d in dets.values()),
        "lost": sum(d["lost"] for d in dets.values()),
        "cycles": r["cycles"],
        "dets": dets,
        "probe": (r["probe_launch_ns"], len(r["probe_work_ns"])),
    }


def host_factors(u):
    """How much slower than the reference host this run's host was: the
    factor its times were scaled by overall (episode by episode, in the
    worker), and the median launch probe (see the module docstring)."""
    launch, n_probes = u["probe"]
    if not n_probes:
        raise Failure("no host-speed probe ran")
    return (u["timed_s_raw"] / u["timed_s"],
            statistics.median(launch) / PROBE_LAUNCH_REF_NS, n_probes)


def end_to_end(u):
    """name -> (value, note). Times are at reference host speed; the note
    gives the value as measured."""
    launch = host_factors(u)[1]
    setup = statistics.median(u["setups_ns"]) / 1e9
    rate = u["decisions"] / u["timed_s"]
    rate_raw = u["decisions"] / u["timed_s_raw"]

    def ms(key, q, what):
        values = u[key]
        beyond = f", {len(values) // 10} beyond" if q > 0.5 else ""
        return (quantile(values, q), f"{quantile(u[key + '_raw'], q):.4f} as measured; "
                f"n={len(values)} {what}{beyond}")

    return {
        "setup_s": (setup / launch, f"{setup:.6f} as measured; median of "
                    f"{len(u['setups_ns'])} launches; {u['setup_split']}"),
        "decisions_per_s": (rate, f"{rate_raw:.2f} as measured; {u['decisions']} verdicts"),
        "slot_ms_p50": ms("slot_ms", 0.5, "slots"),
        "slot_ms_p90": ms("slot_ms", 0.9, "slots"),
        "verdict_ms_p50": ms("verdict_ms", 0.5, "files"),
        "verdict_ms_p90": ms("verdict_ms", 0.9, "files"),
        "cost_per_interval": (u["cost"], f"mean over {len(u['dets'])} instances"),
        "delivered_pct": (100.0 * u["delivered_bytes"] / u["offered_bytes"], "delivered / offered bytes"),
        "peak_rss_mb": (statistics.median(u["rss_kb"]) / 1024.0, f"VmHWM, median of {len(u['rss_kb'])}"),
    }


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics.

def traced(workload, seed, u):
    setups = [worker(workload, "setup", seed) for _ in range(SETUP_LAUNCHES)]
    os.makedirs(OUT, exist_ok=True)
    chrome = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    t = worker(workload, "trace", seed, chrome=chrome)
    tdets = {item["instance"]: item["det"] for item in t["instances"]}
    for i, d in tdets.items():
        if canon(strip_counts(d)) != canon(strip_counts(u["dets"][i])):
            raise Failure(f"deterministic outputs: instance {i} differs between traced and untraced runs")
    layers = dict(t["layers"])
    layers["setup.process_ms"] = statistics.median(s["process_ns"] for s in setups) / 1e6
    layers["setup.build_ms"] = statistics.median(s["build_ns"] for s in setups) / 1e6
    if workload == "serve-loopback":
        layers["wire.us_per_request"] = (quantile(u["verdict_ms_raw"], 0.5) * 1e3
                                         - quantile([x / 1e3 for x in t["online_ns"]], 0.5))
    # The worker has checked the span tree; self times of a well-formed
    # tree plus the uncovered remainder add up to the traced wall time.
    wall = t["wall_ns"]
    total = sum(t["self_ns"].values())
    log(f"traced wall time {wall / 1e6:.3f} ms over {len(tdets)} instances, {t['spans']} spans; "
        f"Chrome trace: {chrome}")
    log(f"  {'self time (span)':<28} {'ms':>12} {'share':>8}")
    for name, ns in t["self_ns"].items():
        log(f"  {name:<28} {ns / 1e6:>12.3f} {100.0 * ns / wall:>7.2f}%")
    log(f"  {'sum = traced wall':<28} {total / 1e6:>12.3f} {100.0:>7.2f}%")
    log("")
    # Layers this workload never calls (the wire on a batch run) read 0.
    log(f"  {'metric':<30} {'value':>12} {'unit':<6} {'layer (module)':<44} should move / on")
    for name, unit, layer, moves, on in PER_LAYER:
        if name not in layers:
            layers[name] = 0.0
            on += " (not on this workload's path)"
        log(f"  {name:<30} {layers[name]:>12.4f} {unit:<6} {layer[:44]:<44} {moves} / {on}")
    check_across_runs(workload, seed, tdets)
    return {name: {"value": layers[name], "unit": unit} for name, unit, *_ in PER_LAYER}


def main():
    # On SIGTERM, unwind: run_process's finally kills the child's process
    # group, daemons included.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (holdout: {HOLDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    missing = [p for p in ("dune-project", "lib", os.path.join("bin", "postcard_serve.ml"))
               if not os.path.exists(p)]
    if missing:
        sys.stderr.write(f"perfbench: run from the root of a Postcard source tree (missing {', '.join(missing)})\n")
        return 2
    stamp = host_stamp()
    try:
        build()
        log(f"perfbench {a.workload} seed {a.seed} seconds {a.seconds:g} trace {a.trace}; host {json.dumps(stamp)}")
        u = untraced(a.workload, a.seed, a.seconds)
        check_across_runs(a.workload, a.seed, u["dets"])
        attempted = u["offered"] * u["cycles"]
        log(f"{len(u['dets'])} instances x {u['cycles']} replays; per replay: offered {u['offered']} files, "
            f"rejected {u['rejected']}, lost {u['lost']}")
        e2e = end_to_end(u)
        work, launch, n_probes = host_factors(u)
        log(f"host factor over the reference host, from {n_probes} probes: "
            f"work {work:.4f} (time as measured over time scaled), launch {launch:.4f}")
        for name, unit in END_TO_END:
            v, note = e2e[name]
            log(f"  {name:<20} {v:>14.4f} {unit:<5} ({note})")
        if a.trace:
            metrics = traced(a.workload, a.seed, u)
        else:
            metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    except Failure as f:
        sys.stderr.write(f"perfbench: {a.workload}: {f}\n")
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
