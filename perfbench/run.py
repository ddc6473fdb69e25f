#!/usr/bin/env python3
"""The repository benchmark: paper, fleet and serve workloads at one domain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 55 --trace 0

It builds `perfbench/mbench.exe` and `bin/mica.exe` from source, repeats
the workload in fresh processes (each with its own empty cache) until
`--seconds` are spent, checks every output against its oracle, and prints
the metrics by name and unit, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 1` it makes
the traced run instead and reports the per-layer metrics.  See
perfbench/README.md for what each workload and metric measures.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = "perfbench"
WORKLOADS = ("paper", "fleet", "serve")
# One trace length for every workload, so serve's vectors match the pins.
ICOUNT = 20000
PINS = os.path.join(HERE, "pins", "icount-%d.txt" % ICOUNT)
# The fleet sample: the registry plus this many members of each gen/* family.
FLEET_GEN = 12
# The serve session's offered load (requests per second).
COLD_RATE = 20.0
WARM_RATE = 100.0
# Everything a run writes lives under this directory of the checkout.
WORK = ".perfbench"
WORKER_TIMEOUT = 150
MIN_REPS = 3

ENV = dict(os.environ, MICA_JOBS="1", DUNE_CACHE="disabled")
ENV.pop("OCAMLRUNPARAM", None)

MBENCH = os.path.join("_build", "default", HERE, "mbench.exe")
MICA = os.path.join("_build", "default", "bin", "mica.exe")

# The daemon's warm set; must match warm_ids in mbench.ml.
WARM = ["MiBench/sha/large", "SPEC2000/mcf/ref", "SPEC2000/swim/ref"]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    for p in ("BENCHMARK.json", "dune-project", "lib", "bin", "machines", PINS):
        if not os.path.exists(p):
            fail("%s is missing: run from the root of a full checkout" % p, 2)


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./%s/mbench.exe" % HERE, "./bin/mica.exe"],
        env=ENV, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0 or not (os.path.exists(MBENCH) and os.path.exists(MICA)):
        fail("build failed")


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        config = subprocess.run(["ocamlopt", "-config"], capture_output=True, text=True).stdout
    except OSError:
        config = ""
    conf = dict(l.split(": ", 1) for l in config.splitlines() if ": " in l)
    return "nproc=%d cpu=%r ocaml=%s flambda=%s MICA_JOBS=%s" % (
        os.cpu_count() or 0, cpu, conf.get("version", "?"), conf.get("flambda", "?"),
        ENV["MICA_JOBS"])


def worker(args, cwd=None, spans=None):
    cmd = [os.path.abspath(MBENCH)] + [str(a) for a in args]
    if spans:
        cmd += ["--spans", os.path.abspath(spans)]
    r = subprocess.run(cmd, cwd=cwd, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=WORKER_TIMEOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("worker %s exited with %d" % (args[0], r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------- one repetition of each workload ----------------

def paper_rep(run, seed, i, spans=None):
    work = fresh(os.path.join(run, "rep%d" % i))
    out = worker(["paper", "--icount", ICOUNT, "--seed", seed, "--work", os.path.abspath(work),
                  "--pins", os.path.abspath(PINS), "--t0", repr(time.time())], spans=spans)
    shutil.rmtree(work)
    return out


def fleet_rep(run, seed, i, spans=None):
    return worker(["fleet", "--icount", ICOUNT, "--seed", seed, "--machines", "machines",
                   "--gen", FLEET_GEN, "--t0", repr(time.time())],
                  spans=spans)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def serve_rep(run, seed, i, spans=None):
    # The daemon runs in its own empty directory, so its cache
    # (results/cache) starts empty; the socket path is relative to it.
    work = fresh(os.path.join(run, "rep%d" % i))
    log = open(os.path.join(work, "daemon.log"), "w")
    t0 = time.time()
    daemon = subprocess.Popen(
        [os.path.abspath(MICA), "serve", "--socket", "s", "--icount", str(ICOUNT), "--no-run"]
        + [a for w in WARM for a in ("--warm", w)],
        cwd=work, env=ENV, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    try:
        out = worker(["client", "--icount", ICOUNT, "--seed", seed, "--socket", "s",
                      "--pins", os.path.abspath(PINS), "--t0", repr(t0),
                      "--cold-rate", COLD_RATE, "--warm-rate", WARM_RATE], cwd=work, spans=spans)
        out["peak_rss_mb"] = vm_hwm_mb(daemon.pid)
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            code = daemon.wait()
        log.close()
    if code != 0:
        sys.stderr.write(open(os.path.join(work, "daemon.log")).read())
        fail("daemon exited with %d" % code)
    shutil.rmtree(work)
    return out


REP = {"paper": paper_rep, "fleet": fleet_rep, "serve": serve_rep}


def repeat(rep, seconds):
    """Repeat until the next repetition would overrun --seconds."""
    out, start = [], time.time()
    while True:
        out.append(rep(len(out)))
        spent = time.time() - start
        if len(out) >= MIN_REPS and spent + spent / len(out) > seconds:
            return out, spent


# ---------------- statistics ----------------

def pct(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, math.ceil(p * len(s) - 1e-9) - 1))]


def pooled(reps, key):
    return [x for r in reps for x in r[key]]


def fastest(reps, ids, times):
    """Each item's fastest time over the run's repetitions, by id."""
    best = {}
    for r in reps:
        for i, t in zip(r[ids], r[times]):
            best[i] = min(t, best.get(i, t))
    return best


def composed(reps, total, best=None, steps=None):
    """A pass's time (the key `total`) with each of its parts at its
    fastest repetition: each workload's characterization (`best`, when the
    pass characterizes), each named step, and what is left."""
    left = [r[total] for r in reps]
    t = 0.0
    if best:
        t += sum(best.values()) / 1000.0
        left = [x - sum(r["item_ms"]) / 1000.0 for x, r in zip(left, reps)]
    if steps:
        t += sum(min(r[steps][name] for r in reps) for name in reps[0][steps])
        left = [x - sum(r[steps].values()) for x, r in zip(left, reps)]
    return t + min(left)


def end_to_end(reps):
    """The run's metrics from its repetitions.  Other tenants' contention
    for the host's shared cache only ever adds time, and it comes and goes
    within a second, so repeated deterministic work is taken at its
    fastest: each workload's characterization, the rest of each pass, each
    cold request of the (identical) serve sessions, the fleet report and
    the serve replay.  Set-up is the median, peak RSS the highest peak of
    the run's processes."""
    n = len(reps)
    m = {"setup_s": statistics.median([r["setup_s"] for r in reps]),
         "peak_rss_mb": max(r["peak_rss_mb"] for r in reps)}
    notes = {"setup_s": "median of %d" % n, "wall_s": "fastest of %d" % n,
             "warm_s": "fastest of %d" % n}
    extra = []
    if "item_ms" in reps[0]:
        best = fastest(reps, "item_ids", "item_ms")
        char_s = sum(best.values()) / 1000.0
        if "cold_steps" in reps[0]:
            m["wall_s"] = composed(reps, "wall_s", best, "cold_steps")
            m["warm_s"] = composed(reps, "warm_s", steps="warm_steps")
        else:
            m["wall_s"] = composed(reps, "wall_s", best)
            m["warm_s"] = min(pooled(reps, "report_ms")) / 1000.0
            notes["warm_s"] = "fastest of %d" % len(pooled(reps, "report_ms"))
        m["minstr_per_s"] = len(best) * ICOUNT / char_s / 1e6
        what = "workloads"
    else:
        best = fastest(reps, "cold_ids", "cold_ms")
        m["wall_s"] = statistics.median([r["wall_s"] for r in reps])
        notes["wall_s"] = "median of %d" % n
        m["warm_s"] = min(pooled(reps, "replay_ms")) / 1000.0
        notes["warm_s"] = "fastest of %d" % len(pooled(reps, "replay_ms"))
        # The median cold request's daemon time; a sum would carry the
        # queueing that the seeded arrival times cause.
        m["minstr_per_s"] = ICOUNT / (statistics.median(pooled(reps, "daemon_cold_ms")) / 1000.0) / 1e6
        notes["minstr_per_s"] = "n=%d" % len(pooled(reps, "daemon_cold_ms"))
        warm = pooled(reps, "warm_ms")
        extra += [("warm_p50_ms", pct(warm, 0.5), "ms", "n=%d" % len(warm)),
                  ("warm_p99_ms", pct(warm, 0.99), "ms", "n=%d" % len(warm))]
        what = "cold requests"
    items = list(best.values())
    m["cold_p50_ms"] = pct(items, 0.5)
    m["cold_p90_ms"] = pct(items, 0.9)
    notes["cold_p50_ms"] = notes["cold_p90_ms"] = "%d %s, fastest of %d" % (len(items), what, n)
    return m, notes, extra


def serve_layers(reps):
    def p(key, q):
        return pct(pooled(reps, key), q)
    return {
        "serve.daemon_cold_ms_p50": p("daemon_cold_ms", 0.5),
        "serve.daemon_warm_ms_p50": p("daemon_warm_ms", 0.5),
        "serve.daemon_warm_ms_p99": p("daemon_warm_ms", 0.99),
        "serve.client_ms_p50": p("client_warm_ms", 0.5),
        "serve.codec_us": statistics.median([r["codec_us"] for r in reps]),
        "serve.gen_lag_ms_p99": p("lag_ms", 0.99),
        "serve.cached_frac": statistics.median([r["cached_frac"] for r in reps]),
        "serve.warm_p50_ms": p("warm_ms", 0.5),
        "serve.warm_p99_ms": p("warm_ms", 0.99),
    }


# ---------------- traced run ----------------

def primary(rep):
    """The time the tracing overhead is taken on: the cold pass, or for
    serve (whose session length is fixed by its schedule) the replays."""
    return rep["wall_s"] if "item_ms" in rep else sum(rep["replay_ms"]) / 1000.0


def counts_check(workload, seed, counts):
    """Exact counts must repeat between traced runs of one build."""
    h = hashlib.md5()
    for exe in (MBENCH, MICA):
        with open(exe, "rb") as f:
            h.update(f.read())
    d = os.path.join(WORK, "counts")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-seed%d-%s.json" % (workload, seed, h.hexdigest()[:12]))
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        return diff
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)
    return []


def traced(workload, seed, run):
    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    rep = REP[workload]
    untraced = rep(run, seed, 0)
    main = rep(run, seed, 1, spans=os.path.join(run, "main.jsonl"))
    overhead = (primary(main) - primary(untraced)) / primary(untraced) * 100.0
    layers = worker(["layers", "--workload", workload, "--icount", ICOUNT, "--seed", seed,
                     "--machines", "machines", "--gen", FLEET_GEN,
                     "--work", os.path.abspath(fresh(os.path.join(run, "layers"))),
                     "--pins", os.path.abspath(PINS)],
                    spans=os.path.join(run, "layers.jsonl"))
    # The serve layer is measured on two traced sessions at the same seed,
    # enough warm requests for a p99 with ten samples beyond it; serve's
    # traced repetition is the first of them.
    sessions = [main] if workload == "serve" else []
    while len(sessions) < 2:
        sessions.append(serve_rep(run, seed, 2 + len(sessions),
                                  spans=os.path.join(run, "serve%d.jsonl" % len(sessions))))
    metrics = dict(layers["metrics"])
    metrics.update(serve_layers(sessions))
    metrics["trace.overhead_pct"] = overhead
    out = os.path.join(spans_dir, "%s-seed%d.jsonl" % (workload, seed))
    with open(out, "w") as f:
        for part in ("main", "layers", "serve0", "serve1"):
            p = os.path.join(run, part + ".jsonl")
            if os.path.exists(p):
                for line in open(p):
                    span = json.loads(line)
                    span["pass"] = part
                    f.write(json.dumps(span) + "\n")
    parts = [untraced, main, layers] + [r for r in sessions if r is not main]
    attempted = sum(r["attempted"] for r in parts) + 1
    failed = sum(r["failed"] for r in parts)
    errors = [e for r in parts for e in r["errors"]]
    diff = counts_check(workload, seed, layers["counts"])
    if diff:
        failed += 1
        errors.append("counts differ from the previous traced run: " + ", ".join(diff))
    return metrics, attempted, failed, errors, out


# ---------------- main ----------------

def declared(section):
    """Metric names and units, in BENCHMARK.json order."""
    with open("BENCHMARK.json") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # On SIGTERM, unwind through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    check_tree()
    build()
    run = fresh(os.path.join(WORK, "run-%d" % os.getpid()))
    try:
        print("perfbench %s seed=%d icount=%d trace=%d" % (a.workload, a.seed, ICOUNT, a.trace))
        print("host: " + host_stamp())
        notes, extra = {}, []
        if a.trace:
            metrics, attempted, failed, errors, spans = traced(a.workload, a.seed, run)
            print("spans: " + spans)
        else:
            reps, spent = repeat(lambda i: REP[a.workload](run, a.seed, i), a.seconds)
            metrics, notes, extra = end_to_end(reps)
            attempted = sum(r["attempted"] for r in reps)
            failed = sum(r["failed"] for r in reps)
            errors = [e for r in reps for e in r["errors"]]
            print("measured %.1f s in %d repetitions" % (spent, len(reps)))
        units = declared("per_layer" if a.trace else "end_to_end")
        if sorted(metrics) != sorted(name for name, _ in units):
            fail("measured metrics differ from BENCHMARK.json: %s"
                 % sorted(set(metrics) ^ {name for name, _ in units}))
        for name, unit in units:
            print("  %-36s %14.6g %-11s %s" % (name, metrics[name], unit, notes.get(name, "")))
        for name, value, unit, note in extra + [
                ("failed_frac", failed / attempted, "fraction", "(%d of %d)" % (failed, attempted))]:
            print("  %-36s %14.6g %-11s %s" % (name, value, unit, note))
        for e in errors[:20]:
            print("  FAILED: " + e)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        }))
    finally:
        shutil.rmtree(run, ignore_errors=True)


if __name__ == "__main__":
    main()
