#!/usr/bin/env python3
"""Serving benchmark: csserve over the wire, three cache-tier workloads.

Run from the root of a cyclesteal checkout:

    python3 perfbench/run.py --workload hot_repeat --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds csserve (Release, from this tree) and the benchmark program pbench into
.bench_build/, starts csserve with the workload's flags, drives it from one
single-threaded client, checks every answer, stops the server and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload twice
(untraced, then with csserve --trace-out and a v2 trace label on every
request), times each layer in-process, and reports the per-layer metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""
import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(BUILD, "runs")
CSSERVE = os.path.join(BUILD, "cyclesteal", "tools", "csserve")
PBENCH = os.path.join(BUILD, "pbench")

# One loop shard and two solver workers, plus the single-threaded client on
# two connections: four busy threads at most, the core count of the
# reference host.
SERVER_FLAGS = ["--port", "0", "--loops", "1", "--threads", "2"]
# The client keeps one core to itself and the server the rest, so the two
# never compete for one core.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = {_CPUS[0]} if len(_CPUS) >= 4 else None
SERVER_CPUS = set(_CPUS[1:]) if len(_CPUS) >= 4 else None
WORKLOAD_FLAGS = {
    "hot_repeat": ["--cache", "4096"],
    "cold_unique": ["--cache", "4096"],
    "atlas_sweep": ["--atlas", "--cache", "4096"],
}


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def loadavg():
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def build():
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) or not (
            os.path.exists(os.path.join(BUILD, "build.ninja"))
            or os.path.exists(os.path.join(BUILD, "Makefile"))
        ):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=out, stderr=subprocess.STDOUT, check=True, timeout=600)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "csserve", "pbench", "-j", "4"],
            stdout=out, stderr=subprocess.STDOUT, check=True, timeout=850)


class Server:
    """csserve with the workload's flags; stopped with SIGINT (graceful drain)."""

    def __init__(self, workload, tag, trace_out=None):
        flags = SERVER_FLAGS + WORKLOAD_FLAGS[workload]
        if trace_out:
            flags += ["--trace-out", trace_out]
        self.err_path = os.path.join(RUNS, tag + ".stderr")
        self.err = open(self.err_path, "w")
        self.launch_ns = time.monotonic_ns()
        self.proc = subprocess.Popen([CSSERVE] + flags, stdout=subprocess.DEVNULL,
                                     stderr=self.err, preexec_fn=pin(SERVER_CPUS))
        try:
            self.port = self._wait_port()
        except BaseException:
            self.stop()
            raise

    def _wait_port(self):
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            with open(self.err_path) as f:
                m = re.search(r"listening on [^\n]*:(\d+) [^\n]*\n", f.read())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.0005)
        raise RuntimeError("csserve did not start; see " + self.err_path)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        return self.proc.returncode


def pin(cpus):
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def pbench(args, timeout=170):
    res = subprocess.run([PBENCH] + args, stdout=subprocess.PIPE, text=True,
                         timeout=timeout, preexec_fn=pin(CLIENT_CPUS))
    if res.returncode != 0:
        raise RuntimeError("pbench %s exited with %d" % (args[0], res.returncode))
    return json.loads(res.stdout.strip().splitlines()[-1])


def wire_run(workload, seed, seconds, traced):
    """One server lifetime: warm-up, timed phase, checks."""
    tag = "%s-%d-%s" % (workload, seed, "traced" if traced else "plain")
    trace_out = os.path.join(RUNS, tag + ".server.jsonl") if traced else None
    client_out = os.path.join(RUNS, tag + ".client.jsonl")
    server = Server(workload, tag, trace_out)
    try:
        args = ["wire", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--port", str(server.port),
                "--pid", str(server.proc.pid), "--launch-ns", str(server.launch_ns)]
        if traced:
            args += ["--labels", "1", "--spans-out", client_out]
        else:
            args += ["--ping", "1"]
        result = pbench(args)
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError("csserve exited with %d; see %s" % (code, server.err_path))
    if traced:
        result["server_spans"] = read_jsonl(trace_out)
        result["client_spans"] = read_jsonl(client_out)
    return result


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def p50(values):
    return statistics.median(values) if values else 0.0


def span_layers(spans, traces):
    """Per-stage self time of the server spans of the timed requests (trace
    ids in `traces`): the request root minus its children, each stage its
    own duration; plus the root duration per trace."""
    roots, children = {}, {}
    for s in spans:
        if s["name"] == "request" and s["trace"] in traces:
            roots[s["span"]] = s
        elif "parent" in s:
            children.setdefault(s["parent"], []).append(s)
    stage = {}
    root_self, root_dur = [], {}
    for sid, root in roots.items():
        kids = sorted(children.get(sid, []), key=lambda s: s["start"])
        covered, reach = 0, root["start"]
        for k in kids:
            stage.setdefault(k["name"], []).append((k["end"] - k["start"]) / 1e3)
            lo, hi = max(k["start"], reach), min(k["end"], root["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        root_self.append((root["end"] - root["start"] - covered) / 1e3)
        root_dur[root["trace"]] = (root["end"] - root["start"]) / 1e3
    stage["request(self)"] = root_self
    return {k: p50(v) for k, v in stage.items()}, root_dur


def trace_metrics(workload, seed, seconds, units):
    plain = wire_run(workload, seed, seconds, traced=False)
    traced = wire_run(workload, seed, seconds, traced=True)
    layers = pbench(["layers", "--workload", workload, "--seed", str(seed),
                     "--spans-out", os.path.join(RUNS, "%s-%d.layers.jsonl" % (workload, seed))])
    client = traced.pop("client_spans")
    stages, root_dur = span_layers(traced.pop("server_spans"), {c["trace"] for c in client})
    wire = [(c["end"] - c["start"]) / 1e3 - root_dur[c["trace"]]
            for c in client if c["trace"] in root_dur]

    m = dict(layers)
    for k in ("tier.memo", "tier.lru", "tier.atlas", "tier.cold", "engine.memo_hit_ratio",
              "engine.atlas_served_ratio", "engine.lru_evictions", "net.ping_rtt_us"):
        m[k] = plain[k]
    m["net.flush_us"] = stages.get("flush", 0.0)
    m["engine.queue_wait_us"] = stages.get("queue_wait", 0.0)
    m["obs.trace_overhead_us_per_req"] = (traced["server_cpu_us_per_req"]
                                          - plain["server_cpu_us_per_req"])

    # Waterfall: the server CPU a request of each tier should cost by the
    # layers on its path, weighted by the tier mix of the plain run.  A memo
    # hit also looks the key up in the engine LRU (src/engine/server.cpp:377).
    g = lambda k: m.get(k, 0.0)
    front = g("engine.parse_us") + g("net.flush_us")
    path = {
        "memo": front + g("engine.lru_lookup_us"),
        "lru": front + g("engine.canonicalize_us") + g("engine.lru_lookup_us") + g("engine.render_us"),
        "atlas": front + g("engine.atlas_serve_us") + g("engine.render_us"),
        "cold": front + g("engine.canonicalize_us") + g("core.bracket_us") + g("core.search_us")
                + g("engine.render_us"),
    }
    total = sum(plain["tier." + t] for t in path) or 1
    predicted = sum(plain["tier." + t] * path[t] for t in path) / total
    cpu = plain["server_cpu_us_per_req"]
    m["waterfall.gap_pct"] = 100.0 * (cpu - predicted) / cpu

    print("trace %s: server span p50 (us): %s" % (
        workload, ", ".join("%s %.2f" % kv for kv in sorted(stages.items()))))
    print("trace %s: client-minus-server (wire) p50 %.2f us over %d joined requests"
          % (workload, p50(wire), len(wire)))
    print("trace %s: tier mix memo %d lru %d atlas %d cold %d" % (
        workload, plain["tier.memo"], plain["tier.lru"], plain["tier.atlas"], plain["tier.cold"]))
    for t in path:
        print("waterfall %s: %s path %.2f us" % (workload, t, path[t]))
    print("waterfall %s: predicted %.2f us/req, measured server CPU %.2f us/req, gap %.1f%%"
          % (workload, predicted, cpu, m["waterfall.gap_pct"]))
    print("trace %s: tracing overhead %.2f us/req (traced %.2f, plain %.2f)" % (
        workload, m["obs.trace_overhead_us_per_req"], traced["server_cpu_us_per_req"], cpu))
    for name in sorted(layers):
        print("layer %s: %s = %.4g" % (workload, name, layers[name]))

    runs = (plain, traced)
    metrics = {k: {"value": float(m.get(k, 0.0)), "unit": u} for k, u in units.items()}
    return runs, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_FLAGS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="perturb one answer per check and show each check fires")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metric_units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                    for kind in ("end_to_end", "per_layer")}

    build()
    if a.selftest:
        res = subprocess.run([PBENCH, "selftest"])
        return res.returncode

    load_before, ticks_before = loadavg(), cpu_ticks()
    if a.trace:
        runs, metrics = trace_metrics(a.workload, a.seed, a.seconds,
                                      metric_units["per_layer"])
    else:
        run = wire_run(a.workload, a.seed, a.seconds, traced=False)
        runs = (run,)
        metrics = {k: {"value": float(run[k]), "unit": u}
                   for k, u in metric_units["end_to_end"].items()}
    load_after, ticks_after = loadavg(), cpu_ticks()
    steal = 100.0 * (ticks_after[0] - ticks_before[0]) / max(1, ticks_after[1] - ticks_before[1])

    for r in runs:
        print("run %s seed %d: %d answered in %.2f s after %d warm-up requests in %.3f s (server CPU %.3f s); "
              "p50 %.2f us, p99 %.2f us over %d samples; whole-run %.1f req/s, "
              "%d windows; tiers memo %d lru %d atlas %d cold %d; failures %s"
              % (a.workload, a.seed, r["attempted"], r["timed_s"], r["warmup_requests"], r["warmup_s"],
                 r["warmup_server_cpu_s"],
                 r["latency_p50_us"], r["latency_p99_us"], r["latency_samples"],
                 r["req_per_s_whole"], r["windows"], r["tier.memo"], r["tier.lru"],
                 r["tier.atlas"], r["tier.cold"],
                 json.dumps(r["failures"], sort_keys=True)))
    print("host: nproc %d, loadavg before %s, after %s, steal %.1f%% of CPU time"
          % (os.cpu_count(), load_before, load_after, steal))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": int(sum(r["attempted"] for r in runs)),
        "failed": int(sum(r["failed"] for r in runs)),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        log("error:", err)
        sys.exit(1)
