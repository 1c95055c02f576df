#!/usr/bin/env python3
"""Repository benchmark: drives the real pooled_cli binaries end to end.

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 10 --trace 0

Builds pooled_cli and perfbench_tool from the sources of the checkout it
sits in (into .bench_build/), draws the workload from --seed, runs serve
or route fleets in cycles until --seconds of load have been measured,
checks every result against a scalar-kernel reference, and prints a
human-readable report followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
untraced and then traced (server span log, client spans, and an
in-process replay of the same requests through each layer) and reports
the per-layer metrics. README.md in this directory explains the
workloads and the metric table. Exit status is nonzero on any wrong,
missing or failed result, on an invalid run (generator behind,
non-repeating counts) and on a failed reconciliation.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
CLI = os.path.join(BUILD_DIR, "pooled", "pooled_cli")
TOOL = os.path.join(BUILD_DIR, "perfbench_tool")

NPROC = len(os.sched_getaffinity(0))
CLK_TCK = os.sysconf("SC_CLK_TCK")
STATS_FRAME = b"pooled-stats v2\nend\n"
MIN_CYCLES = 3
# A run whose generator sent a request more than this late (p99) fell
# behind its schedule and measures the generator, not the program.
LATE_LIMIT_MS = 20.0
# The traced run's replayed layer times must account for the served
# frames' `seconds` to within this share (either direction).
RECONCILE_BOUND = 0.25
# Wall-clock limit of one run after its build: each measured pass (one
# untraced, plus one traced) may take twice --seconds, since cycles run
# until --seconds have been measured and each adds its set-up; the margin
# covers generation, the replay and teardown.
RUN_MARGIN_S = 50


def run_deadline_s(seconds, trace):
    return int(RUN_MARGIN_S + (1 + trace) * 2 * seconds)

# Workload knobs. `serve` holds the extra pooled_cli serve flags.
WORKLOADS = {
    "batch_cold": {
        "mode": "pipe",
        "gen": {},
        "serve": ["--threads", str(NPROC), "--batch", "16", "--cache", "1024"],
        "replay": ["--shape", "tasks", "--lanes", str(NPROC), "--cache", "1024"],
    },
    "socket_hot": {
        "mode": "socket",
        "gen": {"conns": NPROC},
        "serve": ["--threads", str(NPROC), "--cache", "4096"],
        "replay": ["--shape", "tasks", "--lanes", str(NPROC), "--cache", "4096"],
    },
    "routed_mixed": {
        "mode": "open",
        "gen": {},
        "shards": 2,
        "serve": ["--threads", "2", "--cache", "128"],
        "replay": ["--shape", "threads", "--lanes", "2", "--pool-width", "2",
                   "--cache", "128"],
    },
}


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result."""


# -- build ---------------------------------------------------------------------


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"no {needed} next to {BENCH_DIR}: not a source checkout")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(NPROC),
               "--target", "pooled_cli", "perfbench_tool"])


def run_quiet(command):
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        log(done.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(command)}")


def build_type():
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def provenance(seed, workload, kernels):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": NPROC,
        "cpu_model": cpu,
        "kernels": kernels,
        "build_type": build_type(),
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def source_digest():
    """Digest of the sources the benchmark builds: identifies the code
    under test where no git metadata exists."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "tools", "pooled_cli.cpp")]
    for base in ("src", os.path.basename(BENCH_DIR)):
        for folder, dirs, files in os.walk(os.path.join(ROOT, base)):
            dirs.sort()
            paths += [os.path.join(folder, name) for name in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as source:
            digest.update(source.read())
    return digest.hexdigest()[:16]


# -- wire helpers ------------------------------------------------------------------


def read_frame(read_chunk):
    """Reads one `...end` frame with `read_chunk()` (bytes, b"" at EOF);
    blank liveness lines are skipped. Returns the frame's lines."""
    data = b""
    while True:
        lines = [line for line in data.split(b"\n")]
        complete = lines[:-1]
        if b"end" in complete:
            body = complete[:complete.index(b"end")]
            return [line.decode() for line in body if line.strip()]
        chunk = read_chunk()
        if not chunk:
            raise BenchError("stream ended before a complete frame")
        data += chunk


def parse_metrics(lines):
    """`pooled-stats-result` body lines -> {name: value}. Counters map to
    ints, gauges to (value, peak), labels to strings, histograms to a
    dict of their fields."""
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        kind, name = parts[0], parts[1]
        if kind == "counter":
            metrics[name] = int(parts[2])
        elif kind == "gauge":
            metrics[name] = (int(parts[2]), int(parts[4]))
        elif kind == "label":
            metrics[name] = " ".join(parts[2:])
        elif kind == "hist":
            metrics[name] = {parts[i]: float(parts[i + 1])
                             for i in range(2, len(parts) - 1, 2)}
    return metrics


def stats_over_socket(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(STATS_FRAME)
        lines = read_frame(lambda: conn.recv(65536))
    return parse_metrics(lines[2:])


def read_listening_port(process):
    """Waits for serve's `listening on <addr>` readiness line."""
    while True:
        line = process.stderr.readline()
        if not line:
            raise BenchError("serve exited before listening")
        found = re.search(rb"listening on 127\.0\.0\.1:(\d+)", line)
        if found:
            return int(found.group(1))


# -- fleet processes -----------------------------------------------------------------


class Fleet:
    """The serve/route processes of one cycle: spawns them, samples their
    thread counts, and reaps them with their resource usage."""

    def __init__(self):
        self.procs = []
        self.usage = {}
        self.threads_peak = 0
        self._sampling = None

    def spawn(self, command, **kwargs):
        process = subprocess.Popen(command, **kwargs)
        self.procs.append(process)
        return process

    def pids(self):
        return [p.pid for p in self.procs]

    def start_sampling(self):
        stop = threading.Event()

        def sample():
            while not stop.is_set():
                total = 0
                for pid in self.pids():
                    try:
                        with open(f"/proc/{pid}/status") as status:
                            for line in status:
                                if line.startswith("Threads:"):
                                    total += int(line.split()[1])
                    except OSError:
                        pass
                self.threads_peak = max(self.threads_peak, total)
                stop.wait(0.02)

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        self._sampling = (stop, thread)

    def stop_sampling(self):
        if self._sampling:
            self._sampling[0].set()
            self._sampling[1].join()
            self._sampling = None

    def reap(self, process, timeout=30.0):
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                process.returncode = os.waitstatus_to_exitcode(status)
                self.usage[process.pid] = usage
                return process.returncode
            if time.monotonic() > deadline:
                process.kill()
                deadline = time.monotonic() + 5.0
            time.sleep(0.005)

    def shutdown(self):
        """Stops whatever is still running (error paths)."""
        self.stop_sampling()
        for process in self.procs:
            if process.pid not in self.usage:
                if process.poll() is None:
                    process.kill()
                process.wait()
                self.usage.setdefault(process.pid, None)
        for process in self.procs:
            for stream in (process.stdin, process.stdout, process.stderr):
                if stream:
                    stream.close()

    def cpu_seconds(self, start_ticks):
        total = 0.0
        for pid, start in zip(self.pids(), start_ticks):
            usage = self.usage[pid]
            total += usage.ru_utime + usage.ru_stime - start / CLK_TCK
        return total

    def peak_rss_mb(self):
        return sum(self.usage[pid].ru_maxrss for pid in self.pids()) / 1024.0


def run_tool(arguments, pass_fds=(), close_after_start=()):
    tool = subprocess.Popen([TOOL] + arguments, stdout=subprocess.PIPE,
                            pass_fds=pass_fds, text=True)
    try:
        for stream in close_after_start:
            stream.close()
        out, _ = tool.communicate()
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
    if tool.returncode != 0:
        raise BenchError(f"perfbench_tool {arguments[0]} failed")
    return json.loads(out.strip().splitlines()[-1])


def serve_command(config, trace_file):
    command = [CLI, "serve"] + config["serve"]
    if trace_file:
        command += ["--trace", trace_file]
    return command


# -- one cycle per workload ------------------------------------------------------------
# A cycle is one fleet lifetime serving the seed's whole request set. Cycles
# repeat the same requests, so every cycle's counts must match.


def cycle_pipe(config, work, trace):
    fleet = Fleet()
    try:
        start = time.perf_counter()
        serve = fleet.spawn(
            serve_command(config, trace and os.path.join(work, "serve_spans.jsonl"))
            + ["--in", "-", "--out", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        # Ready once it answers a stats frame.
        os.write(serve.stdin.fileno(), STATS_FRAME)
        read_frame(lambda: os.read(serve.stdout.fileno(), 65536))
        setup = time.perf_counter() - start
        fleet.start_sampling()
        wfd, rfd = serve.stdin.fileno(), serve.stdout.fileno()
        summary = run_tool(
            ["load", "--dir", work, "--mode", "pipe", "--wfd", str(wfd),
             "--rfd", str(rfd), "--pids", str(serve.pid),
             "--stats-out", os.path.join(work, "stats.txt"),
             "--spans", os.path.join(work, "client_spans.jsonl") if trace else "-"],
            pass_fds=(wfd, rfd), close_after_start=(serve.stdin,))
        serve.stdin = None
        fleet.stop_sampling()
        if fleet.reap(serve) != 0:
            raise BenchError("serve exited nonzero")
        stats = read_stats_file(work)
        return finish_cycle(fleet, setup, summary, [stats], stats, None)
    finally:
        fleet.shutdown()


def cycle_socket(config, work, trace):
    fleet = Fleet()
    try:
        start = time.perf_counter()
        serve = fleet.spawn(
            serve_command(config, trace and os.path.join(work, "serve_spans.jsonl"))
            + ["--listen", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        port = read_listening_port(serve)
        setup = time.perf_counter() - start
        fleet.start_sampling()
        summary = run_tool(
            ["load", "--dir", work, "--mode", "socket", "--port", str(port),
             "--pids", str(serve.pid),
             "--stats-out", os.path.join(work, "stats.txt"),
             "--spans", os.path.join(work, "client_spans.jsonl") if trace else "-"])
        fleet.stop_sampling()
        serve.send_signal(signal.SIGTERM)
        if fleet.reap(serve) != 0:
            raise BenchError("serve exited nonzero after SIGTERM")
        stats = read_stats_file(work)
        return finish_cycle(fleet, setup, summary, [stats], stats, None)
    finally:
        fleet.shutdown()


def cycle_routed(config, work, trace):
    fleet = Fleet()
    try:
        start = time.perf_counter()
        shards = []
        for i in range(config["shards"]):
            trace_file = trace and os.path.join(work, f"shard{i}_spans.jsonl")
            shards.append(fleet.spawn(
                serve_command(config, trace_file) + ["--listen", "127.0.0.1:0"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE))
        ports = [read_listening_port(shard) for shard in shards]
        command = [CLI, "route"]
        for port in ports:
            command += ["--shard", f"127.0.0.1:{port}"]
        router = fleet.spawn(command, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # Ready once the router has dialed every shard.
        alive = re.search(rb"routing over \d+ shards \((\d+) alive\)",
                          router.stderr.readline())
        if not alive or int(alive.group(1)) != len(shards):
            raise BenchError("router did not start with every shard alive")
        setup = time.perf_counter() - start
        fleet.start_sampling()
        wfd, rfd = router.stdin.fileno(), router.stdout.fileno()
        summary = run_tool(
            ["load", "--dir", work, "--mode", "open", "--wfd", str(wfd),
             "--rfd", str(rfd),
             "--pids", ",".join(str(pid) for pid in fleet.pids()),
             "--stats-out", os.path.join(work, "stats.txt"),
             "--spans", os.path.join(work, "client_spans.jsonl") if trace else "-"],
            pass_fds=(wfd, rfd), close_after_start=(router.stdin,))
        router.stdin = None
        fleet.stop_sampling()
        if fleet.reap(router) != 0:
            raise BenchError("route exited nonzero")
        router_stats = read_stats_file(work)
        shard_stats = [stats_over_socket(port) for port in ports]
        for shard in shards:
            shard.send_signal(signal.SIGTERM)
        for shard in shards:
            if fleet.reap(shard) != 0:
                raise BenchError("a shard exited nonzero after SIGTERM")
        return finish_cycle(fleet, setup, summary, shard_stats, router_stats,
                            [s.get("serve.jobs_served", 0) for s in shard_stats])
    finally:
        fleet.shutdown()


def read_stats_file(work):
    with open(os.path.join(work, "stats.txt")) as stats:
        return parse_metrics(stats.read().splitlines())


def finish_cycle(fleet, setup, summary, server_stats, front_stats, split):
    hits = sum(s.get("cache.hits", 0) for s in server_stats)
    misses = sum(s.get("cache.misses", 0) for s in server_stats)
    return {
        "setup_s": setup,
        "summary": summary,
        "cpu_s": fleet.cpu_seconds(summary["cpu_start_ticks"]),
        "rss_mb": fleet.peak_rss_mb(),
        "threads_peak": fleet.threads_peak,
        "hits": hits,
        "misses": misses,
        "evictions": sum(s.get("cache.evictions", 0) for s in server_stats),
        "shard_hit_ratios": [
            s.get("cache.hits", 0) / max(1, s.get("cache.hits", 0) + s.get("cache.misses", 0))
            for s in server_stats],
        "queue_peak": max([s.get("serve.queue_depth", (0, 0))[1] for s in server_stats]),
        "retries": front_stats.get("route.jobs_retried", 0),
        "kernels": next((s["build.kernels"] for s in server_stats
                         if "build.kernels" in s), "unknown"),
        "split": split,
    }


CYCLES = {"pipe": cycle_pipe, "socket": cycle_socket, "open": cycle_routed}


def run_cycles(config, work, seconds, trace):
    cycles = []
    measured = 0.0
    while measured < seconds or len(cycles) < MIN_CYCLES:
        cycle = CYCLES[config["mode"]](config, work, trace)
        cycles.append(cycle)
        measured += cycle["summary"]["wall_s"]
    return cycles


# -- metrics ---------------------------------------------------------------------------------


def quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# A cycle with at least this many jobs yields its own latency percentiles
# (p99 then has ten or more samples beyond it); smaller cycles are pooled.
PER_CYCLE_SAMPLES = 1000


def latency_percentile(summaries, q):
    """Median over cycles of each cycle's percentile, which keeps one
    disturbed cycle from setting the run's tail; pooled over the run when
    cycles are too small for their own percentile."""
    if min(s["received"] for s in summaries) >= PER_CYCLE_SAMPLES:
        return statistics.median(quantile(s["latency_ms"], q) for s in summaries)
    return quantile([v for s in summaries for v in s["latency_ms"]], q)


def end_to_end(cycles):
    summaries = [c["summary"] for c in cycles]
    scored = sum(s["scored"] for s in summaries)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in cycles),
        "jobs_per_s": statistics.median(
            s["received"] / s["wall_s"] for s in summaries),
        "latency_p50_ms": latency_percentile(summaries, 0.50),
        "latency_p99_ms": latency_percentile(summaries, 0.99),
        "exact_rate": sum(s["exact"] for s in summaries) / max(1, scored),
        "cpu_ms_per_job": statistics.median(
            1e3 * c["cpu_s"] / c["summary"]["received"] for c in cycles),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in cycles),
    }, sum(s["received"] for s in summaries)


E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p99_ms": "ms", "exact_rate": "ratio", "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
}


def failures(cycles):
    """(attempted, failed): a job fails when it is wrong, errored, out of
    order or missing; a frame nobody asked for fails too."""
    attempted = failed = 0
    for cycle in cycles:
        s = cycle["summary"]
        attempted += s["attempted"] + s["prewarm"]
        failed += s["attempted"] - s["ok"] + s["prewarm_failed"] + s["unexpected"]
    return attempted, failed


def validity(cycles, expected_counts):
    """Reasons the run is invalid (empty when it is valid)."""
    reasons = []
    late = [v for c in cycles for v in c["summary"]["late_ms"]]
    if quantile(late, 0.99) > LATE_LIMIT_MS:
        reasons.append(f"generator fell behind: late p99 {quantile(late, 0.99):.2f} ms")
    if any(not c["summary"]["stats_frame"] for c in cycles):
        reasons.append("a cycle's stats frame went unanswered")
    if expected_counts:
        for c in cycles:
            if (c["hits"], c["misses"]) != expected_counts:
                reasons.append(f"cache hits/misses {c['hits']}/{c['misses']} "
                               f"!= scheduled {expected_counts[0]}/{expected_counts[1]}")
                break
    splits = {tuple(c["split"]) for c in cycles if c["split"] is not None}
    if len(splits) > 1:
        reasons.append(f"per-shard job split differs across cycles: {sorted(splits)}")
    return reasons


def scheduled_cache_counts(work):
    """socket_hot's exact cache counts per cycle, from the schedule:
    prewarmed frames hit, everything else misses once."""
    prewarm, hits, misses = set(), 0, 0
    with open(os.path.join(work, "requests.txt")) as requests:
        rows = [line.split() for line in requests]
    for phase, _, _, frame in rows:
        if phase == "w":
            prewarm.add(frame)
    for phase, _, _, frame in rows:
        if phase == "m":
            if frame in prewarm:
                hits += 1
            else:
                misses += 1
    return hits, misses + len(prewarm)


def per_layer(config, cycles, untraced, replay):
    summaries = [c["summary"] for c in cycles]
    received = sum(s["received"] for s in summaries)
    wall = sum(s["wall_s"] for s in summaries)
    layers = replay["layers"]

    def per_call(layer):
        entry = layers[layer]
        return 1e6 * entry["self_s"] / entry["calls"] if entry["calls"] else 0.0

    def weighted(key):
        return sum(s[key] * s["received"] for s in summaries) / max(1, received)

    decoded = layers["decode"]["calls"]
    served_per_cycle = statistics.mean(s["served_seconds_sum"] for s in summaries)
    hits = statistics.median(c["hits"] for c in cycles)
    misses = statistics.median(c["misses"] for c in cycles)
    late = [v for s in summaries for v in s["late_ms"]]
    routed = config["mode"] == "open"
    shares = [1.0]
    if routed:
        shares = [max(c["split"]) / max(1, sum(c["split"])) for c in cycles]
    return {
        "decode.self_us": per_call("decode"),
        "decode.queries": replay["queries"] / max(1, decoded),
        "verify.self_us": per_call("verify"),
        "verify.share": layers["verify"]["self_s"] / replay["execute_s"],
        "build.instance_us": per_call("build.instance"),
        "registry.make_decoder_us": per_call("registry.make_decoder"),
        "protocol.parse_us": per_call("protocol.parse"),
        "protocol.serialize_us": per_call("protocol.serialize"),
        "protocol.bytes_per_job": replay["bytes"] / max(1, replay["requests"]),
        "result_cache.key_us": per_call("result_cache.key"),
        "result_cache.lookup_us": per_call("result_cache.lookup"),
        "result_cache.insert_us": per_call("result_cache.insert"),
        "result_cache.hits": hits,
        "result_cache.misses": misses,
        "result_cache.hit_ratio": hits / max(1, hits + misses),
        "result_cache.evictions": statistics.median(c["evictions"] for c in cycles),
        "transport.send_us": weighted("send_us"),
        "transport.wait_us": weighted("wait_us"),
        "serve.overhead_us": weighted("rtt_overhead_us"),
        "router.overhead_us": weighted("due_overhead_us") if routed else 0.0,
        "router.shard_share_max": statistics.median(shares),
        "router.shard_hit_ratio": statistics.median(
            min(c["shard_hit_ratios"]) for c in cycles),
        "router.retries": sum(c["retries"] for c in cycles),
        "serve.queue_depth_peak": max(c["queue_peak"] for c in cycles),
        "serve.threads_peak": max(c["threads_peak"] for c in cycles),
        "gen.late_p99_ms": quantile(late, 0.99),
        "gen.cpu_share": sum(s["gen_cpu_s"] for s in summaries) / (wall * NPROC),
        "trace.overhead_jobs_per_s": statistics.median(
            s["received"] / s["wall_s"] for s in summaries) - untraced["jobs_per_s"],
        "trace.unattributed_share": 1.0 - replay["execute_s"] / served_per_cycle,
    }


LAYER_UNITS = {
    "decode.self_us": "us", "decode.queries": "count", "verify.self_us": "us",
    "verify.share": "ratio", "build.instance_us": "us",
    "registry.make_decoder_us": "us", "protocol.parse_us": "us",
    "protocol.serialize_us": "us", "protocol.bytes_per_job": "bytes",
    "result_cache.key_us": "us", "result_cache.lookup_us": "us",
    "result_cache.insert_us": "us", "result_cache.hits": "count",
    "result_cache.misses": "count", "result_cache.hit_ratio": "ratio",
    "result_cache.evictions": "count", "transport.send_us": "us",
    "transport.wait_us": "us", "serve.overhead_us": "us",
    "router.overhead_us": "us", "router.shard_share_max": "ratio",
    "router.shard_hit_ratio": "ratio", "router.retries": "count",
    "serve.queue_depth_peak": "count", "serve.threads_peak": "count",
    "gen.late_p99_ms": "ms", "gen.cpu_share": "ratio",
    "trace.overhead_jobs_per_s": "1/s", "trace.unattributed_share": "ratio",
}


# -- main ------------------------------------------------------------------------------------


def report_lines(title, metrics, units):
    lines = [f"== {title}"]
    for key, value in metrics.items():
        lines.append(f"  {key:<28} {value:>16.6f} {units[key]}")
    return lines


def on_deadline(signum, frame):
    raise BenchError("run exceeded its deadline")


def size_lines(replay):
    """Each instance size's share of the requests, of the decoded jobs and
    of the replayed execute time (key through verify): what a change that
    helps only large or only small jobs would act on."""
    sizes = replay["sizes"]
    totals = {key: max(sum(c[key] for c in sizes.values()), 1e-12)
              for key in ("requests", "decoded", "execute_s")}
    return [f"  size n={n}: requests {c['requests'] / totals['requests']:.3f}, "
            f"decoded {c['decoded'] / totals['decoded']:.3f}, "
            f"execute time {c['execute_s'] / totals['execute_s']:.3f}"
            for n, c in sorted(sizes.items(), key=lambda item: int(item[0]))]


def cycle_lines(cycles):
    """Per-cycle figures, so a disturbed cycle is visible in the report."""
    def row(label, value):
        return f"  cycle {label} " + " ".join(value(c) for c in cycles)
    return [
        row("jobs/s", lambda c: f"{c['summary']['received'] / c['summary']['wall_s']:.1f}"),
        row("p99 ms", lambda c: f"{quantile(c['summary']['latency_ms'], 0.99):.3f}"),
        row("cpu ms/job", lambda c: f"{1e3 * c['cpu_s'] / c['summary']['received']:.4f}"),
    ]


def run(args):
    config = WORKLOADS[args.workload]
    build()
    # Past the build, a run must end in bounded time even if a server
    # wedges: the alarm unwinds through every fleet's cleanup.
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(run_deadline_s(args.seconds, args.trace))
    work = os.path.join(BUILD_DIR, "runs", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, config, work)
    finally:
        if not args.trace:
            shutil.rmtree(work, ignore_errors=True)


def measure(args, config, work):
    gen = ["gen", "--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    for key, value in config["gen"].items():
        gen += [f"--{key}", str(value)]
    run_tool(gen)
    expected = scheduled_cache_counts(work) if args.workload == "socket_hot" else None

    cycles = run_cycles(config, work, args.seconds, trace=False)
    e2e, samples = end_to_end(cycles)
    all_cycles = list(cycles)
    lines = cycle_lines(cycles) + report_lines(
        f"{args.workload} end-to-end (tracing off, {len(cycles)} cycles, "
        f"{samples} latency samples)", e2e, E2E_UNITS)
    metrics, units = e2e, E2E_UNITS
    reasons = []
    replay_mismatches = 0
    if args.trace:
        traced = run_cycles(config, work, args.seconds, trace=True)
        all_cycles += traced
        replay = run_tool(["replay", "--dir", work] + config["replay"]
                          + ["--spans", os.path.join(work, "replay_spans.jsonl")])
        replay_mismatches = replay["mismatches"]
        metrics, units = per_layer(config, traced, e2e, replay), LAYER_UNITS
        served = statistics.mean(c["summary"]["served_seconds_sum"] for c in traced)
        lines += report_lines(
            f"{args.workload} per-layer (traced, {len(traced)} cycles; "
            f"spans in {os.path.relpath(work, ROOT)})", metrics, units)
        lines.append(f"  reconciliation: served frames {served:.6f} s per cycle, "
                     f"replayed layers {replay['execute_s']:.6f} s, "
                     f"replay mismatches {replay_mismatches}")
        lines += size_lines(replay)
        if replay["split"] and any(list(c["split"]) != replay["split"] for c in traced):
            reasons.append(f"replayed per-shard split {replay['split']} differs from "
                           f"the fleet's {traced[0]['split']}")
        if abs(metrics["trace.unattributed_share"]) > RECONCILE_BOUND:
            reasons.append(f"reconciliation failed: unattributed share "
                           f"{metrics['trace.unattributed_share']:+.3f} is outside "
                           f"±{RECONCILE_BOUND}")

    attempted, failed = failures(all_cycles)
    failed += replay_mismatches
    reasons += validity(all_cycles, expected)
    late = [v for c in all_cycles for v in c["summary"]["late_ms"]]
    gen_cpu = sum(c["summary"]["gen_cpu_s"] for c in all_cycles)
    gen_wall = sum(c["summary"]["wall_s"] for c in all_cycles)
    breakdown = {key: sum(c["summary"][key] for c in all_cycles)
                 for key in ("mismatches", "errors", "out_of_order", "unexpected")}
    breakdown["missing"] = sum(c["summary"]["attempted"] - c["summary"]["received"]
                               for c in all_cycles)
    lines.append(f"  fail_ratio {failed / max(1, attempted):.6f} ({failed} of {attempted} "
                 f"jobs; " + ", ".join(f"{k} {v}" for k, v in breakdown.items()) + ")")
    lines.append(f"  generator: late p99 {quantile(late, 0.99):.3f} ms, "
                 f"cpu share {gen_cpu / (gen_wall * NPROC):.4f}")
    if all_cycles[0]["split"] is not None:
        lines.append(f"  per-shard job split {all_cycles[0]['split']}")
    prov = provenance(args.seed, args.workload, all_cycles[0]["kernels"])
    lines.append("  provenance " + json.dumps(prov, sort_keys=True))
    lines += [f"  INVALID: {reason}" for reason in reasons]
    print("\n".join(lines), flush=True)

    record = {"provenance": prov, "trace": args.trace, "attempted": attempted,
              "failed": failed, "invalid": reasons, "metrics": metrics}
    with open(os.path.join(BUILD_DIR, "results.jsonl"), "a") as ledger:
        ledger.write(json.dumps(record, sort_keys=True) + "\n")

    correct = failed == 0 and not reasons
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as error:
        log(f"perfbench: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
