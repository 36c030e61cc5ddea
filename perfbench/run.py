#!/usr/bin/env python3
"""End-to-end benchmark of MinoanER: batch, out-of-core and served resolution.

Run from the repository root:

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 25 --trace 0

It builds the library, the `minoan` CLI and `perfbench_driver` (Release) into
the build directory (`$CARGO_TARGET_DIR`, default `.bench_build`), generates
the workload's corpus from the seed, measures for `--seconds`, checks every
output, and prints as its last line one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
CLI = os.path.join(BUILD, "minoan", "minoan")

# Generated clouds differ in shape from seed to seed, so a batch run resolves
# `corpora` clouds (seeds seed*corpora .. seed*corpora+corpora-1), round-robin
# until the time is spent, and reports the median over clouds of each cloud's
# median.
WORKLOADS = {
    # `minoan resolve --threads 4` on a mixed cloud (8 center KBs, 16
    # periphery), exhaustive, CLI defaults.
    "batch-mixed": {
        "kind": "batch",
        "generate": ["--entities", "6000", "--kbs", "24", "--center", "8"],
        "threads": 4,
        "flags": [],
        "corpora": 4,
    },
    # Periphery-only cloud, one thread, a 16 MiB shuffle budget (the static
    # phases spill) and a comparison budget of about 10% of the candidates.
    # 48 KBs keep every cloud's ~0.8-1M candidates on one side of the
    # resolver's table growth near 730k, which moves peak RSS by half.
    "budgeted-spill": {
        "kind": "batch",
        "generate": ["--entities", "12500", "--kbs", "48", "--center", "0"],
        "threads": 1,
        "flags": ["--memory-budget", "16m", "--budget", "90000"],
        "corpora": 8,
    },
    # `minoan serve --threads 2` under closed-loop traffic from 4 tenants.
    "served-mixed": {"kind": "served", "daemon_threads": 2},
}

# Latency metrics are reported over at least this many samples, so that the
# 99th percentile has ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
# Set-up-only daemon launches of a served run (the batch tenant rotates over
# 4 sources); the traffic launch adds one more set-up time.
SERVED_SETUPS = 4
# Largest share of progressive.step_s the two step-loop replays may
# over-account before the split counts as broken.
REPLAY_TOLERANCE = 0.10

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("t50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("recall", "ratio"),
    ("precision", "ratio"),
    ("ops_per_s", "1/s"),
]

PER_LAYER = [
    ("rdf.parse_s", "s"),
    ("rdf.triples_per_s", "1/s"),
    ("kb.build_s", "s"),
    ("kb.descriptions", "count"),
    ("blocking.build_s", "s"),
    ("blocking.clean_s", "s"),
    ("blocking.blocks", "count"),
    ("blocking.comparisons", "count"),
    ("extmem.spill_bytes", "bytes"),
    ("extmem.runs", "count"),
    ("extmem.cascade_merges", "count"),
    ("metablocking.prune_s", "s"),
    ("metablocking.candidates", "count"),
    ("metablocking.retained_frac", "ratio"),
    ("matching.substrate_s", "s"),
    ("output.write_s", "s"),
    ("progressive.begin_s", "s"),
    ("progressive.step_s", "s"),
    ("progressive.comparisons", "count"),
    ("progressive.matches", "count"),
    ("progressive.match_yield", "ratio"),
    ("progressive.ns_per_comparison", "ns"),
    ("scheduler.ns_per_op", "ns"),
    ("similarity.ns_per_pair", "ns"),
    ("progressive.residual_s", "s"),
    ("progressive.slice_p50_ms", "ms"),
    ("progressive.slice_p99_ms", "ms"),
    ("pool.tasks", "count"),
    ("pool.busy_s", "s"),
    ("pool.queue_wait_s", "s"),
    ("online.ingest_us", "us"),
    ("online.query_us", "us"),
    ("online.resolve_ns_per_comparison", "ns"),
    ("server.ingest_p50_ms", "ms"),
    ("server.ingest_p99_ms", "ms"),
    ("server.query_p50_ms", "ms"),
    ("server.query_p99_ms", "ms"),
    ("server.resolve_p50_ms", "ms"),
    ("server.resolve_p99_ms", "ms"),
    ("server.step_p50_ms", "ms"),
    ("server.step_p99_ms", "ms"),
    ("server.ingest_overhead_us", "us"),
    ("server.query_overhead_us", "us"),
    ("server.resolve_overhead_us", "us"),
    ("server.step_overhead_us", "us"),
    ("server.create_ms", "ms"),
    ("server.vmsize_growth_mb", "MB"),
    ("server.threads_end", "count"),
    ("server.fds_end", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout, **kw):
    """Runs a child to completion; returns its stdout. Raises on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, **kw)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (
            os.path.basename(cmd[0]), proc.returncode, proc.stderr.strip()[-400:]))
    return proc.stdout


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at %s: run from the repository root" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 600)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver",
         "minoan_cli"], 900)


def corpus(spec, seed, path):
    """Generates the workload's cloud for `seed` into `path`; returns it."""
    run([CLI, "generate", "--out", path, "--seed", str(seed)] + spec["generate"], 170)
    return path


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


class Checks:
    """Counts operations attempted and failed; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 8:
                self.reasons.append(reason)
        return ok


def code_fingerprint():
    """CRC-32 of the built driver and CLI: links digests are compared only
    between runs of the same program."""
    crc = 0
    for path in (DRIVER, CLI):
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                crc = zlib.crc32(chunk, crc)
    return crc


def digest_record(name, spec, seed, digest, checks):
    """Links digest must match every earlier run of this workload, seed and
    build of the program."""
    key = zlib.crc32(json.dumps(spec, sort_keys=True).encode(), code_fingerprint())
    path = os.path.join(BUILD, "digests", "%s-%08x-%d" % (name, key, seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            checks.check(f.read().strip() == digest,
                         "links digest differs from an earlier run of this seed")
    else:
        with open(path, "w") as f:
            f.write(digest)


# Span names of a traced batch run and the per-layer times they give. The
# driver spans the calls it makes outside the session; the session records
# its own phases (ResolutionSession with obs.enable_trace).
SPAN_METRICS = {
    "rdf.parse": "rdf.parse_s",
    "kb.build": "kb.build_s",
    "blocking": "blocking.build_s",
    "block-cleaning": "blocking.clean_s",
    "meta-blocking": "metablocking.prune_s",
    "graph+evaluator": "matching.substrate_s",
    "schedule-priming": "progressive.begin_s",
    "step": "progressive.step_s",
    "output.write": "output.write_s",
}


def spans(trace):
    """The driver's and the session's spans on one timeline (seconds), each
    with its parent id: the innermost span one level up that encloses it."""
    events = [dict(e, origin=0) for e in trace["driver"]["traceEvents"]]
    events += [dict(e, origin=trace["open_call_us"]) for e in trace["session"]["traceEvents"]]
    out = []
    for e in sorted(events, key=lambda e: (e["ts"] + e["origin"], e["args"]["depth"])):
        start = (e["ts"] + e["origin"]) * 1e-6
        out.append({"id": len(out) + 1, "name": e["name"], "depth": e["args"]["depth"],
                    "start": start, "end": start + e["dur"] * 1e-6, "parent": 0})
    for span in out:
        for outer in reversed(out[:span["id"] - 1]):
            if outer["depth"] == span["depth"] - 1:
                span["parent"] = outer["id"]
                break
    return out


def traced_layers(rec):
    """Per-layer metrics of one traced resolution."""
    layers = dict(rec["layers"])
    tree = spans(layers.pop("trace"))
    self_s = {s["id"]: s["end"] - s["start"] for s in tree}
    for s in tree:
        if s["parent"]:
            self_s[s["parent"]] -= s["end"] - s["start"]
    totals = {}
    for s in tree:
        totals[s["name"]] = totals.get(s["name"], 0) + s["end"] - s["start"]
    for span, metric in SPAN_METRICS.items():
        layers[metric] = totals.get(span, 0)
    root = next(s for s in tree if s["parent"] == 0 and s["name"] == "run")
    layers["trace.coverage"] = sum(t for i, t in self_s.items() if i != root["id"]) / (
        root["end"] - root["start"])
    layers["rdf.triples_per_s"] = layers["rdf.triples"] / layers["rdf.parse_s"]
    step_s, comparisons = layers["progressive.step_s"], layers["progressive.comparisons"]
    layers["progressive.ns_per_comparison"] = step_s * 1e9 / comparisons if comparisons else 0
    # The Step's time minus its scheduler operations and comparisons priced at
    # the replays' rates.
    layers["progressive.residual_s"] = (
        step_s - layers["scheduler.ns_per_op"] * 1e-9 * layers["step.scheduler_ops"]
        - layers["similarity.ns_per_pair"] * 1e-9 * comparisons)
    layers["guard.replay_within_step"] = (
        layers["progressive.residual_s"] >= -REPLAY_TOLERANCE * step_s)
    return layers


def run_batch(name, spec, seed, seconds, trace):
    checks = Checks()
    work = os.path.join(BUILD, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    spill = os.path.join(work, "spill")
    os.makedirs(spill)
    count = spec["corpora"]
    seeds = [seed * count + k for k in range(count)]
    corpora = [corpus(spec, s, os.path.join(work, "corpus-%d" % s)) for s in seeds]
    flags = ["--threads", str(spec["threads"])] + spec["flags"]
    if "--memory-budget" in flags:
        flags += ["--spill-dir", spill]

    def resolve(k, extra_flags, traced, tag):
        out = os.path.join(work, "links-%d-%s.nt" % (k, tag))
        cmd = [DRIVER, "batch", corpora[k], "--out", out] + extra_flags
        if traced:
            cmd.append("--trace")
        rec = last_json(run(cmd, 170))
        if traced:
            rec["layers"] = traced_layers(rec)
        checks.check(not os.listdir(spill), "spill directory not emptied")
        return rec

    # Round-robin over the corpora until the time is spent and every corpus
    # ran at least once; a traced run pairs each resolution with a traced one.
    untraced = [[] for _ in corpora]
    traced = [[] for _ in corpora]
    start = time.monotonic()
    i = 0
    while time.monotonic() - start < seconds or i < len(corpora):
        k = i % len(corpora)
        untraced[k].append(resolve(k, flags, False, str(i)))
        if trace:
            traced[k].append(resolve(k, flags, True, str(i)))
        i += 1
    for k, s in enumerate(seeds):
        runs = untraced[k] + traced[k]
        digest = runs[0]["digest"]
        for rec in runs:
            checks.check(rec["digest"] == digest, "links digest differs between resolutions")
        digest_record(name, spec, s, digest, checks)

    # CLI parity: `minoan resolve` with the same flags writes the same bytes.
    cli_out = os.path.join(work, "links-cli.nt")
    run([CLI, "resolve", corpora[0], "--out", cli_out] + flags, 170)
    with open(cli_out, "rb") as a, open(os.path.join(work, "links-0-0.nt"), "rb") as b:
        checks.check(a.read() == b.read(), "links differ from `minoan resolve`")
    if spec["threads"] != 1:
        k = 1 % len(corpora)
        one = resolve(k, ["--threads", "1"] + flags[2:], False, "1thread")
        checks.check(one["digest"] == untraced[k][0]["digest"],
                     "links differ between %d threads and 1" % spec["threads"])
    for rec in sum(traced, []):
        layers = rec["layers"]
        checks.check(layers["guard.replay_candidates"],
                     "replayed candidates differ from the session's")
        checks.check(layers["guard.pops_equal_candidates"], "scheduler replay lost pops")
        checks.check(layers["guard.checksum_finite"], "similarity replay checksum")
        checks.check(layers["guard.replay_within_step"],
                     "step-loop replays exceed progressive.step_s")
        checks.check(layers["trace.coverage"] >= 0.95, "trace.coverage below 0.95")
    shutil.rmtree(work, ignore_errors=True)

    # Per cloud the median over its resolutions, then the median over clouds:
    # the generator has a heavy tail (the odd cloud needs half again the
    # memory and time of its neighbours), which a mean would follow.
    def median_of_medians(value):
        return statistics.median(statistics.median(value(r) for r in recs) for recs in untraced)

    flat = sum(untraced, [])
    slices = [x for r in flat for x in r["slices_ms"]]
    e2e = {
        "wall_s": median_of_medians(lambda r: r["wall_s"]),
        "setup_s": median_of_medians(lambda r: r["setup_s"]),
        "t50_s": median_of_medians(lambda r: r["t50_s"]),
        "peak_rss_mb": median_of_medians(lambda r: r["peak_rss_mb"]),
        "recall": median_of_medians(lambda r: r["recall"]),
        "precision": median_of_medians(lambda r: r["precision"]),
        "ops_per_s": median_of_medians(lambda r: r["comparisons"] / r["wall_s"]),
    }
    e2e = {key: (value, len(flat)) for key, value in e2e.items()}
    layers = {}
    flat_traced = sum(traced, [])
    if flat_traced:
        for key, _ in PER_LAYER:
            values = [r["layers"][key] for r in flat_traced if key in r["layers"]]
            if values:
                layers[key] = (statistics.median(values), len(values))
        layers["progressive.slice_p50_ms"] = (statistics.median(slices), len(slices))
        layers["progressive.slice_p99_ms"] = (quantile(slices, 0.99), len(slices))
        ratios = [t["wall_s"] / u["wall_s"] for k in range(len(corpora))
                  for u, t in zip(untraced[k], traced[k])]
        layers["trace.overhead"] = (statistics.median(ratios), len(ratios))
    return checks, e2e, layers


def proc_status(pid):
    fields = {}
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    fds = len(os.listdir("/proc/%d/fd" % pid))
    kb = lambda key: int(fields[key].split()[0])  # noqa: E731
    return {"vmsize_kb": kb("VmSize"), "hwm_kb": kb("VmHWM"),
            "threads": int(fields["Threads"]), "fds": fds}


class Daemon:
    """One `minoan serve` child on an ephemeral port; always stopped."""

    def __init__(self, threads, state_dir):
        shutil.rmtree(state_dir, ignore_errors=True)
        os.makedirs(state_dir)
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--listen", "127.0.0.1:0", "--threads", str(threads),
             "--state-dir", state_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"127\.0\.0\.1:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError("daemon did not report its port: %r" % line)
        self.port = int(match.group(1))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_served(name, spec, seed, seconds, trace):
    checks = Checks()
    state = os.path.join(BUILD, "work", name, "state")
    # Set-up is timed on extra launches too, one per batch source, so its
    # median is not one corpus's cost.
    setups = []
    for k in range(SERVED_SETUPS):
        daemon = Daemon(spec["daemon_threads"], state)
        try:
            rec = last_json(run([DRIVER, "served", "--port", str(daemon.port), "--seed",
                                 str(seed), "--t0", repr(daemon.t0), "--setup-only", str(k)],
                                170))
            setups.append(rec["setup_s"])
        finally:
            daemon.stop()
    daemon = Daemon(spec["daemon_threads"], state)
    try:
        before = proc_status(daemon.proc.pid)
        rec = last_json(run([DRIVER, "served", "--port", str(daemon.port), "--seed", str(seed),
                             "--seconds", str(seconds), "--t0", repr(daemon.t0)], 175))
        after = proc_status(daemon.proc.pid)
    finally:
        daemon.stop()
        shutil.rmtree(state, ignore_errors=True)
    setups.append(rec["setup_s"])
    checks.check(daemon.proc.returncode == 0, "daemon did not shut down cleanly")
    checks.attempted += rec["attempted"]
    checks.failed += rec["failed"]
    if rec["failed"]:
        checks.reasons.append(rec["error"] or "served request failed")
    checks.check(rec["batch_sessions_finished"] > 0, "no batch session finished")
    for key in ("ingest_ms", "query_ms", "resolve_ms", "step_ms"):
        checks.check(len(rec[key]) >= MIN_LATENCY_SAMPLES,
                     "%s: %d samples, fewer than %d" % (key, len(rec[key]), MIN_LATENCY_SAMPLES))

    e2e = {
        "wall_s": (statistics.median(rec["wall_s"]), len(rec["wall_s"])),
        "setup_s": (statistics.median(setups), len(setups)),
        "t50_s": (statistics.median(rec["t50_s"]), len(rec["t50_s"])),
        "peak_rss_mb": (after["hwm_kb"] / 1024.0, 1),
        "recall": (rec["recall"], len(rec["wall_s"])),
        "precision": (rec["precision"], len(rec["wall_s"])),
        "ops_per_s": (rec["requests"] / rec["window_s"], rec["requests"]),
    }
    layers = {}
    for kind in ("ingest", "query", "resolve", "step"):
        samples = rec[kind + "_ms"]
        layers["server.%s_p50_ms" % kind] = (statistics.median(samples), len(samples))
        layers["server.%s_p99_ms" % kind] = (quantile(samples, 0.99), len(samples))
    for key in ("online.ingest_us", "online.query_us", "online.resolve_ns_per_comparison",
                "server.ingest_overhead_us", "server.query_overhead_us",
                "server.resolve_overhead_us", "server.step_overhead_us"):
        layers[key] = (rec[key], 1)
    layers["server.create_ms"] = (statistics.median(rec["create_ms"]), len(rec["create_ms"]))
    layers["server.vmsize_growth_mb"] = ((after["vmsize_kb"] - before["vmsize_kb"]) / 1024.0, 2)
    layers["server.threads_end"] = (after["threads"], 1)
    layers["server.fds_end"] = (after["fds"], 1)
    return checks, e2e, layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    try:
        build()
        runner = run_batch if spec["kind"] == "batch" else run_served
        checks, e2e, layers = runner(args.workload, spec, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1

    wanted = PER_LAYER if args.trace else END_TO_END
    measured = layers if args.trace else e2e
    metrics = {}
    print("%-36s %16s  %-6s %8s" % ("metric", "value", "unit", "samples"))
    for key, unit in wanted:
        # A layer the workload does not exercise reads 0 (see README.md).
        value, samples = measured.get(key, (0, 0))
        metrics[key] = {"value": value, "unit": unit}
        print("%-36s %16.6g  %-6s %8d" % (key, value, unit, samples))
    for reason in checks.reasons:
        print("FAILED: %s" % reason)
    print("%d of %d operations failed" % (checks.failed, checks.attempted))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
