#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload merge-heavy --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the library, the
`spidermine` CLI and the in-process harness (perfbench/harness.cc) into
$CARGO_TARGET_DIR (default .bench_build). Inputs are generated into
.bench_work/ outside every timed region; results and spans land in
.bench_out/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. The line before
it carries the host stamp and the details behind each figure.

Workloads (see perfbench/README.md for the rationale and calibration):
  merge-heavy   in-process RunQuery closed loop; Stage II merging dominates
  stage1-build  repeated Stage I builds; spider layer and artifact I/O only
  serve-mix     the real `spidermine serve` over a unix socket, 4 clients
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

ROOT = os.path.dirname(HERE)
THREADS = 4  # pool threads, serve connections and reference workers

# merge-heavy: ER 5,000 vertices, avg degree 2.2, 16 labels, one planted
# 15-vertex pattern x 4; a fixed list of six query seeds. One pass over the
# list takes about 8 s at 4 threads on the calibration host; a run makes
# one pass per MH_PASS_S of --seconds, so 20 s gives 24 timed queries.
MH_GRAPH = ["--model=er", "--vertices=5000", "--avg-degree=2.2",
            "--labels=16", "--seed=42", "--inject-vertices=15",
            "--inject-count=4"]
MH_QUERY = {"k": 16, "dmax": 4, "vmin": 8, "seed_count": 0,
            "measure": "vertex-mis", "txn_sample": 0, "restarts": 1}
MH_SEEDS = [1, 2, 3, 4, 5, 6]
MH_PASS_S = 5.0
MH_SETUP_REPS = 15  # set-up takes ~4 ms: many repetitions steady its median

# stage1-build: BA scale-free graph, 2 edges per new vertex, 12 labels,
# support 3, default max-leaves 8. One build takes about 2.6 s.
SB_VERTICES = 20000
SB_BUILD_S = 2.6

# serve-mix: the bench_parallel_scaling graph, transaction id = vertex mod
# 64, requests mixing all six measures (transaction with and without a
# sample), seed_count in {64, 256, 1024}, k in {8, 16}, ~25% repeats.
SV_VERTICES = 20000
SV_GRAPH = ["--model=er", f"--vertices={SV_VERTICES}", "--avg-degree=2.5",
            "--labels=60", "--seed=42", "--inject-vertices=16",
            "--inject-count=4"]
SV_TXNS = 64
SV_TXN_SAMPLE = 16
# (measure, txn_sample, seed_count). Every measure appears, transaction
# with and without a sample, and seed counts 64, 256 and 1024, paired so
# that a cache miss costs about 0.1-0.75 s alone. Left out: count at 256
# and 1024 and the growth measures at 1024, which take 1-3.4 s alone and
# 8.6 s under 4-way contention. The growth combos run at k=8 and k=16,
# transaction once per block, so the median request lies inside the growth
# class, not on the steep edge between cheap (hit, transaction) and
# expensive requests where a few ranks move the value by half.
SV_MID = [("vertex-mis", 0, 256), ("edge-mis", 0, 256), ("mni", 0, 256),
          ("homomorphism", 0, 256), ("count", 0, 64)]
SV_LIGHT = [("transaction", 0, 1024), ("transaction", SV_TXN_SAMPLE, 64)]
SV_REPEAT_EVERY = 4   # every 4th request repeats an earlier one
SV_REPEAT_LAG = 8     # ...at least this many requests back (likely done)
SV_SETUP_REPS = 5
SV_BLOCK_S = 3.4      # one block with its repeats, served at 4 threads
SV_REQUEST_SEED = 42
SV_REPLAY_LIMIT = 24  # traced replays per serve-mix run (first distinct ones)

MIN_TAIL_SAMPLES = M.TAIL_BEYOND + 1


def run(cmd, **kwargs):
    """Runs a command, its output to stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   **kwargs)


# ------------------------------------------------------------------ build

def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build_dir, "-j", str(THREADS), "--target",
         "perfbench_harness", "spidermine_cli"])
    return {"dir": build_dir,
            "harness": os.path.join(build_dir, "perfbench_harness"),
            "cli": os.path.join(build_dir, "spidermine", "spidermine")}


def host_stamp(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                         line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    # The checkout may not be a git repository: a digest of the measured
    # sources identifies the code either way.
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": f"{compiler} ({version})",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "glibc": " ".join(platform.libc_ver()),
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES", ""),
        "python": platform.python_version(),
    }


# --------------------------------------------------------------- helpers

class Context:
    def __init__(self, args, tools, work, spans_path):
        self.args = args
        self.tools = tools
        self.work = work
        self.spans_path = spans_path

    def path(self, name):
        return os.path.join(self.work, name)

    def harness(self, mode, **flags):
        out = self.path(f"{mode}.json")
        cmd = [self.tools["harness"], mode, f"--out={out}"]
        cmd += [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
        run(cmd)
        with open(out) as f:
            return json.load(f)

    def reference(self, requests, **flags):
        """The 1-thread RunQuery answers for `requests`, keyed by
        request_line. An answer depends only on the built program and the
        input bytes, so answers are kept in .bench_cache/ under a digest of
        both and each is computed once per checkout."""
        digest = hashlib.sha256()
        for name in sorted(flags) + ["harness"]:
            value = self.tools["harness"] if name == "harness" else flags[name]
            digest.update(name.encode())
            if isinstance(value, str) and os.path.isfile(value):
                with open(value, "rb") as f:
                    digest.update(f.read())
            else:
                digest.update(str(value).encode())
        path = os.path.join(ROOT, ".bench_cache",
                            digest.hexdigest() + ".json")
        answers = {}
        if os.path.exists(path):
            with open(path) as f:
                answers = json.load(f)
        by_key = {request_line(r): r for r in requests}
        missing = sorted(k for k in by_key if k not in answers)
        if missing:
            req_path = write_requests(self, "reference.req",
                                      [by_key[k] for k in missing])
            result = self.harness("reference", requests=req_path, **flags)
            for key, body, error in zip(missing, result["bodies"],
                                        result["errors"]):
                answers[key] = {"body": body, "error": error}
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + ".tmp", "w") as f:
                json.dump(answers, f)
            os.replace(path + ".tmp", path)
        return ({k: answers[k]["body"] for k in by_key},
                sum(1 for k in by_key if answers[k]["error"]))

    def gen(self, name, graph_flags):
        out = self.path(name)
        run([self.tools["cli"], "gen", *graph_flags, f"--out={out}"])
        return out


def request_line(req):
    return " ".join(f"{k}={req[k]}" for k in sorted(req))


def write_requests(ctx, name, requests):
    path = ctx.path(name)
    with open(path, "w") as f:
        for req in requests:
            f.write(request_line(req) + "\n")
    return path


def latency_metrics(latencies):
    value, pct, beyond = M.tail(latencies)
    return value, {"tail_percentile": pct, "tail_samples_beyond": beyond,
                   "samples": len(latencies)}


def trace_result(per_layer, attempted, failed, notes):
    metrics = {name: 0.0 for name in M.PER_LAYER}
    metrics.update(per_layer)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": {"notes": notes}}


# ----------------------------------------------------------- merge-heavy

def merge_heavy(ctx):
    graph = ctx.gen("mh.smg", MH_GRAPH)
    seeds = list(MH_SEEDS)
    random.Random(ctx.args.seed).shuffle(seeds)
    requests = [dict(MH_QUERY, seed=s) for s in seeds]
    req_path = write_requests(ctx, "mh.req", requests)
    common = {"graph": graph, "support": 3, "requests": req_path}

    if ctx.args.trace:
        t = ctx.harness("trace", threads=THREADS, work_dir=ctx.work,
                        spans=ctx.spans_path, **common)
        failed = t["answer_mismatches"] + int(
            t["metrics"]["trace.counter_mismatches"])
        return trace_result(t["metrics"], len(requests), failed,
                            t["mismatch_notes"])

    ref_body, ref_errors = ctx.reference(
        requests, graph=graph, support=3, workers=THREADS)
    passes = max(2, math.ceil(ctx.args.seconds / MH_PASS_S))
    d = ctx.harness("inproc", threads=THREADS, passes=passes,
                    setup_reps=MH_SETUP_REPS, **common)
    mismatches = sum(
        1 for body, idx in zip(d["bodies"], d["request_index"])
        if body != ref_body[request_line(requests[idx])])
    errors = sum(1 for e in d["errors"] if e) + ref_errors
    attempted = len(d["latencies"])
    failed = min(attempted, mismatches + errors)
    tail_s, tail_info = latency_metrics(d["latencies"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": M.median(d["setup_s"]),
            "query_p50_s": M.median(d["latencies"]),
            "query_tail_s": tail_s,
            "queries_per_s": M.ratio(attempted, d["wall_s"]),
            "peak_rss_mb": d["max_rss_kb"] / 1024.0,
            "top_pattern_edges_mean": sum(d["top_edges"]) / attempted,
        },
        "details": dict(tail_info, passes=passes,
                        failed_ratio=M.ratio(failed, attempted),
                        transcript_mismatches=mismatches, errors=errors,
                        cpu_s=d["cpu_s"], setup_s_all=d["setup_s"]),
    }


# ---------------------------------------------------------- stage1-build

def stage1_build(ctx):
    graph = ctx.gen("sb.smg", ["--model=ba", f"--vertices={SB_VERTICES}",
                               "--ba-edges=2", "--labels=12",
                               f"--seed={ctx.args.seed}"])
    if ctx.args.trace:
        t = ctx.harness("trace", graph=graph, support=3, threads=THREADS,
                        work_dir=ctx.work, spans=ctx.spans_path)
        return trace_result(t["metrics"], 1, 0, t["mismatch_notes"])

    builds = max(MIN_TAIL_SAMPLES, math.ceil(ctx.args.seconds / SB_BUILD_S))
    d = ctx.harness("build", graph=graph, support=3, threads=THREADS,
                    builds=builds, work_dir=ctx.work)
    attempted = len(d["latencies"])
    failed = int(d["artifact_mismatches"])
    tail_s, tail_info = latency_metrics(d["latencies"])
    # The build is the measured operation: set-up and query latency are the
    # same samples here.
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": M.median(d["latencies"]),
            "query_p50_s": M.median(d["latencies"]),
            "query_tail_s": tail_s,
            "queries_per_s": M.ratio(attempted, d["wall_s"]),
            "peak_rss_mb": d["max_rss_kb"] / 1024.0,
            "top_pattern_edges_mean": d["mean_spider_edges"],
        },
        "details": dict(tail_info, builds=builds,
                        failed_ratio=M.ratio(failed, attempted),
                        spiders=d["spiders"],
                        artifact_bytes=d["artifact_bytes"],
                        cpu_s=d["cpu_s"]),
    }


# ------------------------------------------------------------- serve-mix

def serve_block(rng, block):
    """One block of distinct requests: every mid-cost combo at k=8 and
    k=16 and every light combo once, rng seeds drawn from `rng`."""
    combos = [(c, k) for c in SV_MID for k in (8, 16)]
    combos += [(c, (8, 16)[block % 2]) for c in SV_LIGHT]
    return [{"k": k, "dmax": 4, "vmin": 0, "seed": rng.randrange(1, 1 << 31),
             "seed_count": seed_count, "measure": measure,
             "txn_sample": txn_sample, "restarts": 1}
            for (measure, txn_sample, seed_count), k in combos]


def serve_stream(seed, blocks):
    """The request stream for one seed. The blocks and their requests are
    fixed (drawn from a constant seed), so every run sees the same work in
    the same proportions however far it gets; --seed shuffles the order
    within each block and picks the repeats. Every SV_REPEAT_EVERY-th
    request repeats one sent at least SV_REPEAT_LAG requests earlier, so it
    is usually answered and cached by then."""
    fixed = random.Random(SV_REQUEST_SEED)
    rng = random.Random(seed)
    sent, stream = [], []
    for block in range(blocks):
        order = serve_block(fixed, block)
        rng.shuffle(order)
        while order:
            if (len(stream) % SV_REPEAT_EVERY == SV_REPEAT_EVERY - 1
                    and len(sent) > SV_REPEAT_LAG):
                stream.append(rng.choice(sent[:len(sent) - SV_REPEAT_LAG]))
            else:
                sent.append(order.pop())
                stream.append(sent[-1])
    return stream


BODY_RE = re.compile(r'^\{"id":[^,]*,"line":\d+(,"ok":true,.*),"seconds":'
                     r'([0-9.]+),"timed_out":(?:true|false)\}$')


class Server:
    """One `spidermine serve` child on a unix socket. The socket path is
    relative to the repository root (the working directory of both sides),
    which keeps it under the 108-byte sun_path limit in deep checkouts."""

    def __init__(self, ctx, graph, artifact, txn_map, index):
        self.sock_path = os.path.relpath(ctx.path(f"serve{index}.sock"),
                                         ROOT)
        self.stderr_path = ctx.path(f"serve{index}.err")
        self.rusage = None
        self.stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [ctx.tools["cli"], "serve", graph, artifact,
             f"--txn-map={txn_map}", f"--socket={self.sock_path}",
             f"--threads={THREADS}", f"--max-inflight={THREADS}"],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.stderr)

    def connect(self, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.sock_path)
                return sock, sock.makefile("rwb")
            except OSError:
                sock.close()
                if self.proc.poll() is not None:
                    raise RuntimeError("serve exited during start-up")
                if time.monotonic() > deadline:
                    raise RuntimeError("serve did not start")
                time.sleep(0.001)

    def shutdown(self, stream):
        """Asks the server to drain and exit, and reaps it; a server that
        cannot take the request is killed instead."""
        try:
            stream.write(b'{"cmd":"shutdown"}\n')
            stream.flush()
            stream.readline()
        except OSError:
            self.proc.kill()
        self.wait()

    def wait(self, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while self.rusage is None:
            pid, _, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.proc.returncode = 0
            elif time.monotonic() > deadline:
                self.proc.kill()
                _, _, self.rusage = os.wait4(self.proc.pid, 0)
            else:
                time.sleep(0.01)
        self.stderr.close()

    def summary(self):
        with open(self.stderr_path) as f:
            text = f.read()
        out = {"hits": 0, "misses": 0, "kib": 0, "evicted": 0, "errors": 0,
               "rejected": 0}
        m = re.search(r"cache (\d+) hits / (\d+) misses \((\d+) KiB "
                      r"resident, (\d+) evicted\)", text)
        if m:
            out.update(hits=int(m.group(1)), misses=int(m.group(2)),
                       kib=int(m.group(3)), evicted=int(m.group(4)))
        m = re.search(r"answered, (\d+) errors(?:, (\d+) rejected)?", text)
        if m:
            out.update(errors=int(m.group(1)), rejected=int(m.group(2) or 0))
        return out


WARMUP = b'{"id":"warmup","k":1,"dmax":4,"seed":1,"seed_count":1}\n'


def start_server(ctx, inputs, index):
    """Spawns a server and times graph file -> first answer (the artifact's
    lazy CRC validation runs before that answer)."""
    start = time.perf_counter()
    server = Server(ctx, *inputs, index)
    try:
        sock, stream = server.connect()
        stream.write(WARMUP)
        stream.flush()
        if b'"ok":true' not in stream.readline():
            raise RuntimeError("warm-up request failed")
    except BaseException:
        server.proc.kill()
        server.wait()
        raise
    return server, sock, stream, time.perf_counter() - start


def drive(server, stream_reqs):
    """Four closed-loop connections over the shared request stream. Returns
    the start time, one record per request and when the last was sent."""
    lock = threading.Lock()
    next_index = [0]
    done_keys = set()
    records = [None] * len(stream_reqs)
    start = time.perf_counter()

    def client():
        sock, stream = server.connect()
        with sock:
            while True:
                with lock:
                    i = next_index[0]
                    if i >= len(stream_reqs):
                        return
                    next_index[0] += 1
                    key = request_line(stream_reqs[i])
                    predicted_hit = key in done_keys
                payload = json.dumps(dict(stream_reqs[i], id=i),
                                     separators=(",", ":")).encode() + b"\n"
                sent = time.perf_counter()
                stream.write(payload)
                stream.flush()
                line = stream.readline().decode().rstrip("\n")
                received = time.perf_counter()
                with lock:
                    done_keys.add(key)
                    records[i] = (sent, received, line, predicted_hit)

    threads = [threading.Thread(target=client) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return start, records, max(r[0] for r in records)


def serve_mix(ctx):
    graph = ctx.gen("sv.smg", SV_GRAPH)
    txn_map = ctx.path("sv.txn")
    with open(txn_map, "w") as f:
        for v in range(SV_VERTICES):
            f.write(f"{v} {v % SV_TXNS}\n")
    artifact = ctx.path("sv.sm2")
    run([ctx.tools["cli"], "stage1", graph, "--support=3",
         f"--threads={THREADS}", f"--out={artifact}"])
    inputs = (graph, artifact, txn_map)

    blocks = max(1, math.ceil(ctx.args.seconds / SV_BLOCK_S))
    stream_reqs = serve_stream(ctx.args.seed, blocks)
    setup_s = []
    for index in range(SV_SETUP_REPS):
        server, sock, stream, seconds = start_server(ctx, inputs, index)
        setup_s.append(seconds)
        if index + 1 < SV_SETUP_REPS:
            server.shutdown(stream)
            sock.close()
    try:
        start, records, last_send = drive(server, stream_reqs)
    finally:
        server.shutdown(stream)
        sock.close()
    summary = server.summary()
    ru = server.rusage
    cpu_s = ru.ru_utime + ru.ru_stime
    # Throughput counts the completions before the last request is sent,
    # while all four connections are busy, so the drain of the last
    # requests in flight does not dilute it.
    steady = sum(1 for r in records if r[1] <= last_send)
    wall = max(r[1] for r in records) - start

    # ---- per-request outcomes ----
    first_body = {}
    latencies, hit_lat, miss_lat, overhead = [], [], [], []
    top_edges = []
    errors = rejected = disagreements = 0
    bodies = [None] * len(stream_reqs)
    for i, (req, (sent, received, line, predicted_hit)) in enumerate(
            zip(stream_reqs, records)):
        latency = received - sent
        latencies.append(latency)
        m = BODY_RE.match(line)
        if not m:
            if '"overloaded"' in line:
                rejected += 1
            else:
                errors += 1
            continue
        body, seconds = m.group(1), float(m.group(2))
        bodies[i] = body
        # A cache hit must replay its miss byte for byte.
        if first_body.setdefault(request_line(req), body) != body:
            disagreements += 1
        (hit_lat if predicted_hit else miss_lat).append(latency)
        overhead.append(latency - seconds)
        patterns = json.loads("{" + body[1:] + "}")["patterns"]
        top_edges.append(patterns[0]["edges"] if patterns else 0)
    attempted = len(stream_reqs)
    distinct = list(dict.fromkeys(request_line(r) for r in stream_reqs))
    by_key = {request_line(r): r for r in stream_reqs}

    serve_layer = {
        "cache.hits": summary["hits"],
        "cache.misses": summary["misses"],
        "cache.hit_ratio": M.ratio(summary["hits"],
                                   summary["hits"] + summary["misses"]),
        "cache.evictions": summary["evicted"],
        "cache.bytes": summary["kib"] * 1024,
        "serve.hit_p50_s": M.median(hit_lat),
        "serve.miss_p50_s": M.median(miss_lat),
        "serve.overhead_p50_s": M.median(overhead),
        "serve.requests": attempted,
        "serve.errors": errors,
        "serve.rejected": rejected,
        "proc.cpu_s": cpu_s,
        "proc.cpu_util": M.ratio(cpu_s, wall * len(os.sched_getaffinity(0))),
        "proc.invol_ctx_switches": ru.ru_nivcsw,
        "proc.minor_faults": ru.ru_minflt,
    }

    if ctx.args.trace:
        replayable = [by_key[k] for k in distinct
                      if by_key[k]["txn_sample"] == 0][:SV_REPLAY_LIMIT]
        req_path = write_requests(ctx, "sv-replay.req", replayable)
        t = ctx.harness("trace", graph=graph, support=3, threads=THREADS,
                        txn_map=txn_map, requests=req_path,
                        work_dir=ctx.work, spans=ctx.spans_path)
        per_layer = dict(t["metrics"])
        per_layer.update(serve_layer)
        failed = (errors + rejected + disagreements + t["answer_mismatches"]
                  + int(t["metrics"]["trace.counter_mismatches"]))
        return trace_result(per_layer, attempted + len(replayable),
                            failed, t["mismatch_notes"])

    ref_body, ref_errors = ctx.reference(
        stream_reqs, graph=graph, artifact=artifact, txn_map=txn_map,
        workers=THREADS)
    mismatches = sum(1 for req, body in zip(stream_reqs, bodies)
                     if body is not None
                     and body != ref_body[request_line(req)])
    # Every hit/miss disagreement is also a mismatch against the reference.
    failed = min(attempted, errors + rejected + mismatches + ref_errors)
    tail_s, tail_info = latency_metrics(latencies)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": M.median(setup_s),
            "query_p50_s": M.median(latencies),
            "query_tail_s": tail_s,
            "queries_per_s": M.ratio(steady, last_send - start),
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "top_pattern_edges_mean": sum(top_edges) / max(1, len(top_edges)),
        },
        "details": dict(tail_info, requests=attempted,
                        distinct_requests=len(distinct),
                        failed_ratio=M.ratio(failed, attempted),
                        transcript_mismatches=mismatches,
                        hit_miss_disagreements=disagreements,
                        errors=errors, rejected=rejected,
                        setup_s_all=setup_s, serve=serve_layer),
        "samples": [{"request": request_line(req), "latency_s": lat,
                     "hit": rec[3]}
                    for req, lat, rec in zip(stream_reqs, latencies,
                                             records)],
    }


WORKLOADS = {
    "merge-heavy": merge_heavy,
    "stage1-build": stage1_build,
    "serve-mix": serve_mix,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    tools = build()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{run_id}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    ctx = Context(args, tools, work,
                  os.path.join(out_dir, f"{run_id}-spans.json"))
    try:
        result = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = M.PER_LAYER if args.trace else M.END_TO_END
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_stamp(tools["dir"]),
              "details": result["details"], "metrics": metrics,
              "samples": result.get("samples", [])}
    with open(os.path.join(out_dir, f"{run_id}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "trace", "host", "details")}))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
