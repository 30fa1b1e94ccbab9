#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the release `repro`
binary and the traced recomposition (`perfbench/tracer`) from source, runs
one workload (see README.md in this directory) for about S seconds, checks
every output, and prints a human-readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured by launching
`repro` as a user would, with all tracing off. With --trace 1 they are the
per-layer ones, from the in-process recomposition with spans plus the
instrumentation `repro` already exposes (--telemetry-json, /metrics.json and
the /requests span trail). Scratch files go to .perfbench_work/ in the
checkout. Exit status: 0 when every check passed, 1 when a check failed
(the JSON line is still printed), 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
REPRO = os.path.join(TARGET, "release", "repro")
TRACER = os.path.join(TARGET, "release", "perfbench-trace")

THREADS = 2  # every repro child, the server's workers and the client's connections
CLI_TIMEOUT_S = 120
HTTP_TIMEOUT_S = 30

# fig6_campaign: the paper grid at n = 8,192. 64 runs fill two 32-lane
# replica batches, one per thread.
FIG6_N, FIG6_RUNS, FIG6_CELLS = 8192, 64, 5 * 8
# sweep_journaled: 120 msgsim cells (3 p x 5 task-time families x 8
# techniques) at n = 4,096 under a journal.
SWEEP_RUNS, SWEEP_CELLS, SWEEP_RESUMES = 96, 120, 8
# serve_mix: fig5-shaped requests (n = 1,024, 5 p x 8 techniques).
SERVE_RUNS, SERVE_CELLS = 4, 5 * 8
SERVE_MISSES, SERVE_PAIRS, SERVE_HITS, SERVE_RESTARTS = 40, 5, 500, 3
# Correctness gate: digests of outputs at these fixed seeds, captured from
# the commit that defined the benchmark (golden.json). The golden runs are
# reduced in size and double as the warm-up.
GOLDEN_RUNS = 8
GOLDEN_FIG6_SEED = 0x20170529 ^ 8192
GOLDEN_SWEEP_SEED = 0x53EE9
GOLDEN_SERVE_SEEDS = [1, 2, 3, 4]

WORKLOADS = ("fig6_campaign", "sweep_journaled", "serve_mix")

END_TO_END = {
    "wall_s": "s",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "hit_ms_p50": "ms",
    "miss_ms_p50": "ms",
}

PER_LAYER = {
    "workload.generate_s": "s",
    "workload.tasks": "count",
    "workload.bytes_computed": "bytes",
    "core.build_s": "s",
    "core.chunk_s": "s",
    "core.chunks": "count",
    "des.events": "count",
    "des.fanout_events_per_s": "1/s",
    "msgsim.simulate_s": "s",
    "msgsim.calls": "count",
    "msgsim.ns_per_event": "ns",
    "hagerup.batch_s": "s",
    "hagerup.fallback_s": "s",
    "hagerup.tasks": "count",
    "hagerup.ns_per_task": "ns",
    "runner.self_s": "s",
    "runner.runs": "count",
    "journal.record_s": "s",
    "journal.flushes": "count",
    "journal.bytes_written": "bytes",
    "journal.open_s": "s",
    "journal.records": "count",
    "artifact.write_s": "s",
    "artifact.bytes": "bytes",
    "serve.cache_open_s": "s",
    "serve.cache_lookup_s": "s",
    "serve.compute_s": "s",
    "serve.serialize_s": "s",
    "serve.unspanned_s": "s",
    "serve.hit_ms_p99": "ms",
    "serve.miss_ms_p90": "ms",
    "serve.hit_ratio": "ratio",
    "serve.computations_per_miss": "ratio",
    "trace.overhead_frac": "ratio",
}

# Layer self times compared by the predictions the traced run checks.
LAYER_TIMES = (
    "workload.generate_s",
    "core.build_s",
    "core.chunk_s",
    "msgsim.simulate_s",
    "hagerup.batch_s",
    "hagerup.fallback_s",
    "runner.self_s",
    "journal.record_s",
)


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def derive_seed(workload, seed):
    """The program seed for a workload, a pure function of --seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def quantile(xs, q):
    """Linear-interpolation quantile of xs (0 <= q <= 1)."""
    s = sorted(xs)
    if not s:
        raise BenchError("no samples")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.lock = threading.Lock()

    def op(self, ok, reason=""):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.reasons.append(reason)
        return ok

    def check(self, ok, reason):
        """Marks the last operation failed when a later check on its output fails."""
        with self.lock:
            if not ok:
                self.failed += 1
                self.reasons.append(reason)
        return ok


# --- build ------------------------------------------------------------------


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    manifests = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "dls-repro"],
        ["--manifest-path", os.path.join(BENCH_DIR, "tracer", "Cargo.toml")],
    ]
    for args in manifests:
        if not os.path.isfile(args[1]):
            raise BenchError(f"{args[1]} is missing: run from the root of a source checkout")
        p = subprocess.run(
            ["cargo", "build", "--release", "--offline", "-q"] + args,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if p.returncode != 0:
            raise BenchError("cargo build failed:\n" + p.stderr[-4000:])
    for exe in (REPRO, TRACER):
        if not os.access(exe, os.X_OK):
            raise BenchError(f"build produced no {exe}")


# --- provenance -------------------------------------------------------------


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def provenance(seed, workload):
    def cmd(args):
        try:
            p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return p.stdout.strip() if p.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    src = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
        )
        for path in paths:
            src.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                src.update(f.read())
    profile, take = [], False
    for line in read(os.path.join(ROOT, "Cargo.toml")).splitlines():
        if line.startswith("["):
            take = line.strip() == "[profile.release]"
        elif take and line.strip() and not line.startswith("#"):
            profile.append(line.strip())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(os.path.join(base, idx, "level"))
        kind = read(os.path.join(base, idx, "type"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}"] = read(os.path.join(base, idx, "size"))
    model = next(
        (l.split(":", 1)[1].strip() for l in read("/proc/cpuinfo").splitlines() if l.startswith("model name")),
        "unknown",
    )
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": cmd(["git", "rev-parse", "--short", "HEAD"]),
        "source_sha256": src.hexdigest(),
        "rustc": cmd(["rustc", "-V"]),
        "release_profile": "; ".join(profile),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cache": caches,
    }


# --- launching repro --------------------------------------------------------


class Launch:
    """One finished `repro` process: exit code, times and peak RSS."""

    def __init__(self, rc, wall, setup, rss_mb, stdout, stderr):
        self.rc, self.wall, self.setup, self.rss_mb = rc, wall, setup, rss_mb
        self.stdout, self.stderr = stdout, stderr


def run_cli(args, cwd, banner):
    """Runs `repro ARGS` in cwd. `setup` is the time from launch to the first
    stderr line starting with `banner` (printed after option parsing and
    journal open); `wall` is launch to exit, after the CSV is on disk."""
    out_path = os.path.join(cwd, "stdout.txt")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen([REPRO] + args, cwd=cwd, stdout=out, stderr=subprocess.PIPE)
        timer = threading.Timer(CLI_TIMEOUT_S, p.kill)
        timer.start()
        setup, err = None, []
        for line in p.stderr:
            if setup is None and line.startswith(banner):
                setup = time.perf_counter() - t0
            err.append(line)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stderr.close()
    with open(out_path, "rb") as f:
        stdout = f.read().decode(errors="replace")
    return Launch(
        p.returncode, wall, setup, usage.ru_maxrss / 1024.0, stdout, b"".join(err).decode(errors="replace")
    )


def cli_ok(tally, launch, what):
    ok = launch.rc == 0 and launch.setup is not None
    return tally.op(ok, f"{what}: exit {launch.rc}: {launch.stderr.strip()[-300:]}")


def stop_when(start, seconds, durations, minimum):
    """Whether to stop iterating: at least `minimum` iterations ran and one
    more (as long as the slowest so far) would overrun the budget."""
    if len(durations) < minimum:
        return False
    return time.perf_counter() - start + max(durations) > seconds


# --- fig6_campaign ----------------------------------------------------------


def fig6_args(seed, runs):
    return ["fig6", "--runs", str(runs), "--threads", str(THREADS), "--seed", str(seed), "--csv", "csv"]


def fig6_golden(tally, golden):
    d = fresh_dir(os.path.join(WORK, "golden"))
    launch = run_cli(fig6_args(GOLDEN_FIG6_SEED, GOLDEN_RUNS), d, b"fig6:")
    if cli_ok(tally, launch, "fig6 golden"):
        digest = sha256_file(os.path.join(d, "csv", "fig6.csv"))
        tally.check(digest == golden["fig6_campaign"], f"fig6 golden digest {digest}")


def fig6_e2e(seed, seconds, tally, golden):
    fig6_golden(tally, golden)
    args = fig6_args(derive_seed("fig6_campaign", seed), FIG6_RUNS)
    first, rerun, digests, durations = [], [], set(), []
    start = time.perf_counter()
    while not stop_when(start, seconds, durations, 3):
        t = time.perf_counter()
        d = fresh_dir(os.path.join(WORK, f"fig6-{len(durations)}"))
        # The first launch computes into a fresh directory; the rerun asks
        # for the same figure again, which the CLI recomputes in full
        # because fig6 keeps no checkpoint.
        for samples in (first, rerun):
            launch = run_cli(args, d, b"fig6:")
            if cli_ok(tally, launch, "fig6"):
                samples.append(launch)
                digests.add(sha256_file(os.path.join(d, "csv", "fig6.csv")))
        durations.append(time.perf_counter() - t)
    tally.check(len(digests) == 1, f"fig6 CSV differs between identical launches: {sorted(digests)}")
    return cli_samples(first, rerun, FIG6_CELLS * FIG6_RUNS, stateless=True)


def cli_samples(cold, warm, runs, stateless):
    """Samples of a CLI workload: `cold` launches compute (the misses),
    `warm` launches ask for the same results again (the hits). Set-up is
    timed on the launches that start without persisted state: all of them
    when the workload keeps none (`stateless`)."""
    if not cold or not warm:
        raise BenchError("no successful launch to measure")
    return {
        "runs": runs,
        "wall": [l.wall for l in cold],
        "setup": [l.setup for l in (cold + warm if stateless else cold)],
        "resume": [l.wall for l in warm],
        "rss_mb": [l.rss_mb for l in cold],
        "hit": [l.wall for l in warm],
        "miss": [l.wall for l in cold],
    }


def summarize(samples):
    """The end-to-end metrics from a workload's samples."""
    wall = statistics.median(samples["wall"])
    return {
        "wall_s": wall,
        "runs_per_s": samples["runs"] / wall,
        "setup_s": statistics.median(samples["setup"]),
        "resume_s": statistics.median(samples["resume"]),
        "peak_rss_mb": statistics.median(samples["rss_mb"]),
        "hit_ms_p50": 1e3 * statistics.median(samples["hit"]),
        "miss_ms_p50": 1e3 * statistics.median(samples["miss"]),
    }


def fig6_trace(seed, seconds, tally):
    s = derive_seed("fig6_campaign", seed)
    d = fresh_dir(os.path.join(WORK, "fig6-trace"))
    args = fig6_args(s, FIG6_RUNS) + ["--telemetry-json", "telemetry.json"]
    launch = run_cli(args, d, b"fig6:")
    if not cli_ok(tally, launch, "fig6 --telemetry-json"):
        raise BenchError("the telemetry run failed: " + launch.stderr[-500:])
    with open(os.path.join(d, "telemetry.json")) as f:
        counters = {c["name"]: c["value"] for c in json.load(f)["counters"]}
    t = run_tracer(
        ["fig", "--n", str(FIG6_N), "--runs", str(FIG6_RUNS), "--threads", str(THREADS), "--seeds", str(s)],
        os.path.join(d, "traced"),
        seconds,
        tally,
    )
    for name, value in t["counts"].items():
        tally.check(
            counters.get(name, 0) == value,
            f"traced count {name} = {value}, --telemetry-json says {counters.get(name)}",
        )
    tally.check(
        sha256_file(t["csv"][0]) == sha256_file(os.path.join(d, "csv", "fig6.csv")),
        "traced fig6 CSV differs from the CLI's",
    )
    return fill_missing_layers(t["metrics"])


# --- sweep_journaled --------------------------------------------------------


def sweep_args(seed, runs, csv):
    return [
        "sweep", "--runs", str(runs), "--threads", str(THREADS), "--seed", str(seed),
        "--resume", "journal", "--csv", csv,
    ]


def journal_counts(stdout):
    """(replayed, newly recorded) from the CLI's `journal: ...` line."""
    for line in stdout.splitlines():
        if line.startswith("journal: "):
            words = line.split()
            return int(words[1]), int(words[4])
    return None


def sweep_golden(tally, golden):
    d = fresh_dir(os.path.join(WORK, "golden"))
    launch = run_cli(sweep_args(GOLDEN_SWEEP_SEED, GOLDEN_RUNS, "csv"), d, b"sweep:")
    if cli_ok(tally, launch, "sweep golden"):
        digest = sha256_file(os.path.join(d, "csv", "sweep.csv"))
        tally.check(digest == golden["sweep_journaled"], f"sweep golden digest {digest}")


def sweep_e2e(seed, seconds, tally, golden):
    sweep_golden(tally, golden)
    s = derive_seed("sweep_journaled", seed)
    records = SWEEP_CELLS * SWEEP_RUNS
    pass1, pass2, digests, durations = [], [], set(), []
    start = time.perf_counter()
    while not stop_when(start, seconds, durations, 3):
        t = time.perf_counter()
        d = fresh_dir(os.path.join(WORK, f"sweep-{len(durations)}"))
        launch = run_cli(sweep_args(s, SWEEP_RUNS, "pass1"), d, b"sweep:")
        if cli_ok(tally, launch, "sweep pass 1"):
            tally.check(journal_counts(launch.stdout) == (0, records), "sweep pass 1 journal counts")
            pass1.append(launch)
            first = sha256_file(os.path.join(d, "pass1", "sweep.csv"))
            digests.add(first)
            for k in range(SWEEP_RESUMES):
                launch = run_cli(sweep_args(s, SWEEP_RUNS, f"pass2-{k}"), d, b"sweep:")
                if cli_ok(tally, launch, "sweep pass 2"):
                    pass2.append(launch)
                    tally.check(
                        journal_counts(launch.stdout) == (records, 0), "sweep pass 2 re-executed runs"
                    )
                    tally.check(
                        sha256_file(os.path.join(d, f"pass2-{k}", "sweep.csv")) == first,
                        "sweep pass 2 CSV differs from pass 1",
                    )
        durations.append(time.perf_counter() - t)
    tally.check(len(digests) == 1, f"sweep CSV differs between identical launches: {sorted(digests)}")
    return cli_samples(pass1, pass2, SWEEP_CELLS * SWEEP_RUNS, stateless=False)


def sweep_trace(seed, seconds, tally):
    s = derive_seed("sweep_journaled", seed)
    d = fresh_dir(os.path.join(WORK, "sweep-trace"))
    traced = os.path.join(d, "traced")
    t = run_tracer(
        ["sweep", "--runs", str(SWEEP_RUNS), "--threads", str(THREADS), "--seeds", str(s)],
        traced,
        seconds,
        tally,
    )
    # The CLI resumes over the journal the recomposition wrote: every run
    # must replay and the CSV must match the recomposition's.
    args = ["sweep", "--runs", str(SWEEP_RUNS), "--threads", str(THREADS), "--seed", str(s),
            "--resume", os.path.join(traced, "journal"), "--csv", "csv"]
    launch = run_cli(args, d, b"sweep:")
    if cli_ok(tally, launch, "sweep resume over the traced journal"):
        records = SWEEP_CELLS * SWEEP_RUNS
        tally.check(journal_counts(launch.stdout) == (records, 0), "traced journal did not replay")
        tally.check(
            sha256_file(os.path.join(d, "csv", "sweep.csv")) == sha256_file(t["csv"][0]),
            "traced sweep CSV differs from the CLI's",
        )
    return fill_missing_layers(t["metrics"])


# --- serve_mix --------------------------------------------------------------


def http(port, method, path, body=b""):
    """One HTTP/1.1 request on its own connection (the server closes each).
    Returns (status, headers, body, seconds)."""
    t0 = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=HTTP_TIMEOUT_S) as s:
        s.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                break
            chunks.append(c)
    dt = time.perf_counter() - t0
    raw = b"".join(chunks)
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode(errors="replace").split("\r\n")
    status = int(lines[0].split()[1]) if lines and len(lines[0].split()) > 1 else 0
    headers = {}
    for line in lines[1:]:
        k, _, v = line.partition(":")
        headers[k.strip().lower()] = v.strip()
    return status, headers, payload, dt


def run_request(seed):
    return json.dumps({"fig": "fig5", "runs": SERVE_RUNS, "seed": seed, "threads": 1}).encode()


class Server:
    """A `repro serve` child on a free port, with its stderr drained."""

    def __init__(self, cache):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            [REPRO, "serve", "--addr", "127.0.0.1:0", "--cache", cache, "--workers", str(THREADS)],
            cwd=os.path.dirname(cache),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.rc = None
        self.rss_mb = 0.0
        # The listening banner follows any cache warm-up lines.
        marker, self.err = "listening on http://127.0.0.1:", []
        timer = threading.Timer(HTTP_TIMEOUT_S, self.p.kill)
        timer.start()
        for raw in self.p.stderr:
            self.err.append(raw.decode(errors="replace"))
            if marker in self.err[-1]:
                break
        timer.cancel()
        self.drain = threading.Thread(target=self._drain, daemon=True)
        self.drain.start()
        if not self.err or marker not in self.err[-1]:
            self.kill()
            raise BenchError("repro serve did not start: " + "".join(self.err).strip())
        self.port = int(self.err[-1].split(marker)[1].split()[0])

    def _drain(self):
        for line in self.p.stderr:
            self.err.append(line.decode(errors="replace"))

    def ready(self):
        """Polls /readyz; returns seconds from launch to the first 200."""
        deadline = time.perf_counter() + HTTP_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if http(self.port, "GET", "/readyz")[0] == 200:
                    return time.perf_counter() - self.t0
            except OSError:
                pass
            time.sleep(0.0005)
        raise BenchError("repro serve never became ready")

    def get_json(self, path):
        status, _, body, _ = http(self.port, "GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)

    def stop(self):
        """SIGINT (the server drains and exits 130); records peak RSS."""
        if self.rc is None:
            self.p.send_signal(signal.SIGINT)
            self._reap(HTTP_TIMEOUT_S)
        return self.rc

    def kill(self):
        if self.rc is None:
            self.p.kill()
            self._reap(None)

    def _reap(self, timeout):
        timer = threading.Timer(timeout, self.p.kill) if timeout else None
        if timer:
            timer.start()
        _, status, usage = os.wait4(self.p.pid, 0)
        if timer:
            timer.cancel()
        self.rc = self.p.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.drain.join()
        self.p.stderr.close()


def closed_loop(port, requests, tally, expect_cache, bodies):
    """Sends `requests` (seeds) over THREADS connections, each waiting for
    its reply before sending the next. Checks status, X-Cache and, where
    `bodies` holds a seed's first body, byte identity. Returns latencies."""
    lat, lock, cursor = [], threading.Lock(), iter(range(len(requests)))

    def worker():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            seed = requests[i]
            try:
                status, headers, body, dt = http(port, "POST", "/run", run_request(seed))
            except OSError as e:
                tally.op(False, f"serve seed {seed}: {e}")
                continue
            ok = status == 200 and headers.get("x-cache") == expect_cache
            with lock:
                known = bodies.setdefault(seed, body)
            ok = ok and known == body
            if tally.op(ok, f"serve seed {seed}: status {status}, X-Cache {headers.get('x-cache')}, "
                            f"identical {known == body}"):
                with lock:
                    lat.append(dt)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return lat


def coalesced_pairs(port, seeds, tally, bodies):
    """Each seed is requested twice at once; both answers must agree."""
    for seed in seeds:
        barrier, out = threading.Barrier(2), [None, None]

        def send(k, seed=seed, barrier=barrier, out=out):
            barrier.wait()
            try:
                out[k] = http(port, "POST", "/run", run_request(seed))
            except OSError as e:
                out[k] = e

        pair = [threading.Thread(target=send, args=(k,)) for k in range(2)]
        for t in pair:
            t.start()
        for t in pair:
            t.join()
        for r in out:
            ok = not isinstance(r, Exception) and r[0] == 200 and r[2] == out[0][2]
            tally.op(ok, f"coalesced pair seed {seed}: {r if isinstance(r, Exception) else r[0]}")
        if not isinstance(out[0], Exception):
            bodies[seed] = out[0][2]


class Session:
    """One serve_mix session: a cold server over an empty cache answers
    misses, coalesced pairs and hits; then warm restarts over the populated
    cache re-serve every key."""

    def __init__(self, index, seed, tally, trail=None):
        base = derive_seed("serve_mix", seed) + 1000 * index
        self.misses = [base + i for i in range(SERVE_MISSES)]
        self.pairs = [base + SERVE_MISSES + i for i in range(SERVE_PAIRS)]
        self.dir = fresh_dir(os.path.join(WORK, f"serve-{index}"))
        self.cache = os.path.join(self.dir, "cache")
        self.tally, self.trail = tally, trail
        self.bodies = {}

    def run(self, restarts):
        srv = Server(self.cache)
        try:
            srv.ready()
            self.miss_lat = closed_loop(srv.port, self.misses, self.tally, "miss", self.bodies)
            self._collect(srv)
            coalesced_pairs(srv.port, self.pairs, self.tally, self.bodies)
            hits = [self.misses[i % SERVE_MISSES] for i in range(SERVE_HITS)]
            self.hit_lat = []
            for lo in range(0, SERVE_HITS, 200):  # the server's trail keeps 256
                self.hit_lat += closed_loop(srv.port, hits[lo:lo + 200], self.tally, "hit", self.bodies)
                self._collect(srv)
            self.cold_wall = time.perf_counter() - srv.t0
            computed = srv.get_json("/metrics.json")
            self.computations = next(
                (c["value"] for c in computed["counters"] if c["name"] == "serve.computations"), 0
            )
            self.tally.check(
                self.computations == SERVE_MISSES + SERVE_PAIRS,
                f"{self.computations} computations for {SERVE_MISSES + SERVE_PAIRS} distinct keys",
            )
        finally:
            srv.stop()
        self.tally.check(srv.rc == 130, f"repro serve exited {srv.rc} on SIGINT, expected 130")
        self.rss_mb = srv.rss_mb
        self.setup, self.resume = [], []
        for _ in range(restarts):
            srv = Server(self.cache)
            try:
                self.setup.append(srv.ready())
                closed_loop(srv.port, self.misses + self.pairs, self.tally, "hit", self.bodies)
                self.resume.append(time.perf_counter() - srv.t0)
                self._collect(srv)
            finally:
                srv.stop()
            self.tally.check(srv.rc == 130, f"restarted repro serve exited {srv.rc}, expected 130")
        return self

    def _collect(self, srv):
        if self.trail is not None:
            for r in srv.get_json("/requests")["requests"]:
                self.trail[(srv.t0, r["id"])] = r


def serve_golden(tally, golden):
    d = fresh_dir(os.path.join(WORK, "golden"))
    srv = Server(os.path.join(d, "cache"))
    try:
        srv.ready()
        bodies = {}
        closed_loop(srv.port, GOLDEN_SERVE_SEEDS, tally, "miss", bodies)
        closed_loop(srv.port, GOLDEN_SERVE_SEEDS, tally, "hit", bodies)
    finally:
        srv.stop()
    digest = hashlib.sha256(b"".join(bodies.get(s, b"") for s in GOLDEN_SERVE_SEEDS)).hexdigest()
    tally.check(digest == golden["serve_mix"], f"serve golden digest {digest}")


def serve_e2e(seed, seconds, tally, golden):
    serve_golden(tally, golden)
    sessions, durations = [], []
    start = time.perf_counter()
    # At least 3 sessions, so a run holds 120 misses and 1,500 hits.
    while not stop_when(start, seconds, durations, 3):
        t = time.perf_counter()
        sessions.append(Session(len(sessions), seed, tally).run(SERVE_RESTARTS))
        durations.append(time.perf_counter() - t)
    hits = [x for s in sessions for x in s.hit_lat]
    misses = [x for s in sessions for x in s.miss_lat]
    if not hits or not misses:
        raise BenchError("no successful request to measure")
    return {
        "runs": (SERVE_MISSES + SERVE_PAIRS) * SERVE_CELLS * SERVE_RUNS,
        "wall": [s.cold_wall for s in sessions],
        "setup": [x for s in sessions for x in s.setup],
        "resume": [x for s in sessions for x in s.resume],
        "rss_mb": [s.rss_mb for s in sessions],
        "hit": hits,
        "miss": misses,
    }


def serve_trace(seed, seconds, tally):
    # Three sessions, so the client-side hit p99 and miss p90 each have at
    # least 10 samples beyond them.
    trail = {}
    sessions = [Session(i, seed, tally, trail).run(1) for i in range(3)]
    session = sessions[0]
    recomposed = session.misses[:8]
    t = run_tracer(
        ["fig", "--n", "1024", "--runs", str(SERVE_RUNS), "--threads", "1",
         "--seeds", ",".join(map(str, recomposed)), "--cache", session.cache],
        os.path.join(session.dir, "traced"),
        seconds / 2,  # the sessions above take the other half
        tally,
    )
    for s, path in zip(recomposed, t["csv"]):
        with open(path, "rb") as f:
            tally.check(f.read() == session.bodies.get(s), f"traced body for seed {s} differs from HTTP")
    tally.check(t["cache_entries"] == SERVE_MISSES + SERVE_PAIRS, "warm cache open lost entries")

    records = [r for r in trail.values() if r["status"] == 200]
    phase = lambda r, name: sum(s["dur_s"] for s in r["spans"] if s["name"] == name)
    misses = [r for r in records if r["outcome"] == "miss"]
    hits = [r for r in records if r["outcome"] == "hit"]
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0
    m = dict(t["metrics"])
    m.update({
        "serve.cache_lookup_s": mean([phase(r, "cache_lookup") for r in records]),
        "serve.compute_s": mean([phase(r, "compute") for r in misses]),
        "serve.serialize_s": mean([phase(r, "serialize") for r in records]),
        "serve.unspanned_s": mean([r["total_s"] - sum(s["dur_s"] for s in r["spans"]) for r in records]),
        "serve.hit_ms_p99": 1e3 * quantile([x for s in sessions for x in s.hit_lat], 0.99),
        "serve.miss_ms_p90": 1e3 * quantile([x for s in sessions for x in s.miss_lat], 0.90),
        "serve.hit_ratio": len(hits) / max(1, len(records)),
        "serve.computations_per_miss": statistics.fmean(
            s.computations / (SERVE_MISSES + 2 * SERVE_PAIRS) for s in sessions
        ),
    })
    return m


# --- traced recomposition ---------------------------------------------------


def run_tracer(args, out, seconds, tally):
    fresh_dir(out)
    p = subprocess.run(
        [TRACER] + args + ["--seconds", str(seconds), "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if p.returncode != 0:
        raise BenchError("perfbench-trace failed: " + p.stderr[-2000:])
    t = json.loads(p.stdout.strip().splitlines()[-1])
    tally.op(t["identical"], "traced recomposition is not bit-identical to the library entry point")
    return t


def fill_missing_layers(m):
    """Reports 0 for every per-layer metric the workload does not exercise."""
    m = dict(m)
    for k in PER_LAYER:
        m.setdefault(k, 0.0)
    return m


def predictions(workload, m):
    """The layer predictions the traced run can observe, as printable lines."""
    times = {k: m[k] for k in LAYER_TIMES}
    largest = max(times, key=times.get)
    lines = [f"largest layer by self time: {largest} ({times[largest]:.4f} s)"]
    if workload == "fig6_campaign":
        lines.append(f"journal time is 0: {m['journal.record_s'] == 0}")
        lines.append(f"msgsim is the largest layer: {largest == 'msgsim.simulate_s'}")
    if workload == "sweep_journaled":
        lines.append(f"replica time is 0: {m['hagerup.batch_s'] + m['hagerup.fallback_s'] == 0}")
        lines.append(f"journal is the largest layer: {largest == 'journal.record_s'}")
    return lines


# --- main -------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        build()
        with open(os.path.join(BENCH_DIR, "golden.json")) as f:
            golden = json.load(f)
        fresh_dir(WORK)
        stamp = provenance(a.seed, a.workload)
        load_start = os.getloadavg()[0]
        tally = Tally()
        samples = {}
        if a.trace:
            trace = {"fig6_campaign": fig6_trace, "sweep_journaled": sweep_trace, "serve_mix": serve_trace}
            values, units = trace[a.workload](a.seed, a.seconds, tally), PER_LAYER
        else:
            e2e = {"fig6_campaign": fig6_e2e, "sweep_journaled": sweep_e2e, "serve_mix": serve_e2e}
            samples = e2e[a.workload](a.seed, a.seconds, tally, golden)
            values, units = summarize(samples), END_TO_END
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    stamp["load_avg_start"] = load_start
    stamp["load_avg_end"] = os.getloadavg()[0]
    stamp["overloaded"] = max(load_start, stamp["load_avg_end"]) > (stamp["nproc"] or 1)

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(f"perfbench {a.workload} seed={a.seed} trace={a.trace}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    if stamp["overloaded"]:
        print(f"WARNING: load average exceeded nproc ({stamp['nproc']}) during this workload")
    for k, v in metrics.items():
        print(f"  {k:<28} {v['value']:>16.6g} {v['unit']}")
    print(f"  {'failed_frac':<28} {tally.failed / max(1, tally.attempted):>16.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for r in tally.reasons[:20]:
        print(f"  FAILED: {r}")
    if a.trace:
        for line in predictions(a.workload, values):
            print("  prediction: " + line)
    with open(os.path.join(WORK, "result.json"), "w") as f:
        json.dump({"provenance": stamp, "result": result, "samples": samples}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
