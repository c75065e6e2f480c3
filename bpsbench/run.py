#!/usr/bin/env python3
"""The bpsio benchmark: capture overhead, live-stack throughput and
freshness, offline report rate, and simulator rate, with a traced per-layer
run. See bpsbench/README.md.

Run from the root of a bpsio checkout:

    python3 bpsbench/run.py --workload live_fanin --seed 7 --seconds 10 --trace 0

The first run builds the repository (Release) and the bpsbench helper into
.bench_build/; every run works in .bench_run/. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 it carries every end-to-end metric, with --trace 1 every
per-layer metric. Every run executes all four sections (capture, live,
offline, zoo) in interleaved rounds, because every run reports every
metric; the workload decides the traffic each section gets.

    python3 bpsbench/run.py --compare A.json B.json

diffs two saved results (.bench_run/results/) and refuses to compare
results from different hosts or builds.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
RUN = os.path.join(ROOT, ".bench_run")
BENCH_SRC = os.path.join(ROOT, "bpsbench")
REPO_BUILD = os.path.join(BUILD, "repo")
HELPER_BUILD = os.path.join(BUILD, "bpsbench")
BUILD_TYPE = "Release"

# Two traffic shapes. Every run reports every end-to-end metric, so both
# drive all four sections; what differs is the input each section gets.
WORKLOADS = {
    # One small-I/O application: 2 traced threads; one process per live
    # connection and per offline trace file; the zoo on the local SSD.
    "capture_smallio": dict(capture_threads=2, one_pid=1, testbed="ssd"),
    # Many processes fanning in: 3 traced threads (3 capture connections
    # into the agent); the whole 44-process zoo mix spread over every live
    # connection and trace file; the zoo on the local HDD.
    "live_fanin": dict(capture_threads=3, one_pid=0, testbed="hdd"),
}
BLOCKS_PER_CALL = 4096 // 512  # 4 KiB calls in the default 512-byte unit
CAPTURE_BUFFER = 4096  # BPSIO_CAPTURE_BUFFER_RECORDS default
SETUP_REPS = 4

# On a shared host the cores run at different speeds (other tenants load
# them unevenly, and which core is slow changes over minutes), and a process
# runs at the speed of the core it lands on. So every timed process is
# pinned to the usable CPUs in turn, and a figure over processes is taken by
# across_cpus(): every run weighs every core alike instead of drawing cores
# at random.
CPUS = sorted(os.sched_getaffinity(0))[:4]

# Input sizes, rounds and pass lengths. "full" is the benchmark; "tiny" is
# the smoke-test size.
SIZES = {
    "full": dict(rounds=6, file_mib=1, capture_run_s=0.5, capture_procs=2,
                 phase_a=500_000, rate=100_000, frame_b=128, phase_b_s=2.0,
                 offline_files=16, offline_records=220_000, offline_passes=2,
                 zoo_scale=4.0, zoo_passes=4),
    "tiny": dict(rounds=2, file_mib=1, capture_run_s=0.2, capture_procs=1,
                 phase_a=50_000, rate=20_000, frame_b=64, phase_b_s=0.5,
                 offline_files=8, offline_records=5_000, offline_passes=1,
                 zoo_scale=0.25, zoo_passes=1),
}


class BenchError(Exception):
    """A run that cannot produce a result (no sources, build or daemon failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------- build

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no bpsio sources at %s; run from the checkout root" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", REPO_BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
         "-DBPSIO_BUILD_TESTS=OFF", "-DBPSIO_BUILD_BENCH=OFF", "-DBPSIO_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", REPO_BUILD, "-j", jobs, "--target", "bpsio_capture",
         "bpsio_agentd", "bpsio_collectord", "bpsio_report", "bpsio_zoo", "bpsio_core"],
        ["cmake", "-S", BENCH_SRC, "-B", HELPER_BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
         "-DBPSIO_SOURCE_DIR=" + ROOT, "-DBPSIO_BINARY_DIR=" + REPO_BUILD],
        ["cmake", "--build", HELPER_BUILD, "-j", jobs],
    ]
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for cmd in steps:
            # A configured tree re-runs cmake itself when a CMakeLists changes.
            if cmd[1] == "-S" and os.path.exists(os.path.join(cmd[4], "CMakeCache.txt")):
                continue
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=840).returncode:
                raise BenchError("build step failed: %s (see .bench_build/build.log)" % " ".join(cmd))


def tool(name):
    path = {
        "capture": os.path.join(REPO_BUILD, "src", "capture", "libbpsio_capture.so"),
        "bpsbench": os.path.join(HELPER_BUILD, "bpsbench"),
    }.get(name, os.path.join(REPO_BUILD, "tools", name))
    if not os.path.exists(path):
        raise BenchError("missing build output " + path)
    return path


# -------------------------------------------------------------- provenance

def fingerprint():
    cache = {}
    with open(os.path.join(REPO_BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER|BPSIO_SANITIZE):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                  timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    cpu = "?"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    sanitize = cache.get("BPSIO_SANITIZE", "")
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
        "build_type": build_type, "sanitize": sanitize, "source": source_id(),
        "timing_build": build_type in ("Release", "RelWithDebInfo") and not sanitize,
    }


def source_id():
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, sha = (git.stdout.split() + ["", ""])[:2]
        if git.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "tools", "bpsbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


HOST_KEYS = ("nproc", "cpu", "compiler", "build_type", "sanitize")


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    differ = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
    if differ or not (a["host"]["timing_build"] and b["host"]["timing_build"]):
        print("not comparable: %s" % (", ".join("%s %r vs %r" % (k, a["host"].get(k), b["host"].get(k))
                                                 for k in differ) or "not a timing build"))
        return 3
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        print("%-40s %14.6g %14.6g %8.3f" % (name, va, vb, vb / va if va else float("nan")))
    return 0


# ------------------------------------------------------------- processes

class Procs:
    """Every process a run starts; stop() ends and reaps whatever is left."""

    def __init__(self):
        self.live = []

    def start(self, cmd, cwd, log_name, env=None):
        out = open(os.path.join(cwd, log_name), "w")
        p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT, env=env)
        out.close()
        self.live.append(p)
        return p

    def reap(self, p, timeout=120):
        """Wait for p; returns its rusage (ru_maxrss in KiB)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(p.pid, os.WNOHANG)
            if pid:
                p.returncode = os.waitstatus_to_exitcode(status)
                self.live.remove(p)
                return usage
            if time.monotonic() > deadline:
                p.kill()
                raise BenchError("%s did not exit" % p.args[0])
            time.sleep(0.0005)

    def stop(self):
        for p in list(self.live):
            p.send_signal(signal.SIGKILL)
            self.reap(p)


def cpu_set(k, width):
    """The k-th set of `width` CPUs, taking the usable CPUs in turn."""
    return tuple(CPUS[(k * width + j) % len(CPUS)] for j in range(min(width, len(CPUS))))


def pinned(cpus):
    """A preexec_fn that pins the child to `cpus`."""
    return lambda: os.sched_setaffinity(0, cpus)


def across_cpus(samples):
    """Mean over CPU sets of each set's median, from (cpu set, value) pairs."""
    by_set = {}
    for cpus, value in samples:
        by_set.setdefault(cpus, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_set.values())


def run_json(cmd, cwd, timeout=150, env=None, cpus=None):
    """Run a helper that prints one JSON object; returns (object, stderr)."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=timeout,
                          preexec_fn=pinned(cpus) if cpus else None)
    if proc.returncode:
        raise BenchError("%s failed (%d): %s" % (os.path.basename(cmd[0]), proc.returncode,
                                                 proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scrape(port):
    with urllib.request.urlopen("http://127.0.0.1:%d/metrics" % port, timeout=20) as resp:
        text = resp.read().decode()
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
    return values


def wait_for(path, timeout=20):
    deadline = time.monotonic() + timeout
    while not (os.path.exists(path) and os.path.getsize(path) > 0):
        if time.monotonic() > deadline:
            raise BenchError("%s never appeared" % path)
        time.sleep(0.001)
    with open(path) as f:
        return int(f.read().strip())


def start_daemons(procs, cwd, drain):
    """bpsio_collectord and a forwarding bpsio_agentd; returns handles and ports."""
    extra_c = ["--drain=c.bpstrace"] if drain else []
    extra_a = ["--drain=a.bpstrace"] if drain else []
    for name in ("c.port", "a.port"):
        if os.path.exists(os.path.join(cwd, name)):
            os.remove(os.path.join(cwd, name))
    coll = procs.start([tool("bpsio_collectord"), "--socket=c.sock", "--http-port=0",
                        "--port-file=c.port"] + extra_c, cwd, "collectord.log")
    c_port = wait_for(os.path.join(cwd, "c.port"))
    agent = procs.start([tool("bpsio_agentd"), "--socket=a.sock", "--http-port=0",
                         "--port-file=a.port", "--forward=c.sock"] + extra_a, cwd, "agentd.log")
    a_port = wait_for(os.path.join(cwd, "a.port"))
    return {"agent": agent, "collector": coll, "a_port": a_port, "c_port": c_port}


def stop_daemons(procs, d, cpus=None):
    """SIGTERM the agent (it flushes its forward link), then the collector,
    first pinning every thread of each to its CPU in `cpus` if given.
    Returns (seconds until both exited, summed peak RSS in MiB)."""
    if cpus:
        for key, cpu in zip(("agent", "collector"), cpus):
            for tid in os.listdir("/proc/%d/task" % d[key].pid):
                os.sched_setaffinity(int(tid), (cpu,))
    t0 = time.monotonic()
    rss_kib = 0
    for key in ("agent", "collector"):
        d[key].send_signal(signal.SIGTERM)
        rss_kib += procs.reap(d[key]).ru_maxrss
        if d[key].returncode:
            raise BenchError("%s exited with %d" % (key, d[key].returncode))
    return time.monotonic() - t0, rss_kib / 1024.0


def report_csv(path, cwd):
    """bpsio_report --csv over `path`: its first table as a dict."""
    out = subprocess.run([tool("bpsio_report"), "--csv", path], cwd=cwd, capture_output=True,
                         text=True, timeout=120)
    if out.returncode:
        raise BenchError("bpsio_report %s failed: %s" % (path, out.stderr.strip()))
    lines = out.stdout.splitlines()
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def remove_files(d):
    for name in os.listdir(d):
        os.remove(os.path.join(d, name))


def timed_setup(fn):
    """Run a set-up SETUP_REPS times, the k-th as fn(k-th CPU set), and keep
    the last state. Returns (state, seconds of the fastest): set-up is fixed
    work, as in ZooSection."""
    times = []
    for k in range(SETUP_REPS):
        t0 = time.monotonic()
        state = fn(cpu_set(k, 1))
        times.append(time.monotonic() - t0)
    return state, min(times)


# ------------------------------------------------------------------ checks
# Pure functions over counts, so the negative tests can feed them tampered
# figures. Each returns the list of failed checks.

def check_spill(calls, report):
    failed = []
    if int(report["records"]) != calls:
        failed.append("capture spill: report records %s != calls %d" % (report["records"], calls))
    if int(report["B"]) != calls * BLOCKS_PER_CALL:
        failed.append("capture spill: B %s != calls x 8" % report["B"])
    return failed


def check_socket(calls, collector, fallback_files):
    failed = []
    if collector["records"] != calls:
        failed.append("capture socket: collector records %d != calls %d" % (collector["records"], calls))
    if collector["blocks"] != calls * BLOCKS_PER_CALL:
        failed.append("capture socket: collector B %d != calls x 8" % collector["blocks"])
    if fallback_files:
        failed.append("capture socket: %d fallback spill files were written" % fallback_files)
    return failed


def check_live(sent, sent_blocks, agent, collector, drains):
    failed = []
    counts = {"agent": agent["records"], "collector": collector["records"]}
    counts.update({"drain " + k: v["records"] for k, v in drains.items()})
    for where, n in counts.items():
        if n != sent:
            failed.append("live: %s records %d != sent %d" % (where, n, sent))
    if agent["forward_spilled"] or agent["forward_dropped"]:
        failed.append("live: forward spilled %d dropped %d" % (agent["forward_spilled"], agent["forward_dropped"]))
    for where, d in drains.items():
        if d["blocks"] != sent_blocks:
            failed.append("live: drain %s B %d != generated %d" % (where, d["blocks"], sent_blocks))
    return failed


def check_offline(report, gen):
    failed = []
    for key, col in (("records", "records"), ("processes", "processes"), ("blocks", "B")):
        if int(report[col]) != gen[key]:
            failed.append("offline: report %s %s != generated %d" % (col, report[col], gen[key]))
    return failed


def check_zoo(sim_rows, plan_rows):
    failed = []
    for name, plan in plan_rows.items():
        sim = sim_rows.get("zoo." + name)
        if sim is None:
            failed.append("zoo %s: missing from the sim table" % name)
        elif int(sim["B"]) != int(plan["B"]) or int(sim["records"]) != int(plan["accesses"]):
            failed.append("zoo %s: sim B/records %s/%s != plan %s/%s" % (
                name, sim["B"], sim["records"], plan["B"], plan["accesses"]))
    return failed


def csv_rows(text, key):
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    return {row[key]: row for row in (dict(zip(head, l.split(","))) for l in lines[1:])}


# ---------------------------------------------------------------- sections
# A section sets up once (timed, SETUP_REPS times), then takes one
# sample per round; run() interleaves the rounds of every section, so each
# section's median spans the whole run instead of one stretch of it (host
# speed on a shared machine drifts over tens of seconds). result() returns
# {"metrics", "layers", "ops", "failed", "setup_s", "notes"}.

class CaptureSection:
    """Per round, `procs` traced-app processes per arm, arms alternating,
    each for `run_s` seconds against a fresh daemon pair, which must have
    ingested every socket-arm record before the round ends, so no backlog
    spills into the next section. The k-th pair of processes is pinned to
    the k-th set of one CPU per thread; the figures are taken over processes
    by across_cpus()."""

    def __init__(self, ctx, procs):
        self.ctx, self.procs, self.run_s = ctx, procs, ctx["size"]["capture_run_s"]
        self.per_round = ctx["size"]["capture_procs"]
        self.d = os.path.join(RUN, "capture")
        size = ctx["size"]["file_mib"] << 20
        self.files = ["f%d" % t for t in range(ctx["shape"]["capture_threads"])]

        def setup(_cpus):
            for name in self.files:
                with open(os.path.join(self.d, name), "wb") as f:
                    f.write(os.urandom(size))
                    f.flush()
                    os.fsync(f.fileno())

        _, self.files_s = timed_setup(setup)
        env = dict(os.environ, LD_PRELOAD=tool("capture"))
        self.arms = {"spill": dict(env, BPSIO_CAPTURE_DIR="spill"),
                     "socket": dict(env, BPSIO_CAPTURE_SOCKET="a.sock", BPSIO_CAPTURE_DIR="fallback")}
        for sub in ("spill", "fallback"):
            os.makedirs(os.path.join(self.d, sub))
        self.results = {arm: [] for arm in self.arms}
        self.start_s, self.failed = [], []

    def round(self, i):
        t0 = time.monotonic()
        daemons = start_daemons(self.procs, self.d, drain=False)
        self.start_s.append(time.monotonic() - t0)
        for j in range(self.per_round):
            k = i * self.per_round + j
            cpus = cpu_set(k, len(self.files))
            for arm, env in self.arms.items():
                self.results[arm].append(dict(run_json(
                    [tool("bpsbench"), "capture-app", "--files=" + ",".join(self.files), "--seconds=%g" % self.run_s,
                     "--seed=%d" % (self.ctx["seed"] * 1000 + k)], self.d, env=env, cpus=cpus)[0], cpus=cpus))
        calls_of = lambda arm: sum(r["captured_calls"] for r in self.results[arm][-self.per_round:])
        calls = calls_of("socket")
        deadline = time.monotonic() + 30
        while True:
            m = scrape(daemons["c_port"])
            collector = {"records": int(m.get('bpsio_records_total{tenant="all"}', -1)),
                         "blocks": int(m.get('bpsio_blocks_total{tenant="all"}', -1))}
            if collector["records"] >= calls or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        stop_daemons(self.procs, daemons)
        fallback = os.path.join(self.d, "fallback")
        self.failed += check_socket(calls, collector,
                                    sum(os.path.getsize(os.path.join(fallback, f)) > 24
                                        for f in os.listdir(fallback)))
        # Check this round's spill files, then delete them before the kernel
        # writes them back in the middle of a later measurement.
        self.failed += check_spill(calls_of("spill"), report_csv("spill", self.d))
        remove_files(os.path.join(self.d, "spill"))

    def result(self):
        calls = sum(r["captured_calls"] for rs in self.results.values() for r in rs)
        med = lambda arm, key: across_cpus((r["cpus"], r[key]) for r in self.results[arm])
        per_thread = [n for rs in self.results.values() for r in rs for n in r["captured_per_thread"]]
        return {
            "metrics": {"capture_overhead_pct": med("spill", "overhead_pct"),
                        "capture_overhead_socket_pct": med("socket", "overhead_pct"),
                        "app_call_p99_ratio": med("socket", "call_p99_ns") / med("socket", "bare_call_p99_ns")},
            "layers": {"capture_overhead_ns": med("spill", "overhead_ns"),
                       "capture_overhead_socket_ns": med("socket", "overhead_ns"),
                       "app_call_p99_ns": med("socket", "call_p99_ns"),
                       "capture.call_ns": med("spill", "call_p50_ns"), "capture.records": calls,
                       "capture.flushes": sum(-(-n // CAPTURE_BUFFER) for n in per_thread)},
            "ops": calls, "setup_s": self.files_s + statistics.median(self.start_s),
            "failed": self.failed,
            "notes": ["capture: %d processes x %g s per arm on CPUs %s; overhead spill %s %%, socket %s %% "
                      "(%s ns/call); socket call p50 %.0f ns, p99 %s ns, bare p99 %s ns (per process)" % (
                          len(self.results["spill"]), self.run_s,
                          "/".join(",".join(map(str, r["cpus"])) for r in self.results["spill"]),
                          "/".join("%.1f" % r["overhead_pct"] for r in self.results["spill"]),
                          "/".join("%.1f" % r["overhead_pct"] for r in self.results["socket"]),
                          "/".join("%.0f" % r["overhead_ns"] for r in self.results["socket"]),
                          med("socket", "call_p50_ns"),
                          "/".join("%.0f" % r["call_p99_ns"] for r in self.results["socket"]),
                          "/".join("%.0f" % r["bare_call_p99_ns"] for r in self.results["socket"]))],
        }


class LiveSection:
    """Per round, a fresh daemon pair takes phase A then phase B and drains.
    live_rps and RSS are medians over rounds; freshness pools the rounds'
    samples. The drain is a fixed single-threaded merge, pinned to the next
    CPUs each round; drain_s is the shortest, for the reason ZooSection
    gives."""

    def __init__(self, ctx, procs):
        self.ctx, self.procs, self.phase_b_s = ctx, procs, ctx["size"]["phase_b_s"]
        self.d = os.path.join(RUN, "live")
        self.rows, self.failed = [], []

    def round(self, i):
        size = self.ctx["size"]
        t0 = time.monotonic()
        daemons = start_daemons(self.procs, self.d, drain=True)
        start_s = time.monotonic() - t0
        gen, _ = run_json([tool("bpsbench"), "fanin", "--agent-socket=a.sock",
                              "--collector-port=%d" % daemons["c_port"], "--seed=%d" % self.ctx["seed"],
                              "--phase-a-records=%d" % size["phase_a"], "--phase-b-seconds=%g" % self.phase_b_s,
                              "--rate=%d" % size["rate"], "--frame-b=%d" % size["frame_b"],
                              "--setup-reps=%d" % SETUP_REPS,
                              "--one-pid=%d" % self.ctx["shape"]["one_pid"]], self.d)
        am, cm = scrape(daemons["a_port"]), scrape(daemons["c_port"])
        agent = {"records": int(am["bpsio_records_total"]), "frames": int(am["bpsio_frames_total"]),
                 "forward_spilled": int(am["bpsio_forward_spilled_records_total"]),
                 "forward_dropped": int(am["bpsio_forward_dropped_records_total"])}
        collector = {"records": int(cm['bpsio_records_total{tenant="all"}']),
                     "bad_frames": int(cm["bpsio_bad_frames_total"] + am["bpsio_bad_frames_total"])}
        # The drain's merge runs on the CPUs of round i: agent, collector.
        drain_cpus = (CPUS[i % len(CPUS)], CPUS[(i + 1) % len(CPUS)])
        drain_s, rss_mib = stop_daemons(self.procs, daemons, drain_cpus)
        drains = {}
        for name in ("a.bpstrace", "c.bpstrace"):
            r = report_csv(name, self.d)
            drains[name] = {"records": int(r["records"]), "blocks": int(r["B"])}
            os.remove(os.path.join(self.d, name))
        self.failed += check_live(gen["sent_records"], gen["sent_blocks"], agent, collector, drains)
        self.rows.append(dict(gen, agent=agent, collector=collector, drain_s=drain_s, rss=rss_mib,
                              start_s=start_s))

    def result(self):
        rows = self.rows
        med = lambda key: statistics.median(r[key] for r in rows)
        last = rows[-1]
        fresh = sorted(x for r in rows for x in r["fresh_ms"])
        fresh_p = lambda q: fresh[min(len(fresh) - 1, int(q * len(fresh)))]
        late = max(r["late_ms_max"] for r in rows)
        return {
            "metrics": {"fresh_p50_ms": fresh_p(0.5), "daemon_rss_mib": med("rss"),
                        "drain_s": min(r["drain_s"] for r in rows)},
            "layers": {"live_rps": med("live_rps"),
                       "agent.records": last["agent"]["records"], "agent.frames": last["agent"]["frames"],
                       "agent.forward_spilled": last["agent"]["forward_spilled"],
                       "agent.forward_dropped": last["agent"]["forward_dropped"],
                       "collector.records": last["collector"]["records"],
                       "collector.bad_frames": last["collector"]["bad_frames"],
                       "gen.late_ms_max": late, "fresh_p99_ms": fresh_p(0.99)},
            "live_rps": med("live_rps"),
            "ops": sum(r["sent_records"] for r in rows), "failed": self.failed,
            "setup_s": med("start_s") + med("setup_s"),
            "notes": ["live: %d rounds; phase A %d records at %s rec/s; phase B %g s at %d rec/s: fresh p50 "
                      "%.1f ms, p99 %.1f ms (pooled n=%d; per-round p99 %s); generator late <= %.1f ms; "
                      "drain %s s" % (
                          len(rows), last["phase_a_records"], "/".join("%.0f" % r["live_rps"] for r in rows),
                          self.phase_b_s, self.ctx["size"]["rate"], fresh_p(0.5), fresh_p(0.99), len(fresh),
                          "/".join("%.0f" % r["fresh_p99_ms"] for r in rows), late,
                          "/".join("%.3f" % r["drain_s"] for r in rows))],
        }


class OfflineSection:
    """Per round, `passes` bpsio_report passes over the seeded trace set,
    each pinned to the next CPU. A pass is fixed single-threaded work whose
    speed drops by a quarter while the host's other tenants load memory, so
    report_rps is the fastest pass, as in ZooSection."""

    def __init__(self, ctx, passes):
        self.d = os.path.join(RUN, "offline")
        size = ctx["size"]
        self.files, self.per_round = size["offline_files"], passes
        self.gen, self.setup_s = timed_setup(lambda cpus: run_json(
            [tool("bpsbench"), "gen-traces", "--dir=traces", "--seed=%d" % ctx["seed"],
             "--files=%d" % size["offline_files"], "--records=%d" % size["offline_records"],
             "--one-pid=%d" % ctx["shape"]["one_pid"]], self.d, cpus=cpus)[0])
        # Written back now, not in the middle of a later measurement.
        traces = os.path.join(self.d, "traces")
        for name in os.listdir(traces):
            fd = os.open(os.path.join(traces, name), os.O_RDONLY)
            os.fsync(fd)
            os.close(fd)
        self.passes, self.failed = [], []

    def round(self, i):
        for j in range(self.per_round):
            self.one_pass(cpu_set(i * self.per_round + j, 1))

    def one_pass(self, cpus):
        out_path = os.path.join(self.d, "report.csv")
        with open(out_path, "w") as out:
            t0 = time.monotonic()
            p = subprocess.Popen([tool("bpsio_report"), "--per-pid", "--window=100", "--csv", "traces"],
                                 cwd=self.d, stdout=out, stderr=subprocess.DEVNULL, preexec_fn=pinned(cpus))
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.monotonic() - t0
        if os.waitstatus_to_exitcode(status):
            raise BenchError("bpsio_report exited with %d" % os.waitstatus_to_exitcode(status))
        with open(out_path) as f:
            lines = f.read().splitlines()
        self.failed += check_offline(dict(zip(lines[0].split(","), lines[1].split(","))), self.gen)
        self.passes.append((self.gen["records"] / wall, usage.ru_maxrss / 1024.0))

    def result(self):
        rps = max(r for r, _ in self.passes)
        return {
            "metrics": {"report_rps": rps, "report_rss_mib": statistics.median(m for _, m in self.passes)},
            "layers": {}, "report_rps": rps, "gen": self.gen,
            "ops": self.gen["records"] * len(self.passes), "failed": sorted(set(self.failed)),
            "setup_s": self.setup_s,
            "notes": ["offline: %d files, %d records; %d passes at %s rec/s; fastest %.4g" % (
                self.files, self.gen["records"], len(self.passes),
                "/".join("%.3g" % r for r, _ in self.passes), rps)],
        }


class ZooSection:
    """Per round, `passes` runs of bpsio_zoo sim over the nine scenarios,
    each pinned to the next CPU. The simulator's work is fixed and runs on
    one thread, so load from outside only ever slows a pass down: the figure
    is the fastest pass, the steadiest estimate of the code's own speed."""

    def __init__(self, ctx, passes):
        self.d = os.path.join(RUN, "zoo")
        self.scale, self.per_round = ctx["size"]["zoo_scale"], passes
        self.testbed = ctx["shape"]["testbed"]
        self.common = ["--csv", "--scale=%g" % self.scale, "--seed=%d" % ctx["seed"]]

        def plans(cpus):
            out = subprocess.run([tool("bpsio_zoo"), "list"] + self.common, cwd=self.d,
                                 capture_output=True, text=True, timeout=60, preexec_fn=pinned(cpus))
            if out.returncode:
                raise BenchError("bpsio_zoo list failed: " + out.stderr.strip())
            return csv_rows(out.stdout, "scenario")

        self.plans, self.setup_s = timed_setup(plans)
        self.passes, self.failed = [], []

    def round(self, i):
        for j in range(self.per_round):
            cpus = cpu_set(i * self.per_round + j, 1)
            t0 = time.monotonic()
            out = subprocess.run([tool("bpsio_zoo"), "sim", "--testbed=" + self.testbed] + self.common, cwd=self.d,
                                 capture_output=True, text=True, timeout=150, preexec_fn=pinned(cpus))
            wall = time.monotonic() - t0
            if out.returncode:
                raise BenchError("bpsio_zoo sim failed: " + out.stderr.strip())
            rows = csv_rows(out.stdout, "scenario")
            self.failed += check_zoo(rows, self.plans)
            accesses = sum(int(r["records"]) for r in rows.values())
            self.passes.append((accesses / wall, accesses))

    def result(self):
        rate = max(r for r, _ in self.passes)
        return {
            "metrics": {"sim_accesses_per_s": rate}, "layers": {},
            "ops": sum(n for _, n in self.passes), "failed": sorted(set(self.failed)),
            "setup_s": self.setup_s,
            "notes": ["zoo: 9 scenarios at scale %g on %s, %d passes at %s accesses/s; fastest %.4g" % (
                self.scale, self.testbed, len(self.passes),
                "/".join("%.3g" % r for r, _ in self.passes), rate)],
        }


def layers_result(ctx, live, offline):
    """The in-process per-layer replay (bpsbench layers) on the same inputs."""
    size = ctx["size"]
    g = offline["gen"]
    res, err = run_json([tool("bpsbench"), "layers", "--dir=.", "--seed=%d" % ctx["seed"],
                            "--live-records=%d" % size["phase_a"],
                            "--offline-dir=" + os.path.join(RUN, "offline", "traces"),
                            "--offline-records=%d" % g["records"], "--offline-blocks=%d" % g["blocks"],
                            "--offline-processes=%d" % g["processes"],
                            "--zoo-scale=%g" % size["zoo_scale"], "--live-rps=%r" % live["live_rps"],
                            "--report-rps=%r" % offline["report_rps"],
                            "--one-pid=%d" % ctx["shape"]["one_pid"],
                            "--testbed=" + ctx["shape"]["testbed"]], os.path.join(RUN, "layers"))
    return {"metrics": {}, "layers": res["metrics"], "ops": res["live_records"],
            "failed": res["failed_checks"], "setup_s": 0,
            "notes": err.splitlines() + ["spans written to .bench_run/layers/spans.json"]}


# -------------------------------------------------------------------- main

def run(workload, seed, trace, size_name):
    size = SIZES[size_name]
    ctx = {"seed": seed, "size": size, "shape": WORKLOADS[workload]}
    shutil.rmtree(RUN, ignore_errors=True)
    for sub in ("capture", "live", "offline", "zoo", "layers", "results"):
        os.makedirs(os.path.join(RUN, sub))
    procs = Procs()
    try:
        sections = [CaptureSection(ctx, procs), LiveSection(ctx, procs),
                    OfflineSection(ctx, size["offline_passes"])]
        if not trace:
            sections.append(ZooSection(ctx, size["zoo_passes"]))
        for i in range(size["rounds"]):
            for s in sections:
                s.round(i)
        results = [s.result() for s in sections]
        if trace:
            results.append(layers_result(ctx, results[1], results[2]))
    finally:
        procs.stop()

    metrics = {}
    for r in results:
        metrics.update(r["layers"] if trace else r["metrics"])
    if not trace:
        metrics["setup_s"] = sum(r["setup_s"] for r in results)
    failed = [f for r in results for f in r["failed"]]
    notes = [n for r in results for n in r["notes"]]
    if not trace:
        notes.append("setup: %s s" % "/".join("%.3f" % r["setup_s"] for r in results))
    attempted = sum(r["ops"] for r in results)
    failed_ops = sum(r["ops"] for r in results if r["failed"])
    return metrics, failed, attempted, failed_ops, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10,
                    help="accepted and printed; pass lengths are fixed by --size so every run is alike")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; tiny is for smoke tests")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two saved results")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    # A terminated run still stops its daemons (run() kills them in finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with open(os.path.join(BENCH_SRC, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        host = fingerprint()
        print("host: nproc=%s cpu=%r compiler=%r build=%s sanitize=%r source=%s" % (
            host["nproc"], host["cpu"], host["compiler"], host["build_type"], host["sanitize"], host["source"]))
        if not host["timing_build"]:
            print("WARNING: %s%s build; timings are not comparable" % (
                host["build_type"] or "untyped", " sanitizer" if host["sanitize"] else ""))
        print("workload: %s seed=%d seconds=%g trace=%d size=%s" % (
            args.workload, args.seed, args.seconds, args.trace, args.size))
        metrics, failed, attempted, failed_ops, notes = run(
            args.workload, args.seed, args.trace, args.size)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log("bpsbench: %s" % e)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            log("bpsbench: metric %s was not measured" % m["name"])
            return 1
        out[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
    for note in notes:
        print(note)
    for name, m in out.items():
        print("  %-42s %16.6g %s" % (name, m["value"], m["unit"]))
    for f in failed:
        print("CHECK FAILED: " + f)
    result = {"correct": not failed, "attempted": int(attempted), "failed": int(failed_ops), "metrics": out}
    with open(os.path.join(RUN, "results", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(dict(result, host=host, workload=args.workload, seed=args.seed), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
