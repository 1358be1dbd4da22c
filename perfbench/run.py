#!/usr/bin/env python3
"""End-to-end benchmark of the graph data exchange engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the library, gdx_cli and perfbench_driver from this checkout into
.bench_build (Release), generates the workload's inputs from the seed,
runs the shipped engine at its default options in supervised child
processes, byte-compares every outcome with an untimed reference run of
the same binary (one batch thread, one intra-solve thread), and prints
the metrics. With --trace 0 they are the end-to-end metrics of
BENCHMARK.json; with --trace 1 a separate traced run gives the per-layer
metrics. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
workloads.json records why each workload exists, its loop and
concurrency, and which end-to-end metric each layer metric should move.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_runs")
DRIVER = os.path.join(BUILD, "perfbench_driver")
GDX_CLI = os.path.join(BUILD, "gdx", "gdx_cli")

sys.path.insert(0, HERE)
import gen  # noqa: E402

with open(os.path.join(HERE, "workloads.json")) as f:
    WORKLOADS = json.load(f)

# A child that outlives its run by this much is killed (and counted).
CHILD_GRACE_S = 60
# A batch child sets up in 5-150 ms, where process start-up jitter is a
# large share; the median over this many starts holds setup_s steady.
SETUP_PROBES = 15
SERVE_SETUP_PROBES = 2
THROUGHPUT_SEGMENTS = 5
# Consecutive child deaths during set-up or warm-up before a run gives up.
MAX_EARLY_FAILURES = 3


def log(message):
    print(message, flush=True)


# --- build and environment --------------------------------------------------


def source_digest():
    """SHA-256 over every file the build reads: the identity of the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "examples", "gdx_cli.cpp"),
             os.path.join(HERE, "CMakeLists.txt"),
             os.path.join(HERE, "driver.cc")]
    for base, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(digest):
    stamp = os.path.join(BUILD, "source.sha256")
    if os.path.exists(stamp) and os.path.exists(DRIVER) and \
            os.path.exists(GDX_CLI):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "perfbench_driver", "gdx_cli"]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit("build failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(digest + "\n")


def environment(digest):
    info = {}
    out = subprocess.run([DRIVER, "info"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        info[key] = value
    if info.get("build_type") != "Release" or info.get("asserts") != "off":
        raise SystemExit("refusing a non-Release build: %s" % info)
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": "g++ " + info.get("compiler", "?"),
        "build_type": info["build_type"],
        "git_commit": commit,
        "source_sha256": digest,
        "engine_options": WORKLOADS["engine_options"],
        "hardware_threads": int(info.get("hardware_threads", "0")),
    }


# --- supervised children ----------------------------------------------------


class Child:
    """One supervised child process, killed if it outlives `timeout`;
    lines() yields its stdout as it arrives and wait() returns (exit
    signal or None, exit code, rusage)."""

    def __init__(self, cmd, cwd, timeout=None):
        self.start = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                                     text=True, bufsize=1)
        self.timer = None
        self.timed_out = False
        if timeout is not None:
            self.timer = threading.Timer(timeout, self._kill)
            self.timer.start()

    def _kill(self):
        self.timed_out = True
        self.proc.kill()

    def lines(self):
        for line in self.proc.stdout:
            yield line.rstrip("\n")

    def wait(self):
        for _ in self.lines():
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.timer is not None:
            self.timer.cancel()
        sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
        code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else None
        return sig, code, usage


def cpu_ns(usage):
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


def quantile(sorted_values, q):
    """Nearest-rank percentile of raw samples."""
    if not sorted_values:
        return float("nan")
    rank = max(1, int(-(-q * len(sorted_values) // 1)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def setup_probe(cmd, cwd):
    child = Child(cmd + ["--setup-only"], cwd, timeout=CHILD_GRACE_S)
    ready = None
    for line in child.lines():
        if line == "ready" and ready is None:
            ready = time.monotonic() - child.start
    sig, code, _ = child.wait()
    if ready is None or code != 0:
        raise SystemExit("set-up probe failed: %s" % cmd)
    return ready


class LoopRun:
    """A measured closed loop, restarted after every crash. A child that
    dies on a signal loses its in-flight batch; the supervisor records
    the loss and resumes at the next scenario."""

    def __init__(self, base_cmd, cwd, workload, seed, seconds, kill_after=None):
        self.base_cmd = base_cmd
        self.cwd = cwd
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.kill_after = kill_after  # self-test: SIGKILL at this batch
        self.latencies = []
        self.batches = []  # (good scenarios, engine wall ns) per batch
        self.engine_wall_ns = 0
        self.completed = 0
        self.bad = 0
        self.lost = 0
        self.cpu_ns = 0
        self.peak_rss_kb = 0
        self.crashes = []
        self.setups = []
        self.segments = []  # (first, end) index ranges solved per process
        self.next = 0

    def run(self):
        deadline = None
        first_process = True
        early_failures = 0
        while True:
            remaining = self.seconds if deadline is None \
                else deadline - time.monotonic()
            if remaining <= 0:
                break
            cmd = self.base_cmd + ["--start=%d" % self.next,
                                   "--seconds=%.3f" % remaining]
            if not first_process:
                cmd = [c for c in cmd if not c.startswith("--warmup")]
            state = {"inflight": None, "go_cpu": None, "ready": None,
                     "first": self.next, "last": self.next, "batches": 0}
            child = Child(cmd, self.cwd,
                          timeout=remaining + CHILD_GRACE_S)
            for line in child.lines():
                parts = line.split()
                if not parts:
                    continue
                if parts[0] == "ready":
                    state["ready"] = time.monotonic() - child.start
                elif parts[0] == "go":
                    state["go_cpu"] = int(parts[1])
                    if deadline is None:
                        deadline = time.monotonic() + self.seconds
                elif parts[0] == "begin":
                    state["inflight"] = (int(parts[1]), int(parts[2]))
                    if self.kill_after is not None and \
                            state["batches"] == self.kill_after:
                        self.kill_after = None
                        child.proc.send_signal(signal.SIGKILL)
                elif parts[0] == "end":
                    first, count = int(parts[1]), int(parts[2])
                    self.engine_wall_ns += int(parts[3])
                    self.batches.append((count - int(parts[4]),
                                         int(parts[3])))
                    self.bad += int(parts[4])
                    self.latencies += [int(x) for x in parts[5].split(",")]
                    self.completed += count
                    state["inflight"] = None
                    state["last"] = first + count
                    state["batches"] += 1
            sig, code, usage = child.wait()
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            if state["go_cpu"] is not None:
                self.cpu_ns += cpu_ns(usage) - state["go_cpu"]
            if state["ready"] is not None and first_process:
                self.setups.append(state["ready"])
            self.segments.append((state["first"], state["last"]))
            first_process = False
            if sig is None and code == 0 and not child.timed_out:
                break
            # Crash (or a hung child the timer killed): count the lost
            # batch and resume after it.
            lost_first, lost_count = state["inflight"] or (state["last"], 0)
            self.crashes.append({
                "workload": self.workload, "seed": self.seed,
                "scenarios": [lost_first, lost_first + lost_count],
                "signal": sig if sig is not None else "exit %s" % code})
            log("crash: workload %s seed %d scenarios [%d, %d) signal %s"
                % (self.workload, self.seed, lost_first,
                   lost_first + lost_count, self.crashes[-1]["signal"]))
            self.lost += lost_count
            self.next = lost_first + lost_count
            early_failures = 0 if state["go_cpu"] is not None \
                else early_failures + 1
            if early_failures == MAX_EARLY_FAILURES:
                raise SystemExit("child failed %d times before measuring: "
                                 "%s" % (early_failures, cmd))
        return self

    def throughput(self, segments=THROUGHPUT_SEGMENTS):
        """Median over consecutive equal-time segments of the measured
        phase of good scenarios per engine second: a burst of outside
        load on the machine moves one segment, not the result."""
        total = sum(wall for _, wall in self.batches)
        rates, good, wall = [], 0, 0
        for n, w in self.batches:
            good += n
            wall += w
            if wall >= total / segments:
                rates.append(good / (wall / 1e9))
                good, wall = 0, 0
        if wall > 0 and (not rates or wall >= total / segments / 2):
            rates.append(good / (wall / 1e9))
        return statistics.median(rates)


# --- the oracle -------------------------------------------------------------


def read_report(path):
    """[(file id, text)] from a driver report."""
    records = []
    if not os.path.exists(path):
        return records
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos < len(data):
        end = data.index(b"\n", pos)
        tag, file_id, length = data[pos:end].split(b" ")
        if tag != b"@@":
            raise SystemExit("malformed report %s" % path)
        start = end + 1
        records.append((int(file_id),
                        data[start:start + int(length)].decode()))
        pos = start + int(length)
    return records


PAPER_ANSWERS = {
    # cert_Ω and cert_Ω′ of Example 2.2 (the paper's Ω and Ω′).
    "egd": {("c1", "c1"), ("c1", "c3"), ("c3", "c1"), ("c3", "c3")},
    "sameas": {("c1", "c1"), ("c3", "c3")},
}


def certain_tuples(text):
    tuples = set()
    in_answers = False
    for line in text.splitlines():
        if line.startswith("certain answers"):
            in_answers = True
        elif in_answers and line.startswith("  ("):
            tuples.add(tuple(x.strip() for x in line.strip()[1:-1]
                             .split(",")))
        else:
            in_answers = False
    return tuples


def paper_check(name, text):
    """Example 2.2's certain answers, when `name` is an Example 2.2 file."""
    for mode, expected in PAPER_ANSWERS.items():
        if os.path.basename(name) == "ex22_%s.gdx" % mode:
            return certain_tuples(text) == expected
    return True


def run_reference(manifest, limit, cwd, cycle, parts):
    """The untimed reference report: one batch thread, one intra-solve
    thread, every distinct file once; split over `parts` processes."""
    children = []
    for part in range(parts):
        cmd = [DRIVER, "run", "--manifest=" + manifest, "--reference",
               "--limit=%d" % limit, "--threads=1", "--intra-threads=1",
               "--part=%d" % part, "--parts=%d" % parts,
               "--report=ref_%d.txt" % part] + (["--cycle"] if cycle else [])
        children.append(Child(cmd, cwd, timeout=150))
    reference = {}
    ok = True
    for part, child in enumerate(children):
        sig, code, _ = child.wait()
        if sig is not None or code != 0:
            log("reference child %d failed (signal %s, exit %s)"
                % (part, sig, code))
            ok = False
        for file_id, text in read_report(os.path.join(cwd,
                                                      "ref_%d.txt" % part)):
            reference[file_id] = text
    return reference, ok


def oracle(records, reference, files, occurrences):
    """Byte-compares every measured first-occurrence text with the
    reference; returns (mismatched scenarios, paper failures, messages).
    `occurrences[file id]` is how many measured scenarios a record
    stands for."""
    mismatched = 0
    paper_failures = 0
    messages = []
    for file_id, text in records:
        want = reference.get(file_id)
        if want is None or want != text:
            mismatched += occurrences.get(file_id, 1)
            messages.append("oracle: %s differs from the reference"
                            % files[file_id])
        if not paper_check(files[file_id], text):
            paper_failures += 1
            messages.append("oracle: %s violates the paper's answers"
                            % files[file_id])
    for file_id, text in reference.items():
        if not paper_check(files[file_id], text):
            paper_failures += 1
            messages.append("oracle: reference %s violates the paper's "
                            "answers" % files[file_id])
    return mismatched, paper_failures, messages


def manifest_files(manifest):
    with open(manifest) as f:
        paths = [line.strip() for line in f if line.strip()]
    ids, files, file_of = {}, [], []
    for p in paths:
        if p not in ids:
            ids[p] = len(files)
            files.append(p)
        file_of.append(ids[p])
    return files, file_of


# --- batch workloads --------------------------------------------------------


def batch_command(spec, manifest, report, trace):
    cmd = [DRIVER, "trace" if trace else "run", "--manifest=" + manifest,
           "--batch=%d" % spec["batch"], "--report=" + report]
    if spec["cycle"]:
        cmd.append("--cycle")
    if spec.get("cold"):
        cmd.append("--cold")
    if spec.get("warmup"):
        cmd.append("--warmup=%d" % spec["warmup"])
    return cmd


def run_batch_workload(name, spec, seed, seconds, trace, workdir,
                       kill_after=None):
    manifest = gen.make_inputs(name, seed, spec["size"],
                               os.path.join(workdir, "in"))
    files, file_of = manifest_files(manifest)
    result = {"files": files}
    if trace:
        return run_traced_batch(name, spec, seconds, workdir, manifest,
                                files, file_of, result)
    cmd = batch_command(spec, manifest, "measured.txt", False)
    setups = [setup_probe(cmd, workdir) for _ in range(SETUP_PROBES)]
    loop = LoopRun(cmd, workdir, name, seed, seconds,
                   kill_after=kill_after).run()
    setups += loop.setups
    limit = max(end for _, end in loop.segments)
    reference, ref_ok = run_reference(manifest, limit, workdir,
                                      spec["cycle"], spec["reference_parts"])
    occurrences = {}
    for first, end in loop.segments:
        for i in range(first, end):
            f = file_of[i % len(file_of)]
            occurrences[f] = occurrences.get(f, 0) + 1
    records = read_report(os.path.join(workdir, "measured.txt"))
    mismatched, paper_failures, messages = oracle(records, reference, files,
                                                  occurrences)
    for m in messages[:20]:
        log(m)
    lat = sorted(loop.latencies)
    attempted = loop.completed + loop.lost
    failed = loop.lost + loop.bad + mismatched
    result.update({
        "attempted": attempted,
        "failed": failed,
        "correct": ref_ok and mismatched == 0 and paper_failures == 0 and
        loop.bad == 0,
        "samples": len(lat),
        "crashes": loop.crashes,
        "lost": loop.lost,
        "segments": loop.segments,
        "metrics": {
            "solves_per_s": loop.throughput(),
            "solve_p50_ms": quantile(lat, 0.50) / 1e6,
            "solve_p95_ms": quantile(lat, 0.95) / 1e6,
            "cpu_ms_per_solve": loop.cpu_ns / 1e6 / max(1, loop.completed),
            "peak_rss_mb": loop.peak_rss_kb / 1024.0,
            "setup_s": statistics.median(setups),
        },
        "extra": {"failed_frac": failed / max(1, attempted),
                  "setup_samples": len(setups),
                  "oracle_mismatches": mismatched,
                  "paper_answer_failures": paper_failures,
                  "engine_wall_s": loop.engine_wall_ns / 1e9},
    })
    return result


def ratio(num, den):
    return num / den if den else 0.0


def run_traced_batch(name, spec, seconds, workdir, manifest, files, file_of,
                     result):
    # Three passes (untraced, traced, untraced) share the time box.
    cmd = batch_command(spec, manifest, "traced.txt", True) + [
        "--seconds=%.3f" % (seconds / 3.0)]
    trace = None
    child = Child(cmd, workdir, timeout=seconds + 120)
    for line in child.lines():
        if line.startswith("trace "):
            trace = json.loads(line[len("trace "):])
    sig, code, _ = child.wait()
    if trace is None or sig is not None or code != 0:
        raise SystemExit("traced run failed (signal %s, exit %s)"
                         % (sig, code))
    count = trace["scenarios"]
    reference, ref_ok = run_reference(manifest, count, workdir,
                                      spec["cycle"], spec["reference_parts"])
    occurrences = {}
    for i in range(count):
        f = file_of[i % len(file_of)]
        occurrences[f] = occurrences.get(f, 0) + 1
    records = read_report(os.path.join(workdir, "traced.txt"))
    mismatched, paper_failures, messages = oracle(records, reference, files,
                                                  occurrences)
    for m in messages[:20]:
        log(m)
    layers = trace["layers"]

    def self_ms(*names):
        """Self time on the solving threads: the share of Solve wall time
        the layer accounts for."""
        return sum(layers[n]["self_ns"] - layers[n]["worker_self_ns"]
                   for n in names) / 1e6

    def busy_ms(*names):
        """Self time on every thread (solving threads and intra workers)."""
        return sum(layers[n]["self_ns"] for n in names) / 1e6

    def total_ms(*names):
        return sum(layers[n]["total_ns"] for n in names) / 1e6

    cache = trace["cache"]
    solve_wall_ms = total_ms("solve")
    # Coverage: the share of summed Solve wall time on the solving threads
    # that named layers' self times account for (the rest is the
    # recomposed Solve's own glue).
    solving_self = sum(self_ms(n) for n in layers if n != "solve")
    nre_hits = trace["nre_outer_memo_calls"] - trace["nre_inner_memo_calls"]
    # A hit saves the mean miss-evaluation time, taken over the untimed
    # warm-up and the pass (after a warm-up the pass may miss nothing).
    mean_miss_ms = ratio(
        (trace["nre_inner_memo_ns"] + trace["warmup_nre_inner_memo_ns"]) / 1e6,
        trace["nre_inner_memo_calls"] + trace["warmup_nre_inner_memo_calls"])
    answer_miss_ms = ratio(total_ms("cnre") + trace["warmup_cnre_ns"] / 1e6,
                           layers["cnre"]["calls"] + trace["warmup_cnre_calls"])
    wall_s = trace["traced_wall_ns"] / 1e9
    metrics = {
        "chase.key_ms": self_ms("chase.key"),
        "chase.compile_ms": self_ms("chase.compile"),
        "chase.triggers": trace["chase_triggers"],
        "chase.merges": trace["chase_merges"],
        "chase.memo_hit_ratio": ratio(cache["chase_hits"],
                                      cache["chase_hits"] +
                                      cache["chase_misses"]),
        "existence.decide_ms": self_ms("existence"),
        "existence.candidates": trace["candidates"],
        "existence.candidates_per_s": ratio(
            trace["candidates"], total_ms("existence") / 1e3),
        "certain.enumerate_ms": self_ms("certain.enumerate"),
        "certain.solutions": trace["solutions"],
        "certain.intersect_ms": self_ms("certain.intersect"),
        "cnre.calls": layers["cnre"]["calls"],
        "cnre.ms": self_ms("cnre"),
        "nre.evals": trace["nre_inner_memo_calls"],
        "nre.eval_ms": self_ms("nre.eval"),
        "nre.memo_ms": self_ms("nre.memo"),
        "nre.memo_hit_ratio": ratio(nre_hits,
                                    trace["nre_outer_memo_calls"]),
        "nre.memo_net_ms": nre_hits * mean_miss_ms - busy_ms("nre.memo"),
        "compile.calls": layers["compile"]["calls"],
        "compile.ms": self_ms("compile"),
        "compile.hit_ratio": ratio(cache["compile_hits"],
                                   cache["compile_hits"] +
                                   cache["compile_misses"]),
        "answers.key_ms": self_ms("answers.key"),
        "answers.lookup_ms": self_ms("answers.lookup"),
        "answers.hit_ratio": ratio(cache["answer_hits"],
                                   cache["answer_hits"] +
                                   cache["answer_misses"]),
        "answers.net_ms": cache["answer_hits"] * answer_miss_ms -
        self_ms("answers.key", "answers.lookup", "answers.store"),
        "cache.entries": cache["entries"],
        "cache.evictions": cache["evictions"],
        "check.calls": layers["check"]["calls"],
        "check.ms": self_ms("check"),
        "intra.tasks": trace["intra_tasks"],
        "intra.steals": trace["intra_steals"],
        "intra.cpu_per_wall": ratio(trace["traced_cpu_ns"] / 1e9, wall_s),
        "intra.busy_ms": trace["worker_busy_ns"] / 1e6,
        "trace.coverage": ratio(solving_self, solve_wall_ms),
        "trace.overhead_pct": 100.0 * ratio(
            trace["traced_wall_ns"] - trace["untraced_wall_ns"],
            trace["untraced_wall_ns"]),
        "trace.valid": 0 if trace["invalid"] else 1,
    }
    if trace["invalid"]:
        log("trace: INVALID — " + trace["invalid"])
    log("trace: self time per layer, solving threads | intra workers (ms):")
    for n, l in layers.items():
        log("  %-20s %12.3f | %12.3f  (%d calls)"
            % (n, (l["self_ns"] - l["worker_self_ns"]) / 1e6,
               l["worker_self_ns"] / 1e6, l["calls"]))
    log("trace: %d scenarios; untraced %.3f s, traced %.3f s; intra busy "
        "%.3f s; %d span events recorded (%d dropped)"
        % (count, trace["untraced_wall_ns"] / 1e9, wall_s,
           trace["worker_busy_ns"] / 1e9, trace["trace_events"],
           trace["trace_dropped"]))
    result.update({
        "attempted": 3 * count,
        "failed": trace["bad"] + mismatched,
        "correct": ref_ok and mismatched == 0 and paper_failures == 0 and
        trace["bad"] == 0,
        "samples": count,
        "crashes": [],
        "metrics": metrics,
        "extra": {},
    })
    return result


# --- serve-mixed ------------------------------------------------------------


class Server:
    """`gdx_cli serve` at CLI defaults plus a checkpoint."""

    def __init__(self, workdir, interval_ms, metrics_json=None):
        cmd = [GDX_CLI, "serve", "--socket=serve.sock",
               "--checkpoint=warm.gdxsnap",
               "--checkpoint-interval-ms=%d" % interval_ms]
        if metrics_json:
            cmd.append("--metrics-json=" + metrics_json)
        self.child = Child(cmd, workdir, timeout=170)
        self.ready_s = None
        for line in self.child.lines():
            if line.startswith("serving on"):
                self.ready_s = time.monotonic() - self.child.start
                break
        if self.ready_s is None:
            raise SystemExit("server did not become ready")

    def proc_cpu_ns(self):
        """Utime + stime of the live server (Linux /proc)."""
        with open("/proc/%d/stat" % self.child.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1e9 / os.sysconf("SC_CLK_TCK")

    def wait(self):
        return self.child.wait()


def run_load(workdir, args, on_rung=None):
    """Runs the load generator; `on_rung(i)` is called as rung i starts
    (and with the rung count once the schedule is sent)."""
    child = Child([DRIVER, "load", "--socket=serve.sock"] + args, workdir,
                  timeout=150)
    done = None
    for line in child.lines():
        if line.startswith("rung ") and on_rung is not None:
            on_rung(int(line.split()[1]))
        elif line.startswith("done"):
            done = line.split()
    sig, code, _ = child.wait()
    if done is None or sig is not None or code != 0:
        raise SystemExit("load generator failed (signal %s, exit %s)"
                         % (sig, code))
    return int(done[2])


def read_samples(path):
    rows = []
    with open(path) as f:
        for line in f:
            rung, file_id, due, sent, reply, status = map(int, line.split())
            rows.append((rung, file_id, due, sent, reply, status))
    return rows


def histogram_p99_ms(metrics, name):
    h = metrics.get("histograms", {}).get(name)
    return h["p99"] / 1e6 if h and h["count"] else 0.0


def run_serve_workload(spec, seed, seconds, trace, workdir):
    size = spec["size"]
    gen.make_inputs("serve-mixed", seed, size, os.path.join(workdir, "in"))
    hot = os.path.join(workdir, "in", "hot", "manifest.txt")
    fresh = os.path.join(workdir, "in", "fresh", "manifest.txt")
    hot_files, _ = manifest_files(hot)
    fresh_files, _ = manifest_files(fresh)
    files = hot_files + fresh_files
    common = ["--hot=" + hot, "--fresh=" + fresh, "--conns=%d" % spec["conns"]]

    ladder = spec["ladder"]
    nominal = spec["nominal_rung"]
    durations = [seconds * share for share in spec["rung_shares"]]
    rungs = ",".join("%g:%g" % (rate, d) for rate, d in zip(ladder,
                                                             durations))
    saturate_s = seconds * spec["saturate_share"]
    # One periodic checkpoint per measured life, halfway into the last
    # rung, a quiet one. Exporting the memos under the cache's shard locks
    # and writing the snapshot (~0.8 s) hold the workers up: its stall
    # shows in that rung's tail, and at the low rate the requests arriving
    # meanwhile stay well within the server's 64-slot queue.
    interval_ms = int(1000 * (sum(durations[:-1]) + durations[-1] / 2))

    # Warm-up life: the hot shapes and then fresh instances, closed loop;
    # the fresh ones fill the chased memo to its cap, so the measured life
    # starts full and every fresh request there evicts. The drain writes
    # the checkpoint the measured life starts from.
    server = Server(workdir, interval_ms)
    warm_fresh = run_load(workdir, common + [
        "--warmup", "--repeat=%d" % spec["warmup"],
        "--warmup-fresh=%d" % spec["warmup_fresh"], "--shutdown",
        "--samples=warm_samples.txt", "--report=warm_report.txt"])
    server.wait()
    setups = []
    # Every probe restores the large checkpoint, so the server gets fewer
    # probes than the batch workloads; each is killed once ready (a drain
    # would rewrite the checkpoint).
    for _ in range(SERVE_SETUP_PROBES):
        probe = Server(workdir, interval_ms)
        setups.append(probe.ready_s)
        probe.child.proc.kill()
        probe.wait()

    server = Server(workdir, interval_ms, metrics_json="metrics.json")
    setups.append(server.ready_s)
    # Server CPU over the nominal rung only: the lead-in, the checkpoint
    # in the last rung and the final drain stay out of cpu_ms_per_solve.
    nominal_cpu = {}

    def on_rung(rung):
        if rung in (nominal, nominal + 1):
            try:
                nominal_cpu[rung] = server.proc_cpu_ns()
            except OSError:
                pass

    used_fresh = run_load(workdir, common + [
        "--rungs=" + rungs, "--saturate=%g" % saturate_s, "--seed=%d" % seed,
        "--fresh-start=%d" % warm_fresh,
        "--fresh-share=%g" % spec["fresh_share"], "--shutdown",
        "--samples=samples.txt", "--report=measured.txt"], on_rung)
    sig, code, usage = server.wait()
    crashes = []
    if sig is not None:
        crashes.append({"workload": "serve-mixed", "seed": seed,
                        "scenarios": "requests without a reply",
                        "signal": sig})
        log("crash: workload serve-mixed seed %d signal %s" % (seed, sig))

    rows = read_samples(os.path.join(workdir, "samples.txt"))
    server_metrics = {}
    if os.path.exists(os.path.join(workdir, "metrics.json")):
        with open(os.path.join(workdir, "metrics.json")) as f:
            server_metrics = json.load(f)

    # Reference over every file the measured life was sent.
    sent = hot_files + fresh_files[warm_fresh:used_fresh]
    ref_manifest = os.path.join(workdir, "reference_manifest.txt")
    with open(ref_manifest, "w") as f:
        f.write("".join(path + "\n" for path in sent))
    by_ref_id, ref_ok = run_reference(ref_manifest, len(sent), workdir,
                                      False, spec["reference_parts"])
    hot_count = len(hot_files)
    reference = {(i if i < hot_count else i + warm_fresh): text
                 for i, text in by_ref_id.items()}
    occurrences = {}
    for row in rows:
        occurrences[row[1]] = occurrences.get(row[1], 0) + 1
    records = read_report(os.path.join(workdir, "measured.txt"))
    mismatched, paper_failures, messages = oracle(records, reference, files,
                                                  occurrences)
    for m in messages[:20]:
        log(m)

    refused = [r for r in rows if r[5] not in (0, -1)]
    lost = [r for r in rows if r[5] == -1]
    bad = sum(1 for r in rows if r[5] == 1000)

    def rung_stats(rung):
        mine = [r for r in rows if r[0] == rung]
        lat = sorted((r[4] - r[2]) / 1e6 for r in mine if r[5] == 0)
        late = sorted((r[3] - r[2]) / 1e6 for r in mine)
        fails = sum(1 for r in mine if r[5] != 0)
        quarter = max(1, len(mine) // 4)
        head = sorted((r[4] - r[2]) / 1e6 for r in mine[:quarter]
                      if r[5] == 0)
        tail = sorted((r[4] - r[2]) / 1e6 for r in mine[-quarter:]
                      if r[5] == 0)
        growing = bool(head and tail and
                       quantile(tail, 0.5) > 2 * quantile(head, 0.5) + 1.0)
        return {"rate": ladder[rung], "sent": len(mine), "ok": len(lat),
                "failed": fails, "p50": quantile(lat, 0.5),
                "p95": quantile(lat, 0.95), "p99": quantile(lat, 0.99),
                "lateness_p99": quantile(late, 0.99), "growing": growing}

    def saturated_rate(mine, segments=THROUGHPUT_SEGMENTS):
        """Correct replies per second in the saturation phase: the median
        over equal-time segments from its first send to its last, so the
        drain after the last send stays out."""
        if len(mine) < 2:
            return float("nan")
        start, end = mine[0][3], mine[-1][3]
        width = (end - start) / segments
        counts = [0] * segments
        for r in mine:
            if r[5] == 0 and start <= r[4] < end:
                counts[min(segments - 1, int((r[4] - start) // width))] += 1
        return statistics.median(counts) / (width / 1e9)

    stats = [rung_stats(i) for i in range(len(ladder))]
    saturated = [r for r in rows if r[0] == len(ladder)]
    saturated_rps = saturated_rate(saturated)
    max_rate = 0.0
    for s in stats:
        if s["failed"] == 0 and not s["growing"] and \
                s["p99"] <= spec["p99_limit_ms"]:
            max_rate = max(max_rate, s["rate"])
    for s in stats:
        log("rung %4g rps: %d sent, %d ok, %d failed, p50 %.3f ms, p95 "
            "%.3f ms, p99 %.3f ms (%d samples), lateness p99 %.3f ms%s"
            % (s["rate"], s["sent"], s["ok"], s["failed"], s["p50"],
               s["p95"], s["p99"], s["ok"], s["lateness_p99"],
               ", backlog growing" if s["growing"] else ""))
    log("saturation: %d requests in %.1f s of closed loop, %.1f correct "
        "replies/s, p50 %.3f ms from send"
        % (len(saturated), saturate_s, saturated_rps,
           quantile(sorted((r[4] - r[3]) / 1e6 for r in saturated
                           if r[5] == 0), 0.5)))
    nominal_lat = sorted((r[4] - r[2]) / 1e6 for r in rows
                         if r[0] == nominal and r[5] == 0)
    for kind, mine in (("hot", lambda f: f < hot_count),
                       ("fresh", lambda f: f >= hot_count)):
        lat = sorted((r[4] - r[2]) / 1e6 for r in rows
                     if r[0] == nominal and r[5] == 0 and mine(r[1]))
        log("nominal rung, %s requests: p50 %.3f ms, mean %.3f ms (%d "
            "samples)" % (kind, quantile(lat, 0.5),
                          statistics.fmean(lat) if lat else float("nan"),
                          len(lat)))
    attempted = len(rows)
    failed = len(refused) + len(lost) + bad + mismatched
    counters = server_metrics.get("counters", {})
    result = {
        "files": files,
        "attempted": attempted,
        "failed": failed,
        "correct": ref_ok and mismatched == 0 and paper_failures == 0 and
        bad == 0,
        "samples": len(nominal_lat),
        "crashes": crashes,
        "extra": {
            "failed_frac": failed / max(1, attempted),
            "serve_p50_ms": quantile(nominal_lat, 0.5),
            "serve_p99_ms": quantile(nominal_lat, 0.99),
            "max_rate_rps": max_rate,
            "p99_limit_ms": spec["p99_limit_ms"],
            "fresh_sent": used_fresh - warm_fresh,
            "fresh_in_warmup": warm_fresh,
            "setup_samples": len(setups),
            "oracle_mismatches": mismatched,
            "paper_answer_failures": paper_failures,
        },
    }
    if not trace:
        result["metrics"] = {
            "solves_per_s": saturated_rps,
            "solve_p50_ms": quantile(nominal_lat, 0.50),
            "solve_p95_ms": quantile(nominal_lat, 0.95),
            "cpu_ms_per_solve": (nominal_cpu.get(nominal + 1, 0) -
                                 nominal_cpu.get(nominal, 0)) / 1e6 /
            max(1, len(nominal_lat)),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        return result
    persist = subprocess.run(
        [DRIVER, "persist", "--checkpoint=warm.gdxsnap",
         "--scratch=probe.gdxsnap"], cwd=workdir, stdout=subprocess.PIPE,
        text=True, check=True, timeout=120).stdout.split()
    late = sorted((r[3] - r[2]) / 1e6 for r in rows)

    def counter(name):
        return counters.get(name, 0)

    def hit_ratio(memo):
        hits = counter("engine.cache.%s.hits" % memo)
        return ratio(hits, hits + counter("engine.cache.%s.misses" % memo))

    metrics = {
        "chase.triggers": counter("engine.work.chase_triggers"),
        "chase.merges": counter("engine.work.chase_merges"),
        "chase.memo_hit_ratio": hit_ratio("chase"),
        "existence.candidates": counter("engine.work.candidates_tried"),
        "certain.solutions": counter("engine.work.solutions_enumerated"),
        "nre.memo_hit_ratio": hit_ratio("nre"),
        "compile.hit_ratio": hit_ratio("compile"),
        "answers.hit_ratio": hit_ratio("answer"),
        "serve.queue_wait_p99_ms": histogram_p99_ms(server_metrics,
                                                    "serve.queue_wait_ns"),
        "serve.server_p99_ms": histogram_p99_ms(server_metrics,
                                                "serve.request_ns"),
        "serve.queue_full": counter("serve.requests.rejected_full"),
        "serve.client_p99_ms": quantile(nominal_lat, 0.99),
        "serve.max_rate_rps": max_rate,
        "load.lateness_p99_ms": quantile(late, 0.99),
        "persist.warm_start_ms": int(persist[1]) / 1e6,
        "persist.checkpoint_ms": int(persist[2]) / 1e6,
        "persist.snapshot_bytes": int(persist[3]),
    }
    result["metrics"] = metrics
    return result


# --- reporting --------------------------------------------------------------


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def emit(result, trace, env, workload, seed, seconds):
    bench = benchmark_json()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    log("environment: " + json.dumps(env, sort_keys=True))
    log("workload %s seed %d seconds %g trace %d: %s" % (
        workload, seed, seconds, trace, WORKLOADS["workloads"][workload]
        ["loop"]))
    metrics = {}
    not_applicable = []
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            not_applicable.append(m["name"])
            value = 0
        elif not math.isfinite(value):
            value = 0  # no samples at all (the run lost them to a crash)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        log("  %-28s %14.6f %-6s (%s is better)%s" % (
            m["name"], value, m["unit"], m["better"],
            "  [n/a on this workload]" if m["name"] in not_applicable
            else ""))
    log("  samples: %d latency sample(s); %d attempted, %d failed"
        % (result["samples"], result["attempted"], result["failed"]))
    for key, value in sorted(result.get("extra", {}).items()):
        log("  %-28s %s" % (key, value))
    for crash in result["crashes"]:
        log("  crash: " + json.dumps(crash))
    log("  oracle: %s" % ("outputs match the reference"
                          if result["correct"] else "MISMATCH"))
    if not_applicable:
        log("  not applicable here (reported as 0): "
            + ", ".join(not_applicable))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)


def run_workload(workload, seed, seconds, trace, kill_after=None,
                 overrides=None):
    spec = dict(WORKLOADS["workloads"][workload], **(overrides or {}))
    workdir = os.path.join(RUNS, "%s-%d-%d-%d" % (workload, seed, trace,
                                                  os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if workload == "serve-mixed":
            return run_serve_workload(spec, seed, seconds, trace, workdir)
        return run_batch_workload(workload, spec, seed, seconds, trace,
                                  workdir, kill_after=kill_after)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- self-test --------------------------------------------------------------


def self_test():
    """Every workload at its smallest size: the emitted metric names equal
    BENCHMARK.json's, the oracle flags a corrupted reference line, and the
    supervisor survives a SIGKILL and real crashes, counting what they
    lost."""
    failures = []
    bench = benchmark_json()
    smallest = WORKLOADS["self_test"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = sorted(m["name"] for m in bench[key])
        for workload in WORKLOADS["workloads"]:
            result = run_workload(workload, 1, 2.0, trace,
                                  overrides=smallest[workload])
            got = sorted(result["metrics"])
            unknown = sorted(set(got) - set(want))
            if unknown or (trace == 0 and got != want):
                failures.append("%s trace %d metric names %s != %s"
                                % (workload, trace, got, want))
            if not result["correct"] or result["failed"]:
                failures.append("%s trace %d: correct=%s failed=%d"
                                % (workload, trace, result["correct"],
                                   result["failed"]))
            log("self-test: %s trace %d ok (%d attempted)"
                % (workload, trace, result["attempted"]))
    records = [(0, "existence: YES  (x)\n")]
    corrupted = {0: "existence: NO  (x)\n"}
    mismatched, _, _ = oracle(records, corrupted, ["a.gdx"], {0: 3})
    if mismatched != 3:
        failures.append("oracle missed a corrupted reference line")
    bad_paper = "certain answers (1 solution(s) intersected):\n  (c1, c1)\n"
    if paper_check("ex22_egd.gdx", bad_paper):
        failures.append("paper-answer check missed a wrong cert_Ω")
    # A SIGKILL at the second batch loses exactly that batch.
    cf = smallest["certain-flights"]
    result = run_workload("certain-flights", 1, 3.0, 0, kill_after=1,
                          overrides=cf)
    if len(result["crashes"]) != 1 or result["crashes"][0]["signal"] != 9 \
            or result["failed"] != cf["batch"] or not result["correct"]:
        failures.append("supervisor did not count a SIGKILL: %s, failed %d"
                        % (result["crashes"], result["failed"]))
    else:
        log("self-test: SIGKILL survived, %d lost scenarios counted"
            % result["failed"])
    # Crash probe: multi-egd settings race in the engine's candidate egd
    # repair (an unsynchronised Graph::RawSignature cache). Every
    # crash's lost range must be counted, and every scenario index must be
    # either solved by a process or inside exactly one recorded crash.
    probe = dict(smallest["crash-probe"])
    pool = probe["size"]["pool"]
    result = run_workload(probe.pop("workload"), 1, 4.0, 0, overrides=probe)
    ranges = [tuple(c["scenarios"]) for c in result["crashes"]]
    lost = sum(end - first for first, end in ranges)
    covered = sorted([tuple(s) for s in result["segments"]] + ranges)
    contiguous = covered[0][0] == 0 and covered[-1][1] == pool and all(
        a[1] == b[0] for a, b in zip(covered, covered[1:]))
    if result["attempted"] != pool or lost != result["lost"] or \
            not contiguous:
        failures.append("crash probe: %d of %d scenarios attempted, %d "
                        "counted lost, crash ranges %s, solved ranges %s"
                        % (result["attempted"], pool, result["lost"], ranges,
                           result["segments"]))
    log("self-test: crash probe recorded %d crash(es); %d of %d scenarios "
        "lost to them, %d other failure(s) (wrong or unverified outputs "
        "from the same race)" % (len(result["crashes"]), lost,
                                 result["attempted"],
                                 result["failed"] - lost))
    for f in failures:
        log("self-test FAILED: " + f)
    log("self-test: %s" % ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    # The benchmark builds the program from this checkout's sources.
    for needed in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench: %s not found; run from a full "
                             "checkout\n" % needed)
            return 2
    digest = source_digest()
    build(digest)
    env = environment(digest)
    if args.self_test:
        return self_test()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    emit(result, args.trace, env, args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
