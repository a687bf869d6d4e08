#!/usr/bin/env python3
"""The repository benchmark: end-to-end runs of the release `gossip` binary.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads (see perfbench/README.md for why each was chosen):

    sweep-dynamic  `gossip scenario run` on an edge-Markovian and a
                   rho-diligent sweep, back to back
    serve-gnp      `gossip serve` driven by one closed-loop client:
                   12 sampled G(n, p) sweeps, each once (miss) then 9 times (hit)
    live-small     `gossip net run` on K_n, n in {64, 128}, 100 trials each
    live-large     `gossip net run` on K_n, n = 100000, 4 trials

The script builds the `gossip` binary and the traced-pass helper
(`perfbench/tracer`) from source into $CARGO_TARGET_DIR (default
`.bench_build`), generates every input from --seed, and then, with
--trace 0, repeats the workload for --seconds seconds and reports the
end-to-end metrics. With --trace 1 it runs one untraced pass and then the
in-process traced pass, and reports the per-layer metrics. Every output is
checked. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 20261016
WORKLOADS = ("sweep-dynamic", "serve-gnp", "live-small", "live-large")

# Threads, node groups and client connections each workload uses. A
# workload configured above the machine's core count is refused.
RESOURCES = {
    "sweep-dynamic": {"threads": 1, "groups": 0, "connections": 0},
    "serve-gnp": {"threads": 1, "groups": 0, "connections": 1},
    "live-small": {"threads": 0, "groups": 1, "connections": 0},
    "live-large": {"threads": 0, "groups": 1, "connections": 0},
}

SERVE_SWEEPS = 12
SERVE_ROUNDS = 10  # one miss, then nine hits per sweep
SETUP_PROBES = 7
MIN_PASSES = 2
TICK = 1e-3  # the live runtime's default message latency


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def generate(seed):
    """Every input of every workload, as file name -> JSON text, drawn
    from `seed`. Any seed gives valid inputs of the same shape."""
    rng = random.Random(seed)

    def draw():
        return rng.randrange(1, 2**31)

    def spec(name, family, sizes, trials, trial_seed, **extra):
        body = {
            "name": name,
            "family": family,
            "protocol": {"kind": "async"},
            "sweep": {"sizes": sizes, "trials": trials, "seed": trial_seed},
        }
        body["sweep"].update(extra.pop("sweep", {}))
        body.update(extra)
        return json.dumps(body, separators=(",", ":"))

    files = {}
    files["sweep-dynamic/edge-markovian.json"] = spec(
        f"bench-edge-markovian-{seed}",
        {"kind": "edge-markovian", "p": 0.002, "q": 0.2, "build_seed": draw()},
        [2000, 4000], 20, draw(), sweep={"threads": 1})
    files["sweep-dynamic/diligent.json"] = spec(
        f"bench-diligent-{seed}",
        {"kind": "diligent", "rho": 0.25},
        [1024, 2048], 20, draw(), sweep={"threads": 1})
    build_seed = draw()
    trial_seeds = rng.sample(range(1, 2**31), SERVE_SWEEPS)
    files["serve-gnp/requests.jsonl"] = "".join(
        spec(f"bench-gnp-{seed}-{i}",
             {"kind": "er", "p": 0.01, "backend": "sampled", "build_seed": build_seed},
             [2000, 4000], 128, s, sweep={"threads": 1}) + "\n"
        for i, s in enumerate(trial_seeds))
    # One node group: on a shared two-core machine a second group thread
    # turns every epoch barrier into a wait on whichever core is busy.
    live_net = {"groups": 1, "delivery": "local"}
    files["live-small/spec.json"] = spec(
        f"bench-live-small-{seed}", {"kind": "complete"}, [64, 128], 100, draw(), net=live_net)
    files["live-large/spec.json"] = spec(
        f"bench-live-large-{seed}", {"kind": "complete"}, [100000], 4, draw(), net=live_net)
    return files


def write_inputs(seed):
    base = os.path.join(WORK, f"inputs-{seed}")
    for name, text in generate(seed).items():
        path = os.path.join(base, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)
    return base


def expected_records(spec):
    return len(spec["sweep"]["sizes"]) * spec["sweep"]["trials"]


# ---------------------------------------------------------------------------
# Build and run context
# ---------------------------------------------------------------------------


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (["-p", "gossip-cli", "--bin", "gossip"],
                 ["--manifest-path", os.path.join("perfbench", "tracer", "Cargo.toml")]):
        done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("cargo build failed")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "gossip"), os.path.join(release, "perfbench-trace")


def source_digest():
    """A digest of the Rust sources and manifests under test, for checkouts
    that carry no git metadata."""
    h = hashlib.sha256()
    for top in ("crates", "src", "vendor"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        with open(os.path.join(ROOT, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_context(workload, seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def command(args):
        try:
            done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
            return done.stdout.strip() if done.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    context = {
        "nproc": nproc,
        "cpu": cpu,
        "rustc": command(["rustc", "-V"]),
        "commit": command(["git", "rev-parse", "--short", "HEAD"]),
        "source_digest": source_digest(),
        "seed": seed,
        "workload": workload,
    }
    context.update(RESOURCES[workload])
    return context


# ---------------------------------------------------------------------------
# Running the binary
# ---------------------------------------------------------------------------


class Invocation:
    """One `gossip` process whose `--output jsonl` target is a FIFO, so the
    moment the run opens it (the end of set-up) is observed exactly."""

    def __init__(self, binary, args, name):
        self.fifo = os.path.join(WORK, f"{name}.fifo")
        if os.path.exists(self.fifo):
            os.unlink(self.fifo)
        os.mkfifo(self.fifo)
        self.opened = None
        self.data = b""
        self.reader = threading.Thread(target=self._read)
        self.reader.start()
        self.stderr = open(os.path.join(WORK, f"{name}.stderr"), "w+b")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([binary] + args + ["--output", "jsonl", self.fifo],
                                     cwd=ROOT, stdout=subprocess.DEVNULL, stderr=self.stderr)

    def _read(self):
        with open(self.fifo, "rb") as f:
            self.opened = time.perf_counter()
            self.data = f.read()

    def wait(self):
        """Waits for the process; returns (exit code, latency s, usage)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        latency = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.opened is None:
            # The run never opened its output: release the blocked reader.
            try:
                os.close(os.open(self.fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass
        self.reader.join()
        os.unlink(self.fifo)
        self.stderr.close()
        return self.proc.returncode, latency, usage

    def setup_s(self):
        return None if self.opened is None else self.opened - self.start

    def kill_after_setup(self):
        while self.opened is None and self.proc.poll() is None:
            time.sleep(0.0005)
        setup = self.setup_s()
        try:
            self.proc.kill()
        except OSError:
            pass
        self.wait()
        return setup


class Daemon:
    """A `gossip serve` process on an ephemeral port with a fresh store."""

    def __init__(self, binary, store):
        shutil.rmtree(store, ignore_errors=True)
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "serve", "--addr", "127.0.0.1:0", "--store", store],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = self.proc.stderr.readline().decode(errors="replace")
        self.setup = time.perf_counter() - self.start
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"gossip serve did not start: {line.strip()}")
        host, port = line.split("listening on ", 1)[1].split(",", 1)[0].rsplit(":", 1)
        self.addr = (host, int(port))

    def request(self, line):
        """One request on its own connection; returns (latency s, response)."""
        t0 = time.perf_counter()
        with socket.create_connection(self.addr) as s:
            s.sendall(line)
            chunks = []
            while True:
                chunk = s.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        return time.perf_counter() - t0, b"".join(chunks)

    def stop(self):
        """SIGTERM, then wait; returns (exit code, usage)."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stderr.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stderr.close()
        return self.proc.returncode, usage


def rss_mb(usage):
    return usage.ru_maxrss / 1024.0


def cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def parse_records(data):
    try:
        return [json.loads(line) for line in data.decode().splitlines() if line]
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


@functools.lru_cache(maxsize=None)
def complete_graph_time(n):
    """Mean and variance of the async push-pull spread time on K_n: from k
    informed nodes the next one is informed at rate 2k(n-k)/(n-1)."""
    rates = [2.0 * k * (n - k) / (n - 1) for k in range(1, n)]
    return sum(1.0 / r for r in rates), sum(1.0 / (r * r) for r in rates)


def check_records(spec, records, oracle):
    """Problems with one run's records: count, outcomes, and (on K_n) the
    per-size mean against ((n-1)/n) H_{n-1}."""
    if records is None:
        return ["output is not JSON lines"]
    problems = []
    if len(records) != expected_records(spec):
        problems.append(f"{len(records)} records, expected {expected_records(spec)}")
    if any(r.get("outcome") != "spread" for r in records):
        problems.append("a trial did not end `spread`")
    if oracle and not problems:
        for n in spec["sweep"]["sizes"]:
            times = [r["spread_time"] for r in records if r["n"] == n]
            mean, var = complete_graph_time(n)
            sample = statistics.fmean(times)
            allowance = 2 * TICK * math.ceil(math.log2(n))
            limit = 4 * math.sqrt(var / len(times)) + allowance
            if abs(sample - mean) > limit:
                problems.append(f"n={n}: mean {sample:.4f} is {abs(sample - mean):.4f} from "
                                f"the exact {mean:.4f} (limit {limit:.4f})")
    return problems


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ops, problems, what):
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(f"{what}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# Workload passes
# ---------------------------------------------------------------------------


def cli_jobs(workload, inputs):
    """The `gossip` invocations of one pass: (args, spec, K_n oracle)."""
    def load(name):
        path = os.path.join(inputs, workload, name)
        with open(path) as f:
            return path, json.load(f)

    if workload == "sweep-dynamic":
        return [(["scenario", "run", path], spec, False)
                for path, spec in map(load, ("edge-markovian.json", "diligent.json"))]
    path, spec = load("spec.json")
    return [(["net", "run", path], spec, True)]


def cli_pass(binary, jobs, checks, reference):
    """One pass; its wall time is the invocations' own, without the checks."""
    p = {"trials": 0, "events": 0, "rss": 0.0, "cpu": 0.0, "ops": [], "setups": []}
    for i, (args, spec, oracle) in enumerate(jobs):
        run = Invocation(binary, args, f"job{i}")
        code, latency, usage = run.wait()
        records = parse_records(run.data)
        problems = [] if code == 0 else [f"exit code {code}"]
        if not problems:
            problems = check_records(spec, records, oracle)
        # Every pass repeats the same inputs, so its output must repeat
        # byte for byte.
        if not problems and reference.setdefault(i, run.data) != run.data:
            problems = ["output differs from the first pass"]
        checks.record(expected_records(spec), problems, " ".join(args[:2]))
        p["ops"].append(latency)
        if run.setup_s() is not None:
            p["setups"].append(run.setup_s())
        p["rss"] = max(p["rss"], rss_mb(usage))
        p["cpu"] += cpu_s(usage)
        if records and not problems:
            p["trials"] += len(records)
            p["events"] += sum(r["events"] for r in records)
    p["wall"] = sum(p["ops"])
    return p


def serve_requests(inputs):
    with open(os.path.join(inputs, "serve-gnp", "requests.jsonl"), "rb") as f:
        lines = [line for line in f.read().splitlines(keepends=True) if line.strip()]
    return [(line, json.loads(line)) for line in lines]


def serve_pass(binary, requests, checks):
    """One pass; its wall time is the daemon's set-up plus every request's
    latency, without the client's checks."""
    p = {"trials": 0, "events": 0, "ops": [], "misses": [], "setups": []}
    daemon = Daemon(binary, os.path.join(WORK, "store"))
    p["setups"].append(daemon.setup)
    miss_bodies = {}
    for round_ in range(SERVE_ROUNDS):
        for i, (line, spec) in enumerate(requests):
            latency, response = daemon.request(line)
            head, _, body = response.partition(b"\n")
            want = "miss" if round_ == 0 else "hit"
            problems = []
            try:
                cache = json.loads(head).get("cache")
            except json.JSONDecodeError:
                cache = None
            if cache != want:
                problems.append(f"cache header {cache!r}, expected {want!r}")
            if round_ == 0:
                lines = body.splitlines()
                records = parse_records(b"\n".join(lines[:-1]))
                footer = lines[-1] if lines else b""
                if b'"kind":"report"' not in footer:
                    problems.append("no report footer")
                problems += check_records(spec, records, False)
                miss_bodies[i] = body
                p["misses"].append(latency)
                if not problems:
                    p["trials"] += len(records)
                    p["events"] += sum(r["events"] for r in records)
            else:
                if body != miss_bodies.get(i):
                    problems.append("hit body differs from the miss body")
                p["ops"].append(latency)
            checks.record(1, problems, f"request {round_}.{i}")
    p["wall"] = daemon.setup + sum(p["misses"]) + sum(p["ops"])
    code, usage = daemon.stop()
    p["rss"], p["cpu"] = rss_mb(usage), cpu_s(usage)
    if code != 0:
        checks.record(0, [f"exit code {code}"], "gossip serve")
    return p


def setup_probe(binary, workload, inputs):
    """Set-up time alone: launch, wait for the end of set-up, stop."""
    if workload == "serve-gnp":
        daemon = Daemon(binary, os.path.join(WORK, "probe-store"))
        daemon.stop()
        return daemon.setup
    args, _, _ = cli_jobs(workload, inputs)[0]
    return Invocation(binary, args, "probe").kill_after_setup()


def measure(binary, workload, inputs, seconds, checks):
    """Set-up probes, then passes until `seconds` are used."""
    setups = [s for s in (setup_probe(binary, workload, inputs) for _ in range(SETUP_PROBES))
              if s is not None]
    requests = serve_requests(inputs) if workload == "serve-gnp" else None
    jobs = cli_jobs(workload, inputs) if requests is None else None
    reference = {}
    passes = []
    started = time.perf_counter()
    while True:
        if requests is not None:
            passes.append(serve_pass(binary, requests, checks))
        else:
            passes.append(cli_pass(binary, jobs, checks, reference))
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    for p in passes:
        setups += p["setups"]
    return passes, setups


def quantile(values, q):
    """Nearest rank: the smallest value with at least a share q at or below it."""
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(q * len(v)))) - 1]


def end_to_end(passes, setups):
    ops = [x for p in passes for x in p["ops"]]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
        "trials_per_s": statistics.median(p["trials"] / p["wall"] for p in passes),
        "events_per_s": statistics.median(p["events"] / p["wall"] for p in passes),
        "op_p50_s": quantile(ops, 0.5),
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    return declared["end_to_end"], declared["per_layer"]


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:>16.6g} {unit:<6} {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "cli")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout", 2)
    if shutil.which("cargo") is None:
        fail("cargo is not on PATH", 2)

    context = run_context(args.workload, args.seed)
    used = max(RESOURCES[args.workload].values())
    if used > context["nproc"]:
        fail(f"{args.workload} uses {used} threads, groups or connections, "
             f"but only {context['nproc']} cores are available", 2)

    end_to_end_declared, per_layer_declared = load_declared()
    binary, tracer = build()
    os.makedirs(WORK, exist_ok=True)
    inputs = write_inputs(args.seed)
    checks = Checks()

    print("run context: " + ", ".join(f"{k}={v}" for k, v in context.items()))
    if args.trace == 0:
        passes, setups = measure(binary, args.workload, inputs, args.seconds, checks)
        values = end_to_end(passes, setups)
        declared = end_to_end_declared
        ops = [x for p in passes for x in p["ops"]]
        print(f"{len(passes)} passes, {len(setups)} set-up samples, "
              f"{len(ops)} operations in op_p50_s; pass times "
              + " ".join(f"{p['wall']:.3f}" for p in passes) + " s, CPU "
              + " ".join(f"{p['cpu']:.3f}" for p in passes) + " s")
        if args.workload == "serve-gnp":
            misses = [x for p in passes for x in p["misses"]]
            print(f"serve (closed loop, 1 client): hit p90 {quantile(ops, 0.9):.4f} s over "
                  f"{len(ops)} hits; miss median {statistics.median(misses):.4f} s over "
                  f"{len(misses)} misses")
        correct = checks.failed == 0
    else:
        reference = {}
        if args.workload == "serve-gnp":
            untraced = serve_pass(binary, serve_requests(inputs), checks)
        else:
            untraced = cli_pass(binary, cli_jobs(args.workload, inputs), checks, reference)
        done = subprocess.run([tracer, args.workload, inputs, WORK], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            fail(f"traced pass failed with exit code {done.returncode}")
        traced = json.loads(done.stdout)
        checks.attempted += traced["attempted"]
        checks.failed += traced["failed"]
        if traced["failed"]:
            checks.problems.append(f"traced pass: {traced['failed']} operations failed")
        values = {name: m["value"] for name, m in traced["metrics"].items()}
        values["trace.untraced_wall_s"] = untraced["wall"]
        sources = {name: m["from"] for name, m in traced["metrics"].items()}
        declared = per_layer_declared
        print(f"traced pass: {traced['spans']} spans in "
              f"{os.path.relpath(os.path.join(WORK, 'spans-' + args.workload + '.jsonl'), ROOT)}")
        coverage_ok = True
        for s in traced["sequences"]:
            ok = s["coverage"] >= 0.9
            coverage_ok &= ok
            print(f"  sequence {s['name']:<14} traced {s['traced_s']:.3f} s, workload calls "
                  f"{s['wall_s']:.3f} s, named spans cover {100 * s['coverage']:.1f}%"
                  + ("" if ok else "  (below 90%)"))
        print(f"  untraced {args.workload} pass: {untraced['wall']:.3f} s")
        v = values
        print(f"serve-gnp hit ({sources['serve.hit_request_s']}): "
              f"{1e3 * v['serve.hit_request_s']:.2f} ms, journal parsing "
              f"{100 * v['serve.hit_journal_share']:.1f}%, transport "
              f"{100 * v['serve.hit_transport_share']:.1f}%")
        print(f"live trial ({sources['net.trial_s']}): {1e3 * v['net.trial_s']:.2f} ms, "
              f"per-trial set-up {100 * v['net.trial_fixed_share']:.1f}%, per-epoch "
              f"{100 * (1 - v['net.trial_fixed_share']):.1f}% "
              f"({v['net.us_per_epoch']:.1f} us per epoch)")
        correct = checks.failed == 0 and coverage_ok

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("no value for " + ", ".join(missing))
    print_table("metrics:", [(m["name"], values[m["name"]], m["unit"],
                              f"({m['better']} is better)") for m in declared])
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}")
    print(f"checks: {checks.attempted - checks.failed}/{checks.attempted} operations passed")
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
