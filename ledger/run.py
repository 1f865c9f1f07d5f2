#!/usr/bin/env python3
"""End-to-end benchmark: instrumented TML program -> pipe -> online observer -> verdict.

Run from the root of a checkout:

    python3 ledger/run.py --workload lockloop --seed 1 --seconds 25 --trace 0

It builds the CLI and ledger/ledger.exe with dune, generates the
workload's program from --seed, and times what a user runs: `jmpax run`
(producer) piped into `jmpax stream -` (observer), from spawning the producer
to the observer's last verdict line.  It spawns exactly one producer and one
observer per pipeline and relays the producer's trace to the observer's stdin
through an in-memory buffer that never back-pressures the producer.  Every
run is scored against the verdict the generator derived by construction.

The machine's speed drifts while it runs, so before every timed pipeline
the benchmark also runs ledger/reference.exe, a fixed loop that uses
nothing from the repo, and reports every end-to-end timing scaled to a
machine on which that loop takes REFERENCE_S seconds.  The raw medians
and the run's speed factor are printed beside them.  setup_s is not
scaled: process start-up does not follow the loop's speed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics (the
traced in-process run of `ledger layers` plus the transport figures measured
at the relay).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import fcntl
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("lockloop", "lattice", "wide", "checkpointed")
JMPAX = os.path.join("_build", "default", "bin", "jmpax_cli.exe")
LEDGER = os.path.join("_build", "default", "ledger", "ledger.exe")
REFERENCE = os.path.join("_build", "default", "ledger", "reference.exe")
# The reference loop's median time on the 2-vCPU Xeon KVM guest the bounds
# were tuned on: scaled timings read as that machine's at its usual speed.
REFERENCE_S = 0.075
WORK = ".ledger_work"
SETUPS_PER_PIPELINE = 2
PIPELINE_TIMEOUT_S = 120.0
PIPE_BYTES = 1 << 20


def fail(msg):
    print("ledger: " + msg, file=sys.stderr)
    sys.exit(1)


def declared_metrics(kind):
    """The metric list of BENCHMARK.json, the one source of names and units."""
    with open("BENCHMARK.json") as f:
        return json.load(f)[kind]


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    for need in ("dune-project", os.path.join("bin", "jmpax_cli.ml"), "lib"):
        if not os.path.exists(need):
            fail("not a jmpax checkout: %s is missing" % need)
    # No shared dune cache: the build reads and writes inside the checkout.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
           "./bin/jmpax_cli.exe", "./ledger/ledger.exe", "./ledger/reference.exe"]
    p = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def ledger(*args):
    return subprocess.run([LEDGER] + [str(a) for a in args], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)


def reference():
    """Seconds the reference loop took, timed inside its own process."""
    p = subprocess.run([REFERENCE], stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("reference loop failed")
    return float(p.stdout.split()[0])


def pipeline(cfg, work, fuel0):
    """One producer | relay | observer run: timings, the children's rusage
    and exit codes, and the relay's byte counts."""
    run_args = cfg["run_fuel0"] if fuel0 else cfg["run"]
    if cfg["checkpoint"] and os.path.exists(cfg["checkpoint"]):
        os.remove(cfg["checkpoint"])
    trace_r, trace_w = os.pipe()
    obs_in_r, obs_in_w = os.pipe()
    obs_out_r, obs_out_w = os.pipe()
    # Large pipe buffers: fewer wake-ups of the relay while the producer
    # writes its trace and the observer reads it.
    for fd in (trace_w, obs_in_w):
        try:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except OSError:
            pass
    with open(os.path.join(work, "producer.out"), "wb") as prod_out, \
            open(os.path.join(work, "producer.err"), "wb") as prod_err, \
            open(os.path.join(work, "observer.err"), "wb") as obs_err:
        # The observer is up and waiting on stdin before the monitored
        # program starts; the clock starts at the producer's spawn.
        obs = subprocess.Popen([JMPAX, "stream", "-"] + cfg["stream"],
                               stdin=obs_in_r, stdout=obs_out_w, stderr=obs_err)
        t0 = time.perf_counter()
        prod = subprocess.Popen(
            [JMPAX, "run", "-f", cfg["program"], "-o", "/dev/fd/%d" % trace_w] + run_args,
            stdin=subprocess.DEVNULL, stdout=prod_out, stderr=prod_err, pass_fds=(trace_w,))
    for fd in (trace_w, obs_in_r, obs_out_w):
        os.close(fd)
    os.set_blocking(obs_in_w, False)
    pidfds = {os.pidfd_open(prod.pid): prod, os.pidfd_open(obs.pid): obs}
    exited = {}                   # Popen -> perf_counter() at exit

    chunks, head = [], 0          # relay buffer: pending chunks, offset into chunks[0]
    read_bytes = written = peak_backlog = 0
    first_byte = last_verdict = None
    obs_stdout = bytearray()
    verdicts = 0
    poller = select.poll()
    for fd in [trace_r, obs_out_r] + list(pidfds):
        poller.register(fd, select.POLLIN)
    open_fds = {trace_r, obs_out_r}
    writing = False

    def stop_writing():
        nonlocal obs_in_w, writing, chunks, head
        if writing:
            poller.unregister(obs_in_w)
            writing = False
        os.close(obs_in_w)
        obs_in_w = -1
        chunks, head = [], 0

    deadline = t0 + PIPELINE_TIMEOUT_S
    try:
        while open_fds or len(exited) < 2:
            if time.perf_counter() > deadline:
                raise TimeoutError("pipeline did not finish in %.0f s" % PIPELINE_TIMEOUT_S)
            want_write = bool(chunks) and obs_in_w >= 0
            if want_write != writing:
                if want_write:
                    poller.register(obs_in_w, select.POLLOUT)
                else:
                    poller.unregister(obs_in_w)
                writing = want_write
            for fd, ev in poller.poll(1000):
                now = time.perf_counter()
                if fd in pidfds:
                    exited[pidfds[fd]] = now
                    poller.unregister(fd)
                elif fd == trace_r:
                    data = os.read(trace_r, 1 << 20)
                    if not data:
                        poller.unregister(fd)
                        os.close(fd)
                        open_fds.discard(fd)
                        continue
                    if first_byte is None:
                        first_byte = now
                    read_bytes += len(data)
                    if obs_in_w >= 0:
                        chunks.append(data)
                    peak_backlog = max(peak_backlog, read_bytes - written)
                elif fd == obs_out_r:
                    data = os.read(obs_out_r, 1 << 16)
                    if not data:
                        poller.unregister(fd)
                        os.close(fd)
                        open_fds.discard(fd)
                        continue
                    obs_stdout += data
                    n = (b"\n" + obs_stdout).count(b"\npredict")
                    if n > verdicts:
                        verdicts, last_verdict = n, now
                elif fd == obs_in_w:
                    try:
                        while chunks:
                            n = os.write(obs_in_w, memoryview(chunks[0])[head:])
                            written += n
                            head += n
                            if head == len(chunks[0]):
                                chunks.pop(0)
                                head = 0
                    except BlockingIOError:
                        pass
                    except BrokenPipeError:
                        # The observer is gone; the run is scored as it stands.
                        stop_writing()
            if trace_r not in open_fds and not chunks and obs_in_w >= 0:
                stop_writing()
    finally:
        for fd in (trace_r, obs_out_r):
            if fd in open_fds:
                os.close(fd)
        if obs_in_w >= 0:
            os.close(obs_in_w)
        for fd, p in pidfds.items():
            if p not in exited:
                os.kill(p.pid, signal.SIGKILL)
            os.close(fd)
        usage = {}
        for p in (prod, obs):
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            usage[p] = ru
    with open(os.path.join(work, "observer.out"), "wb") as f:
        f.write(obs_stdout)
    return {
        "t0": t0,
        "first_byte": first_byte if first_byte is not None else exited[prod],
        "prod_exit": exited[prod],
        "last_verdict": last_verdict if last_verdict is not None else exited[obs],
        "prod_rc": prod.returncode,
        "obs_rc": obs.returncode,
        "prod_ru": usage[prod],
        "obs_ru": usage[obs],
        "bytes": read_bytes,
        "peak_backlog": peak_backlog,
    }


def score(args, work, run, fuel0):
    p = ledger("score", args.workload, args.seed, work, run["prod_rc"], run["obs_rc"],
               1 if fuel0 else 0)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
    return p.returncode == 0


def end_to_end(cfg, runs, slowdown):
    """Medians over the run's pipelines; timings are divided (rates
    multiplied) by the run's slowdown against REFERENCE_S."""
    def med(f):
        return statistics.median(f(r) for r in runs)
    return {
        "events_per_s": slowdown * med(lambda r: cfg["messages"] / (r["last_verdict"] - r["t0"])),
        "producer_s": med(lambda r: r["prod_exit"] - r["t0"]) / slowdown,
        "verdict_lag_s": med(lambda r: r["last_verdict"] - r["prod_exit"]) / slowdown,
        "observer_cpu_s": med(lambda r: r["obs_ru"].ru_utime + r["obs_ru"].ru_stime) / slowdown,
        # ru_maxrss is in KiB on Linux.
        "producer_peak_rss_mib": med(lambda r: r["prod_ru"].ru_maxrss / 1024.0),
        "observer_peak_rss_mib": med(lambda r: r["obs_ru"].ru_maxrss / 1024.0),
    }


def transport(runs):
    def med(f):
        return statistics.median(f(r) for r in runs)
    return {
        "transport.bytes": med(lambda r: r["bytes"]),
        "transport.first_byte_s": med(lambda r: r["first_byte"] - r["t0"]),
        "transport.peak_backlog_bytes": med(lambda r: r["peak_backlog"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(WORK, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    p = ledger("gen", args.workload, args.seed, work)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("generator failed")
    cfg = json.loads(p.stdout)
    cores = nproc()
    print("ledger: workload=%s seed=%d seconds=%d trace=%d nproc=%d messages=%d threads=%d"
          % (args.workload, args.seed, args.seconds, args.trace, cores, cfg["messages"],
             cfg["nthreads"]))

    attempted = failed = 0

    def attempt(fuel0):
        nonlocal attempted, failed
        r = pipeline(cfg, work, fuel0)
        attempted += 1
        if not score(args, work, r, fuel0):
            failed += 1
        return r

    # A warm-up pipeline fills the page cache and the binaries' first-run
    # costs; it is scored but not timed.
    attempt(False)
    if args.trace == 0:
        reference()
        # Set-up pipelines are interleaved with the timed ones, so that
        # both medians span the same stretch of the machine's drift.
        start = time.perf_counter()
        runs, refs, setup = [], [], []
        while not runs or time.perf_counter() - start < args.seconds or len(runs) < 3:
            refs.append(reference())
            runs.append(attempt(False))
            setup += [attempt(True) for _ in range(SETUPS_PER_PIPELINE)]
        slowdown = statistics.median(refs) / REFERENCE_S
        raw = end_to_end(cfg, runs, 1.0)
        metrics = end_to_end(cfg, runs, slowdown)
        metrics["setup_s"] = statistics.median(r["last_verdict"] - r["t0"] for r in setup)
        print("ledger: %d pipelines, %d set-up pipelines, slowdown %.4f (reference loop %.6f s)"
              % (len(runs), len(setup), slowdown, statistics.median(refs)))
        for name in ("events_per_s", "producer_s", "verdict_lag_s", "observer_cpu_s"):
            print("ledger: raw %-38s %16.6f" % (name, raw[name]))
    else:
        # A third of the time for relay-measured transport figures, the
        # rest for the traced in-process run.
        start = time.perf_counter()
        runs = []
        while not runs or time.perf_counter() - start < args.seconds / 3.0:
            runs.append(attempt(False))
        metrics = transport(runs)
        layers_seconds = max(1, args.seconds - int(time.perf_counter() - start))
        p = ledger("layers", args.workload, args.seed, work, layers_seconds)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            fail("traced run failed")
        traced = json.loads(p.stdout)
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics.update(traced["metrics"])
        print("ledger: %d relayed pipelines, %d traced repetitions"
              % (len(runs), traced["attempted"]))
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        fail("metrics %s differ from BENCHMARK.json's %s" % (sorted(metrics), sorted(names)))
    units = {m["name"]: m["unit"] for m in declared}
    for m in declared:
        print("ledger: %-42s %16.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
