#!/usr/bin/env python3
"""Seeded benchmark of the RIP solver and its sharded cluster.

    python3 perfbench/run.py --workload cold --seed 3 --seconds 10 --trace 0

Run from the repository root.  Builds the daemons from source with dune
(into .bench_build/), generates the workload's nets from --seed, drives
them closed-loop over the line protocol for --seconds, checks every
answer, and prints one JSON object as the last line of stdout.

Workloads (closed loop: each client sends its next request when the
previous answer arrives):

  cold   rip_routerd over 2 shards (1 worker each), 2 clients.  Every
         request is a fresh net at a random budget 1.1..1.5 x tau_min, so
         every request misses the cache: routing, queueing and solving,
         with every solver phase on the blocking path.
  warm   the same cluster, 4 clients, 28 keys solved once before timing:
         every timed request is a cache hit, so the wire, the router and
         the cache lookup are all that is left.

The budgets are multiples of the net's tau_min as the program computes it
(rip_cli tau-min), the anchor the paper states its targets against.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
reruns with the daemons tracing and reports the per-layer split of the
same requests (see layers.py) plus the layers' work counters.
"""

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import daemons
import layers
import wire

SETUPS = 5  # daemon boots per run; setup_s is their median
CROSS_CHECKS = 6  # answers re-solved in-process by rip_cli per run

# per_count nets of each segment count 4..10.  The cold pool holds about a
# third of the requests a run gets through, so a run's figures average over
# thousands of nets, not over a few dozen seed-picked ones.  Both workloads
# keep both cores busy: on a shared host each core slows down by spells of
# its own, and two cores' spells partly cancel out.
WORKLOADS = {
    "cold": {"shards": 2, "clients": 2, "per_count": 240},
    "warm": {"shards": 2, "clients": 4, "per_count": 4},
}


class Keys:
    """The workload's request stream: request [k] solves [get(k)].

    The stream is a list of (net, budget) pairs cut into blocks that each
    hold one net of every segment count, so any prefix of it, like the
    part a run gets through, has the pool's mix of sizes and budgets.
    Past the end of the list the stream starts over with every budget
    nudged by a relative 1e-9 when keys must not repeat."""

    def __init__(self, name, rng, nets, tau_ps, per_count):
        counts = len(nets) // per_count
        pairs = []
        for b in range(per_count):
            block = [(c * per_count + b, rng.uniform(1.1, 1.5)) for c in range(counts)]
            rng.shuffle(block)
            pairs += block
        self.nets = nets
        self.pairs = [(i, s * tau_ps[i] * 1e-12) for i, s in pairs]
        self.distinct = name != "warm"

    def get(self, k):
        i, budget = self.pairs[k % len(self.pairs)]
        rounds = k // len(self.pairs)
        if self.distinct and rounds:
            budget *= 1.0 + rounds * 1e-9
        return self.nets[i], budget


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Recorder:
    def __init__(self):
        self.lock = threading.Lock()
        self.samples = []  # (trace_id, seconds, ok)
        self.errors = []
        self.failures = []
        self.answers = {}  # key index -> (net, budget, body lines)

    def note(self, bucket, message):
        """Keep the first few messages of [bucket]: errors are wrong
        answers, failures are answers other than RESULT."""
        with self.lock:
            if len(bucket) < 10:
                bucket.append(message)


def client_loop(socket_path, keys, counter, stop_at, rec, traced, warm_bodies):
    try:
        conn = wire.Conn(socket_path)
    except OSError as e:
        rec.note(rec.errors, "connect: %s" % e)
        return
    try:
        while time.monotonic() < stop_at:
            k = next(counter)
            net, budget = keys.get(k)
            tid = "%032x" % k if traced else None
            frame = wire.solve_frame(net, budget, tid)
            began = time.monotonic()
            try:
                lines = conn.request(frame)
            except OSError as e:
                rec.note(rec.failures, "request %d: %s" % (k, e))
                with rec.lock:
                    rec.samples.append((tid, time.monotonic() - began, False))
                return
            seconds = time.monotonic() - began
            ok = lines[0].startswith("RESULT ")
            if not ok:
                rec.note(rec.failures, "%s at %r: %s" % (net.name, budget, lines[0]))
            else:
                why = wire.check_answer(lines, net, budget)
                if why is None and warm_bodies is not None:
                    if lines[1:] != warm_bodies[k % len(warm_bodies)]:
                        why = "cache replay differs from the fresh answer"
                if why is not None:
                    rec.note(rec.errors, "%s at %r: %s" % (net.name, budget, why))
            with rec.lock:
                rec.samples.append((tid, seconds, ok))
                if ok and len(rec.answers) < CROSS_CHECKS:
                    rec.answers[k] = (net, budget, lines)
    finally:
        conn.close()


def prime(socket_path, keys, rec):
    """Solve every warm key once; return their answer bodies."""
    conn = wire.Conn(socket_path)
    bodies = []
    try:
        for k in range(len(keys.pairs)):
            net, budget = keys.get(k)
            lines = conn.request(wire.solve_frame(net, budget))
            why = wire.check_answer(lines, net, budget)
            if why is not None:
                raise RuntimeError("priming %s: %s" % (net.name, why))
            bodies.append(lines[1:])
            if k < CROSS_CHECKS:
                rec.answers[k] = (net, budget, lines)
    finally:
        conn.close()
    return bodies


def cross_check(run_dir, rec):
    """Re-solve some answered keys in-process with rip_cli: the daemons and
    the library must give the same insertion (rip_cli prints 0.1 um/u)."""
    path = os.path.join(run_dir, "check.net")
    for net, budget, lines in rec.answers.values():
        with open(path, "w") as f:
            f.write(net.body)
        done = subprocess.run(
            [daemons.exe("rip_cli"), "solve", "--budget-ps", repr(budget * 1e12), path],
            stdout=subprocess.PIPE,
        )
        local, served = [], []
        for line in done.stdout.decode().splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[1] == "um":
                local.append((float(parts[0]), float(parts[2])))
            elif line.startswith("total width"):
                local.append((float(parts[3]),))
        for line in lines[1:]:
            parts = line.split()
            if parts[0] == "repeater":
                served.append((float(parts[1]), float(parts[2])))
            elif parts[0] == "width":
                served.append((float(parts[1]),))
        same = (
            done.returncode == 0
            and len(local) == len(served)
            and all(
                len(a) == len(b) and all(abs(x - y) <= 0.051 for x, y in zip(a, b))
                for a, b in zip(local, served)
            )
        )
        if not same:
            rec.note(rec.errors, "%s at %r: served answer differs from rip_cli's" % (net.name, budget))


def run(args):
    spec = WORKLOADS[args.workload]
    traced = args.trace == 1
    daemons.build()
    run_dir = os.path.join(daemons.BUILD_DIR, "pb-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "nets"))
    daemon = None
    try:
        rng = random.Random("%s:%d" % (args.workload, args.seed))
        nets = wire.make_nets(rng, spec["per_count"])
        paths = []
        for net in nets:
            paths.append(os.path.join(run_dir, "nets", net.name + ".net"))
            with open(paths[-1], "w") as f:
                f.write(net.body)
        keys = Keys(args.workload, rng, nets, daemons.tau_min_ps(paths), spec["per_count"])

        setups = []
        for i in range(SETUPS):
            daemon = daemons.Daemon(run_dir, spec["shards"], traced)
            daemon.start()
            setups.append(daemon.setup_seconds)
            if i < SETUPS - 1:
                daemon.stop()
                daemon = None

        rec = Recorder()
        warm_bodies = prime(daemon.socket, keys, rec) if args.workload == "warm" else None
        before = counters(daemon) if traced else None
        counter = itertools.count()
        began = time.monotonic()
        stop_at = began + args.seconds
        threads = [
            threading.Thread(
                target=client_loop,
                args=(daemon.socket, keys, counter, stop_at, rec, traced, warm_bodies),
                daemon=True,
            )
            for _ in range(spec["clients"])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - began
        after = counters(daemon) if traced else None
        daemon.stop()
        trace_dir, daemon = daemon.trace_dir, None
        cross_check(run_dir, rec)

        attempted = len(rec.samples)
        ok = sum(1 for _, _, good in rec.samples if good)
        if attempted == 0:
            raise RuntimeError("no request completed")
        if traced:
            metrics = per_layer(trace_dir, rec, before, after)
        else:
            latencies = [s for _, s, _ in rec.samples]
            metrics = {
                "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                "p90_ms": (percentile(latencies, 0.90) * 1e3, "ms"),
                "setup_s": (statistics.median(setups), "s"),
            }
        for message in rec.errors:
            print("check failed: " + message, file=sys.stderr)
        for message in rec.failures:
            print("request failed: " + message, file=sys.stderr)
        print(
            "%s seed %d: %d requests in %.2f s, %d failed; setups %s"
            % (args.workload, args.seed, attempted, elapsed, attempted - ok,
               " ".join("%.4f" % s for s in setups))
        )
        return {
            "correct": not rec.errors,
            "attempted": attempted,
            "failed": attempted - ok,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        if daemon is not None:
            daemon.kill()
        shutil.rmtree(run_dir, ignore_errors=True)


def counters(daemon):
    """Work counters summed over the shards, and the router's hedges."""
    out = {}
    for path in daemon.shard_sockets():
        for key, value in wire.metrics(path).items():
            out[key] = out.get(key, 0.0) + value
    out["hedges"] = wire.metrics(daemon.socket).get("rip_router_hedges_total", 0.0)
    return out


def per_layer(trace_dir, rec, before, after):
    requests = [(tid, s) for tid, s, good in rec.samples if good]
    split, joined = layers.split(trace_dir, requests)
    if joined < len(requests):
        rec.note(rec.errors, "%d of %d requests missing from the traces" % (len(requests) - joined, len(requests)))
    delta = {k: after[k] - before.get(k, 0.0) for k in after}
    hits = delta.get("rip_cache_hits", 0.0)
    misses = delta.get("rip_cache_misses", 0.0)
    solves = max(misses, 1.0)
    out = {"client_ms": (statistics.fmean(s for _, s in requests) * 1e3, "ms")}
    for name, seconds in split.items():
        out[name + "_ms"] = (seconds * 1e3, "ms")
    out["cache_hit_ratio"] = (hits / max(hits + misses, 1.0), "ratio")
    out["hedge_share"] = (delta.get("hedges", 0.0) / len(rec.samples), "ratio")
    out["dp_columns_per_solve"] = (delta.get("rip_dp_columns_total", 0.0) / solves, "count")
    out["refine_iterations_per_solve"] = (
        delta.get("rip_refine_iterations_total", 0.0) / solves, "count")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def timed_out(signum, frame):
        raise TimeoutError("benchmark run exceeded its time limit")

    signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(170)
    try:
        result = run(args)
    except Exception as e:  # any failure: no result line, non-zero exit
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
