"""The per-layer split of traced requests.

The daemons' Chrome-trace dumps are joined to the benchmark's own
per-request timings by trace id (the client stamps a TRACE header on each
request).  For each request the blocking path is cut into disjoint pieces
that add back up to the latency the client measured:

    wire_client   client round trip minus the router's ingress span
    router        router ingress minus the winning forward
    wire_shard    winning forward minus the shard's spans under it
    cache_lookup, admission, queue_wait
    coarse_dp, refine, final_dp, rescue_dp     solver phases
    solve_other   the solve span minus its phases

With a hedge or a failover the forward that finished first is the one the
answer came from; the other shard's work is off the blocking path.
"""

import glob
import json
import os

SHARD_TOP = ("cache_lookup", "admission", "queue", "solve")
PHASES = ("coarse_dp", "refine", "final_dp", "rescue_dp")
LAYERS = (
    ("wire_client", "router", "wire_shard", "cache_lookup", "admission", "queue_wait")
    + PHASES
    + ("solve_other",)
)


def load_spans(trace_dir):
    """Every complete span of every dump, as (name, end_s, dur_s, args);
    ends are comparable only within one process."""
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path) as f:
            dump = json.load(f)
        for event in dump["traceEvents"]:
            if event.get("ph") == "X":
                end = (event["ts"] + event["dur"]) * 1e-6
                spans.append((event["name"], end, event["dur"] * 1e-6, event.get("args", {})))
    return spans


def split(trace_dir, requests):
    """Mean seconds per request in each layer over [requests], a list of
    (trace_id, client_seconds); returns ({layer: seconds}, joined)."""
    wanted = {tid for tid, _ in requests}
    ingress, forwards, shard = {}, {}, {}
    for name, end, dur, args in load_spans(trace_dir):
        tid = args.get("trace_id")
        if tid not in wanted:
            continue
        if name == "ingress":
            ingress[tid] = dur
        elif name.startswith("forward:"):
            forwards.setdefault(tid, []).append((end, dur, args.get("span_id")))
        else:
            key = (tid, args.get("parent_span_id"))
            layer = shard.setdefault(key, {})
            layer[name] = layer.get(name, 0.0) + dur
    totals = dict.fromkeys(LAYERS, 0.0)
    joined = 0
    for tid, client in requests:
        if tid not in ingress or tid not in forwards:
            continue
        _, fwd, parent = min(forwards[tid])
        spans = shard.get((tid, parent))
        if spans is None:
            continue
        top = sum(spans.get(n, 0.0) for n in SHARD_TOP)
        phases = {p: spans.get("solve:" + p, 0.0) for p in PHASES}
        totals["wire_client"] += client - ingress[tid]
        totals["router"] += ingress[tid] - fwd
        totals["wire_shard"] += fwd - top
        totals["cache_lookup"] += spans.get("cache_lookup", 0.0)
        totals["admission"] += spans.get("admission", 0.0)
        totals["queue_wait"] += spans.get("queue", 0.0)
        for p, d in phases.items():
            totals[p] += d
        totals["solve_other"] += spans.get("solve", 0.0) - sum(phases.values())
        joined += 1
    return {k: v / max(joined, 1) for k, v in totals.items()}, joined
