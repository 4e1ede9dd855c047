"""proofsat benchmark: time from DIMACS text to a checked certificate.

    python3 bench/run.py --workload rand3_tree --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the solver is imported from ``src/``.
One process, one client, a closed loop: the instances of a pass are solved
back to back.  An operation is one instance: parse, set up, solve, then
check the certificate (export, parse and check the refutation for UNSAT;
verify the model for SAT).  Outputs are checked against ``pins.json``.

``--trace 0`` repeats the pass for ``--seconds`` and prints the end-to-end
metrics: ``certify_s``, ``solve_s`` and ``setup_s`` of a pass, each as the
sum over its operations of their fastest time (see ``best``);
``trace_bytes``, the total size of the refutation traces of the whole pool,
so that it does not vary with the seed; the share of certified operations;
and ``peak_mem_mb``, the peak memory of an operation averaged over the pass
(see ``memory_pass``).  Two untimed passes come first: the pass run under
``tracemalloc``, which slows the solver 3-11x, and a pass over the rest of
the pool; together they solve and check every pool instance once.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, medians over the traced passes, with the tracing
overhead and the time no layer accounts for; the spans of the last traced
pass are written to ``.bench_out/``.  ``--tiny`` runs the small pools the
smoke test uses.  The last line of standard output is the
JSON result; the line before it, prefixed ``detail``, holds the pass count,
per-operation medians, pass quartiles, the host calibration time and the
behaviour fingerprint.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import tracemalloc
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The counters of Stats.as_dict() at the time the benchmark was defined;
# listed here so that a new counter does not change the metric set.
STATS_KEYS = (
    "decisions",
    "flips",
    "conflicts",
    "bcp_implications",
    "ncb_jumps",
    "ncb_levels_skipped",
    "cdb_substitutions",
    "recorded_clauses",
    "nodes_added",
    "final_proof_size",
    "pruned_resolution",
    "pruned_ncb",
    "pruned_uip",
)

END_TO_END_UNITS = {
    "certify_s": "s",
    "solve_s": "s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "trace_bytes": "bytes",
    "certified_share": "ratio",
}


def calibrate() -> float:
    """Time a fixed pure-Python loop; reported beside each pass so that a
    slow host shows.  Never used to normalise other metrics."""
    t = perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFF
    return perf_counter() - t


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small pools for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "proofsat", "__init__.py")):
        print("error: no proofsat package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ops
    from workloads import TINY, WORKLOADS, pool_digest, pool_texts, select

    table = TINY if args.tiny else WORKLOADS
    if args.workload not in table:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    workload = table[args.workload]
    with open(os.path.join(HERE, "pins.json"), encoding="ascii") as handle:
        pinned = json.load(handle)["tiny" if args.tiny else "full"][workload.name]
    texts = pool_texts(workload)
    if pool_digest(texts) != pinned["dimacs_sha256"]:
        print("error: generated inputs differ from the pinned SHA-256", file=sys.stderr)
        return 1
    pins = pinned["instances"]
    picks = select(pinned["strata"], args.seed)
    inputs = [(i, texts[i]) for i in picks]

    attempted = failed = mismatched = 0

    def check(results: List["ops.OpResult"], done: List[Tuple[int, str]] = inputs) -> None:
        nonlocal attempted, failed, mismatched
        for (i, _), r in zip(done, results):
            attempted += 1
            if not (r.verdict == pins[i]["verdict"] and r.certified and r.round_trip):
                failed += 1
            # A changed fingerprint is reported, not failed: a change may
            # alter counters or proofs on purpose.
            if r.fingerprint != pins[i]["fingerprint"]:
                mismatched += 1

    def plain_pass() -> List["ops.OpResult"]:
        results = [ops.certify(text, workload.config) for _, text in inputs]
        check(results)
        return results

    def traced_pass() -> Tuple[List["ops.OpResult"], "ops.Tracer"]:
        tracer = ops.Tracer()
        with tracer.wrapped():
            results = [
                ops.certify_traced(text, workload.config, i, tracer) for i, text in inputs
            ]
        check(results)
        return results, tracer

    def memory_pass() -> Tuple[float, List["ops.OpResult"]]:
        """Peak memory of each operation beyond what was live before the
        pass, averaged over the pass; memory the program keeps from one
        operation to the next therefore counts.  The garbage of earlier
        operations is collected before each one: left to the cyclic
        collector, it made the peak of a whole pass jump with collection
        timing and with the one largest instance, 13-22% between seeds."""
        peaks = []
        results = []
        tracemalloc.start()
        try:
            gc.collect()
            live = tracemalloc.get_traced_memory()[0]
            for _, text in inputs:
                gc.collect()
                tracemalloc.reset_peak()
                results.append(ops.certify(text, workload.config))
                peaks.append(tracemalloc.get_traced_memory()[1] - live)
        finally:
            tracemalloc.stop()
        check(results)
        return statistics.mean(peaks) / 2**20, results

    def rest_of_pool() -> List["ops.OpResult"]:
        rest = [(i, text) for i, text in enumerate(texts) if i not in picks]
        results = [ops.certify(text, workload.config) for _, text in rest]
        check(results, rest)
        return results

    calib: List[float] = []

    def timed(run: Callable[[], T]) -> T:
        gc.collect()
        calib.append(calibrate())
        return run()

    plain: List[List["ops.OpResult"]] = []
    if args.trace:
        plain_pass()  # warm-up
        traced: List[List["ops.OpResult"]] = []
        layers: List[Dict[str, float]] = []
        start = perf_counter()
        while not traced or perf_counter() - start < args.seconds:
            plain.append(timed(plain_pass))
            results, tracer = timed(traced_pass)
            traced.append(results)
            layers.append(layer_metrics(results, tracer.totals))
        # Layer times are medians over traced passes; the overhead compares
        # like with like, the best traced and untraced solve times.
        metrics = medians(layers)
        untraced_solve = best(plain, "solve_s")
        metrics["trace.untraced_solve_s"] = untraced_solve
        metrics["trace.overhead"] = best(traced, "solve_s") / untraced_solve - 1
        write_spans(args, tracer.spans)
    else:
        peak_mem_mb, picked = memory_pass()  # also the warm-up
        pool = picked + rest_of_pool()
        start = perf_counter()
        while not plain or perf_counter() - start < args.seconds:
            plain.append(timed(plain_pass))
        metrics = {name: best(plain, name) for name in ("certify_s", "solve_s", "setup_s")}
        metrics["trace_bytes"] = float(sum(r.trace_bytes for r in pool))
        metrics["peak_mem_mb"] = peak_mem_mb
        metrics["certified_share"] = (attempted - failed) / attempted

    match = mismatched == 0
    if args.trace:
        metrics["host.calib_s"] = statistics.median(calib)
        metrics["fingerprint.match"] = float(match)
        units = per_layer_units()
        out = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "ops_per_pass": len(inputs),
        "unsat_per_pass": sum(pins[i]["verdict"] == "UNSAT" for i in picks),
        "passes": len(plain),
        "pool_sha256": pinned["dimacs_sha256"],
        "fingerprint": hashlib.sha256(
            "".join(r.fingerprint for r in plain[-1]).encode()
        ).hexdigest(),
        "fingerprint_match": match,
        "failed_share": failed / attempted,
        "host.calib_s": quartiles(calib),
        "untraced_passes": {
            name: {
                "best": best(plain, name),
                "median_per_op": typical(plain, name),
                "pass_quartiles": quartiles([sum(getattr(r, name) for r in run) for run in plain]),
            }
            for name in ("certify_s", "solve_s", "setup_s")
        },
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": out,
            }
        )
    )
    return 0


def best(runs: List[list], attr: str) -> float:
    """A pass's time as the sum over its operations of each one's fastest
    time across passes.  Contention from other tenants of the host only ever
    adds time; on a shared 2-core VM the same seed's per-operation medians
    moved 20-35% between runs while these minimums moved under 10%."""
    return sum(min(getattr(run[j], attr) for run in runs) for j in range(len(runs[0])))


def typical(runs: List[list], attr: str) -> float:
    """Like ``best`` with each operation's median across passes."""
    return sum(
        statistics.median(getattr(run[j], attr) for run in runs)
        for j in range(len(runs[0]))
    )


def medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def layer_metrics(results, totals: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from ops import EVENT_KINDS

    sums = {
        name: sum(getattr(r, name) for r in results)
        for name in ("certify_s", "solve_s", "setup_s")
    }

    m = {name: totals.get(name, 0.0) for name in per_layer_units()}
    decisions = totals.get("engine.decisions", 0)
    m["engine.self_s"] = m["engine.search_s"] - m["proofs.resolve.search_s"] - m["proofs.extract_s"]
    m["engine.us_per_decision"] = 1e6 * m["engine.search_s"] / decisions if decisions else 0.0
    checked = totals.get("proofs.checked_resolvents", 0)
    m["proofs.check_us_per_resolvent"] = 1e6 * m["proofs.check_s"] / checked if checked else 0.0
    added = totals.get("engine.nodes_added", 0)
    m["engine.proof_yield"] = totals.get("engine.final_proof_size", 0) / added if added else 0.0
    accounted = (
        m["cnf.parse_s"]
        + m["engine.init_s"]
        + sum(m["engine.step.%s_s" % k] for k in EVENT_KINDS)
        + m["proofs.export_trace_s"]
        + m["proofs.parse_trace_s"]
        + m["proofs.check_s"]
        + m["engine.verify_model_s"]
    )
    m["trace.certify_s"] = sums["certify_s"]
    m["trace.solve_s"] = sums["solve_s"]
    m["trace.setup_s"] = sums["setup_s"]
    m["trace.residual_s"] = sums["certify_s"] - accounted
    m["trace.residual_share"] = m["trace.residual_s"] / sums["certify_s"]
    return m


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric in output order, with its unit; must match
    the per_layer list of BENCHMARK.json."""
    from ops import EVENT_KINDS

    units = {
        "cnf.parse_s": "s",
        "engine.init_s": "s",
        "proofs.init_s": "s",
        "engine.search_s": "s",
        "engine.self_s": "s",
        "engine.us_per_decision": "us",
    }
    for kind in EVENT_KINDS:
        units["engine.step.%s_s" % kind] = "s"
    for kind in EVENT_KINDS:
        units["engine.events.%s" % kind] = "count"
    units.update(
        {
            "proofs.resolve.search_s": "s",
            "proofs.resolve.search_calls": "count",
            "proofs.resolve.parse_s": "s",
            "proofs.resolve.parse_calls": "count",
            "proofs.extract_s": "s",
            "proofs.export_trace_s": "s",
            "proofs.parse_trace_s": "s",
            "proofs.check_s": "s",
            "proofs.check_us_per_resolvent": "us",
            "proofs.export_dot_s": "s",
            "engine.verify_model_s": "s",
        }
    )
    for name in STATS_KEYS:
        units["engine." + name] = "count"
    units.update(
        {
            "engine.clauses_out": "count",
            "engine.graph_nodes": "count",
            "engine.proof_yield": "ratio",
            "trace.certify_s": "s",
            "trace.solve_s": "s",
            "trace.setup_s": "s",
            "trace.untraced_solve_s": "s",
            "trace.overhead": "ratio",
            "trace.residual_s": "s",
            "trace.residual_share": "ratio",
            "host.calib_s": "s",
            "fingerprint.match": "bool",
        }
    )
    return units


def write_spans(args, spans: List[dict]) -> None:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    origin = spans[0]["start"] if spans else 0.0
    name = "spans-%s-seed%d%s.json" % (args.workload, args.seed, "-tiny" if args.tiny else "")
    with open(os.path.join(out_dir, name), "w", encoding="ascii") as handle:
        json.dump(
            [
                dict(s, start=s["start"] - origin, end=s["end"] - origin) if "start" in s else s
                for s in spans
            ],
            handle,
        )


if __name__ == "__main__":
    sys.exit(main())
