"""Regenerate ``pins.json``: solve every pool instance of every workload once.

    python3 bench/pin.py

Pins, per workload and size profile, the SHA-256 of the pool's DIMACS texts
and, per instance, its verdict, decision count, trace size and behaviour
fingerprint (verdict, ``Stats.as_dict()`` and trace bytes).  The run checks
its inputs and verdicts against these pins and reports whether its
fingerprints match.  Rerun this only when a change is meant to alter the
pinned behaviour, and say so in CHANGES.md.

The strata a seed selects from are cut once, when a workload has none in
``pins.json`` yet, and are kept as they are on every later rerun, so that
the same seed selects the same instances before and after a change.
"""
from __future__ import annotations

import json
import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")


def cut_strata(pins: List[dict], stride: int) -> List[List[int]]:
    """Cut the pool into strata of about ``stride`` neighbours in cost.

    UNSAT and SAT entries are stratified apart, so every pass holds the same
    number of each.  SAT entries are ranked by decisions; UNSAT entries by
    the sum of their ranks in decisions and in trace bytes, so that both
    the search time and the proof size of a pass hold steady."""
    out: List[List[int]] = []
    for verdict in ("UNSAT", "SAT"):
        members = [i for i, p in enumerate(pins) if p["verdict"] == verdict]
        if not members:
            continue
        rank = {i: 0 for i in members}
        keys = ("decisions", "trace_bytes") if verdict == "UNSAT" else ("decisions",)
        for key in keys:
            for r, i in enumerate(sorted(members, key=lambda i: (pins[i][key], i))):
                rank[i] += r
        members.sort(key=lambda i: (rank[i], i))
        count = max(1, len(members) // stride)
        out.extend(
            members[j * len(members) // count : (j + 1) * len(members) // count]
            for j in range(count)
        )
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from ops import certify
    from workloads import TINY, WORKLOADS, pool_digest, pool_texts

    old = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="ascii") as handle:
            old = json.load(handle)
    pins = {}
    for profile, table in (("full", WORKLOADS), ("tiny", TINY)):
        pins[profile] = {}
        for name, workload in table.items():
            texts = pool_texts(workload)
            digest = pool_digest(texts)
            instances = []
            for text in texts:
                result = certify(text, workload.config)
                if not (result.certified and result.round_trip):
                    print("error: %s: uncertified result" % name, file=sys.stderr)
                    return 1
                instances.append(
                    {
                        "verdict": result.verdict,
                        "decisions": result.decisions,
                        "trace_bytes": result.trace_bytes,
                        "fingerprint": result.fingerprint,
                    }
                )
            before = old.get(profile, {}).get(name, {})
            if before.get("dimacs_sha256") == digest and "strata" in before:
                strata = before["strata"]
            else:
                strata = cut_strata(instances, workload.stride)
            pins[profile][name] = {
                "dimacs_sha256": digest,
                "instances": instances,
                "strata": strata,
            }
            print(
                "%s %s: %d instances, %d UNSAT, %d strata"
                % (profile, name, len(instances),
                   sum(p["verdict"] == "UNSAT" for p in instances), len(strata)),
                file=sys.stderr,
            )
    with open(PINS, "w", encoding="ascii") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
