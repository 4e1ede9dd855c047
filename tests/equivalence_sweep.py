"""Digest sweep: every run's spec on two source trees, compared run by run.

    python tests/equivalence_sweep.py OLD_SRC NEW_SRC   # compare two trees
    python tests/equivalence_sweep.py --digests SRC     # print one tree's digests

A behaviour-preserving change runs this against its parent, for example
with the parent's ``src/`` unpacked by ``git archive``.  It is not part of
tier-1 (the name does not start with ``test_``): one side takes several
minutes.  Each tree runs in its own process, which imports ``proofsat``
from that tree only.

A digest is one SHA-256 per (formula, configuration, debug_checks) over the
verdict, ``Stats.as_dict()``, the ``Solver.step()`` event stream, the model,
the root id, the final instance's DIMACS text and a separate ``solve()`` run
of the same input; and, for the extracted refutation and for the solver's
whole graph, their trace and DOT bytes, their ``CheckReport`` and the
``CheckReport`` of their parsed trace.

The corpus is fixed:

* 130 random 3-CNFs with n 8-14 at ratio 4.4, under the 24 ``sss``
  configurations (every combination of ``bcp``, ``ncb``, ``cdb_1uip`` and
  ``ccr``, and the 8 that add ``ncb_left_adjust``), ``order=(5, 3)``,
  ``seed=7``, ``dll_strict``, ``dll_strict+bcp`` and, for n <= 10, ``tae``;
* 80 random 3-CNFs with n 18-40 at ratio 4.26, under the 12 ``sss``
  configurations with ``bcp``, the other 12 up to n = 26, and
  ``dll_strict`` and ``dll_strict+bcp`` up to n = 20;
* ``gen_bcp_separation(40)`` and ``gen_contradiction(6)`` under every
  ``sss`` configuration and both ``dll_strict`` ones;

each with ``debug_checks`` off and on.  The exit status is 1 when a digest
differs or a run is missing on one side.
"""
import hashlib
import itertools
import json
import os
import subprocess
import sys


def _configs(proofsat):
    """(label, keyword arguments) of every configuration the sweep runs."""
    SolverConfig = proofsat.SolverConfig
    sss = []
    for bcp, ncb, cdb, ccr in itertools.product((False, True), repeat=4):
        sss.append(dict(bcp=bcp, ncb=ncb, cdb_1uip=cdb, ccr=ccr))
    for bcp, cdb, ccr in itertools.product((False, True), repeat=3):
        sss.append(dict(bcp=bcp, ncb=True, ncb_left_adjust=True, cdb_1uip=cdb, ccr=ccr))
    labelled = [("sss" + "".join("+" + k for k in sorted(kw) if kw[k]), kw) for kw in sss]
    labelled += [
        ("order", dict(order=(5, 3))),
        ("seed", dict(seed=7)),
        ("dll_strict", dict(mode="dll_strict")),
        ("dll_strict+bcp", dict(mode="dll_strict", bcp=True)),
        ("tae", dict(mode="tae")),
    ]
    for _, kw in labelled:
        SolverConfig(**kw)  # every configuration is valid on both sides
    return labelled


def _corpus(proofsat):
    """(name, formula, labels of the configurations it runs under)."""
    gen = proofsat.gen_random_kcnf
    labels = [label for label, _ in _configs(proofsat)]
    sss = [label for label in labels if label.startswith("sss")]
    with_bcp = [label for label in sss if "+bcp" in label]
    chrono = ["dll_strict", "dll_strict+bcp"]
    for i in range(130):
        n = 8 + i % 7
        picked = [label for label in labels if label != "tae" or n <= 10]
        yield "small-%d-n%d" % (i, n), gen(n, round(4.4 * n), 3, 1000 + i), picked
    for i in range(80):
        n = 18 + i % 23
        picked = list(with_bcp)
        picked += [label for label in sss if label not in with_bcp and n <= 26]
        picked += chrono if n <= 20 else []
        yield "large-%d-n%d" % (i, n), gen(n, round(4.26 * n), 3, 5000 + i), picked
    yield "bcp_separation-40", proofsat.gen_bcp_separation(40), sss + chrono
    yield "contradiction-6", proofsat.gen_contradiction(6), sss + chrono


def _digest(proofsat, formula, config) -> str:
    h = hashlib.sha256()

    def put(value) -> None:
        h.update(repr(value).encode())
        h.update(b"\0")

    solver = proofsat.Solver(formula, config)
    events = list(iter(solver.step, None))
    out = solver.outcome
    put(events)
    put(out.verdict)
    put(json.dumps(out.stats.as_dict(), sort_keys=True))
    put(sorted(out.model.items()) if out.model is not None else None)
    put(out.root)
    put(proofsat.write_dimacs(out.instance))
    again = proofsat.Solver(formula, config).solve()
    put((again.verdict, again.stats.as_dict(), again.model, again.root))
    for graph in (out.proof, out.graph):
        if graph is None:
            put(None)
            continue
        trace = proofsat.export_trace(graph)
        put(trace)
        put(proofsat.export_dot(graph))
        put(proofsat.check_refutation(graph, formula))
        put(proofsat.check_refutation(proofsat.parse_trace(trace, formula), formula))
    return h.hexdigest()


def print_digests(src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import proofsat

    configs = dict(_configs(proofsat))
    for name, formula, labels in _corpus(proofsat):
        for label in labels:
            for debug in (False, True):
                config = proofsat.SolverConfig(debug_checks=debug, **configs[label])
                key = "%s %s debug=%d" % (name, label, debug)
                print(key, _digest(proofsat, formula, config), flush=True)


def compare(old_src: str, new_src: str) -> int:
    procs = [  # the two sides run side by side
        subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--digests", src],
            stdout=subprocess.PIPE, text=True,
        )
        for src in (old_src, new_src)
    ]
    sides = []
    for proc in procs:
        out = proc.communicate()[0]
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        sides.append(dict(line.rsplit(" ", 1) for line in out.splitlines()))
    old, new = sides
    differ = sorted(key for key in old.keys() & new.keys() if old[key] != new[key])
    missing = sorted(old.keys() ^ new.keys())
    for key in (differ + missing)[:20]:
        print("differs" if key in differ else "missing", key)
    print("runs %d, differences %d, missing %d" % (len(old.keys() | new.keys()), len(differ), len(missing)))
    return 1 if differ or missing else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--digests":
        print_digests(sys.argv[2])
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
