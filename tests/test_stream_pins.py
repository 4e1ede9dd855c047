"""Pinned behaviour past the oracle's reach.

Each run below is reduced to one SHA-256 over its verdict, its
``Stats.as_dict()``, its collected event stream, its model and the
``export_trace`` bytes of its refutation.  The digests were computed before
unit-clause selection became incremental, so any change to the order in which
unit clauses are picked, or to the bookkeeping behind it, shows up here even on
formulas too large for the brute-force oracle.  Debug checks are on, so every
unit pick is also compared with a scan for the lowest-id unit clause.

    python tests/test_stream_pins.py   # print the digests of the current code
"""
import hashlib
import itertools

import pytest

from proofsat import Formula, SolverConfig, export_trace, gen_random_kcnf, solve
from proofsat.engine import MODE_DLL


def duplicate_unit_formula() -> Formula:
    """Random 3-CNF over 30 variables with input unit clauses (one of them
    twice) and repeated ternary clauses spliced in at fixed positions, so
    the lowest-id rule has to choose among equal and unit clauses."""
    clauses = [c.literals for c in gen_random_kcnf(30, 120, 3, 9).clauses]
    clauses.insert(10, (5,))
    clauses.insert(30, (-9,))
    clauses.insert(45, clauses[3])
    clauses.insert(60, (5,))
    clauses.append(clauses[20])
    return Formula(30, clauses)


FORMULAS = {
    "rand50_seed1": lambda: gen_random_kcnf(50, 213, 3, 1),  # SAT
    "rand50_seed5": lambda: gen_random_kcnf(50, 213, 3, 5),  # UNSAT
    "dup_unit": duplicate_unit_formula,  # UNSAT
}


def _configs():
    configs = {}
    for ncb, cdb, ccr in itertools.product((False, True), repeat=3):
        tags = [tag for on, tag in ((ncb, "ncb"), (cdb, "cdb"), (ccr, "ccr")) if on]
        label = "+".join(["sss", "bcp"] + tags)
        configs[label] = dict(bcp=True, ncb=ncb, cdb_1uip=cdb, ccr=ccr)
    configs["dll_strict+bcp"] = dict(mode=MODE_DLL, bcp=True)
    return configs


CONFIGS = _configs()


def run_digest(formula: Formula, config: SolverConfig) -> str:
    out = solve(formula, config)
    h = hashlib.sha256()
    for part in (
        out.verdict,
        repr(out.stats.as_dict()),
        repr(out.events),
        repr(sorted(out.model.items())) if out.model is not None else "",
        export_trace(out.proof) if out.proof is not None else "",
    ):
        h.update(part.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


PINNED = {
    "dup_unit": {
        "sss+bcp": "a666c22669b4ae6b3c0aaacdf17cbaa7d4684bb9e6c8d6c9443dbb5946ca9a61",
        "sss+bcp+ccr": "6b74fe712d192e6d28fb3447435fb536043c237c2bf52e915ff9e115bb83ec2d",
        "sss+bcp+cdb": "a666c22669b4ae6b3c0aaacdf17cbaa7d4684bb9e6c8d6c9443dbb5946ca9a61",
        "sss+bcp+cdb+ccr": "6b74fe712d192e6d28fb3447435fb536043c237c2bf52e915ff9e115bb83ec2d",
        "sss+bcp+ncb": "a666c22669b4ae6b3c0aaacdf17cbaa7d4684bb9e6c8d6c9443dbb5946ca9a61",
        "sss+bcp+ncb+ccr": "6b74fe712d192e6d28fb3447435fb536043c237c2bf52e915ff9e115bb83ec2d",
        "sss+bcp+ncb+cdb": "a666c22669b4ae6b3c0aaacdf17cbaa7d4684bb9e6c8d6c9443dbb5946ca9a61",
        "sss+bcp+ncb+cdb+ccr": "6b74fe712d192e6d28fb3447435fb536043c237c2bf52e915ff9e115bb83ec2d",
        "dll_strict+bcp": "787d35b4cbc1dcb47d9b02b4baf63208e1e8a0fedb0a98ab816e8d9b1713e7c2",
    },
    "rand50_seed1": {
        "sss+bcp": "227d4f730e058ab82f913e2e64980cc711b27ee61400f706e88a2293a2e74b27",
        "sss+bcp+ccr": "dd7e943cf5792968f61e697c3ade520223351b497e6c167fe340f6963f609b12",
        "sss+bcp+cdb": "a61403307800923816cc037dbf685f5dd7207f38f995453402a90df103b30c33",
        "sss+bcp+cdb+ccr": "2946c97fefffca9afb8400bd1c260dbbd686e9f039bd5a0b4052b58773ec70d2",
        "sss+bcp+ncb": "80b48c216e1a66a0167eabccaf4ffb7be4ea542489ec79644638537357fc6da5",
        "sss+bcp+ncb+ccr": "35174343075fa0d6ca5286373688a5361c662154ebc0af7588f862ec7ceb8400",
        "sss+bcp+ncb+cdb": "3662a1c1a14dc594a61031123846d6ffa39e99dac13fba745f53734af6b29322",
        "sss+bcp+ncb+cdb+ccr": "78d8793d3c40403e03571d0ff7d745b66ff58bee1e74875b4b13331820f7dfba",
        "dll_strict+bcp": "6e6e0e9c97593b8aaa13b900bcc3622795c7168bb069c82c23271b181e6b9c9d",
    },
    "rand50_seed5": {
        "sss+bcp": "bda9039d0472934308b63fad6cf872b32295139af9c1a3979e3263bfe2d95560",
        "sss+bcp+ccr": "7b3df090513eb040b26ba0daedf0d76287b7e2b5dd1e4a93c1165e0e9a9e6ad1",
        "sss+bcp+cdb": "6e5762d0e53923d198006d44b8c470256361d5ed515c90ff503e19b3fa7506dd",
        "sss+bcp+cdb+ccr": "3804033685db35443e79d00ba8a511ccf52a72e9a7bd97dec6e635f59da69903",
        "sss+bcp+ncb": "1c0b33ccc9367f4824a7d4517201310e8b1b2f43542784c612daafae634ad974",
        "sss+bcp+ncb+ccr": "708767026a11bec8ea6afeed541d552711b7f4b107ae8630f06ec1bc05bf3fe9",
        "sss+bcp+ncb+cdb": "8dbcca07fb5b8d3245f3962f8428f70da2d6c7b2d21c53e7c52d4d77fd189115",
        "sss+bcp+ncb+cdb+ccr": "ca329413e3a37cd797047066cb6f7bdbe06f27a94924cf8af439619f19c3f030",
        "dll_strict+bcp": "fe2b9d88d4d05160c5958f5713c36dc4cca3fc48f18d1d9b48f4ca1288359ac1",
    },
}


def digests(fname: str) -> dict:
    formula = FORMULAS[fname]()
    return {
        label: run_digest(formula, SolverConfig(collect_events=True, debug_checks=True, **kw))
        for label, kw in CONFIGS.items()
    }


@pytest.mark.parametrize("fname", sorted(FORMULAS))
def test_streams_match_pins(fname):
    assert digests(fname) == PINNED[fname]


if __name__ == "__main__":
    for fname in sorted(FORMULAS):
        print('    "%s": {' % fname)
        for label, digest in digests(fname).items():
            print('        "%s": "%s",' % (label, digest))
        print("    },")
