"""Pinned behaviour past the oracle's reach.

Each run below is reduced to one SHA-256 over its verdict, its
``Stats.as_dict()``, the event stream ``Solver.step()`` yields, its model
and the ``export_trace`` bytes of its refutation.  The digests were computed before
unit-clause selection became incremental, so any change to the order in which
unit clauses are picked, or to the bookkeeping behind it, shows up here even on
formulas too large for the brute-force oracle.  Debug checks are on, so every
unit pick is also compared with a scan for the lowest-id unit clause.

The four ``ncb_left_adjust`` digests per formula were added later, computed
on the code from before the conflict-analysis loop stopped re-testing the
pending clause; the flag changes all of them on the two 50-variable formulas.

The plain ``sss`` digests (every hook combination without ``bcp``, and one
run with a fixed ``order``) were computed before a flip became one pass
over the occurrence lists and before the search resolved on the literals
it holds.  They use 24- and 28-variable formulas because ``sss`` without
``bcp`` needs minutes on the 50-variable ones.

The ``tae`` and plain ``dll_strict`` digests were computed while each mode
still had its own driver loop, before the two were merged into one; they use
14-variable formulas because plain ``dll_strict`` needs minutes on the
50-variable ones.

    python tests/test_stream_pins.py   # print the digests of the current code
"""
import hashlib
import itertools

import pytest

from proofsat import Formula, Solver, SolverConfig, export_trace, gen_random_kcnf
from proofsat.engine import MODE_DLL, MODE_TAE


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


def _bcp_configs():
    configs = {}
    for ncb, cdb, ccr in itertools.product((False, True), repeat=3):
        kw = dict(bcp=True, ncb=ncb, cdb_1uip=cdb, ccr=ccr)
        configs[SolverConfig(**kw).label] = kw
    for cdb, ccr in itertools.product((False, True), repeat=2):
        kw = dict(bcp=True, ncb=True, ncb_left_adjust=True, cdb_1uip=cdb, ccr=ccr)
        configs[SolverConfig(**kw).label] = kw
    configs["dll_strict+bcp"] = dict(mode=MODE_DLL, bcp=True)
    return configs


def _plain_configs():
    configs = {}
    for ncb, cdb, ccr in itertools.product((False, True), repeat=3):
        kw = dict(ncb=ncb, cdb_1uip=cdb, ccr=ccr)
        configs[SolverConfig(**kw).label] = kw
    for cdb, ccr in itertools.product((False, True), repeat=2):
        kw = dict(ncb=True, ncb_left_adjust=True, cdb_1uip=cdb, ccr=ccr)
        configs[SolverConfig(**kw).label] = kw
    configs["sss order=5,3"] = dict(order=(5, 3))
    return configs


BCP_CONFIGS = _bcp_configs()
PLAIN_CONFIGS = _plain_configs()
CHRONOLOGICAL_CONFIGS = {"tae": dict(mode=MODE_TAE), "dll_strict": dict(mode=MODE_DLL)}

# name -> (formula factory, the configurations run on it)
FORMULAS = {
    "rand50_seed1": (lambda: gen_random_kcnf(50, 213, 3, 1), BCP_CONFIGS),  # SAT
    "rand50_seed5": (lambda: gen_random_kcnf(50, 213, 3, 5), BCP_CONFIGS),  # UNSAT
    "dup_unit": (duplicate_unit_formula, BCP_CONFIGS),  # UNSAT
    "rand14_seed1": (lambda: gen_random_kcnf(14, 60, 3, 1), CHRONOLOGICAL_CONFIGS),  # SAT
    "rand14_seed2": (lambda: gen_random_kcnf(14, 60, 3, 2), CHRONOLOGICAL_CONFIGS),  # UNSAT
    "rand24_seed1": (lambda: gen_random_kcnf(24, 102, 3, 1), PLAIN_CONFIGS),  # UNSAT
    "rand24_seed2": (lambda: gen_random_kcnf(24, 102, 3, 2), PLAIN_CONFIGS),  # SAT
    "rand28_seed3": (lambda: gen_random_kcnf(28, 119, 3, 3), PLAIN_CONFIGS),  # UNSAT
}


def run_digest(formula: Formula, config: SolverConfig) -> str:
    solver = Solver(formula, config)
    events = list(iter(solver.step, None))
    out = solver.outcome
    h = hashlib.sha256()
    for part in (
        out.verdict,
        repr(out.stats.as_dict()),
        repr(events),
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
        "sss+bcp+ncb+ncbla": "a666c22669b4ae6b3c0aaacdf17cbaa7d4684bb9e6c8d6c9443dbb5946ca9a61",
        "sss+bcp+ncb+ncbla+ccr": "6b74fe712d192e6d28fb3447435fb536043c237c2bf52e915ff9e115bb83ec2d",
        "sss+bcp+ncb+ncbla+cdb": "a666c22669b4ae6b3c0aaacdf17cbaa7d4684bb9e6c8d6c9443dbb5946ca9a61",
        "sss+bcp+ncb+ncbla+cdb+ccr": "6b74fe712d192e6d28fb3447435fb536043c237c2bf52e915ff9e115bb83ec2d",
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
        "sss+bcp+ncb+ncbla": "a6da52abf0ece1aeefde01246da3215c28a041838ada41eaa8be5f82b8a8d777",
        "sss+bcp+ncb+ncbla+ccr": "77a43d1562f9a58b8f0bdaef4fe743fde9faba99a87d6f258b09514a28eadcfe",
        "sss+bcp+ncb+ncbla+cdb": "c899a6f575694bc01b6b6fb9c52673b68ae646720d369303e28bcce5afe92a31",
        "sss+bcp+ncb+ncbla+cdb+ccr": "2a893ad9e50616b32e59f2986cc395c73769d8d56129209730edebb66388aa83",
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
        "sss+bcp+ncb+ncbla": "9ef6b8d31b69209aaccb7f2a8ab157e746e4b2881b447e07993121a4f424ec7c",
        "sss+bcp+ncb+ncbla+ccr": "1af0d70aa3f37d86fbe048769e0da105bb520e4e9155338adc83cc9c74a765f6",
        "sss+bcp+ncb+ncbla+cdb": "e927d4b5059c5dd44e941ca7872842d2dc421273250a1dde1106b259631c96b2",
        "sss+bcp+ncb+ncbla+cdb+ccr": "bdd10ca19b1ee70e68496373f17e4c823457b13b6d55b8440b7461d4c9281ba8",
        "dll_strict+bcp": "fe2b9d88d4d05160c5958f5713c36dc4cca3fc48f18d1d9b48f4ca1288359ac1",
    },
    "rand14_seed1": {
        "tae": "5a5f89d819ab33456484bfa968d12922cb62b7718fa406d9321ff4b8c647ecf1",
        "dll_strict": "6f15fa9d8d8f245daa80b604e978331185e74296e4d4ce1e8e2fc35a5e33c76f",
    },
    "rand14_seed2": {
        "tae": "1e02ee99a247c3f53fdafdacc2157037cc6a1be7b3f2a568acc0894ea5783002",
        "dll_strict": "d53c51a3f42cedbac79dfbe8ebc54b77a26ba1642e186f0bb8fa6ae6a542f921",
    },
    "rand24_seed1": {
        "sss": "fb2d1c4d776dc4cbcd9e4b2927d22d9f5d9bcfff7f145e5f64a1b34f1068c016",
        "sss+ccr": "75bf87026540ef1d88a5ebb23c289f2ea24f521aead5917d92295b3ca1198493",
        "sss+cdb": "a58a60734169f0d4cc5fdc8f68444dcc6ead7125f9bc1c65f9edcfdd834eb638",
        "sss+cdb+ccr": "316b628ae5694a7d49ffcd167215edfe41ba04be55d9475de0bf84aa1b55e480",
        "sss+ncb": "9d9fc875e82404699147064542713e69626ff38ae764e3eff200e78c74bd5248",
        "sss+ncb+ccr": "f8c815a9451e700d93a0ec9ff5d3f6770ccb33ff777e8e10dfc791178571313b",
        "sss+ncb+cdb": "a18803cf29d60ca595a035cdca183358d4a67721b68b912e929946919e1ee746",
        "sss+ncb+cdb+ccr": "cff9bf40b09c5fa52f699b5464b166f7eff043df92eee586d99b91922001072b",
        "sss+ncb+ncbla": "b65b68cc2e5bc09a6a38e74ba46400ae5907553999573a999dfb9da5282a41e7",
        "sss+ncb+ncbla+ccr": "822d00b1e2cfb4d75a550676a09e12f48c4830c937d690db5b230afdbfb92cd3",
        "sss+ncb+ncbla+cdb": "bbca75cece048372847b672e24465b7824021f628c0812ee04fc3f9231e82257",
        "sss+ncb+ncbla+cdb+ccr": "d128933ad23a5d7aaeae6706867e20f0a5af80d6f288d29d2f834942113eb8ae",
        "sss order=5,3": "0b8ccab8cba2ceebcb78ec64448dd586fcc5cebdf9535e5505f3b85258feebb9",
    },
    "rand24_seed2": {
        "sss": "e9dde9097798e9abee175939c3ec0a8c0743980c8ec9a77f4bea480917586009",
        "sss+ccr": "3120168be2431f749ee55efb9d73163cf602858182d19af988b71c58b0914986",
        "sss+cdb": "432b5021b69496ce9524c2d77dbd779d16c5822d7dcc6ef796a8ca15e616e4c6",
        "sss+cdb+ccr": "c745b95aaae1c3e6621b2186bcc2481a80a06a06bbf3a059dbcda75ea306eb36",
        "sss+ncb": "715fb7ac176c3cab5c1ee96deab284769d43a30fec01e9e49415360cd52a5cfa",
        "sss+ncb+ccr": "5a5d6b2dcaccf295bad7a1bfed87dc3fa6610409ba7c6431ce4568a0374fb9c3",
        "sss+ncb+cdb": "8c26bde943b5f2e3e066fe6cb37108bed26d7a6db4893f1cb930015ccc4010d4",
        "sss+ncb+cdb+ccr": "db34db2a68db248790780b2c71ad98b11fd96e39535bf26b0dc5bf5bde9fe7bd",
        "sss+ncb+ncbla": "dbaed8cd4cf863c79bcc1f8fb38f09b4de8cc9171d9fb511717dd94a09d8f598",
        "sss+ncb+ncbla+ccr": "99155efb628babe2611fc6937284d90629d850312a0fb86b752edb4bf9f65e76",
        "sss+ncb+ncbla+cdb": "7b623f62562b2e5b5ebcc1fd1bf1213194981af9cf4d5a8213521f2b5747f1b7",
        "sss+ncb+ncbla+cdb+ccr": "21184ee9822215afe14f6e0d8d4e1273be78c51b727208cdb765ad93d8ce5e9b",
        "sss order=5,3": "7f0adb5273db34a92c7c2520122cbbf9dd33db1adc5946c02fa3af9ffe678896",
    },
    "rand28_seed3": {
        "sss": "0e47d88744094b16f1ca612f2290856263bdf6942b74e1361b27acfd37dca375",
        "sss+ccr": "0aabcf3ea29a95c5f45c7fc9693445b20d1d55a5e70c5d5013e409ab1014b1b4",
        "sss+cdb": "7de5354a6c0382fde37752f1e49c28018027ba4b24e443d0c37a7156f15a0393",
        "sss+cdb+ccr": "c128e9e63f7ae220889e162cf9c88a88da9130982d41b73e6884bc8010fa417c",
        "sss+ncb": "142e3b49216cc99eba98188232200b08f12a1e94dbb497fd94e51ca988a86a94",
        "sss+ncb+ccr": "5397a28c971f1b9d2810849da8d9c0b3e7a21e8bce2d9f7f8980f8afbbd0452f",
        "sss+ncb+cdb": "d96b4d516bce508a157d3429bf489f20ecc0917df17afface2cbd088cf39718c",
        "sss+ncb+cdb+ccr": "5fbc474b5bcb22f934f6801ce9f189d1c9a82b4bfbb2b58836475ca726a1ff93",
        "sss+ncb+ncbla": "4963e365230db2a036e9f7ed292053153ec5922bde3e8375921a87cf9f9d8ffe",
        "sss+ncb+ncbla+ccr": "e0afca09d34c6479880c79d85669519dfc4ed6b0903bd0628128161323d350a4",
        "sss+ncb+ncbla+cdb": "676fc6daf6fd440811d2788ef33fcbc354ada30b4dccb5702335c9d3798f4ce8",
        "sss+ncb+ncbla+cdb+ccr": "f444021df67d0652594058fdfe51deda0f1b5d534940305267cec6a125582682",
        "sss order=5,3": "e508a59467b8348a05a5a7cd9b332b12be0ce2866e4e7744727752475f355644",
    },
}


def digests(fname: str) -> dict:
    factory, configs = FORMULAS[fname]
    formula = factory()
    return {
        label: run_digest(formula, SolverConfig(debug_checks=True, **kw))
        for label, kw in configs.items()
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
