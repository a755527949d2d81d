"""Golden stdout: each command's stdout must hash to the value recorded from
the implementation before the thread layer and the bisection verdict were
removed; the next three oracle hashes were recorded before the two class
enumerators were merged, the next two before canonical augmentation
replaced the set-deduplicating class builder, the next two before the
range scanners became generators, the next one, the only JSON scan-t4
range that writes null floors and "which":"none", before scan-t4 records
were written from a fixed line format, and the last one, the only n = 10
window, which has a counterexample, before canon found twins once per
labelling and returned its canonical order in place of the orbits, and the
two n >= 8 sweeps before the class stream dropped the classes that arrow the
pair.  The stderr of a failing scan-t4 --assert run, whose failure records
are rebuilt from the scanner's rows, was recorded before the scanner yielded
rows in place of dicts.  The last five scan-interval hashes, among them the
empty interval (m = 2) and an all_pass one (m = 19022), and its two refusals
were recorded before scan-interval streamed its one JSON line.  The witness
build refusal (exit 3) names a build the size guard refuses before any work,
and so do the pell and stride-4 diag equidist refusals at one above their
guards.  The complemented n = 70 witness build, the first golden above n = 62,
and the refusals of the oracle, --on-m equidist and scan-interval guards were
recorded before the witness builder and the explicit oracle shared one
clique-plus-star constructor and the build record was streamed.  Four
oracle sn hashes, at n = 6 (--m 4 --f 3 --csv), n = 7 (4, 3), n = 8 (6, 7)
and n = 9 (4, 3), were recorded again when a sweep's counterexample became
the least failure whose first n - 1 vertices induce a canonical form, in
place of the least failing canonical form: S is unchanged, and so is every
oracle arrows hash.
A refactor that changes a byte of output fails here.

Regenerate a hash only for a deliberate output change, by running the argv
through ``avoidpairs.cli.main`` and taking the sha256 of stdout.
"""

import hashlib
import re

import pytest

from avoidpairs import criterion, equidist, oracle, pell, witness
from avoidpairs.cli import COMMANDS, main

# a clique K_5 plus a girth > 6 part: `witness build --n 20 --e 12 --p 6`
WITNESS_G6 = "S~{?GG???????????????????????????"

GOLDEN = [
    (['pell', '--count', '5'], 0,
     'a45f499a981325e05dd074c8b6e7ee9170096af2469383b3cfbbda52bb5521c0'),
    (['pell', '--count', '4', '--raw'], 0,
     '4bd6af73e063690e00901494e592307669e550fe1b913a601db35ccb8a037f54'),
    (['criterion', 'eval', '--m', '40', '--q', '0'], 0,
     '5fc15d0ee13dab1fb01d8abf147946546f5b7938387072824e1d1b73ec519894'),
    (['--fracbits', '64', 'criterion', 'eval', '--m', '1276', '--q', '-7'], 0,
     'd8e3eae8b754c843fd20fb8fe504732fd87a0cb4aeabac3d358618e415a6c3df'),
    (['criterion', 'eval', '--m', '221', '--q', '3', '--csv'], 0,
     '46a458b02948cc888948505bfc4f590b5304730fb61864c9a93e556fd4d47ff6'),
    (['criterion', 'cert', '--m', '5', '--f', '4'], 0,
     'b033aabede7be66e34601a5c9c0e6f806afe3ff6c9b43df381f7393534b1f132'),
    (['criterion', 'cert', '--m', '3', '--f', '2'], 0,
     '8d6daf2ff70d2dcda36c15ca01369c8d6e020e2931291260ef203d8eab5848d1'),
    (['criterion', 'cert', '--m', '6', '--f', '14'], 0,
     'a27de09f28ff419fc9052d2bc5c448233a1f72ee88a10202caa96a0f742db96e'),
    (['criterion', 'cert', '--m', '6', '--f', '15'], 0,
     '1c2d5f68b2dcd3530d98311b1c1709e27b32a8f9f7cdab1e6891ab86e71b0602'),
    (['criterion', 'cert', '--m', '40', '--f', '390'], 0,
     '0c8e5c7f78d213a880c848598d33b539753bb968206483b46c535b70afdad085'),
    (['criterion', 'scan-t4', '--from', '740', '--to', '5000'], 0,
     'd1a60f25f8db4d233c401ab07e03f7a6e07ba4a2f8cccbba24d7c10cdea685e3'),
    (['criterion', 'scan-t4', '--from', '5', '--to', '900', '--csv'], 0,
     'cbc5ce2b50425d970e2e1636557decfae410752bb066bfeb3f4f95ff981ab41b'),
    (['criterion', 'scan-t2', '--alpha', '1/2', '--beta', '3', '--from', '5', '--to', '1500'], 0,
     'e2bd60d1e72c32efedc2b6da374e2f886dd2eca8bf57472cc5e9496437ed18f9'),
    (['criterion', 'scan-t2', '--alpha', '0', '--beta', '0', '--from', '5', '--to', '300', '--csv'], 0,
     'e1c0eb7b583df597e199b8855c748303b89975041a81a7f191ed1e4309fc6043'),
    (['criterion', 'scan-interval', '--m', '2000'], 0,
     'fb9cb5c33c5fdeb09ee7efe8a235a9a87f7a527d2e8cb5c1d1456ff2b02414cd'),
    (['criterion', 'scan-mod23', '--from', '6', '--to', '400'], 0,
     'ad88a21bebf9b5cdfb62aea65690cdabf78683d64bdb4fd70476d75e9d7315f7'),
    (['witness', 'build', '--n', '30', '--e', '20', '--p', '6', '--pair', '5,5'], 0,
     '0a751432ca242a3f2aa68b5372df655f6c9988755c75965c9bc4cbec71801f14'),
    (['witness', 'build', '--n', '5', '--e', '5', '--p', '5'], 5,
     '54104dc6eb80a2a259ffc52f85d1f73404d2737d82358aaba6fdd2aff62b2152'),
    (['witness', 'verify', '--graph6', '{g6}', '--pair', '5,5', '--clique-vertices', '0,1,2,3,4', '--p', '6'], 0,
     'ad2b96b3b7df587f5ca23ac3324d94e144397462ee90aa8ff8c10b3d43f8d56b'),
    (['oracle', 'arrows', '--n', '5', '--e', '4', '--m', '3', '--f', '3'], 0,
     '6707d1999c59dc2d0b48ddbac4b96c80dfc24e2192c989c883702c294256c2f3'),
    (['oracle', 'sn', '--n', '6', '--m', '3', '--f', '1'], 0,
     'aa6b5cf01400e63bbb988de6b78486160139a5ae80a0b8b07f2937dda9f03ef8'),
    (['oracle', 'sn', '--n', '6', '--m', '4', '--f', '3', '--csv'], 0,
     'f70b1be07ef6380a341e0729e50b0e8892ba41c0fca33a607440adfa3fcb5b80'),
    (['oracle', 'xcheck-cf', '--max-m', '8'], 0,
     '14b13d0a8d606d427c9b85444a6561c5952ad7e051482b81c50a465ce2311b70'),
    (['bipartite', 'realize', '--m', '5', '--f', '9'], 0,
     '32a52c514e08adac9e9aa2d585148286bbaf3bd0fb2af0b68cf804917294cceb'),
    (['bipartite', 'realize', '--m', '5', '--f', '20', '--json', '--complement'], 0,
     'dbfa764780b50cfea5fbd7d78381c3e7fe719204f8135da21e30d80023d99be9'),
    (['diag', 'equidist', '--q', '0', '--n', '2000', '--bins', '10'], 0,
     'e8f1953dc4dd19af4a29d8cc4f50693c819c6654b7af56a2f5b6af3b171f4555'),
    (['diag', 'equidist', '--q', '0', '--n', '10', '--bins', '10', '--on-m'], 0,
     '539c19a018379f710e390aba436c86c696c1aec84484d5b508b84151376f62c6'),
    (['--fracbits', '64', 'diag', 'equidist', '--q', '5', '--n', '500', '--bins', '7'], 0,
     'e9d604514790b4542bcc4b3846f2720fe0339958ce7023b3d3dfd50379a13141'),
    (['criterion', 'scan-t4', '--from', '740', '--to', '1000', '--assert'], 0,
     'a3205044978f37ed174ee1a38c99448d3a7458aba4011e110ac32b5d6e052c79'),
    (['criterion', 'scan-interval', '--m', '7'], 0,
     '07a7e8625090a3c1e8b69d7bc33abc54162ce0cf0db12a501a03341191abde02'),
    (['oracle', 'arrows', '--n', '9', '--e', '5', '--m', '4', '--f', '2'], 0,
     '57a1143a8fd5dbccc4f432cff4ca53d6b5ed168d363e8eba4ea7b3eaf4dfc1a1'),
    (['oracle', 'arrows', '--n', '7', '--e', '10', '--m', '4', '--f', '3'], 0,
     'e495bdc5304e1b6aa9dbac53de24fb666443bb4e80e4dd5352874e615b6353ae'),
    (['oracle', 'sn', '--n', '7', '--m', '4', '--f', '3'], 0,
     '0903f612c50dda5d8810467a5dbe9839a1b0d82225ef7d861831ef0e07733464'),
    (['oracle', 'sn', '--n', '7', '--m', '5', '--f', '5'], 0,
     'ec29de602177239505760cdede1e6bbe8b164eae37380f5f61e43a3e8482a3dd'),
    (['oracle', 'arrows', '--n', '8', '--e', '14', '--m', '4', '--f', '3'], 0,
     'ffe4da68f2bfd2c30e7e18b3f8a4c5a963cff8078df4ccc63c1458cca5a623eb'),
    (['criterion', 'scan-t4', '--from', '50000', '--to', '150000'], 0,
     '9c0712ab6eabdc86bc42233442b3823c4a35cc303b4d0b4d31ef3d641fa00d5a'),
    (['criterion', 'scan-t2', '--alpha', '1', '--beta', '0', '--from', '100', '--to', '20000'], 0,
     '15471f8ade458d37b7b9b2131a6c50e68d566188f4091f5e6f85906f224efdd2'),
    (['criterion', 'scan-t4', '--from', '5', '--to', '900'], 0,
     'dcbf211c10201f60017121a06eaaff3e39bfc65e918c8fd0ce7e7ff90ae1afcc'),
    (['oracle', 'arrows', '--n', '10', '--e', '6', '--m', '4', '--f', '3'], 0,
     '55119832e468633ad6bcd38b6f2c4b6af07f216ac58f0102c29139cf21a8d094'),
    (['oracle', 'sn', '--n', '8', '--m', '6', '--f', '7'], 0,
     '5bd1600dc8334252270b7ea60001af662eb00af0209480d7e03ac7ba19179563'),
    (['oracle', 'sn', '--n', '9', '--m', '4', '--f', '3'], 0,
     '87115af3c822b77e48e2193ed529d3d193db101f7f571e7ee1bd458497a09b61'),
    (['criterion', 'scan-interval', '--m', '1'], 0,
     '656459f68fdffdcc7db98416cbfb2459b93c7fe0f6b8d2497a899f80c8283b7e'),
    (['criterion', 'scan-interval', '--m', '2'], 0,
     '982011c736f5b60bccf49993d6fc4ec4c707778bdc32b2ac24db35c853776a94'),
    (['criterion', 'scan-interval', '--m', '3'], 0,
     'f792e26261a3cfd5f4704e1439380406d16ff4be0dca4a5f2555bb513ac1f13b'),
    (['criterion', 'scan-interval', '--m', '20000'], 0,
     'ba14190b236aa5549c3647c1575b93358e5bb0483471d50ffea32b09b8492a4c'),
    (['criterion', 'scan-interval', '--m', '19022'], 0,
     '6a8087087e7a583098a9604bf660d761f37204fba5fb9470cccf575d345a3f7f'),
    (['witness', 'build', '--n', '70', '--e', '2000', '--p', '5', '--pair', '40,390'], 0,
     'a2486aba0b49d43c7df7d116590ca3f5df064a15d0b94af44485108f4cc96396'),
]

GOLDEN_STDERR = [
    (['criterion', 'scan-t4', '--from', '5', '--to', '900', '--assert'], 4,
     'b9f80c089dffdf50e16bbc9cba145ca76954eaae8f600c6f79aea9c4bddaf89b'),
]


# refusals: their exit code, no stdout byte, one JSON error line on stderr
GOLDEN_REFUSALS = [
    (['criterion', 'scan-interval', '--m', '0'], 2,
     '{"error":"scan_interval needs m >= 1, got 0","kind":"domain"}\n'),
    (['criterion', 'scan-interval', '--m', '-5'], 2,
     '{"error":"scan_interval needs m >= 1, got -5","kind":"domain"}\n'),
    (['witness', 'build', '--n', '4000', '--e', '4000000', '--p', '5'], 3,
     '{"error":"witness build guard: n=4000 exceeds 2000","kind":"guard"}\n'),
    (['pell', '--count', '2001'], 3,
     '{"error":"pell guard: count=2001 exceeds 2000","kind":"guard"}\n'),
    (['diag', 'equidist', '--q', '0', '--n', '1000001', '--bins', '10'], 3,
     '{"error":"equidist guard: 1000001 stride-4 terms exceed 1000000","kind":"guard"}\n'),
    (['oracle', 'sn', '--n', '10', '--m', '4', '--f', '3'], 3,
     '{"error":"S_n sweep guard: n=10 exceeds 9","kind":"guard"}\n'),
    (['oracle', 'arrows', '--n', '11', '--e', '5', '--m', '4', '--f', '3'], 3,
     '{"error":"enumeration guard: n=11 exceeds 10","kind":"guard"}\n'),
    (['oracle', 'xcheck-cf', '--max-m', '13'], 3,
     '{"error":"explicit oracle is exponential-free but still guarded to m <= 12; '
     'got m=13 (use the criterion module beyond)","kind":"guard"}\n'),
    (['diag', 'equidist', '--q', '0', '--n', '10001', '--bins', '10', '--on-m'], 3,
     '{"error":"equidist guard: 10001 members of M exceed 10000","kind":"guard"}\n'),
    (['criterion', 'scan-interval', '--m', '3000000'], 3,
     '{"error":"scan_interval guard: 1049999 rows at m=3000000 exceed 1000000","kind":"guard"}\n'),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_stdout_matches_golden_hash(capsys, tmp_path, argv, code, digest):
    g6_path = tmp_path / "w.g6"
    g6_path.write_text(WITNESS_G6 + "\n")
    argv = [str(g6_path) if arg == "{g6}" else arg for arg in argv]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN_STDERR, ids=[" ".join(argv) for argv, _, _ in GOLDEN_STDERR]
)
def test_stderr_matches_golden_hash(capsys, argv, code, digest):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert hashlib.sha256(err.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,code,err", GOLDEN_REFUSALS, ids=[" ".join(argv) for argv, _, _ in GOLDEN_REFUSALS]
)
def test_refusal_matches_golden(capsys, argv, code, err):
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)


# Each leaf of cli.COMMANDS, by (group, leaf): the guard constants that
# refuse work in proportion to its cost, each with a GOLDEN_REFUSALS entry
# above it, or why the leaf needs none.
GUARDS = {
    ("pell", None): [pell.COUNT_GUARD],
    ("criterion", "eval"): "bounded by its input: one (m, q)",
    ("criterion", "cert"): "bounded by its input: one pair",
    ("criterion", "scan-t4"): "streaming: one line per m, in flat memory",
    ("criterion", "scan-t2"): "streaming: one line per m, in flat memory",
    ("criterion", "scan-interval"): [criterion.INTERVAL_ROW_GUARD],
    ("criterion", "scan-mod23"): "streaming: one line per m, in flat memory",
    ("witness", "build"): [witness.BUILD_GUARD],
    ("witness", "verify"): "bounded by its input: the graph6 file it reads",
    ("oracle", "arrows"): [oracle.QUERY_GUARD],
    ("oracle", "sn"): [oracle.SWEEP_GUARD],
    ("oracle", "xcheck-cf"): [oracle.ORACLE_MAX_M],
    ("bipartite", "realize"): "bounded by its input: one pair, O(m) forest edges",
    ("diag", "equidist"): [equidist.SAMPLE_GUARD, equidist.M_SAMPLE_GUARD],
}


def test_every_leaf_names_its_guards_or_why_it_has_none():
    leaves = {(group, leaf) for group, (_, table) in COMMANDS.items() for leaf in table}
    assert set(GUARDS) == leaves
    for (group, leaf), guards in GUARDS.items():
        if isinstance(guards, str):
            assert guards.split(":")[0] in ("streaming", "bounded by its input"), guards
            continue
        argv = [group] if leaf is None else [group, leaf]
        refusals = [err for cmd, code, err in GOLDEN_REFUSALS
                    if cmd[:len(argv)] == argv and code == 3]
        for guard in guards:
            # the refusal one above the guard names it, before any work
            assert any(re.search(rf"(?<!\d){guard}(?!\d)", err) for err in refusals), (argv, guard)
