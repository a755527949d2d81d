"""Help and usage pins: for --help at every level, and for a missing, an
unknown, a malformed and a valueless option of every leaf command, the
sha256 of (exit code, stdout, stderr) must equal the value recorded before
the leaf parsers were built from one command table.  None of these argv
reaches a handler, so the pins hold the parser alone.

The group help pages of pell, witness, oracle, bipartite and diag have
since gained the exit-code paragraph that the top-level and criterion help
pages already printed; for those five the pin holds the text without it,
and the test checks that the paragraph, exactly as the top-level help
prints it, is what follows.

Regenerate a pin only for a deliberate change to the parser, by running the
argv through ``outcome`` and taking ``digest``.  The ``oracle arrows --help``
pin and the valueless ``--f`` pin of that leaf were taken when its
``--query-guard`` option was removed.
"""

import hashlib
import json

import pytest

from avoidpairs.cli import main

# leaf path -> (its required options with a well-formed value, its options of
# integer type); the optional options stay out of the base argv
LEAVES = {
    ("pell",): (["--count", "1"], ["--count"]),
    ("criterion", "eval"): (["--m", "40", "--q", "0"], ["--m", "--q"]),
    ("criterion", "cert"): (["--m", "40", "--f", "390"], ["--m", "--f"]),
    ("criterion", "scan-t4"): (["--from", "740", "--to", "800"], ["--from", "--to"]),
    ("criterion", "scan-t2"): (["--alpha", "1/2", "--beta", "3", "--from", "5", "--to", "60"],
                               ["--from", "--to"]),
    ("criterion", "scan-interval"): (["--m", "40"], ["--m"]),
    ("criterion", "scan-mod23"): (["--from", "2", "--to", "60"], ["--from", "--to"]),
    ("witness", "build"): (["--n", "30", "--e", "20", "--p", "6"], ["--n", "--e", "--p"]),
    ("witness", "verify"): (["--graph6", "w.g6", "--pair", "5,5", "--clique-vertices", "0,1"],
                            ["--p"]),
    ("oracle", "arrows"): (["--n", "6", "--e", "7", "--m", "4", "--f", "3"],
                           ["--n", "--e", "--m", "--f"]),
    ("oracle", "sn"): (["--n", "5", "--m", "3", "--f", "1"], ["--n", "--m", "--f"]),
    ("oracle", "xcheck-cf"): ([], ["--max-m"]),
    ("bipartite", "realize"): (["--m", "3", "--f", "4"], ["--m", "--f"]),
    ("diag", "equidist"): (["--q", "0", "--n", "100", "--bins", "4"], ["--q", "--n", "--bins"]),
}
GROUPS = ["pell", "criterion", "witness", "oracle", "bipartite", "diag"]
EPILOG_GAINED = {("pell", "--help"), ("witness", "--help"), ("oracle", "--help"),
                 ("bipartite", "--help"), ("diag", "--help")}


def without(args: list[str], option: str) -> list[str]:
    """args without option and the value after it, if option is there."""
    if option not in args:
        return args
    i = args.index(option)
    return args[:i] + args[i + 2:]


def pinned_argv() -> list[list[str]]:
    cases = [["--help"], [], ["nosuch"], ["--fracbits"], ["--fracbits", "x", "pell", "--count", "1"]]
    for group in GROUPS:
        cases += [[group, "--help"], [group], [group, "nosuch"]]
    for path, (required, typed) in LEAVES.items():
        path = list(path)
        if len(path) > 1:
            cases.append([*path, "--help"])
        cases += [path + without(required, option) for option in required[::2]]
        cases.append(path + required + ["--bogus"])
        cases += [path + without(required, option) + [option, "x"] for option in typed]
        cases.append(path + required + [typed[-1]])  # an option without its value
    return list({" ".join(argv): argv for argv in cases}.values())  # bare pell twice


def outcome(capsys, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the CLI on argv."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


PINS = {
    '--help':
        '4ea0d95274bfc9ee5dcc31cffabf6cee58d026d1d5d39179ff387669096913cd',
    '':
        '8b0e478eb698f279a391bd547a9e417d3bfd773887b3535555a8ab7e1687e27c',
    'nosuch':
        '3dec66a50251c6808046b0c0a1993eaf1f5688838f16e5b65a455cd4b264e159',
    '--fracbits':
        '8c2ff97084e61f30ac6d7285b19262fecd4a37c77a47b1c2adf8c914528cc843',
    '--fracbits x pell --count 1':
        '6d5766259394cb3b746794404eecde9c0bbce2f5dbb50529daf573d070225cb6',
    'pell --help':
        'a90ea8552e990b585dbfe05ca7ee79a58664faa28f6d23c28541c64c416fb670',
    'pell':
        '14ea3f041e07d501fd7f809b398c7ee67bce43e1e65090b26556456bdc933ded',
    'pell nosuch':
        '14ea3f041e07d501fd7f809b398c7ee67bce43e1e65090b26556456bdc933ded',
    'criterion --help':
        '664bde88cecf08f4566d859b2490cd86128bec70b12c16c250fa056f2ea0ae0e',
    'criterion':
        '3aee472ae407359a8750e8a65c059b2999ebfe9d35943b6282f3fca3b461da2c',
    'criterion nosuch':
        'ed47d85e365b3598969052f2172ff0e604288c298632c215ff8cf42c1dc01371',
    'witness --help':
        '9aa0e2c907a44f302059969a0eddb6b902be79423adddd38a2dc6f052dcec145',
    'witness':
        'd9e56c925a4a775a4b6509a9a4ac8b51197a88279f8fd9917085bd8a6318c862',
    'witness nosuch':
        '89c6cc1bd530a098e25eee546088904b653b806b63e887e02766c26b4841026c',
    'oracle --help':
        'eda4524b3212593a594ce98f85d0569df6d2b6025b347c83eba0a905f87cae98',
    'oracle':
        '0136b9f42bbe67981b6b51e6be6c821974cf7a9c1eb4570353a127036de20cc2',
    'oracle nosuch':
        'ce0388ad0cee7fe8f9271d52d5107e3ee0fabc0148a9452353fe55dde7fc79aa',
    'bipartite --help':
        '877dab4a74769ef9d4fbfb674c0549c86f3ac33d6c9373e4ece67112f3ce5036',
    'bipartite':
        'c749949e8d055cb96cc02c3ce11c712de3723ceab457526c0eb1f1c70c874dc5',
    'bipartite nosuch':
        '03acc80803cb4263056f77714dc264afa116b862c1d30ee156b523ac90745484',
    'diag --help':
        '00bbfd9d640cd17fc1cf413ac1a38c1c351c9cf5a2d72139e969e2797fbcbe76',
    'diag':
        '2493ca2e6341e727195a998ac3e9f82afd47b5120c3728f5b763da2f57c19614',
    'diag nosuch':
        '0683e5fce635dddf31cc5f489dc1e50ac66e48761bda8fc2caeb222b31530843',
    'pell --count 1 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'pell --count x':
        '2f0b1f981517a9b6ca60354a15edcbe9b0a32ae00d7190070856a7557e188e42',
    'pell --count 1 --count':
        'fae20bc97fd3301936e7aeaca4fd49f738afcb96cbdef833eb67043c3423d577',
    'criterion eval --help':
        '64104b19a4d0df2d7ec8e03ba4fc1400986b8eeea4de89c95f4f25953d2f0e39',
    'criterion eval --q 0':
        'e6d4d915d4075fb8768ce291b700505a03aa64c8eed118c5023e6d2fa083402d',
    'criterion eval --m 40':
        'd878ec34812d112eff331626198158407735933b41bb7d13090b136598ee34e8',
    'criterion eval --m 40 --q 0 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'criterion eval --q 0 --m x':
        '12fde7b24ef8dbd11b3adae637ef3313cd740d6056e932bb35f9a460847d69b8',
    'criterion eval --m 40 --q x':
        '81d4094d65444c0a4262a93f0681ec21f164577fe33bc0e05a43cb5d6e35640a',
    'criterion eval --m 40 --q 0 --q':
        '2670b8ef47f95493310564fca11640a518736ec30d459dfef49d7c7866e54e57',
    'criterion cert --help':
        '04bc6bc6a74dddac057fbfae4bd10362a17b5ec37fb8a431c23e7457b8fc220a',
    'criterion cert --f 390':
        'cea6530bb6656570b322b2bfb2ae21fd51b56dbcdf3bbc107f7767c90b53319d',
    'criterion cert --m 40':
        '82a3bcb11044a6f1417e108ab20e3f8150d44213f3c7b5f83e4bffe0f01c9792',
    'criterion cert --m 40 --f 390 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'criterion cert --f 390 --m x':
        'e9230293a154c5c4139c7cb9a448e6172d5dfd531c6d57ad864b1102f1be2cbb',
    'criterion cert --m 40 --f x':
        'b8c7ada2f5cab2e9ad419149c653c02e18f8b4232dc97c442843d8b9830cd807',
    'criterion cert --m 40 --f 390 --f':
        '500c655010417ee8ee3e32c24df176d4a2bc6badf40342fb60d802cde0c4bb72',
    'criterion scan-t4 --help':
        '82c7f7d7d104f92e1725015875c444874d2e0381e4e33ffd5ab36dc004f3a5b9',
    'criterion scan-t4 --to 800':
        '01f466581f96e424376deb6c61fb23afd65107c3223f476944a71da38b244e45',
    'criterion scan-t4 --from 740':
        'a3d7acc97dc4483b8da46a3be4c1d31a6451f53a4b81c1d85500dc92234d7a5f',
    'criterion scan-t4 --from 740 --to 800 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'criterion scan-t4 --to 800 --from x':
        '46a44bb5f6c6d5df1531821ca23b4d2ec1f918505a38c5f251ba4451590253a0',
    'criterion scan-t4 --from 740 --to x':
        '6e1b00d59db051155700bc17d344bb9790273bc547eafd008f947a257d1648a1',
    'criterion scan-t4 --from 740 --to 800 --to':
        '6bbb581515311b5dd2b5690a27d7a898a8793469ac033314eb4d77ce8125e3a1',
    'criterion scan-t2 --help':
        '70ea5730e432c38b1fd77d6a45e6ae8bd7b7f06df98fc362049c0bcd0974621a',
    'criterion scan-t2 --beta 3 --from 5 --to 60':
        '7e6d0a9210229b6592927dd7337aef219dea8ef4ff6779bc27ec4953bc81070f',
    'criterion scan-t2 --alpha 1/2 --from 5 --to 60':
        'e1b1ddf3b2f8fc9038576c8e0fc92c80a2e4d17bbd558b9a4821dbc1ca934dc1',
    'criterion scan-t2 --alpha 1/2 --beta 3 --to 60':
        '94c7bd35b24d89a4161de510709b0d2b7727c2c526bcbf2f4f1016d195133e6f',
    'criterion scan-t2 --alpha 1/2 --beta 3 --from 5':
        '30090d897929628ac1d623825fbaa1c74961ca31a9813e36cf3d0d3088839d57',
    'criterion scan-t2 --alpha 1/2 --beta 3 --from 5 --to 60 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'criterion scan-t2 --alpha 1/2 --beta 3 --to 60 --from x':
        '47df8ab40cb9825618a92b6b208cbe71bc25ba2ee2ce6b497e19e537fd08c961',
    'criterion scan-t2 --alpha 1/2 --beta 3 --from 5 --to x':
        '71ddb9cdc57d36d34662cf748ec249dd7ca7d13f6b534f516f7b1214019eef92',
    'criterion scan-t2 --alpha 1/2 --beta 3 --from 5 --to 60 --to':
        '2e34b21b657d6d4ea2187a62e9247a1b8be27ebdf58a7f5543ff752ad70ab861',
    'criterion scan-interval --help':
        '5261c94be6284f217e764ba81413d743ee9fe8ad2bc25d2d6ac5bfe2897e4602',
    'criterion scan-interval':
        'ebc1113259ce2f6a3de3a7db5cb154b656cbd646aeeefe2f155629f3fb249ba3',
    'criterion scan-interval --m 40 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'criterion scan-interval --m x':
        'ee12f5019cc83334f81ad624e7e28cc2b5b55661849d2ba732ce00751be209f0',
    'criterion scan-interval --m 40 --m':
        '0f2e20e091eb472ff58b98239c9a0dfc26880340e92b363d340ee3eeeb06196f',
    'criterion scan-mod23 --help':
        'a1156b499605e97cf0055e4b5be9b244f44ac083d265654881a4252c792064a1',
    'criterion scan-mod23 --to 60':
        'ce909cb1f2bad1acf93cd4e9092d3f179635e04aef10c7dc30a07c43f757e738',
    'criterion scan-mod23 --from 2':
        'c7e30b846b66fcff84a10e0c0074999ab52c46de8de64b2644242f4c829d6d7c',
    'criterion scan-mod23 --from 2 --to 60 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'criterion scan-mod23 --to 60 --from x':
        '6ef560608c99f7ec7d010ae7ccd9c9d42b94c9ae923ffe8fbe99b7706289f050',
    'criterion scan-mod23 --from 2 --to x':
        'a6f25ade99f0d70565b0df978c4c5d46ff4369c139fc68a46c27fbf70e37a6e3',
    'criterion scan-mod23 --from 2 --to 60 --to':
        '5d0b2f026eb3dd17fbe369e0c827556e5a66b45853ed4787e92bb75d6bbf4efc',
    'witness build --help':
        'f91a6ae4a2d0b611f0ddbe3100f655215e7e3c8dec2b1088d870f7768e2f0a89',
    'witness build --e 20 --p 6':
        'ac569632d1a1b0e7dbe35b0a37373ac7d3da06617d8a4c1611e91399c88e9463',
    'witness build --n 30 --p 6':
        '56c2df43645d6653b5533c331e5038c5629855c6d4cd6dcf2dabab2d50fc61a9',
    'witness build --n 30 --e 20':
        '6da9875b28edba3011b9ae136840094c5624b232c54cebede53f100e9b90e5d7',
    'witness build --n 30 --e 20 --p 6 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'witness build --e 20 --p 6 --n x':
        '18a34df14cc8f63ecacb2726ad3573b75da18cfbce4a031d11237b9e20cf0eb0',
    'witness build --n 30 --p 6 --e x':
        'c8c2270967824de7027abfcd5b2935ec26b8158ca6f677d54ff90e326dc90c2a',
    'witness build --n 30 --e 20 --p x':
        '4b9dfec716537f5cc7d6206aa7d363171908351f75ade6ce57b836af2bbe75a7',
    'witness build --n 30 --e 20 --p 6 --p':
        'be2d1f8f2943ccc48faf31c100c63530386aee1af5fd3cb2290e579ead848c96',
    'witness verify --help':
        '21612ca09d45a13a7ee1a8ee21cde509ef9ea78a84090e8df150607cb5f1d654',
    'witness verify --pair 5,5 --clique-vertices 0,1':
        '0c1a54172277e1a69ac6e582b2b7196be043be44451c381dc7e56813a230281d',
    'witness verify --graph6 w.g6 --clique-vertices 0,1':
        'abe0076695825d37f2469ff53bbfe221e7cfc6252b241c6f01551c2ece317b99',
    'witness verify --graph6 w.g6 --pair 5,5':
        '0fd0488eb17e9e26b734ef9dbafe4d28cbed3a5c547f8fa2eb136363772a847e',
    'witness verify --graph6 w.g6 --pair 5,5 --clique-vertices 0,1 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'witness verify --graph6 w.g6 --pair 5,5 --clique-vertices 0,1 --p x':
        '3271bf0839d44cec49fabd4575686d492a85ae519a31e91bc320ee87048185f2',
    'witness verify --graph6 w.g6 --pair 5,5 --clique-vertices 0,1 --p':
        'ad23a684b1c4329f7a2b7ade62ba591b4610a80334ab96960e64faf9da4d8d9c',
    'oracle arrows --help':
        '51c1585f04b7f5814bd62eda146edbe5b74df560ef7d03957c85df01537b7d60',
    'oracle arrows --e 7 --m 4 --f 3':
        'd4ccec4c41de70524370a75886942c6535ed2c2e5bd1404920a1a8b311df8ed6',
    'oracle arrows --n 6 --m 4 --f 3':
        '0385550d88f740115c744fe591b00495bb257253d79a2fd08382ca2437c1723f',
    'oracle arrows --n 6 --e 7 --f 3':
        'b04719d9f3c5d7356994a34a36510cafa058c131400ca3e732312b81fb86cbe4',
    'oracle arrows --n 6 --e 7 --m 4':
        '7283d7bbe615f46180ba960f2ce6a409853b460b7ae40323aae8ce2822e377fd',
    'oracle arrows --n 6 --e 7 --m 4 --f 3 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'oracle arrows --e 7 --m 4 --f 3 --n x':
        '01166eb79b6a119d31ff5b1e4e3d79be82552ef0b5f7e63ad9ad72e5f0fd287e',
    'oracle arrows --n 6 --m 4 --f 3 --e x':
        '7b2aba56aa717f03cc8a46023b14963c5ca8a1371581669c4872df006d54ba56',
    'oracle arrows --n 6 --e 7 --f 3 --m x':
        '4d540b346fa78360258047a949a55ec95d250e98e667d85f7178f74ff2b1acda',
    'oracle arrows --n 6 --e 7 --m 4 --f x':
        '9580e689a9e02081dd2adc38bcf28a273cd8017d30848e5310f45dd8f946ecf7',
    'oracle arrows --n 6 --e 7 --m 4 --f 3 --f':
        '5211d9400a4a8a76b28bb7ba023d5018c3f61928b8c72899e140d45da1bfc6b9',
    'oracle sn --help':
        'd67d0a6bb56876c49a34e5d99dbf852a48f96c097a496ad434760524d67c24b4',
    'oracle sn --m 3 --f 1':
        '7b829de39c90aef3444c592a99c42f9be289715de752058a3faf05c8557425b4',
    'oracle sn --n 5 --f 1':
        '3aee25c4f392db99fbcb6f8e75b8a0588d890d9a8aad8b73ca00f76337d1abfc',
    'oracle sn --n 5 --m 3':
        'fdbc2d4de4b554c385723d2b4d0ef685f5b6b988d7026be880368816afcf0507',
    'oracle sn --n 5 --m 3 --f 1 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'oracle sn --m 3 --f 1 --n x':
        '8e0cda84134e34346f4c409071132806491d5e276ed8958f48d7077c98fe41f4',
    'oracle sn --n 5 --f 1 --m x':
        'e4672113854e57aa6d1f136bde435e6cf42f99ec2c02d29a2507f1db860689d8',
    'oracle sn --n 5 --m 3 --f x':
        'c8d32a343bd061dc4d1ab7bb6f0e347acf68968607d077b032bb71f903c47c21',
    'oracle sn --n 5 --m 3 --f 1 --f':
        '7b9125d6c59868b2c53861e52f8b424c21e4b3e3f1767121921587bf051682a5',
    'oracle xcheck-cf --help':
        '65e484772a69740c51858284505c254e63bf57587e8704adcfb49d1156fc3b8d',
    'oracle xcheck-cf --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'oracle xcheck-cf --max-m x':
        '6458d9aee8e1e0c6348526fcb470eec3458a94728b45c4418533f584226d02c9',
    'oracle xcheck-cf --max-m':
        '672f7048565593d7e7e379aaf176866e88cb34cc129a2f9d7d01dd713fd48671',
    'bipartite realize --help':
        '57b61cdf545cc0096a3efc8918c11013c1298f5aaae1ab4423dba031c84b3363',
    'bipartite realize --f 4':
        '3adc7dee3d00b7e457f42b3abfb7932921a4e5395f6244a595365f0525d91aa5',
    'bipartite realize --m 3':
        'ac9f56fc17d4026f15aaa9a7bef0fd8b8b00642e824146df176e03b6f134161b',
    'bipartite realize --m 3 --f 4 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'bipartite realize --f 4 --m x':
        '60680da1b372e2dd2325997768b71a5955c095132480aa256e33b679a240793e',
    'bipartite realize --m 3 --f x':
        'ef75f5a83dd7270e1fc751e2e4de1ab92f93884708ce063c4c0e5f6576b788ea',
    'bipartite realize --m 3 --f 4 --f':
        'a39b04703052eb75e36a2e310f03c0bdcf903452bcc88cf8ec46c23fe9af363c',
    'diag equidist --help':
        '14d8d8ef169fe7c8618eb5208f561a88640cd02de6e3b41afbf812695638703b',
    'diag equidist --n 100 --bins 4':
        '299384738996c3c967dde263b4e1a896d42b4b59a5eab2efe2d311cf3a82b519',
    'diag equidist --q 0 --bins 4':
        'b1d431a56cc16ff61734b52f05670fe7967cca7422487666a372ca5762eb3022',
    'diag equidist --q 0 --n 100':
        'ba488491db08c381a64b084c3d38b0a3a8e95183b3cfecd484f40865d7b06e69',
    'diag equidist --q 0 --n 100 --bins 4 --bogus':
        '31832d809294f4373f3748e4174522dfddd8ebde3893dd29d3e8a962de59d3ca',
    'diag equidist --n 100 --bins 4 --q x':
        '245cdd02fec4095a00c341671ac977af198c996d84c6d85c47006308484909fd',
    'diag equidist --q 0 --bins 4 --n x':
        'b2c7c5d21e7a65588dca6af438a9dec498ebc3947e63169f5763a79561c232bb',
    'diag equidist --q 0 --n 100 --bins x':
        '57428f51583f6da14a43a9cba2e76bef99cb360ed85cac57fdfd39a2f19dc575',
    'diag equidist --q 0 --n 100 --bins 4 --bins':
        '88e727b97f6ffe1f2e61b67ac7fedfcdaaec9c673cf80352734da982a685eb01',
}


@pytest.fixture
def fixed_width(monkeypatch):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


def test_every_pinned_argv_is_pinned():
    assert sorted(PINS) == sorted(" ".join(argv) for argv in pinned_argv())


@pytest.mark.parametrize("argv", pinned_argv(), ids=" ".join)
def test_help_and_usage_match_their_pins(capsys, fixed_width, argv):
    code, out, err = outcome(capsys, argv)
    if tuple(argv) in EPILOG_GAINED:
        _, top_help, _ = outcome(capsys, ["--help"])
        paragraph = top_help[top_help.index("\nexit codes:"):]
        assert out.endswith(paragraph)
        out = out[:-len(paragraph)]
    assert digest(code, out, err) == PINS[" ".join(argv)]
