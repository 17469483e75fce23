"""Golden outputs of the reduction commands, pinned byte for byte.

The CLI promises byte-identical output for identical inputs, flags and seed.
These tests run `reduce` (exact and sampled), `witness`, `fraction`,
`reject-id` and `decode` on fixed sources and compare SHA-256 digests of
every stdout and every written file against recorded digests. The `unique`
and `dto1` digests were recorded before the instance layer moved to integer
weights, the `unique_l2` and `decode` ones before the generators and
samplers shared one definition per test. A changed digest means changed
output: if the change is intended, the new digest has to be recorded here on
purpose.

The unique source has two left and two right vertices with one label each;
the d = 2 source has one edge with one left and two right labels; the
`unique_l2` source has one edge with two labels on each side and a swapping
projection, so its samples draw over several labels; the decode source has
two left and three right vertices with two labels each, and fixed random
tables that are no dictators. All are small enough that the whole file runs
in a few seconds.
"""

import contextlib
import hashlib
import io

import pytest

from cspcover.cli import main

UNIQUE_GAME = "2 2 1 1 1\n0 0 0\n0 1 0\n1 0 0\n1 1 0\n"
DTO1_GAME = "1 1 1 2 0\n0 0 0 0\n"
NAE22 = "2 2\n01\n10\n"
P0 = "2\n00 1/2\n11 1/2\n"
P1 = "2\n01 1/2\n10 1/2\n"
UNIQUE_L2_GAME = "1 1 2 2 1\n0 0 1 0\n"
DECODE_GAME = "2 3 2 2 1\n0 0 0 1\n0 1 1 0\n1 1 0 1\n1 2 1 0\n"
DECODE_TABLES = (
    "3 16 2\n0 1110010011000110\n1 0000000111001100\n2 1110110100010110\n"
)
PIPELINE = ("reduce", "sample", "witness", "fraction", "reject-id")

# source name -> game text, labeling or tables file, tests, eps per test
# (t2, t3), commands
SOURCES = {
    "unique": (UNIQUE_GAME, "0 0 0 0\n", ("t1", "t2", "t3"),
               {"t2": "1/4", "t3": "1/3"}, PIPELINE),
    "dto1": (DTO1_GAME, "0 1\n", ("t2", "t3"), {"t2": "1/3", "t3": "1/4"},
             PIPELINE),
    "unique_l2": (UNIQUE_L2_GAME, "0 0\n", ("t1", "t3"), {"t3": "1/4"},
                  ("reduce", "sample")),
    "decode": (DECODE_GAME, DECODE_TABLES, ("t1", "t2", "t3"), {},
               ("decode",)),
}


def _test_args(test, eps):
    if test == "t1":
        return ["--predicate", "nae22.pred", "--a", "01"]
    if test == "t2":
        return ["--p0", "p0.dist", "--p1", "p1.dist", "--eps", eps[test]]
    return ["--eps", eps[test]]


DECODE_ARGS = {"t1": ["--tau", "1/4", "--d", "2"], "t2": ["--gamma", "1/3"],
               "t3": []}


def _call(cmd, t, eps):
    """(argv, files written) of one command on test t."""
    if cmd == "reduce":
        return (["reduce", t, "--source", "game.lc", "--out", t + ".csp"]
                + _test_args(t, eps), (t + ".csp", t + ".csp.pred"))
    if cmd == "sample":
        return (["reduce", t, "--source", "game.lc", "--sample", "40",
                 "--seed", "5", "--out", t + ".sample.csp"]
                + _test_args(t, eps),
                (t + ".sample.csp", t + ".sample.csp.pred"))
    if cmd == "witness":
        return (["witness", t, "--source", "game.lc", "--labelings",
                 "lab.txt", "--out", t + ".witness"] + _test_args(t, eps),
                (t + ".witness",))
    if cmd == "decode":
        return (["decode", t, "--source", "game.lc", "--tables", "lab.txt",
                 "--seed", "3", "--out", t + ".lab"] + DECODE_ARGS[t],
                (t + ".lab",))
    return ([cmd, t + ".csp", "--predicate", t + ".csp.pred",
             "--assignments", t + ".witness"], ())


def _calls(tests, eps, commands):
    """(call name, argv, files the call writes), in run order."""
    return [("%s %s" % (cmd, t),) + _call(cmd, t, eps)
            for t in tests for cmd in commands]


def golden_digests(name, workdir):
    """Digest of every stdout and written file of one source's calls, keyed
    `call stdout` or `call file`."""
    game, labeling, tests, eps, commands = SOURCES[name]
    for fname, text in (("game.lc", game), ("lab.txt", labeling),
                        ("nae22.pred", NAE22), ("p0.dist", P0),
                        ("p1.dist", P1)):
        (workdir / fname).write_text(text, encoding="utf-8")
    digests = {}
    for call, argv, written in _calls(tests, eps, commands):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, call
        digests[call + " stdout"] = _sha256(out.getvalue().encode("utf-8"))
        for fname in written:
            digests["%s %s" % (call, fname)] = _sha256(
                (workdir / fname).read_bytes())
    return digests


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


GOLDEN = {
    'unique_l2': {
        'reduce t1 stdout':
            'f9b2f125817d42f2a9895ed8d1c985302ce46030e33bc087129c1ed9517198a4',
        'reduce t1 t1.csp':
            'f45a5843decdaeb7439225ed406fd9c13a619306ed4a6ac7a9c22aa1ce6830f1',
        'reduce t1 t1.csp.pred':
            '0141b9d9091ac9caf42810aa580352b9d13ce9e31b034e6cf8ab2a8f6ea5aec0',
        'reduce t3 stdout':
            '8b8433b6f616303c17cd27acde4d84d53e11950d0f86c12bf337d6b6c5f52002',
        'reduce t3 t3.csp':
            'd371064dea6aa7a188d724666a8affb4b1f19dcc873a0c6ebbff5c14c13a5f60',
        'reduce t3 t3.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'sample t1 stdout':
            '1301ca5520920db5ebfc91575be37aded6814b19b10cb197596a3752f37ab965',
        'sample t1 t1.sample.csp':
            '173679191488d01cae9d7204d05e7dffc59d8833ef6669062d9547569640a931',
        'sample t1 t1.sample.csp.pred':
            '0141b9d9091ac9caf42810aa580352b9d13ce9e31b034e6cf8ab2a8f6ea5aec0',
        'sample t3 stdout':
            'eb1b9a6b81846d25ec87177984826b6a9cbdb57c6b49c8cf09b644a7c1025821',
        'sample t3 t3.sample.csp':
            '889b56a2d8e3de1e112a1ce4e9c408b63edffad2cd3d50b5cd2404976f4305cb',
        'sample t3 t3.sample.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
    },
    'decode': {
        'decode t1 stdout':
            'bf4cafeac90dd720fe51e2e04fa4ba93c5ad010fbdb31c625cd0f52a7b289038',
        'decode t1 t1.lab':
            '1dfa227e4a458ad4048daa8124810eee153f6dec05ce40e600f83c37e297423a',
        'decode t2 stdout':
            '8ea0dd491f592949d40bb6db42d47550826c9daec248a91c91b7fb70ab6f903e',
        'decode t2 t2.lab':
            'bbc0d742c16a495ee6a5ba3a3b0ad00d0f18a42ba8b8d347fe983618822e4e26',
        'decode t3 stdout':
            '5306358836d69e54e2e646c5adad536dc02612f8bacd8e75bdc1d485534673de',
        'decode t3 t3.lab':
            '4940dffa4f2a7a7899794915ce5d6cca1bf6c61c5efe4c26787fdb285a3e807f',
    },
    'dto1': {
        'fraction t2 stdout':
            '0b906e397df372cc0571103d0ca0da321719c54b109e182d67026c2d72b4df98',
        'fraction t3 stdout':
            '437810bc8e6063d3eec52dbea2bc93372b1ea4128fb29a3cdd30e972288d8cdd',
        'reduce t2 stdout':
            'f66eb7277a36a5f26462ebabf5b9b892f59d4f602b4707dcb09360e0aa08e9c5',
        'reduce t2 t2.csp':
            '9cd4d38356fd7ff86a6e0ec5c88b143d018c1a33efcd81a19c721b2543d4d8cd',
        'reduce t2 t2.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'reduce t3 stdout':
            '1bea035005f7a8fcb93bf96e86c6f6cfcd9e764ae62d42ceee1a812d86a8419a',
        'reduce t3 t3.csp':
            '4074c0c4d03832d37fbdae5f58f412d1aad9871e8ed5badd28ab132b76fba22f',
        'reduce t3 t3.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'reject-id t2 stdout':
            '013ebaee1551b7b48846246fa938a8eaa20797836605f313494f5b86342c0cbb',
        'reject-id t3 stdout':
            '0ea674f02b21a7598f4a1bf5b5e203c452bb26a725c9e9334797be29bd1d8fc7',
        'sample t2 stdout':
            '56182d3569c6c7208fbdb8a4851f5c4978f2f475caea9d7f905b14e2998913df',
        'sample t2 t2.sample.csp':
            '05465f842bc1c7aa424de86478ce2997c830d82210aad299fbe85b4a6d6c101d',
        'sample t2 t2.sample.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'sample t3 stdout':
            'eb1b9a6b81846d25ec87177984826b6a9cbdb57c6b49c8cf09b644a7c1025821',
        'sample t3 t3.sample.csp':
            '04b8a2561fc76a6a88df6df93d1424f598316342b85ded5dffec3d6f08e04888',
        'sample t3 t3.sample.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'witness t2 stdout':
            '70f484b2333864f2cc76b2264c103f361a42f199dd75289f981e82a3603e7f71',
        'witness t2 t2.witness':
            '82d0a8789b62b99814cd57989894eac34d805f1450b57907a81d854c4f8958ef',
        'witness t3 stdout':
            '4151aaee7f5a5916ae1eea101b88b47a175d889fe0ed711797813736e1d4d593',
        'witness t3 t3.witness':
            '82d0a8789b62b99814cd57989894eac34d805f1450b57907a81d854c4f8958ef',
    },
    'unique': {
        'fraction t1 stdout':
            '6d208c9cf383c32f1f3e4c495f6c98acd5271d342751f6bb6d5f3349bbb4d5c3',
        'fraction t2 stdout':
            '0b906e397df372cc0571103d0ca0da321719c54b109e182d67026c2d72b4df98',
        'fraction t3 stdout':
            '437810bc8e6063d3eec52dbea2bc93372b1ea4128fb29a3cdd30e972288d8cdd',
        'reduce t1 stdout':
            '522845a6fb4c44e3abded592e5d7464e873b39f225b1a67928b29bb91f1d5ef4',
        'reduce t1 t1.csp':
            '66d7899c6f226d6766ed94cca1ad6727493d43f8282ec855101fe9d0576c99da',
        'reduce t1 t1.csp.pred':
            '0141b9d9091ac9caf42810aa580352b9d13ce9e31b034e6cf8ab2a8f6ea5aec0',
        'reduce t2 stdout':
            'c3457d45a9eded5aae3fe795bf61f0f409fa822a9fc577cee2dd0d0fe53f9dad',
        'reduce t2 t2.csp':
            'ab8887a5e556fefbe2d0b9d9e4f1684f1f0f7500bb799c49fcc04b43ecb13f4d',
        'reduce t2 t2.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'reduce t3 stdout':
            '230c9927f78baaa60c8485738631131c0f82166646d335af8caa95e03c484029',
        'reduce t3 t3.csp':
            '0a3a3881b82205233b9e3dff5579119b9f0879cae8b105b8fb435a3ef5dd3c05',
        'reduce t3 t3.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'reject-id t1 stdout':
            'a56d9c8847e40cce7833e20e67c2f93a0d9e18e1ee627294a2611b604012618d',
        'reject-id t2 stdout':
            'ef6b0a2da2ab1ab30956a8f92cf993c8a3635dc1c73cb6a9856733a6a04fa7e4',
        'reject-id t3 stdout':
            'a832418444da7da98afd22ac13033ee1f5b27e8fdf037b30bb0d6ad229cb4540',
        'sample t1 stdout':
            '2e9cb3d8bc4b77847adb34c11141ae4cba21af767c820099859782893ec4d84c',
        'sample t1 t1.sample.csp':
            '2a27bb90637e9140dee12cd81a098a8a025d6e937a1f0fc2003194613f556c53',
        'sample t1 t1.sample.csp.pred':
            '0141b9d9091ac9caf42810aa580352b9d13ce9e31b034e6cf8ab2a8f6ea5aec0',
        'sample t2 stdout':
            '3f87a4a53d1fade5c87abc2ef27a291b50eb4b55d8b35031bb0250d67b0b96f5',
        'sample t2 t2.sample.csp':
            'a98b15337951b96d967979c81e4e9ea3c559ffbf878664310e0f3b4b4df7641f',
        'sample t2 t2.sample.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'sample t3 stdout':
            '5dbd09d95a6dd9bca0a69985ead908be36459b4f827601e8db74e805ba5da163',
        'sample t3 t3.sample.csp':
            'fecafee170b5b9f15271cdff93a61d6fa950a80b5dd56d7c9bd287e119347fef',
        'sample t3 t3.sample.csp.pred':
            '384593a9d573ece83d1d68681f2a5a3b274f8881ada22688935290d9d0216de5',
        'witness t1 stdout':
            '675c183b0fa777d53f89112b5fb65983a4ac15afd5d08410bde970c912ff3d80',
        'witness t1 t1.witness':
            '35bd998c9c36effcb6451154044ada0bed349bd15db568cdb1ab84037aa5756e',
        'witness t2 stdout':
            'b84ac25556f77b75adfa801225896025ae874eb328892fd4566ccb58fe35a35b',
        'witness t2 t2.witness':
            '35bd998c9c36effcb6451154044ada0bed349bd15db568cdb1ab84037aa5756e',
        'witness t3 stdout':
            'dab2988edf2f20ddb02e094e0a569a4ccb11abb1f09238b87230dd64dd88688d',
        'witness t3 t3.witness':
            '35bd998c9c36effcb6451154044ada0bed349bd15db568cdb1ab84037aa5756e',
    },
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_golden_outputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert golden_digests(name, tmp_path) == GOLDEN[name]
