"""Golden outputs of the CLI commands, pinned byte for byte.

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

The label-cover commands are pinned the same way: `lc-gen` for each of the
four kinds, `lc-sat`, and `lc-cover` at c = 1, 2 and 3 on generated games,
on a game with an isolated left vertex and on one without edges. Their
digests were recorded before the c-cover search became iterative.

The analysis commands are pinned on stdout: `fourier` (coefficients and
influences) on a rational and a sign table, and `invariance` on a coupled
space with a non-uniform side, at one and three blocks. Their digests were
recorded before the influences moved to the variance form and the capped
Efron-Stein split.

The searches are pinned through `cover --max-c 4` (stdout and witness file)
and `mis` (stdout) on a 7-vertex NAE(2,2) graph, a NAE(3,2) instance with 9
variables, shifted literals and mixed weights, and the `reduce t1` and
`reduce t3` outputs of one unique game. Their digests were recorded before
the coverage masks were computed from bit-parallel leaf sets.

`lc-smooth` (four label sets on a hand-written game) and `connected` (a
connected and a disconnected space) are pinned on stdout. Their digests
were recorded before integer arguments were read through `errors`.
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


# Games written by hand; the others come from the `lc-gen` calls of LC_GEN,
# which run first.
LC_GAMES = {
    "isolated.lc": "3 2 2 2 1\n0 0 0 1\n1 1 1 0\n",
    "edgeless.lc": "2 1 1 1 0\n",
}
LC_GEN = {
    "consistent": "unique-consistent --nu 3 --nv 3 --labels-u 3 "
                  "--labels-v 3 --seed 7",
    "two-cover": "unique-2-cover --nu 4 --nv 2 --labels-u 3 --labels-v 3 "
                 "--seed 5",
    "random": "dto1-random --nu 2 --nv 3 --labels-u 2 --labels-v 4 "
              "--degree 2 --seed 3",
    "contradictory": "dto1-contradictory --nu 2 --nv 2 --labels-u 2 "
                     "--labels-v 4 --seed 11",
}


def _lc_calls():
    """(call name, argv, files the call writes), in run order."""
    calls = [("lc-gen " + name,
              ["lc-gen", "--kind"] + args.split() + ["--out", name + ".lc"],
              (name + ".lc",))
             for name, args in LC_GEN.items()]
    for game in ("consistent", "contradictory"):
        calls.append(("lc-sat " + game,
                      ["lc-sat", game + ".lc", "--out", game + ".sat"],
                      (game + ".sat",)))
    for game, cs in (("two-cover", (1, 2, 3)), ("contradictory", (1, 2)),
                     ("random", (1, 2)), ("isolated", (1, 2)),
                     ("edgeless", (1, 3))):
        for c in cs:
            out = "%s.c%d" % (game, c)
            calls.append(("lc-cover %s --c %d" % (game, c),
                          ["lc-cover", game + ".lc", "--c", str(c), "--out",
                           out], (out,)))
    return calls


def lc_golden_digests(workdir):
    """Digest of every stdout and written file of the label-cover calls;
    a file a call leaves unwritten digests as `absent`."""
    for fname, text in LC_GAMES.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    digests = {}
    for call, argv, written in _lc_calls():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, call
        digests[call + " stdout"] = _sha256(out.getvalue().encode("utf-8"))
        for fname in written:
            path = workdir / fname
            digests["%s %s" % (call, fname)] = (
                _sha256(path.read_bytes()) if path.exists() else "absent")
    return digests


# Analysis inputs: a 5-variable rational table and a 4-variable sign table
# for `fourier`; for `invariance`, a space with two rows per side whose
# left coordinates are 1 with probability 1/3 and whose right coordinates
# are uniform, coupled half way (pairwise marginals factorize), with value
# files for one and three blocks.
RATIONAL_TABLE = "5\n" + "\n".join((
    "-1/5 1/3 0 1 0 -3/2 -2 -2/3 2 5/7 -2 3 1 -3 6/7 4 "
    "1/5 1 -1 -1/3 0 -1/5 0 2 1 3 -2 6 2/3 -3/5 -4/3 -2/3").split()) + "\n"
SIGN_TABLE = "4\n" + "".join(
    "1\n" if c == "+" else "-1\n" for c in "--++-+--+-+-+-++")
COUPLED_SPACE = (
    "2 2 2 2\n"
    "00 00 14/81\n00 01 4/81\n00 10 4/81\n00 11 14/81\n"
    "01 00 5/162\n01 01 13/162\n01 10 13/162\n01 11 5/162\n"
    "10 00 5/162\n10 01 13/162\n10 10 13/162\n10 11 5/162\n"
    "11 00 7/162\n11 01 1/81\n11 10 1/81\n11 11 7/162\n"
)
ANALYSIS_FILES = {
    "rational.tt": RATIONAL_TABLE,
    "sign.tt": SIGN_TABLE,
    "coupled.sp": COUPLED_SPACE,
    "f1.vals": "1\n-1/3\n",
    "g1.vals": "1/2\n-1\n",
    "f3.vals": "-1/4\n1/2\n1/4\n-1\n1\n-1\n1/2\n1/4\n",
    "g3.vals": "0\n1/3\n2/3\n1\n1\n2/3\n2/3\n1\n",
}
ANALYSIS_CALLS = {
    "fourier rational": ["fourier", "rational.tt"],
    "fourier sign": ["fourier", "sign.tt"],
    "invariance --blocks 1": ["invariance", "coupled.sp", "--blocks", "1",
                              "--f", "f1.vals", "--g", "g1.vals"],
    "invariance --blocks 3": ["invariance", "coupled.sp", "--blocks", "3",
                              "--f", "f3.vals", "--g", "g3.vals"],
}


def analysis_golden_digests(workdir):
    """Digest of the stdout of every analysis call."""
    for fname, text in ANALYSIS_FILES.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    digests = {}
    for call, argv in ANALYSIS_CALLS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, call
        digests[call + " stdout"] = _sha256(out.getvalue().encode("utf-8"))
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


GOLDEN_LC = {
    'lc-cover contradictory --c 1 contradictory.c1':
        'absent',
    'lc-cover contradictory --c 1 stdout':
        '33d7245476a548f6bcbaafe31732748d8a17c7342d096c3663eb4374865d36f5',
    'lc-cover contradictory --c 2 contradictory.c2':
        'b7732881a527a9702aa9cf2b81154d56b88f1a25633c72ddd34a251644fb360c',
    'lc-cover contradictory --c 2 stdout':
        'fd35e838ac74204b3197d413b77d7a0fb30b4896f832e1af2b296dbe756a6abb',
    'lc-cover edgeless --c 1 edgeless.c1':
        'a17138988e1387532b5cb0bd7a23f18a11d537123873e67154dada3c6359e53e',
    'lc-cover edgeless --c 1 stdout':
        '16feff0c5ff78f26fd3ad096639e9f4a4c44d6e3998b6038b074eeedf4547a68',
    'lc-cover edgeless --c 3 edgeless.c3':
        'bfde8a91c78e9f9f2c9947fc81a1f1fea18b0b23788c2913cbeed0564d6c7ddc',
    'lc-cover edgeless --c 3 stdout':
        '87d75f5cffcf99b2958abfe0bcc4d656a9d2d1293d41a7bee69d4ef631122211',
    'lc-cover isolated --c 1 isolated.c1':
        'b17d810e3dccccab156d8955271616d58bb4d7511ba1ad86916cecc81deeb41e',
    'lc-cover isolated --c 1 stdout':
        'fcb5479f31676475ea450df13e83d71781e67b48f8332225fabe4d7a3b00de75',
    'lc-cover isolated --c 2 isolated.c2':
        'f0568787c74b4198055e44272ff3bb84b18d7180b5eaeaa825481a026e79afed',
    'lc-cover isolated --c 2 stdout':
        'b354c902da29989673e98817b4a2eb88db0dd5cd32d6ead3f36efab74e7900a3',
    'lc-cover random --c 1 random.c1':
        'b17d810e3dccccab156d8955271616d58bb4d7511ba1ad86916cecc81deeb41e',
    'lc-cover random --c 1 stdout':
        '02d3269183f5281fc3963f8024d44ec599dc7be48499c1efb36ee205f657b700',
    'lc-cover random --c 2 random.c2':
        'f0568787c74b4198055e44272ff3bb84b18d7180b5eaeaa825481a026e79afed',
    'lc-cover random --c 2 stdout':
        '17cd5eb78fcc18da2b20a07b01cfa08c169aaf3659e45b5b3812c244bceb8326',
    'lc-cover two-cover --c 1 stdout':
        'b2a6e6c25caa8594303cdafd96702ad6efd938e91f446fdb593f315a4bbfc094',
    'lc-cover two-cover --c 1 two-cover.c1':
        'absent',
    'lc-cover two-cover --c 2 stdout':
        '5a7c6cc3762652533fad7bcbe3cc64bf184855a3b56b76c932b16496227c2c22',
    'lc-cover two-cover --c 2 two-cover.c2':
        'db79b9386d9cf42113dfcd704792cf1f2025334220fc03f977c67496e28880a1',
    'lc-cover two-cover --c 3 stdout':
        '4372e0b7520499c67227df2959eca9e4a74fd5d74d4f2badf332d4b05e3ad5ad',
    'lc-cover two-cover --c 3 two-cover.c3':
        'b4bd3f40b812802fb059aa78d96298f14e9b13fb1ae3a6022270e4e830515476',
    'lc-gen consistent consistent.lc':
        '174fe10e353c4cea8f6de9de81b04290c2e536e0b513357864805fbee4f9aa9d',
    'lc-gen consistent stdout':
        'cf0cb5493bebe7be3d0510760f60745be9357de003643d3095ddffbb8aee7566',
    'lc-gen contradictory contradictory.lc':
        '42e0f7ea1cdacd269c0693cbede8fb747067eedc7d208686b4950305e2da08a6',
    'lc-gen contradictory stdout':
        '58d1cc4ef1c6d13265e3070fa2ab3b3aed51fe647643048f8f9516c5677923ce',
    'lc-gen random random.lc':
        'a37281c3edc0c046bdb1be61959ef1d7a3212cb31754fa1b1af2f8baf23e523b',
    'lc-gen random stdout':
        'bee5ee0d26cbe5d31a52919593a611921f3ae1849d1a79bf225ec30c2f02e525',
    'lc-gen two-cover stdout':
        '0ff60e8aa9c0393c0f644f2f8916b2f57317d106f682daf59158c6daba302105',
    'lc-gen two-cover two-cover.lc':
        '65633b24d5491fc2be17d8b4b701d400422169742fc84cfbda8b2b3596fc6562',
    'lc-sat consistent consistent.sat':
        'dfa4c0597b297fbd52a9fd3d545c41b8ebdd74d34f8bd723ce96cc3585a73a29',
    'lc-sat consistent stdout':
        'ccaab29ed7abe4c02ec680ff559339efdc740104aaee9e21046a709f3b7c1b67',
    'lc-sat contradictory contradictory.sat':
        'c5bea6d5172950ed3fc3f0433afd51fc1913e545f5dd34c849c65dc166209a00',
    'lc-sat contradictory stdout':
        '0eec9f7f1c72368e5a9fd217c84aec5820966523d16cd1a1bff4879abda6b131',
}


def test_golden_label_cover_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert lc_golden_digests(tmp_path) == GOLDEN_LC


GOLDEN_ANALYSIS = {
    'fourier rational stdout':
        '912377820857a8f1bd704d0f13b280c01c4c95a5c6717f877acf172725b8cb46',
    'fourier sign stdout':
        '04c7fced8d250b492f33abaf5a0f1ef2efd3db38ad81d13cf1d43deebf5f77b0',
    'invariance --blocks 1 stdout':
        'c5b636da8a488c4d62824ba58fec984aa7578f373f8446703e70b3974deb0b0d',
    'invariance --blocks 3 stdout':
        'fa5bc36c181fea0cb0bbbf7043ddddde1a60ae35490694e66553ab3336d044dc',
}


def test_golden_analysis_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert analysis_golden_digests(tmp_path) == GOLDEN_ANALYSIS


# Search inputs: a 7-cycle with chords 0-3 and 2-5 under NAE(2,2), and a
# NAE(3,2) instance on 9 variables whose 3^8 leaves span several blocks;
# `t1` and `t3` are generated from one unique game by the prep calls.
NAE32 = "3 2\n01\n02\n10\n12\n20\n21\n"
GRAPH7 = "2 2 7 9\n" + "".join(
    "%d %d 00 1\n" % e
    for e in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (0, 3),
              (2, 5)))
NAE32_INSTANCE = "3 2 9 24\n" + "\n".join((
    "0 1 00 1|0 2 00 2/3|0 4 00 1/2|0 5 01 2/3|0 6 02 1|0 7 01 1|0 8 00 2/3|"
    "1 2 02 1/2|1 3 00 1|1 5 01 1/2|1 6 00 1|1 7 00 2/3|2 3 00 1|2 4 00 1|"
    "2 6 01 2/3|2 7 00 2/3|2 8 02 1|3 4 01 2/3|3 7 00 1/2|4 5 01 1|4 6 00 1|"
    "4 7 01 2/3|4 8 01 2/3|5 8 00 1").split("|")) + "\n"
SEARCH_FILES = {"nae22.pred": NAE22, "nae32.pred": NAE32,
                "graph7.csp": GRAPH7, "nae32.csp": NAE32_INSTANCE}
SEARCH_PREP = (
    ["lc-gen", "--kind", "unique-consistent", "--nu", "2", "--nv", "3",
     "--labels-u", "1", "--labels-v", "1", "--seed", "7", "--out", "game.lc"],
    ["reduce", "t1", "--source", "game.lc", "--predicate", "nae22.pred",
     "--a", "01", "--out", "t1.csp"],
    ["reduce", "t3", "--source", "game.lc", "--eps", "1/4", "--out",
     "t3.csp"],
)
# input name -> (instance file, predicate file)
SEARCH_INPUTS = {
    "graph7": ("graph7.csp", "nae22.pred"),
    "nae32": ("nae32.csp", "nae32.pred"),
    "t1": ("t1.csp", "t1.csp.pred"),
    "t3": ("t3.csp", "t3.csp.pred"),
}


def search_golden_digests(workdir):
    """Digest of the stdout and witness file of `cover` and the stdout of
    `mis` on each search input."""
    for fname, text in SEARCH_FILES.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    for argv in SEARCH_PREP:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    digests = {}
    for name, (inst, pred) in SEARCH_INPUTS.items():
        witness = name + ".cover"
        for call, argv in (
                ("cover", ["cover", inst, "--predicate", pred, "--max-c", "4",
                           "--out", witness]),
                ("mis", ["mis", inst, "--predicate", pred])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code == 0, (call, name)
            digests["%s %s stdout" % (call, name)] = _sha256(
                out.getvalue().encode("utf-8"))
        digests["cover %s %s" % (name, witness)] = _sha256(
            (workdir / witness).read_bytes())
    return digests


GOLDEN_SEARCH = {
    'cover graph7 graph7.cover':
        '6da51d3125c2d833f2dda40629c271e090cc18081969875851febbbd2cad5814',
    'cover graph7 stdout':
        'f724e9b3a0db73928a0999654ac3384f2d36e9b250e535e60ef37123f2f84235',
    'cover nae32 nae32.cover':
        '6eee93435cbd7703a3249f527f851af119fd3047bd8cbcb617cc7188d8bc2644',
    'cover nae32 stdout':
        '1120c945a485ebdb8f041f3cde2b5557f463b6a4ad6d50db8242df7964b9f9d6',
    'cover t1 stdout':
        '5ce925fa8de7fbcb65386abb21437f97b73570044e9ecefb544698d1f75581d9',
    'cover t1 t1.cover':
        '804a47adbff8ce938cd0420cb8b3286ac7b33e1186d57c307af7042dbc61df8a',
    'cover t3 stdout':
        'fce00840f9a16545195c6060e40cb75e69543bfee543a423acd3d7c81ab07039',
    'cover t3 t3.cover':
        '70cad16dcf08fa191707135829eefc24b6f56a915d7f6588753f6e050fa6fb4a',
    'mis graph7 stdout':
        'ddd0ad556eb552a9e362980d3b9908faf842ab5efbcc867c6f8740099c6c3065',
    'mis nae32 stdout':
        'deab38fa0d75479975a69665fad892e9e550dc21a56f18567467026463ce124c',
    'mis t1 stdout':
        '27121ba8e221d8157d6183e28889963f3713d556c2b40d17d4c37de2d2a1118f',
    'mis t3 stdout':
        'f9f74c9104ecc8ffa09713117fac4d913a3183a9580209d35ba612c46826bb1a',
}


def test_golden_search_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert search_golden_digests(tmp_path) == GOLDEN_SEARCH


# `lc-smooth` on a hand-written 3 + 2 vertex game with L = 2 and R = 4
# whose right vertices see three and two edges, and `connected` on the
# coupled space above and on a space whose two atoms differ in every
# coordinate. Their digests were recorded before the integer arguments were
# read through `errors`.
SMOOTH_GAME = ("3 2 2 4 0\n0 0 0 0 1 1\n1 0 0 1 0 1\n2 0 1 1 0 0\n"
               "0 1 0 1 1 0\n2 1 1 0 0 1\n")
SPLIT_SPACE = "2 2 2 2\n00 00 1/2\n11 11 1/2\n"
MISC_FILES = {"smooth.lc": SMOOTH_GAME, "coupled.sp": COUPLED_SPACE,
              "split.sp": SPLIT_SPACE}
MISC_CALLS = {
    "lc-smooth 0 0,1": ["lc-smooth", "smooth.lc", "--vertex", "0",
                        "--alpha", "0,1"],
    "lc-smooth 0 3,1,2,0": ["lc-smooth", "smooth.lc", "--vertex", "0",
                            "--alpha", "3,1,2,0"],
    "lc-smooth 1 2,2,": ["lc-smooth", "smooth.lc", "--vertex", "1",
                         "--alpha", "2,2,"],
    "lc-smooth 1 0,3 machine": ["lc-smooth", "smooth.lc", "--vertex", "1",
                                "--alpha", "0,3", "--format", "machine"],
    "connected coupled": ["connected", "coupled.sp"],
    "connected split": ["connected", "split.sp"],
}


def misc_golden_digests(workdir):
    """Digest of the stdout of every `lc-smooth` and `connected` call."""
    for fname, text in MISC_FILES.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    digests = {}
    for call, argv in MISC_CALLS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, call
        digests[call + " stdout"] = _sha256(out.getvalue().encode("utf-8"))
    return digests


GOLDEN_MISC = {
    'connected coupled stdout':
        '6708dde4e6130c7270cef7556c3da4d9fc26e9a17f39ae6e7ce5e0f079f690bf',
    'connected split stdout':
        'bb56aecaa64854296a21f189306b85f7abd294a82fadbaa4954846f4d5f7e95f',
    'lc-smooth 0 0,1 stdout':
        'c4ca1dbad5fb89484fbe8b608007fe3b565cb69fc594f16be5d8453c9339ad89',
    'lc-smooth 0 3,1,2,0 stdout':
        '1ab25cfdeb3e5fd51a6ebaa170bb471dd4dc2f03b08831a6a2a098a9c00cd3c1',
    'lc-smooth 1 0,3 machine stdout':
        '7a64aaa317e35d664fa929862d24becb1b4a4a4bad67f5624ed676313f4650c8',
    'lc-smooth 1 2,2, stdout':
        'c40a71c8cbad683320b5e308275afdba1a3806380ff5b5a207819aa0b3d5ef0d',
}


def test_golden_smoothness_and_connectivity_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert misc_golden_digests(tmp_path) == GOLDEN_MISC
