"""Every sampled constraint lies in the exact support of its test.

`sample_t1/t2/t3` draw queries from the same definition of each test that
`generate_t1/t2/t3` enumerate; these tests pin that every sampled
(vars, literals) key appears in the exact instance, on small unique and
d = 2 sources and several seeds, and that a sampler refuses a source the
generator refuses, whatever the seed.
"""

import functools

import pytest

from cspcover import (
    LabelCoverInstance,
    PreconditionError,
    T1Params,
    T2Params,
    T3Params,
    generate_t1,
    generate_t2,
    generate_t3,
    lin,
    nae,
    sample_t1,
    sample_t2,
    sample_t3,
    synthesize,
)

from cspcover.cli import main

from test_reductions_t2 import P0, P1

# name -> synthesize arguments
SOURCES = {
    "unique-1": dict(kind="unique-consistent", nu=2, nv=2, nlabels_u=1,
                     nlabels_v=1, seed=3),
    "unique-2": dict(kind="unique-consistent", nu=1, nv=2, nlabels_u=2,
                     nlabels_v=2, seed=4),
    "dto1": dict(kind="dto1-random", nu=1, nv=1, nlabels_u=1, nlabels_v=2,
                 seed=5),
}

TESTS = {
    "t1": (lambda g: T1Params(nae(2, 2), (0, 1), g), generate_t1, sample_t1),
    "t2": (lambda g: T2Params(lin(4), P0, P1, "1/3", g), generate_t2,
           sample_t2),
    "t3": (lambda g: T3Params("1/4", g), generate_t3, sample_t3),
}

CASES = [
    ("t1", "unique-1"), ("t1", "unique-2"),
    ("t2", "unique-1"), ("t2", "dto1"),
    ("t3", "unique-1"), ("t3", "dto1"),
]


@functools.cache
def exact_keys(test, source):
    make, generate, _ = TESTS[test]
    inst = generate(make(synthesize(**SOURCES[source])))
    return frozenset((c.vars, c.literals) for c in inst.constraints)


@pytest.mark.parametrize("test,source", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sampled_keys_lie_in_the_exact_support(test, source, seed):
    make, _, sample = TESTS[test]
    inst = sample(make(synthesize(**SOURCES[source])), 150, seed)
    keys = {(c.vars, c.literals) for c in inst.constraints}
    assert keys <= exact_keys(test, source)


# Left vertex 1 has no incident edges; `LabelCoverInstance` allows that.
ISOLATED = "left vertex 1 has no incident edges"


def isolated_source():
    return LabelCoverInstance(2, 1, 1, 1, [(0, 0, [0])], unique=True)


@pytest.mark.parametrize("test", sorted(TESTS))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_samplers_refuse_an_isolated_left_vertex(test, seed):
    make, generate, sample = TESTS[test]
    params = make(isolated_source())
    with pytest.raises(PreconditionError, match=ISOLATED):
        generate(params)
    with pytest.raises(PreconditionError, match=ISOLATED):
        sample(params, 1, seed)


CLI_ARGS = {
    "t1": ["--predicate", "nae22.pred", "--a", "01"],
    "t2": ["--p0", "p0.dist", "--p1", "p1.dist", "--eps", "1/4"],
    "t3": ["--eps", "1/4"],
}


@pytest.mark.parametrize("test", sorted(CLI_ARGS))
@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_reduce_sample_exits_three_on_an_isolated_left_vertex(
    test, seed, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    for name, text in (("game.lc", "2 1 1 1 1\n0 0 0\n"),
                       ("nae22.pred", "2 2\n01\n10\n"),
                       ("p0.dist", "2\n00 1/2\n11 1/2\n"),
                       ("p1.dist", "2\n01 1/2\n10 1/2\n")):
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = ["reduce", test, "--source", "game.lc", "--out", "x.csp"]
    for extra in ([], ["--sample", "1", "--seed", seed]):
        assert main(argv + extra + CLI_ARGS[test]) == 3
        assert ISOLATED in capsys.readouterr().err
