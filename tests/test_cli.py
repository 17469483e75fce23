"""End-to-end tests of the command-line interface.

Every test drives ``cspcover.cli.main`` in-process with an explicit argv and
inspects the integer exit status plus the captured stdout/stderr. Fixture
files are produced with the same text formats the commands consume, so these
tests also exercise the parse/format round trip under realistic use.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cspcover import (
    CspInstance,
    Edge,
    LabelCoverInstance,
    Labeling,
    ProductDomain,
    T1Params,
    TabulatedFunction,
    lin,
    nae,
    synthesize,
    t1_dictator_tables,
)
from cspcover import cli, reductions, textio
from cspcover.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_of(out, key):
    """The rendered value of the unique `key = value` line."""
    hits = [
        line[len(key) + 3 :]
        for line in out.splitlines()
        if line.startswith(key + " = ")
    ]
    assert len(hits) == 1, "expected one %r line, got %r" % (key, hits)
    return hits[0]


def keys_of(out):
    return [line.split(" = ")[0] for line in out.splitlines()]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def triangle_files(tmp_path):
    """A 3-cycle of not-all-equal pairs plus its predicate file."""
    pred = nae(2, 2)
    inst = CspInstance(
        pred,
        range(3),
        [((0, 1), (0, 0), 1), ((1, 2), (0, 0), 1), ((0, 2), (0, 0), 1)],
    )
    return (
        write(tmp_path / "triangle.csp", textio.format_instance(inst)),
        write(tmp_path / "nae22.pred", textio.format_predicate(pred)),
    )


def identity_game(nlabels=2, nv=1):
    edges = [Edge(0, v, tuple(range(nlabels))) for v in range(nv)]
    return LabelCoverInstance(1, nv, nlabels, nlabels, edges, unique=True)


def game_file(tmp_path, game, name="game.lc"):
    return write(tmp_path / name, textio.format_labelcover(game))


def t2_files(tmp_path):
    """The --p0/--p1/--eps arguments of the second test, files written."""
    return (
        "--p0", write(tmp_path / "p0.dist", "2\n00 1/2\n11 1/2\n"),
        "--p1", write(tmp_path / "p1.dist", "2\n01 1/2\n10 1/2\n"),
        "--eps", "1/4",
    )


def product_space_file(tmp_path):
    quarter = "1/4"
    text = "2 1 2 1\n" + "\n".join(
        "%d %d %s" % (a, b, quarter) for a in (0, 1) for b in (0, 1)
    ) + "\n"
    return write(tmp_path / "product.space", text)


class TestOutputFormat:
    def test_cover_reports_a_minimum_pair(self, tmp_path, capsys):
        inst, pred = triangle_files(tmp_path)
        code, out, _ = run(capsys, "cover", inst, "--predicate", pred)
        assert code == 0
        assert value_of(out, "nu") == "2"
        first = value_of(out, "assignment:0")
        second = value_of(out, "assignment:1")
        assert len(first) == 3 and set(first) <= {"0", "1"}
        assert len(second) == 3 and set(second) <= {"0", "1"}
        assert "assignment:2" not in keys_of(out)

    def test_machine_format_uses_bare_equals(self, tmp_path, capsys):
        inst, pred = triangle_files(tmp_path)
        code, out, _ = run(
            capsys, "cover", inst, "--predicate", pred, "--format", "machine"
        )
        assert code == 0
        lines = out.splitlines()
        assert "nu=2" in lines
        assert "param.format=machine" in lines
        assert not any(" = " in line for line in lines)

    def test_parameters_echo_first_in_sorted_order(self, tmp_path, capsys):
        inst, pred = triangle_files(tmp_path)
        code, out, _ = run(capsys, "cover", inst, "--predicate", pred)
        assert code == 0
        assert out.splitlines()[:5] == [
            "param.command = cover",
            "param.format = human",
            "param.instance = %s" % inst,
            "param.max-c = 8",
            "param.predicate = %s" % pred,
        ]

    def test_byte_identical_output_for_identical_invocations(
        self, tmp_path, capsys
    ):
        out_path = str(tmp_path / "gen.lc")
        argv = (
            "lc-gen", "--kind", "dto1-random", "--nu", "2", "--nv", "2",
            "--labels-u", "2", "--labels-v", "4", "--seed", "11",
            "--out", out_path,
        )
        code1, out1, _ = run(capsys, *argv)
        bytes1 = (tmp_path / "gen.lc").read_bytes()
        code2, out2, _ = run(capsys, *argv)
        bytes2 = (tmp_path / "gen.lc").read_bytes()
        assert code1 == code2 == 0
        assert out1 == out2
        assert bytes1 == bytes2


class TestExitCodes:
    def test_budget_exhaustion_exits_two(self, tmp_path, capsys):
        inst, pred = triangle_files(tmp_path)
        code, _, err = run(
            capsys, "cover", inst, "--predicate", pred, "--budget", "1"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_input_exits_three(self, tmp_path, capsys):
        inst, _ = triangle_files(tmp_path)
        bad = write(tmp_path / "bad.pred", "not a predicate\n")
        code, _, err = run(capsys, "cover", inst, "--predicate", bad)
        assert code == 3
        assert err.startswith("error:")

    def test_missing_file_exits_three(self, tmp_path, capsys):
        inst, _ = triangle_files(tmp_path)
        code, _, err = run(
            capsys, "cover", inst, "--predicate", str(tmp_path / "absent")
        )
        assert code == 3
        assert err.startswith("error:")

    def test_internal_error_exits_four_with_one_line(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(args, em):
            raise RuntimeError("handler broke")

        monkeypatch.setattr(cli, "cmd_mis", broken)
        inst, pred = triangle_files(tmp_path)
        code, out, err = run(capsys, "mis", inst, "--predicate", pred)
        assert code == 4
        assert err == "error: internal: RuntimeError: handler broke\n"
        assert "Traceback" not in out + err

    def test_failed_guarantee_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            reductions, "covered_fractions",
            lambda assignments, inst: ([Fraction(0)] * len(assignments),
                                       Fraction(0)),
        )
        code, out, err = run(
            capsys, "witness", "t2", "--source",
            game_file(tmp_path, identity_game(nlabels=1)),
            *t2_files(tmp_path), "--labelings",
            write(tmp_path / "labs.txt", "0 0\n"),
        )
        assert code == 1
        assert err == "error: first witness covers less than 1-eps\n"

    def test_stray_arithmetic_error_exits_four(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(args, em):
            return 1 // 0

        monkeypatch.setattr(cli, "cmd_mis", broken)
        inst, pred = triangle_files(tmp_path)
        code, out, err = run(capsys, "mis", inst, "--predicate", pred)
        assert code == 4
        assert err == "error: internal: ZeroDivisionError: " \
            "integer division or modulo by zero\n"

    def test_stray_value_error_exits_four(
        self, tmp_path, capsys, monkeypatch
    ):
        # Only PreconditionError (a ValueError) means bad input.
        def broken(args, em):
            return int("x")

        monkeypatch.setattr(cli, "cmd_mis", broken)
        inst, pred = triangle_files(tmp_path)
        code, out, err = run(capsys, "mis", inst, "--predicate", pred)
        assert code == 4
        assert err == "error: internal: ValueError: " \
            "invalid literal for int() with base 10: 'x'\n"

    @pytest.mark.parametrize("nvars", [-3, 30_000_000])
    def test_out_of_range_header_count_exits_three_at_once(
        self, tmp_path, capsys, nvars
    ):
        _, pred = triangle_files(tmp_path)
        inst = write(tmp_path / "huge.csp", "2 2 %d 0\n" % nvars)
        start = time.perf_counter()
        code, out, err = run(capsys, "cover", inst, "--predicate", pred)
        assert time.perf_counter() - start < 1
        assert code == 3 and "nu = " not in out
        assert err == "error: line 1: variable and constraint counts must " \
            "lie in [0, 16777216]\n"

    def test_header_at_the_cap_without_constraints_exits_zero_at_once(
        self, tmp_path, capsys
    ):
        # 2^24 declared variables and no constraint: the variables stay a
        # range, so nothing is built per variable.
        _, pred = triangle_files(tmp_path)
        inst = write(tmp_path / "wide.csp", "2 2 16777216 0\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "cover", inst, "--predicate", pred,
                           "--budget", "10")
        assert time.perf_counter() - start < 1
        assert code == 0 and value_of(out, "nu") == "0"

    def test_huge_game_header_exits_two_at_once(self, tmp_path, capsys):
        # 2 M + 2 M declared vertices and one edge: only touched vertices
        # get adjacency lists.
        game = write(tmp_path / "huge.lc", "2000000 2000000 1 1 0\n0 0 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "lc-sat", game, "--budget", "10")
        assert time.perf_counter() - start < 1
        assert code == 2 and "value = " not in out
        assert err == "error: enumeration budget exceeded " \
            "(2000000 > 10 candidate evaluations)\n"

    def test_tables_header_without_rows_exits_three_with_one_line(
        self, tmp_path, capsys
    ):
        game = game_file(tmp_path, identity_game())
        tables = write(tmp_path / "tables.txt", "3000000 4 2\n")
        start = time.perf_counter()
        code, _, err = run(
            capsys, "decode", "t3", "--source", game, "--tables", tables,
            "--seed", "0",
        )
        assert time.perf_counter() - start < 1
        assert code == 3
        assert err == "error: missing tables for 3000000 of 3000000 " \
            "vertices, the first 0\n"

    @pytest.mark.parametrize("flag", ["--eps", "--tau", "--gamma"])
    def test_exponent_rationals_exit_three_at_once(self, tmp_path, capsys,
                                                   flag):
        # The flags read rationals as the file formats do, so an exponent
        # is refused before 10**3000000 is built.
        game = game_file(tmp_path, identity_game())
        argv = {
            "--eps": ["reduce", "t3", "--out", str(tmp_path / "r.csp")],
            "--tau": ["decode", "t1", "--tables", "t.txt", "--seed", "0"],
            "--gamma": ["decode", "t2", "--tables", "t.txt", "--seed", "0"],
        }[flag]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--source", game, flag,
                             "1e-3000000")
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err == "error: argument %s: bad rational '1e-3000000'\n" % flag

    @pytest.mark.parametrize("text", ["1/4", "0.25", " 2/8 "])
    def test_rational_flags_accept_fractions_and_decimals(self, tmp_path,
                                                          capsys, text):
        game = game_file(tmp_path, identity_game())
        code, out, _ = run(
            capsys, "reduce", "t3", "--source", game, "--eps", text,
            "--out", str(tmp_path / "r3.csp"),
        )
        assert code == 0
        assert value_of(out, "param.eps") == "1/4"

    def test_unknown_command_exits_three(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 3
        assert err.startswith("error:")

    def test_missing_required_flag_exits_three(self, tmp_path, capsys):
        inst, _ = triangle_files(tmp_path)
        code, _, err = run(capsys, "cover", inst)
        assert code == 3
        assert err.startswith("error:")

    def test_generation_requires_a_seed(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "lc-gen", "--kind", "unique-consistent", "--nu", "1",
            "--nv", "1", "--labels-u", "2", "--labels-v", "2",
            "--out", str(tmp_path / "g.lc"),
        )
        assert code == 3
        assert err.startswith("error:")

    def test_oversized_seed_exits_three(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "lc-gen", "--kind", "unique-consistent", "--nu", "1",
            "--nv", "1", "--labels-u", "2", "--labels-v", "2",
            "--seed", str(2 ** 64), "--out", str(tmp_path / "g.lc"),
        )
        assert code == 3
        assert err.startswith("error:")

    def test_sampling_without_a_seed_exits_three(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game())
        code, _, err = run(
            capsys, "reduce", "t3", "--source", game, "--eps", "1/4",
            "--sample", "5", "--out", str(tmp_path / "s.csp"),
        )
        assert code == 3
        assert err.startswith("error:")


class TestCoveringCommands:
    def test_mis_reports_size_and_witness(self, tmp_path, capsys):
        inst, pred = triangle_files(tmp_path)
        code, out, _ = run(capsys, "mis", inst, "--predicate", pred)
        assert code == 0
        assert value_of(out, "size") == "1"
        assert value_of(out, "witness") in {"0", "1", "2"}

    def test_cover_without_constraints(self, tmp_path, capsys):
        _, pred = triangle_files(tmp_path)
        inst = write(tmp_path / "empty.csp", "2 2 3 0\n")
        out_path = tmp_path / "cover.assign"
        code, out, _ = run(
            capsys, "cover", inst, "--predicate", pred, "--out", str(out_path)
        )
        assert code == 0
        assert out == (
            "param.command = cover\n"
            "param.format = human\n"
            "param.instance = %s\n"
            "param.max-c = 8\n"
            "param.out = %s\n"
            "param.predicate = %s\n"
            "nu = 0\n"
        ) % (inst, out_path, pred)
        assert not out_path.exists()

    def test_mis_on_many_variables(self, tmp_path, capsys):
        pred = nae(2, 2)
        inst = CspInstance(pred, range(1500), [((0, 1), (0, 0), 1)])
        path = write(tmp_path / "wide.csp", textio.format_instance(inst))
        pred_path = write(tmp_path / "nae22.pred", textio.format_predicate(pred))
        code, out, _ = run(capsys, "mis", path, "--predicate", pred_path)
        assert code == 0
        assert value_of(out, "size") == "1499"

    def test_fraction_of_a_written_cover_is_one(self, tmp_path, capsys):
        inst, pred = triangle_files(tmp_path)
        cover_path = str(tmp_path / "cover.assign")
        code, _, _ = run(
            capsys, "cover", inst, "--predicate", pred, "--out", cover_path
        )
        assert code == 0
        code, out, _ = run(
            capsys, "fraction", inst, "--predicate", pred,
            "--assignments", cover_path,
        )
        assert code == 0
        assert value_of(out, "fraction") == "1/1"

    def test_empty_assignment_file_exits_three(self, tmp_path, capsys):
        inst, pred = triangle_files(tmp_path)
        empty = write(tmp_path / "empty.assign", "# nothing here\n")
        code, _, err = run(
            capsys, "fraction", inst, "--predicate", pred,
            "--assignments", empty,
        )
        assert code == 3
        assert err.startswith("error:")

    def test_rejection_identity_report(self, tmp_path, capsys):
        inst, pred = triangle_files(tmp_path)
        cover_path = str(tmp_path / "cover.assign")
        run(capsys, "cover", inst, "--predicate", pred, "--out", cover_path)
        code, out, _ = run(
            capsys, "reject-id", inst, "--predicate", pred,
            "--assignments", cover_path,
        )
        assert code == 0
        assert value_of(out, "t") == "2"
        assert value_of(out, "deviation") == "0/1"
        assert value_of(out, "threshold") == "-1/3"
        keys = keys_of(out)
        assert "corr:{0}" in keys
        assert "corr:{1}" in keys
        assert "corr:{0,1}" in keys
        assert "witnesses" in keys
        assert value_of(out, "lhs") == value_of(out, "rhs")


class TestGameCommands:
    def test_lc_sat_finds_a_perfect_labeling(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game())
        out_path = str(tmp_path / "best.lab")
        code, out, _ = run(capsys, "lc-sat", game, "--out", out_path)
        assert code == 0
        assert value_of(out, "value") == "1/1"
        left, right = value_of(out, "labeling").split()
        assert left == right
        parsed = textio.parse_labelings(
            (tmp_path / "best.lab").read_text(), 1, 1
        )
        assert len(parsed) == 1

    def test_lc_cover_accepts_a_consistent_game(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game())
        code, out, _ = run(capsys, "lc-cover", game, "--c", "1")
        assert code == 0
        assert value_of(out, "coverable") == "true"
        assert "labeling:0" in keys_of(out)

    def test_lc_cover_rejects_a_contradictory_pair(self, tmp_path, capsys):
        contradictory = LabelCoverInstance(
            1, 1, 2, 2,
            [Edge(0, 0, (0, 1)), Edge(0, 0, (1, 0))],
            unique=True,
        )
        game = game_file(tmp_path, contradictory)
        code, out, _ = run(capsys, "lc-cover", game, "--c", "1")
        assert code == 0
        assert value_of(out, "coverable") == "false"
        assert "labeling:0" not in keys_of(out)

    def test_lc_cover_on_many_left_vertices(self, tmp_path, capsys):
        # 20,000 left vertices with L = R = 1 are trivially 1-coverable; the
        # search must not recurse once per vertex.
        n = 20_000
        game = write(tmp_path / "big.lc", "%d 1 1 1 0\n" % n + "".join(
            "%d 0 0\n" % u for u in range(n)))
        code, out, _ = run(capsys, "lc-cover", game, "--c", "1")
        assert code == 0
        assert value_of(out, "coverable") == "true"

    def test_lc_smooth_on_a_bijective_edge(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game())
        code, out, _ = run(
            capsys, "lc-smooth", game, "--vertex", "0", "--alpha", "0,1"
        )
        assert code == 0
        assert value_of(out, "smoothness") == "1/2"

    def test_lc_smooth_bad_alpha_exits_three(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game())
        code, _, err = run(
            capsys, "lc-smooth", game, "--vertex", "0", "--alpha", "0,x"
        )
        assert code == 3
        assert err.startswith("error:")

    def test_lc_gen_writes_a_parseable_game(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.lc")
        code, out, _ = run(
            capsys, "lc-gen", "--kind", "dto1-random", "--nu", "2",
            "--nv", "3", "--labels-u", "2", "--labels-v", "4",
            "--seed", "7", "--out", out_path,
        )
        assert code == 0
        parsed = textio.parse_labelcover((tmp_path / "gen.lc").read_text())
        assert value_of(out, "edges") == str(len(parsed.edges))
        assert value_of(out, "unique") == "false"
        assert not parsed.unique


class TestAnalysisCommands:
    def test_fourier_lists_coefficients_and_influences(
        self, tmp_path, capsys
    ):
        majority = [1, 1, 1, -1, 1, -1, -1, -1]
        table = write(
            tmp_path / "maj3.tt",
            "3\n" + "\n".join(str(v) for v in majority) + "\n",
        )
        code, out, _ = run(capsys, "fourier", table)
        assert code == 0
        assert value_of(out, "coef:0") == "1/2"
        assert value_of(out, "coef:1") == "1/2"
        assert value_of(out, "coef:2") == "1/2"
        assert value_of(out, "coef:0,1,2") == "-1/2"
        assert "coef:e" not in keys_of(out)
        for i in range(3):
            assert value_of(out, "influence:%d" % i) == "1/2"

    @pytest.mark.parametrize("tol,shown", [("-1", "-1.0"), ("nan", "nan")])
    def test_rho_refuses_a_negative_or_nan_tolerance(
        self, tmp_path, capsys, tol, shown
    ):
        space = write(tmp_path / "bits.sp", "2 1 2 1\n0 0 1/2\n1 1 1/2\n")
        code, out, err = run(capsys, "rho", space, "--tol", tol)
        assert code == 3 and "rho = " not in out
        assert err == "error: tolerance must be nonnegative, got %s\n" % shown

    def test_rho_of_a_product_space_is_negligible(self, tmp_path, capsys):
        space = product_space_file(tmp_path)
        code, out, _ = run(capsys, "rho", space)
        assert code == 0
        assert float(value_of(out, "rho")) < 1e-9

    def test_connected_on_a_full_support_space(self, tmp_path, capsys):
        space = product_space_file(tmp_path)
        code, out, _ = run(capsys, "connected", space)
        assert code == 0
        assert value_of(out, "connected") == "true"

    def test_invariance_gap_vanishes_for_a_product_space(
        self, tmp_path, capsys
    ):
        space = product_space_file(tmp_path)
        fvals = write(tmp_path / "f.vals", "1\n-1\n-1\n1\n")
        gvals = write(tmp_path / "g.vals", "1\n1\n-1\n-1\n")
        code, out, _ = run(
            capsys, "invariance", space, "--blocks", "2",
            "--f", fvals, "--g", gvals,
        )
        assert code == 0
        assert value_of(out, "gap") == "0/1"
        assert value_of(out, "gap-float") == "0"
        keys = keys_of(out)
        for key in ("bound", "tau", "gamma"):
            assert key in keys

    def test_invariance_wrong_value_count_exits_three(
        self, tmp_path, capsys
    ):
        space = product_space_file(tmp_path)
        fvals = write(tmp_path / "f.vals", "1\n-1\n")
        code, _, err = run(
            capsys, "invariance", space, "--blocks", "2",
            "--f", fvals, "--g", fvals,
        )
        assert code == 3
        assert err.startswith("error:")


class TestReductionCommands:
    def test_reduce_writes_instance_and_predicate_files(
        self, tmp_path, capsys
    ):
        game = game_file(tmp_path, identity_game())
        pred_in = write(tmp_path / "nae22.pred", textio.format_predicate(nae(2, 2)))
        out_path = str(tmp_path / "reduced.csp")
        code, out, _ = run(
            capsys, "reduce", "t1", "--source", game,
            "--predicate", pred_in, "--a", "01", "--out", out_path,
        )
        assert code == 0
        assert value_of(out, "predicate-file") == out_path + ".pred"
        pred = textio.parse_predicate(
            (tmp_path / "reduced.csp.pred").read_text()
        )
        assert pred == nae(2, 2)
        inst = textio.parse_instance(
            (tmp_path / "reduced.csp").read_text(), pred
        )
        assert value_of(out, "nvars") == str(inst.nvars)
        assert value_of(out, "nconstraints") == str(len(inst.constraints))

    def test_reduce_honors_an_explicit_predicate_path(
        self, tmp_path, capsys
    ):
        game = game_file(tmp_path, identity_game())
        pred_path = str(tmp_path / "custom.pred")
        code, out, _ = run(
            capsys, "reduce", "t3", "--source", game, "--eps", "1/4",
            "--out", str(tmp_path / "r3.csp"), "--out-predicate", pred_path,
        )
        assert code == 0
        assert value_of(out, "predicate-file") == pred_path
        pred = textio.parse_predicate((tmp_path / "custom.pred").read_text())
        assert pred.k == 4 and pred.q == 2

    def test_reduce_t2_needs_its_distributions(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game())
        code, _, err = run(
            capsys, "reduce", "t2", "--source", game, "--eps", "1/4",
            "--out", str(tmp_path / "r2.csp"),
        )
        assert code == 3
        assert err.startswith("error:")

    def test_reduce_t2_reads_an_explicit_predicate_file(
        self, tmp_path, capsys
    ):
        game = game_file(tmp_path, identity_game(nlabels=1))
        dists = t2_files(tmp_path)
        pred = write(tmp_path / "lin4.pred", textio.format_predicate(lin(4)))
        out_path = str(tmp_path / "r2.csp")
        code, out, _ = run(
            capsys, "reduce", "t2", "--source", game, *dists,
            "--predicate", pred, "--out", out_path,
        )
        assert code == 0
        assert out == (
            "param.command = reduce\n"
            "param.eps = 1/4\n"
            "param.format = human\n"
            "param.out = %s\n"
            "param.p0 = %s\n"
            "param.p1 = %s\n"
            "param.predicate = %s\n"
            "param.source = %s\n"
            "param.test = t2\n"
            "nvars = 4\n"
            "nconstraints = 192\n"
            "predicate-file = %s.pred\n"
        ) % (out_path, dists[1], dists[3], pred, game, out_path)
        default = str(tmp_path / "default.csp")
        run(capsys, "reduce", "t2", "--source", game, *dists, "--out", default)
        assert (tmp_path / "r2.csp").read_bytes() == \
            (tmp_path / "default.csp").read_bytes()
        # The file is read: NAE is not inside the parity predicate.
        nae_pred = write(
            tmp_path / "nae24.pred", textio.format_predicate(nae(2, 4))
        )
        code, _, err = run(
            capsys, "reduce", "t2", "--source", game, *dists,
            "--predicate", nae_pred, "--out", out_path,
        )
        assert code == 3
        assert err == "error: predicate must contain odd-parity tuples only\n"

    def test_reduce_t2_from_distribution_files(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game(nlabels=1))
        p0 = write(tmp_path / "p0.dist", "2\n00 1/2\n11 1/2\n")
        p1 = write(tmp_path / "p1.dist", "2\n01 1/2\n10 1/2\n")
        out_path = str(tmp_path / "r2.csp")
        code, out, _ = run(
            capsys, "reduce", "t2", "--source", game, "--p0", p0,
            "--p1", p1, "--eps", "1/4", "--out", out_path,
        )
        assert code == 0
        assert value_of(out, "nvars") == "4"
        pred = textio.parse_predicate(
            (tmp_path / "r2.csp.pred").read_text()
        )
        assert pred.k == 4

    @pytest.mark.parametrize("mode", [
        ("--support-cap", str(10**40)), ("--sample", "1", "--seed", "0"),
    ])
    @pytest.mark.parametrize("test", ["t1", "t2"])
    def test_reduce_over_the_table_cap_exits_three(
        self, tmp_path, capsys, test, mode
    ):
        # R = 13: 2^26 grid points per right vertex, above the table cap.
        game = game_file(tmp_path, identity_game(nlabels=13))
        extra = {
            "t1": ["--predicate", write(
                tmp_path / "nae22.pred", textio.format_predicate(nae(2, 2))
            ), "--a", "01"],
            "t2": ["--p0", write(tmp_path / "p0.dist", "2\n00 1/2\n11 1/2\n"),
                   "--p1", write(tmp_path / "p1.dist", "2\n01 1/2\n10 1/2\n"),
                   "--eps", "1/4"],
        }[test]
        code, _, err = run(
            capsys, "reduce", test, "--source", game, *extra, *mode,
            "--out", str(tmp_path / "r.csp"),
        )
        assert code == 3
        assert "full tables are capped" in err

    def test_reduce_t2_over_the_block_table_cap_exits_three_at_once(
        self, tmp_path, capsys
    ):
        # Fiber size d = 4: about 6.9e7 block-table terms, above the cap.
        game = game_file(tmp_path, LabelCoverInstance(
            1, 1, 1, 4, [Edge(0, 0, (0, 0, 0, 0))], unique=False
        ))
        start = time.perf_counter()
        code, _, err = run(
            capsys, "reduce", "t2", "--source", game, *t2_files(tmp_path),
            "--sample", "1", "--seed", "0", "--out", str(tmp_path / "r.csp"),
        )
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "full tables are capped" in err

    def test_sampled_reduction_is_deterministic(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game())
        out_path = str(tmp_path / "sampled.csp")
        argv = (
            "reduce", "t3", "--source", game, "--eps", "1/4",
            "--sample", "7", "--seed", "9", "--out", out_path,
        )
        code1, out1, _ = run(capsys, *argv)
        bytes1 = (tmp_path / "sampled.csp").read_bytes()
        code2, out2, _ = run(capsys, *argv)
        bytes2 = (tmp_path / "sampled.csp").read_bytes()
        assert code1 == code2 == 0
        assert out1 == out2
        assert bytes1 == bytes2

    def test_witness_reports_fractions_and_their_union(
        self, tmp_path, capsys
    ):
        game = game_file(tmp_path, identity_game())
        pred_in = write(
            tmp_path / "nae22.pred", textio.format_predicate(nae(2, 2))
        )
        labs = write(tmp_path / "labs.txt", "0 0\n")
        out_path = str(tmp_path / "witness.assign")
        code, out, _ = run(
            capsys, "witness", "t1", "--source", game,
            "--predicate", pred_in, "--a", "01", "--labelings", labs,
            "--out", out_path,
        )
        assert code == 0
        assert value_of(out, "fraction:0") == value_of(out, "fraction:1")
        assert value_of(out, "union") == "1/1"
        parsed = textio.parse_assignments(
            (tmp_path / "witness.assign").read_text(), 16, 2
        )
        assert len(parsed) == 2

    def test_witness_with_empty_labelings_exits_three(
        self, tmp_path, capsys
    ):
        game = game_file(tmp_path, identity_game())
        pred_in = write(
            tmp_path / "nae22.pred", textio.format_predicate(nae(2, 2))
        )
        labs = write(tmp_path / "labs.txt", "# none\n")
        code, _, err = run(
            capsys, "witness", "t1", "--source", game,
            "--predicate", pred_in, "--a", "01", "--labelings", labs,
        )
        assert code == 3
        assert err.startswith("error:")


class TestNoConstraintObjects:
    """No command of the completeness loop builds `Constraint` objects."""

    def test_completeness_loop(self, tmp_path, capsys, monkeypatch):
        from test_csp import no_constraint_objects

        no_constraint_objects(monkeypatch)
        game = game_file(tmp_path, identity_game(nlabels=1, nv=2))
        dists = t2_files(tmp_path)
        inst, pred = str(tmp_path / "t2.csp"), str(tmp_path / "t2.csp.pred")
        labs = write(tmp_path / "labs.txt", "0 0 0\n")
        wit = str(tmp_path / "w.assign")
        for argv in (
            ("reduce", "t2", "--source", game, *dists, "--out", inst),
            ("witness", "t2", "--source", game, *dists, "--labelings", labs,
             "--out", wit),
            ("fraction", inst, "--predicate", pred, "--assignments", wit),
            ("reject-id", inst, "--predicate", pred, "--assignments", wit),
            ("mis", inst, "--predicate", pred),
            ("reduce", "t2", "--source", game, *dists, "--out", inst,
             "--sample", "5", "--seed", "1"),
            ("cover", inst, "--predicate", pred, "--max-c", "2"),
        ):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv


class TestWitnessChecksLabelingsFirst:
    """Malformed labelings exit 3 before the instance is generated, so even
    a budget far below the generator's cost does not turn them into exit 2."""

    def files(self, tmp_path, game):
        return (
            game_file(tmp_path, game),
            write(tmp_path / "p0.dist", "2\n00 1/2\n11 1/2\n"),
            write(tmp_path / "p1.dist", "2\n01 1/2\n10 1/2\n"),
            write(tmp_path / "nae22.pred", textio.format_predicate(nae(2, 2))),
        )

    def witness(self, capsys, test, game, p0, p1, pred, labs, budget):
        extra = {
            "t1": ["--predicate", pred, "--a", "01"],
            "t2": ["--p0", p0, "--p1", p1, "--eps", "1/4"],
            "t3": ["--eps", "1/4"],
        }[test]
        if budget:
            extra += ["--budget", "10"]
        return run(capsys, "witness", test, "--source", game,
                   "--labelings", labs, *extra)

    @pytest.mark.parametrize("budget", [False, True])
    @pytest.mark.parametrize("test", ["t2", "t3"])
    def test_two_labelings_exit_three(self, tmp_path, capsys, test, budget):
        # The d = 2 source of the benchmark: 15,360 constraints for t2.
        game = LabelCoverInstance(1, 1, 1, 2, [Edge(0, 0, (0, 0))])
        files = self.files(tmp_path, game)
        labs = write(tmp_path / "labs.txt", "0 0\n0 1\n")
        code, _, err = self.witness(capsys, test, *files, labs, budget)
        assert code == 3
        assert "expected exactly one labeling" in err

    @pytest.mark.parametrize("budget", [False, True])
    @pytest.mark.parametrize("test", ["t1", "t2", "t3"])
    def test_unsatisfying_labeling_exits_three(
        self, tmp_path, capsys, test, budget
    ):
        files = self.files(tmp_path, identity_game(nlabels=2))
        labs = write(tmp_path / "labs.txt", "0 1\n")
        code, _, err = self.witness(capsys, test, *files, labs, budget)
        assert code == 3
        assert "labeling" in err and "budget" not in err

    @pytest.mark.parametrize("labels", ["0 5", "0 -1", "5 0"])
    @pytest.mark.parametrize("test", ["t1", "t2", "t3"])
    def test_labels_outside_their_range_exit_three(
        self, tmp_path, capsys, test, labels
    ):
        # One edge with L = R = 1; a labeling line is the left label, then
        # the right one.
        files = self.files(tmp_path, identity_game(nlabels=1))
        labs = write(tmp_path / "labs.txt", labels + "\n")
        code, out, err = self.witness(capsys, test, *files, labs, False)
        assert code == 3
        assert "labels outside" in err
        assert "union" not in out


class TestDecodeCommand:
    def planted_tables_file(self, tmp_path):
        game = identity_game(nlabels=2, nv=2)
        lab = Labeling((1,), (1, 1))
        tables = t1_dictator_tables(T1Params(nae(2, 2), (0, 1), game), lab)
        path = write(tmp_path / "tables.txt", textio.format_tables(tables, 2))
        return game_file(tmp_path, game), path

    def test_decode_recovers_planted_dictators(self, tmp_path, capsys):
        game, tables = self.planted_tables_file(tmp_path)
        out_path = str(tmp_path / "decoded.lab")
        code, out, _ = run(
            capsys, "decode", "t1", "--source", game, "--tables", tables,
            "--tau", "1/4", "--d", "2", "--seed", "0", "--out", out_path,
        )
        assert code == 0
        assert value_of(out, "value") == "1/1"
        assert value_of(out, "labeling") == "1 1 1"
        assert value_of(out, "sizes-ok") == "true"
        assert "size-bound" in keys_of(out)
        parsed = textio.parse_labelings(
            (tmp_path / "decoded.lab").read_text(), 1, 2
        )
        assert parsed == [Labeling((1,), (1, 1))]

    def test_decode_requires_a_seed(self, tmp_path, capsys):
        game, tables = self.planted_tables_file(tmp_path)
        code, _, err = run(
            capsys, "decode", "t1", "--source", game, "--tables", tables,
            "--tau", "1/4", "--d", "2",
        )
        assert code == 3
        assert err.startswith("error:")

    def test_decode_t1_requires_tau_and_d(self, tmp_path, capsys):
        game, tables = self.planted_tables_file(tmp_path)
        code, _, err = run(
            capsys, "decode", "t1", "--source", game, "--tables", tables,
            "--seed", "0",
        )
        assert code == 3
        assert err.startswith("error:")

    def test_decode_t2_requires_gamma(self, tmp_path, capsys):
        game, tables = self.planted_tables_file(tmp_path)
        code, _, err = run(
            capsys, "decode", "t2", "--source", game, "--tables", tables,
            "--seed", "0",
        )
        assert code == 3
        assert err.startswith("error:")

    def test_decode_rejects_a_table_count_mismatch(self, tmp_path, capsys):
        game = game_file(tmp_path, identity_game(nlabels=2, nv=2))
        dom = ProductDomain((2,) * 4)
        short = write(
            tmp_path / "short.txt",
            textio.format_tables(
                {0: TabulatedFunction(dom, [0] * dom.size)}, 2
            ),
        )
        code, _, err = run(
            capsys, "decode", "t1", "--source", game, "--tables", short,
            "--tau", "1/4", "--d", "2", "--seed", "0",
        )
        assert code == 3
        assert err.startswith("error:")

    def test_decode_rejects_a_many_to_one_source(self, tmp_path, capsys):
        game = synthesize(
            "dto1-random", nu=1, nv=1, nlabels_u=2, nlabels_v=4, seed=3
        )
        game_path = game_file(tmp_path, game)
        dom = ProductDomain((2,) * 4)
        tables = write(
            tmp_path / "wide.txt",
            textio.format_tables(
                {0: TabulatedFunction(dom, [0] * dom.size)}, 2
            ),
        )
        code, _, err = run(
            capsys, "decode", "t1", "--source", game_path,
            "--tables", tables, "--tau", "1/4", "--d", "2", "--seed", "1",
        )
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("table", ["0110100110010110", "0101010101010101"])
    @pytest.mark.parametrize("test", ["t2", "t3"])
    def test_decode_refuses_tables_wider_than_2r(self, tmp_path, capsys,
                                                 test, table):
        # One edge with R = 1, and a parity or a dictator table on four
        # coordinates instead of two.
        game = write(tmp_path / "game.lc", "1 1 1 1 1\n0 0 0\n")
        tables = write(tmp_path / "wide.txt", "1 16 2\n0 %s\n" % table)
        flags = ["--gamma", "1/8"] if test == "t2" else []
        for seed in range(4):
            code, out, err = run(
                capsys, "decode", test, "--source", game, "--tables", tables,
                *flags, "--seed", str(seed),
            )
            assert code == 3 and "labeling" not in out
            assert err == "error: table has 4 coordinates, not 2R = 2\n"


class TestScriptEntryPoint:
    def test_module_execution_matches_in_process_run(self, tmp_path):
        inst, pred = triangle_files(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "cspcover.cli", "cover", inst,
             "--predicate", pred],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "nu = 2" in proc.stdout.splitlines()
