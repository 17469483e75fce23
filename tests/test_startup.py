"""What a `cspcover` start-up executes, and what the public API still offers.

`import cspcover` executes no submodule, and the CLI refers to the library
modules through module objects that execute on first attribute access. The
guard below records which module bodies a subcommand actually executed, with
an audit hook on the `exec` event: lazily registered modules sit in
`sys.modules` unexecuted, so membership there shows nothing.

The traced benchmark (`perfbench/tracing.py`) redirects the module objects
and names found in each module's namespace to its wrappers; the attribution
test pins that every span it relies on is still recorded through lazy
references, and through the old homes that answer for the names moved to
`search`, `games`, `decoding` and `spectralio`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cspcover
from cspcover import textio
from cspcover.cli import build_parser, main
from cspcover.predicate import nae
from cspcover.reductions import T1Params, t1_dictator_tables

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# `sorted(cspcover.__all__)` when every module was imported eagerly.
PUBLIC = [
    "Assignment", "Budget", "BudgetExceededError", "CommuteResult",
    "Constraint", "CorrelatedSpace", "CoverSet", "CspInstance",
    "DEFAULT_BUDGET", "Edge", "EfronSteinDecomposition", "FormatError",
    "FourierTable", "InvarianceGap", "LabelCoverInstance", "Labeling",
    "MarkovOperator", "PreconditionError", "Predicate", "ProductDomain",
    "RejectionIdentityResult", "T1DecodeResult", "T1Params",
    "T2DecodeResult", "T2Params", "T3DecodeResult", "T3Params",
    "TabulatedFunction", "add_tuples", "all_degree_d_influences",
    "all_influences", "all_tuples", "apply_literal_shift",
    "binary_dictator_tables", "block_image", "blocks_right_domain",
    "boolanalysis", "character", "cnf",
    "commute_check", "completeness_witness", "compose_projection",
    "constant_tuple", "correlated", "correlation_rho", "cover_to_coloring",
    "covered_fraction", "covered_fractions", "covering_number",
    "covers_constraint", "csp", "decode_t1", "decode_t2", "decode_t3",
    "decoding", "degree_d_influence", "edge_satisfied", "efron_stein",
    "errors", "find_cover", "find_non_odd_witness", "fourier", "full",
    "games", "generate_t1", "generate_t2", "generate_t3", "influence",
    "influence_variance",
    "invariance_gap", "is_c_coverable", "is_connected", "is_odd",
    "is_shift_closed", "labelcover", "lin",
    "markov_apply_blocks", "max_independent_set", "max_satisfiable", "nae",
    "noise", "pairwise_product_check", "pi_oplus", "pi_tilde", "predicate",
    "product_space", "reductions", "rejection_identity_check", "sample_t1",
    "sample_t2", "sample_t3", "satisfied_fraction", "search", "shift",
    "smoothness_profile", "sub_tuples", "synthesize", "t1_column_support",
    "t1_completeness_witness", "t1_connect_atoms", "t1_dictator_tables",
    "t2_block_last_row_space", "t2_block_space", "t2_block_table",
    "t2_completeness_witness", "t3_completeness_witness", "t3_delta_table",
    "translate_assignment", "translate_closure", "translate_orbit",
    "trivial_odd_cover", "weaken_predicate", "wht",
]

SUBMODULES = [
    "boolanalysis", "correlated", "csp", "decoding", "errors", "games",
    "labelcover", "predicate", "reductions", "search",
]

# Old home -> (new home, the public names it took), for the names that left
# the modules every reduce-loop call executes.
MOVED = {
    "csp": ("search", """cover_to_coloring covering_number find_cover
        max_independent_set"""),
    "labelcover": ("games", """SYNTHESIS_RETRIES is_c_coverable
        max_satisfiable smoothness_profile synthesize"""),
    "reductions": ("decoding", """T1DecodeResult T2DecodeResult
        T3DecodeResult binary_dictator_tables decode_t1 decode_t2 decode_t3
        t1_dictator_tables"""),
    "textio": ("spectralio", """format_space format_tables parse_space
        parse_tables parse_truth_table parse_values"""),
}


class TestPublicApi:
    def test_all_is_unchanged(self):
        assert sorted(cspcover.__all__) == PUBLIC

    def test_every_name_is_the_object_of_its_home_module(self):
        for name in PUBLIC:
            value = getattr(cspcover, name)
            if name in SUBMODULES:
                assert value is sys.modules["cspcover." + name]
                continue
            home = "cspcover." + cspcover._HOME[name]
            assert value is getattr(sys.modules[home], name), name
            assert getattr(value, "__module__", home) == home, name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from cspcover import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert namespace["find_cover"] is cspcover.csp.find_cover

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cspcover.no_such_name
        for old in MOVED:
            with pytest.raises(AttributeError, match="no_such_name"):
                getattr(sys.modules["cspcover." + old], "no_such_name")

    @pytest.mark.parametrize("old", sorted(MOVED))
    def test_moved_names_are_one_object_in_both_homes(self, old):
        new, names = MOVED[old]
        code = """
import importlib, json, sys
old, new, names = sys.argv[1], sys.argv[2], sys.argv[3].split()
first, second = (old, new) if sys.argv[4] == "old" else (new, old)
a = importlib.import_module("cspcover." + first)
a_values = [getattr(a, name) for name in names]
b = importlib.import_module("cspcover." + second)
out = [x is getattr(b, name) for x, name in zip(a_values, names)]
cached = all(name in vars(sys.modules["cspcover." + old]) for name in names)
print(json.dumps([out, cached]))
"""
        for order in ("old", "new"):
            proc = subprocess.run(
                [sys.executable, "-c", code, old, new, names, order],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            same, cached = json.loads(proc.stdout)
            assert same == [True] * len(names.split()), order
            assert cached, order

    def test_rejection_identity_is_read_from_csp_and_reductions(self):
        from cspcover import csp, reductions

        assert reductions.rejection_identity_check is \
            csp.rejection_identity_check
        assert reductions.RejectionIdentityResult is \
            csp.RejectionIdentityResult


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A unique game, its labeling, t1 and t2 instances and a t2 witness,
    made in this process through the CLI, and the inputs of the spectral
    commands; the argv of one call of each subcommand."""
    d = tmp_path_factory.mktemp("startup")
    pred = write(d / "nae22.pred", "2 2\n01\n10\n")
    p0 = write(d / "p0.dist", "2\n00 1/2\n11 1/2\n")
    p1 = write(d / "p1.dist", "2\n01 1/2\n10 1/2\n")
    game, labs = str(d / "game.lc"), str(d / "labs.txt")
    t1, t2, w2 = str(d / "t1.csp"), str(d / "t2.csp"), str(d / "w2.assign")
    lc_gen = ["lc-gen", "--kind", "unique-consistent", "--nu", "2", "--nv",
              "2", "--labels-u", "1", "--labels-v", "1", "--seed", "7"]
    t1_args = ["t1", "--source", game, "--predicate", pred, "--a", "01"]
    t2_args = ["t2", "--source", game, "--p0", p0, "--p1", p1, "--eps", "1/4"]
    t3_args = ["t3", "--source", game, "--eps", "1/4"]
    for argv in (
        lc_gen + ["--out", game],
        ["lc-sat", game, "--out", labs],
        ["reduce"] + t1_args + ["--out", t1],
        ["reduce"] + t2_args + ["--out", t2],
        ["witness"] + t2_args + ["--labelings", labs, "--out", w2],
    ):
        assert main(argv) == 0
    on_t1 = [t1, "--predicate", t1 + ".pred"]
    on_w2 = [t2, "--predicate", t2 + ".pred", "--assignments", w2]
    g = textio.parse_labelcover(Path(game).read_text(encoding="utf-8"))
    lab = textio.parse_labelings(Path(labs).read_text(encoding="utf-8"),
                                 g.nu, g.nv)[0]
    tables = write(d / "t1.tables", textio.format_tables(
        t1_dictator_tables(T1Params(nae(2, 2), (0, 1), g), lab), 2))
    space = write(d / "product.space", "2 1 2 1\n" + "".join(
        "%d %d 1/4\n" % (a, b) for a in (0, 1) for b in (0, 1)))
    signs = write(d / "f.vals", "1\n-1\n-1\n1\n")
    return {
        "lc-smooth": ["lc-smooth", game, "--vertex", "0", "--alpha", "0"],
        "fourier": ["fourier", write(d / "xor.tt", "2\n1\n-1\n-1\n1\n")],
        "rho": ["rho", space],
        "connected": ["connected", space],
        "invariance": ["invariance", space, "--blocks", "2", "--f", signs,
                       "--g", signs],
        "decode t1": ["decode", "t1", "--source", game, "--tables", tables,
                      "--tau", "1/4", "--d", "2", "--seed", "0"],
        "lc-gen": lc_gen + ["--out", str(d / "again.lc")],
        "lc-sat": ["lc-sat", game],
        "lc-cover": ["lc-cover", game, "--c", "1"],
        "fraction": ["fraction"] + on_w2,
        "cover": ["cover"] + on_t1,
        "mis": ["mis"] + on_t1,
        "reduce t1": ["reduce"] + t1_args + ["--out", str(d / "r1.csp")],
        "reduce t3": ["reduce"] + t3_args + ["--out", str(d / "r3.csp")],
        "witness t1": ["witness"] + t1_args + ["--labelings", labs],
        "witness t2": ["witness"] + t2_args + ["--labelings", labs],
        "reject-id t2": ["reject-id"] + on_w2,
        "reduce --sample": ["reduce"] + t2_args + [
            "--sample", "16", "--seed", "3", "--out", str(d / "s2.csp")],
        "reduce --sample t3": ["reduce"] + t3_args + [
            "--sample", "16", "--seed", "3", "--out", str(d / "s3.csp")],
    }


EXECUTED = """
import os, sys
ran = set()
def hook(event, args):
    if event == "exec":
        path = args[0].co_filename
        if os.path.basename(os.path.dirname(path)) == "cspcover":
            ran.add(os.path.basename(path)[:-3])
sys.addaudithook(hook)
import cspcover.cli
rc = cspcover.cli.main(sys.argv[1:])
sys.stdout.write("\\n" + " ".join(sorted(ran)) + "\\n")
sys.exit(rc)
"""

CORE = {"__init__", "cli", "errors", "textio"}
GAMES = CORE | {"labelcover", "games"}
INSTANCES = CORE | {"csp", "predicate"}
SEARCH = INSTANCES | {"search"}
REDUCTIONS = INSTANCES | {"labelcover", "reductions"}
SPECTRAL = CORE | {"boolanalysis", "spectralio"}
SPACES = SPECTRAL | {"correlated"}
# The modules of code no reduce-loop call runs: the searches, the game
# solvers, the decoders and the spectral formats.
OFF_PATH = {"search", "games", "decoding", "spectralio"}

# Modules each command executes. Only the decoders and the spectral commands
# need `boolanalysis`, so no test's generator, sampler or witness runs it;
# only `rho`, `connected`, `invariance` and the t2 block spaces need
# `correlated`.
EXPECTED = {
    "lc-gen": GAMES,
    "lc-sat": GAMES,
    "lc-cover": GAMES,
    "lc-smooth": GAMES,
    "fraction": INSTANCES,
    "cover": SEARCH,
    "mis": SEARCH,
    "reduce t1": REDUCTIONS,
    "reduce t3": REDUCTIONS,
    "witness t1": REDUCTIONS,
    "witness t2": REDUCTIONS,
    "reject-id t2": INSTANCES,
    "reduce --sample": REDUCTIONS,
    "reduce --sample t3": REDUCTIONS,
    "decode t1": REDUCTIONS | {"boolanalysis", "decoding", "spectralio"},
    "fourier": SPECTRAL,
    "rho": SPACES,
    "connected": SPACES,
    "invariance": SPACES,
}


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_subcommand_executes_only_the_modules_it_uses(inputs, command):
    proc = subprocess.run(
        [sys.executable, "-c", EXECUTED] + inputs[command],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    ran = set(proc.stdout.splitlines()[-1].split())
    assert ran == EXPECTED[command]
    if ran != SPACES:
        assert "correlated" not in ran
    if command.startswith("lc-"):
        assert not ran & {"csp", "reductions", "boolanalysis"}
    if command in ("fraction", "cover", "mis", "reject-id t2"):
        assert not ran & {"reductions", "boolanalysis"}
    if command.startswith(("reduce", "witness", "reject-id", "fraction")):
        assert not ran & OFF_PATH


def test_every_subcommand_has_a_pin(inputs):
    assert set(EXPECTED) == set(inputs)


ALL_COMMANDS = """
import json, sys
import cspcover.cli
for argv in json.loads(sys.argv[1]):
    assert cspcover.cli.main(argv) == 0, argv
    assert "dataclasses" not in sys.modules, argv
print("ok")
"""


def test_no_subcommand_imports_dataclasses(inputs):
    """The records are plain slotted classes: no call, the spectral ones
    included, pays for importing `dataclasses` and `inspect`."""
    commands = list(inputs.values())
    assert {argv[0] for argv in commands} == set(
        build_parser()._subparsers._group_actions[0].choices
    )
    proc = subprocess.run(
        [sys.executable, "-c", ALL_COMMANDS, json.dumps(commands)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


TRACED = """
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import cspcover.cli
import tracing
tracer = tracing.Tracer("t")
tracing.load(tracer)
for argv in json.loads(sys.argv[2]):
    assert cspcover.cli.main(argv) == 0, argv
print(json.dumps(sorted({s["name"] for s in tracer.spans})))
"""


def test_traced_run_attributes_the_lazy_calls(inputs):
    """The traced benchmark still books each layer's work to its spans, the
    names that moved out of their modules included: it looks each target up
    in its old home and fails on a package module bound in a traced one."""
    calls = [inputs[command] for command in (
        "lc-gen", "reduce t1", "reduce --sample", "cover", "mis", "lc-sat",
        "lc-cover", "reject-id t2", "decode t1", "rho", "fourier",
    )]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, str(PERFBENCH), json.dumps(calls)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {
        "labelcover.synthesize", "reductions.generate_t1",
        "reductions.sample_t2", "textio.format_instance", "csp.CspInstance",
        "csp.find_cover", "csp.max_independent_set",
        "labelcover.max_satisfiable", "labelcover.is_c_coverable",
        "reductions.rejection_identity_check", "reductions.decode_t1",
        "textio.parse_space", "textio.parse_truth_table",
        "textio.parse_tables",
    } <= names
