"""Exact tooling for covering complexity of constraint satisfaction.

The package measures how many assignments are needed so that every
constraint of a weighted instance is satisfied by at least one of them,
builds the long-code-style instances that transfer hardness from projection
games to that covering question, and carries the supporting exact analysis:
Fourier/orthogonal decompositions of tabulated functions, correlated product
spaces with their second singular value, and influence-based decodings.

`import cspcover` executes no submodule: each public name is looked up in
its home module on first use (PEP 562), and the modules refer to one another
through `_lazy`, so a CLI call executes only the modules it reaches.
What no generator, sampler or witness runs (`search`, `games`, `decoding`,
`spectralio`) has modules of its own; the old homes still answer for each
public name they gave up, through a `_forward` module `__getattr__`.
"""

import importlib.util
import sys

# Public name -> the module that defines it.
_HOMES = {
    "boolanalysis": """EfronSteinDecomposition FourierTable ProductDomain
        TabulatedFunction all_degree_d_influences all_influences block_image
        character compose_projection degree_d_influence efron_stein fourier
        influence influence_variance noise pi_oplus pi_tilde wht""",
    "correlated": """CommuteResult CorrelatedSpace InvarianceGap MarkovOperator
        blocks_right_domain commute_check correlation_rho invariance_gap
        is_connected markov_apply_blocks pairwise_product_check
        product_space""",
    "csp": """Assignment Constraint CoverSet CspInstance RejectionIdentityResult
        apply_literal_shift covered_fraction covered_fractions
        covers_constraint rejection_identity_check translate_assignment
        trivial_odd_cover weaken_predicate""",
    "decoding": """T1DecodeResult T2DecodeResult T3DecodeResult
        binary_dictator_tables decode_t1 decode_t2 decode_t3
        t1_dictator_tables""",
    "errors": """DEFAULT_BUDGET Budget BudgetExceededError FormatError
        PreconditionError""",
    "games": """is_c_coverable max_satisfiable smoothness_profile synthesize""",
    "labelcover": """Edge LabelCoverInstance Labeling edge_satisfied
        satisfied_fraction""",
    "predicate": """Predicate add_tuples all_tuples cnf constant_tuple
        find_non_odd_witness full is_odd is_shift_closed lin nae shift
        sub_tuples translate_closure translate_orbit""",
    "reductions": """T1Params T2Params T3Params completeness_witness
        generate_t1 generate_t2 generate_t3 sample_t1 sample_t2 sample_t3
        t1_column_support t1_completeness_witness t1_connect_atoms
        t2_block_last_row_space t2_block_space t2_block_table
        t2_completeness_witness t3_completeness_witness t3_delta_table""",
    "search": """cover_to_coloring covering_number find_cover
        max_independent_set""",
}
_HOME = {name: home for home, names in _HOMES.items() for name in names.split()}
_HOME.update({home: home for home in _HOMES})

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def _lazy(name):
    """The submodule `cspcover.<name>`, executed on first attribute access.

    This is the `importlib.util.LazyLoader` recipe: the module object goes
    into `sys.modules` at once, so every later import of it, lazy or eager,
    shares the one object.
    """
    fullname = "%s.%s" % (__name__, name)
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


def _forward(namespace, homes):
    """A module `__getattr__` (PEP 562) for the globals `namespace`: the
    name -> home map `homes` says where each name is read on first access
    (a home's own name gives the module); it is then kept in `namespace`."""

    def __getattr__(name):
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                "module %r has no attribute %r" % (namespace["__name__"], name))
        module = _lazy(home)
        value = namespace[name] = (
            module if name == home else getattr(module, name))
        return value

    return __getattr__


__getattr__ = _forward(globals(), _HOME)
