"""Command-line entry point.

One executable, one subcommand per operation, line-oriented output in two
flavors (`--format human` prints `key = value`, `--format machine` prints
`key=value`). All reported rationals are exact `num/den` strings; floats are
printed with 12 significant digits. Identical inputs, flags, and seed produce
byte-identical output. Exit status: 0 on success, 1 when a checked
mathematical guarantee fails (GuaranteeError), 2 when an enumeration budget
is exhausted, 3 on malformed input or violated preconditions (including
missing seeds), 4 on any other error, an internal one such as a stray
ZeroDivisionError, reported as one `error: internal:` line.
"""

import argparse
import functools
import sys
from fractions import Fraction

from . import _lazy
from .errors import (
    BudgetExceededError,
    FormatError,
    GuaranteeError,
    PreconditionError,
)

# Library modules execute on the first call that reaches them, so each
# subcommand runs only the modules it uses.
boolanalysis = _lazy("boolanalysis")
correlated = _lazy("correlated")
csp = _lazy("csp")
labelcover = _lazy("labelcover")
predicate = _lazy("predicate")
reductions = _lazy("reductions")
textio = _lazy("textio")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return textio.format_rational(value)
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, frozenset):
        return "{%s}" % ",".join(str(x) for x in sorted(value))
    if isinstance(value, (tuple, list)):
        return " ".join(_render(v) for v in value)
    return str(value)


class Emitter:
    """Writes `key = value` (human) or `key=value` (machine) lines."""

    def __init__(self, fmt, stream):
        self.fmt = fmt
        self.stream = stream

    def emit(self, key, value):
        if self.fmt == "machine":
            self.stream.write("%s=%s\n" % (key, _render(value)))
        else:
            self.stream.write("%s = %s\n" % (key, _render(value)))


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError("cannot read %s: %s" % (path, exc))


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError("cannot write %s: %s" % (path, exc))


def _echo_params(args, em):
    for key in sorted(vars(args)):
        if key == "func":
            continue
        value = getattr(args, key)
        if value is None:
            continue
        em.emit("param.%s" % key.replace("_", "-"), value)


def _check_seed(seed):
    if seed is not None and not 0 <= seed < 2 ** 64:
        raise PreconditionError("seed must fit in 64 bits")


def _rational_arg(text):
    try:
        return textio._rational(text, None)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _set_key(s):
    return (len(s), tuple(sorted(s)))


def _labeling_line(lab):
    return tuple(lab.left) + tuple(lab.right)


# ---------------------------------------------------------------------------
# Covering commands


def _load_instance(args):
    pred = textio.parse_predicate(_read(args.predicate))
    inst = textio.parse_instance(_read(args.instance), pred)
    return pred, inst


def cmd_cover(args, em):
    _pred, inst = _load_instance(args)
    if inst.numerators:
        cover = csp.find_cover(inst, args.max_c, budget=args.budget)
        nu = len(cover.assignments) if cover is not None else None
    else:
        cover, nu = None, 0
    em.emit("nu", "none" if nu is None else nu)
    if cover is not None:
        for i, a in enumerate(cover.assignments):
            em.emit("assignment:%d" % i, "".join(str(v) for v in a.values))
        if args.out:
            _write(args.out, textio.format_assignments(cover.assignments))
    return 0


def cmd_mis(args, em):
    _pred, inst = _load_instance(args)
    size, witness = csp.max_independent_set(inst, budget=args.budget)
    em.emit("size", size)
    em.emit("witness", witness)
    return 0


def cmd_fraction(args, em):
    pred, inst = _load_instance(args)
    assignments = textio.parse_assignments(
        _read(args.assignments), inst.nvars, pred.q
    )
    if not assignments:
        raise FormatError("assignment file holds no assignments")
    em.emit("fraction", csp.covered_fraction(csp.CoverSet(assignments), inst))
    return 0


# ---------------------------------------------------------------------------
# Projection-game commands


def cmd_lc_sat(args, em):
    g = textio.parse_labelcover(_read(args.game))
    value, lab = labelcover.max_satisfiable(g, budget=args.budget)
    em.emit("value", value)
    em.emit("labeling", _labeling_line(lab))
    if args.out:
        _write(args.out, textio.format_labelings([lab]))
    return 0


def cmd_lc_cover(args, em):
    g = textio.parse_labelcover(_read(args.game))
    labs = labelcover.is_c_coverable(g, args.c, budget=args.budget)
    em.emit("coverable", labs is not None)
    if labs is not None:
        for i, lab in enumerate(labs):
            em.emit("labeling:%d" % i, _labeling_line(lab))
        if args.out:
            _write(args.out, textio.format_labelings(labs))
    return 0


def cmd_lc_smooth(args, em):
    g = textio.parse_labelcover(_read(args.game))
    try:
        alpha = [int(t) for t in args.alpha.split(",") if t != ""]
    except ValueError:
        raise FormatError("--alpha expects comma-separated integers")
    em.emit("smoothness", labelcover.smoothness_profile(g, args.vertex, alpha))
    return 0


def cmd_lc_gen(args, em):
    _check_seed(args.seed)
    g = labelcover.synthesize(
        args.kind,
        nu=args.nu,
        nv=args.nv,
        nlabels_u=args.labels_u,
        nlabels_v=args.labels_v,
        degree=args.degree,
        seed=args.seed,
    )
    _write(args.out, textio.format_labelcover(g))
    em.emit("edges", len(g.edges))
    em.emit("unique", g.unique)
    return 0


# ---------------------------------------------------------------------------
# Analysis commands


def cmd_fourier(args, em):
    f = textio.parse_truth_table(_read(args.table))
    fh = boolanalysis.fourier(f)
    n = f.domain.n
    for mask, coeff in enumerate(fh.coefficients):
        if not coeff:
            continue
        coords = [i for i in range(n) if mask >> i & 1]
        key = ",".join(str(i) for i in coords) if coords else "e"
        em.emit("coef:%s" % key, coeff)
    for i, infl in enumerate(boolanalysis.all_influences(f)):
        em.emit("influence:%d" % i, infl)
    return 0


def cmd_rho(args, em):
    space = textio.parse_space(_read(args.space))
    em.emit("rho", correlated.correlation_rho(space, tol=args.tol))
    return 0


def cmd_connected(args, em):
    space = textio.parse_space(_read(args.space))
    em.emit("connected", correlated.is_connected(space))
    return 0


def cmd_invariance(args, em):
    space = textio.parse_space(_read(args.space))
    left, right, den, _ = correlated._marginals(space)
    _, fdom = correlated._side_domain(left[0], den, args.blocks)
    _, gdom = correlated._side_domain(right[0], den, args.blocks)
    fvals = textio.parse_values(_read(args.f))
    gvals = textio.parse_values(_read(args.g))
    if len(fvals) != fdom.size or len(gvals) != gdom.size:
        raise FormatError(
            "value files must hold %d and %d entries" % (fdom.size, gdom.size)
        )
    res = correlated.invariance_gap(
        space,
        args.blocks,
        boolanalysis.TabulatedFunction(fdom, fvals),
        boolanalysis.TabulatedFunction(gdom, gvals),
        budget=args.budget,
    )
    em.emit("gap", res.gap)
    em.emit("gap-float", float(res.gap))
    em.emit("bound", res.bound)
    em.emit("tau", res.tau)
    em.emit("gamma", res.gamma)
    return 0


# ---------------------------------------------------------------------------
# Reduction commands


def _build_params(args):
    source = textio.parse_labelcover(_read(args.source))
    if args.test == "t1":
        if not args.predicate or not args.a:
            raise PreconditionError("t1 needs --predicate and --a")
        pred = textio.parse_predicate(_read(args.predicate))
        a = textio.parse_digits(args.a, pred.k, pred.q)
        return reductions.T1Params(pred, a, source)
    if args.test == "t2":
        if not (args.p0 and args.p1 and args.eps is not None):
            raise PreconditionError("t2 needs --p0, --p1, and --eps")
        p0 = textio.parse_distribution(_read(args.p0))
        p1 = textio.parse_distribution(_read(args.p1))
        k = len(next(iter(p0)))
        if args.predicate:
            pred = textio.parse_predicate(_read(args.predicate))
        else:
            pred = predicate.lin(2 * k)
        return reductions.T2Params(pred, p0, p1, args.eps, source)
    if args.eps is None:
        raise PreconditionError("t3 needs --eps")
    return reductions.T3Params(args.eps, source)


def _generator(args):
    """The exact generator of the chosen test, with the call's budget and cap."""
    return functools.partial(
        getattr(reductions, "generate_" + args.test),
        budget=args.budget, support_cap=args.support_cap,
    )


def cmd_reduce(args, em):
    _check_seed(args.seed)
    params = _build_params(args)
    if args.sample is not None:
        if args.seed is None:
            raise PreconditionError("--sample mode requires --seed")
        sample = getattr(reductions, "sample_" + args.test)
        inst = sample(params, args.sample, args.seed)
    else:
        inst = _generator(args)(params)
    _write(args.out, textio.format_instance(inst))
    pred_path = args.out_predicate or args.out + ".pred"
    _write(pred_path, textio.format_predicate(inst.predicate))
    em.emit("nvars", inst.nvars)
    em.emit("nconstraints", len(inst.numerators))
    em.emit("predicate-file", pred_path)
    return 0


def cmd_witness(args, em):
    params = _build_params(args)
    g = params.source
    labs = textio.parse_labelings(_read(args.labelings), g.nu, g.nv)
    if not labs:
        raise FormatError("labelings file holds no labelings")
    # Built as `reduce` builds it, once the labelings pass.
    assignments, fractions, union = reductions.completeness_witness(
        params, labs, generate=_generator(args)
    )
    for i, fraction in enumerate(fractions):
        em.emit("fraction:%d" % i, fraction)
    em.emit("union", union)
    if args.out:
        _write(args.out, textio.format_assignments(assignments))
    return 0


def cmd_decode(args, em):
    _check_seed(args.seed)
    source = textio.parse_labelcover(_read(args.source))
    tables = textio.parse_tables(_read(args.tables))
    if args.test == "t1":
        if args.tau is None or args.d is None:
            raise PreconditionError("t1 decoding needs --tau and --d")
        res = reductions.decode_t1(tables, source, args.tau, args.d, args.seed)
        extra = (("size-bound", res.size_bound), ("sizes-ok", res.sizes_ok))
    elif args.test == "t2":
        if args.gamma is None:
            raise PreconditionError("t2 decoding needs --gamma")
        res = reductions.decode_t2(tables, source, args.gamma, args.seed)
        extra = (("expected-value-bound", res.expected_value_bound),)
    else:
        res, extra = reductions.decode_t3(tables, source, args.seed), ()
    em.emit("value", res.value)
    em.emit("labeling", _labeling_line(res.labeling))
    for key, value in extra:
        em.emit(key, value)
    if args.out:
        _write(args.out, textio.format_labelings([res.labeling]))
    return 0


def cmd_reject_id(args, em):
    pred, inst = _load_instance(args)
    assignments = textio.parse_assignments(
        _read(args.assignments), inst.nvars, pred.q
    )
    res = csp.rejection_identity_check(assignments, inst, budget=args.budget)
    em.emit("t", res.t)
    em.emit("lhs", res.lhs)
    em.emit("rhs", res.rhs)
    em.emit("deviation", res.deviation)
    em.emit("threshold", res.threshold)
    for s in sorted(res.correlations, key=_set_key):
        em.emit("corr:%s" % _render(frozenset(s)), res.correlations[s])
    em.emit(
        "witnesses",
        tuple(frozenset(s) for s in sorted(res.witnesses, key=_set_key)),
    )
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(p, budget=True, seed=False, out=False, required_out=False):
    p.add_argument("--format", choices=("human", "machine"), default="human")
    if budget:
        p.add_argument("--budget", type=int, default=None,
                       help="cap on candidate evaluations (exit 2 if exceeded)")
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="64-bit seed for all randomized choices")
    if out or required_out:
        p.add_argument("--out", required=required_out, default=None,
                       help="path for the produced file")


def _add_reduction_params(p):
    p.add_argument("test", choices=("t1", "t2", "t3"))
    p.add_argument("--source", required=True, help="projection-game file")
    p.add_argument("--predicate", default=None)
    p.add_argument("--a", default=None, help="accepted tuple as digits (t1)")
    p.add_argument("--p0", default=None, help="even-parity column distribution (t2)")
    p.add_argument("--p1", default=None, help="odd-parity column distribution (t2)")
    p.add_argument("--eps", type=_rational_arg, default=None,
                   help="perturbation rate (t2, t3)")
    p.add_argument("--support-cap", type=int, default=None,
                   help="cap on generated support size")


def build_parser():
    parser = _Parser(prog="cspcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("cover", help="minimum covering set of an instance")
    p.add_argument("instance")
    p.add_argument("--predicate", required=True)
    p.add_argument("--max-c", type=int, default=8)
    _add_common(p, out=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("mis", help="maximum independent set of an instance")
    p.add_argument("instance")
    p.add_argument("--predicate", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_mis)

    p = sub.add_parser("fraction", help="covered weight fraction of assignments")
    p.add_argument("instance")
    p.add_argument("--predicate", required=True)
    p.add_argument("--assignments", required=True)
    _add_common(p, budget=False)
    p.set_defaults(func=cmd_fraction)

    p = sub.add_parser("lc-sat", help="maximum satisfiable fraction of a game")
    p.add_argument("game")
    _add_common(p, out=True)
    p.set_defaults(func=cmd_lc_sat)

    p = sub.add_parser("lc-cover", help="test c-coverability of a game")
    p.add_argument("game")
    p.add_argument("--c", type=int, required=True)
    _add_common(p, out=True)
    p.set_defaults(func=cmd_lc_cover)

    p = sub.add_parser("lc-smooth", help="projection-smoothness of a label set")
    p.add_argument("game")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--alpha", required=True,
                   help="comma-separated right labels")
    _add_common(p, budget=False)
    p.set_defaults(func=cmd_lc_smooth)

    p = sub.add_parser("lc-gen", help="synthesize a benchmark game")
    p.add_argument("--kind", required=True, choices=(
        "unique-consistent", "unique-2-cover", "dto1-random",
        "dto1-contradictory"))
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--nv", type=int, required=True)
    p.add_argument("--labels-u", type=int, required=True)
    p.add_argument("--labels-v", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    _add_common(p, budget=False, required_out=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_lc_gen)

    p = sub.add_parser("fourier", help="coefficients and influences of a table")
    p.add_argument("table")
    _add_common(p, budget=False)
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("rho", help="second singular value of a space")
    p.add_argument("space")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, budget=False)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("connected", help="support connectivity of a space")
    p.add_argument("space")
    _add_common(p, budget=False)
    p.set_defaults(func=cmd_connected)

    p = sub.add_parser("invariance", help="coupled-vs-product expectation gap")
    p.add_argument("space")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--f", required=True, help="left value file")
    p.add_argument("--g", required=True, help="right value file")
    _add_common(p)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("reduce", help="generate a covering instance from a game")
    _add_reduction_params(p)
    p.add_argument("--sample", type=int, default=None,
                   help="sample this many tests instead of full enumeration")
    p.add_argument("--out-predicate", default=None)
    _add_common(p, seed=True, required_out=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("witness", help="covering assignments from labelings")
    _add_reduction_params(p)
    p.add_argument("--labelings", required=True)
    _add_common(p, out=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("decode", help="labeling extraction from tables")
    p.add_argument("test", choices=("t1", "t2", "t3"))
    p.add_argument("--source", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--tau", type=_rational_arg, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--gamma", type=_rational_arg, default=None)
    _add_common(p, budget=False, out=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("reject-id", help="joint-rejection identity report")
    p.add_argument("instance")
    p.add_argument("--predicate", required=True)
    p.add_argument("--assignments", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_reject_id)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    em = Emitter(args.format, sys.stdout)
    try:
        _echo_params(args, em)
        return args.func(args, em)
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except GuaranteeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
