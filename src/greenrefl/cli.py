"""Command-line front end.

Subcommands: symbols, chartable, coset-chartable, hall-littlewood, kostka,
green, fake-degrees, verify.  All output is deterministic; --format picks
pretty text, CSV, or JSON among the formats a command writes (symbols and
fake-degrees: pretty or JSON; verify: pretty only), and --out redirects it
to a file.
"""

import argparse
import json
import sys

from .combinatorics import (
    GroupParams,
    enumerate_class_params,
    ep_str,
    make_symbol,
    similarity_order,
)
from .exact_arith import CycNum, TPoly, TRat
from .gepn import coset_algebra, coset_char_table, fake_degrees, green_suite, kostka_gepn, z_coset
from .symfunc import level_for
from .wreath import LabeledMatrix, hl_data, level_char_table

SYMBOLIC_CAP = 24


DESCRIPTION = (
    "Exact character tables, Hall-Littlewood functions, Kostka "
    "matrices and Green functions for the groups G(e,p,n) and "
    "their twisted cosets"
)

# command -> (help text, keyword arguments of add_common)
SUBCOMMANDS = {
    "symbols": ("symbols, a-values, similarity classes",
                {"formats": ("pretty", "json")}),
    "chartable": ("character table of G(e,1,n)",
                  {"with_p": False, "with_q": False, "with_r": False}),
    "coset-chartable": ("character table of the coset", {}),
    "hall-littlewood": ("Hall-Littlewood functions of G(e,1,n) in Schur coordinates",
                        {"with_p": False, "with_q": False, "with_sign": True}),
    "kostka": ("Kostka matrix (base level when p=1)", {"with_sign": True}),
    "green": ("Green-function suite with the exactness residual", {}),
    "fake-degrees": ("graded multiplicities in the coinvariant algebra",
                     {"formats": ("pretty", "json")}),
    "verify": ("run the invariant suite; nonzero exit on failure",
               {"formats": ("pretty",)}),
}


def add_common(p, with_p=True, with_q=True, with_r=True, with_sign=False,
               formats=("pretty", "csv", "json")):
    p.add_argument("--e", type=int, required=True)
    if with_p:
        p.add_argument("--p", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    if with_q:
        p.add_argument("--q", type=int, default=0)
    if with_r:
        p.add_argument("--r", type=int, default=2)
    if with_sign:
        p.add_argument("--sign", choices=["+", "-"], default="-")
    # only the formats the command writes
    p.add_argument("--format", choices=formats, default="pretty")
    p.add_argument("--out", default=None)


class _LazyParser(argparse.ArgumentParser):
    """A sub-parser that adds its ``add_common`` arguments the first time
    it parses or formats its usage or help.  The top-level parser names
    every command and its help text without them, so a call adds the
    arguments of the one command it runs, and prints what an eager parser
    prints."""

    def __init__(self, *args, common=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._common = common

    def _fill(self):
        if self._common is not None:
            common, self._common = self._common, None
            add_common(self, **common)

    def parse_known_args(self, args=None, namespace=None):
        self._fill()
        return super().parse_known_args(args, namespace)

    def format_usage(self):
        self._fill()
        return super().format_usage()

    def format_help(self):
        self._fill()
        return super().format_help()


def build_parser():
    parser = argparse.ArgumentParser(prog="greenrefl", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_LazyParser)
    for name, (text, common) in SUBCOMMANDS.items():
        sub.add_parser(name, help=text, common=common)
    return parser


def resolve_params(args):
    p = getattr(args, "p", None)
    if p is None:
        p = 1
    q = getattr(args, "q", 0)
    try:
        params = GroupParams(args.e, p, args.n, q)
    except ValueError as exc:
        raise SystemExit(f"invalid parameters: {exc}")
    if args.e * args.n > SYMBOLIC_CAP:
        raise SystemExit(
            f"size guard: e*n = {args.e * args.n} exceeds the symbolic cap {SYMBOLIC_CAP}"
        )
    r = getattr(args, "r", 2)
    if r is not None and r < 1:
        raise SystemExit("size guard: r must be >= 1")
    return params


def emit(text, args):
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise SystemExit(f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def raw(x):
    """An exact entry left as it is, for ``jdump`` to write."""
    return x


def jdump(data):
    """The canonical JSON text of data with one trailing newline: what
    json.dumps(data, sort_keys=True, separators=(",", ":")) gives once every
    TRat leaf is replaced by its to_json() dict.  A bare CycNum leaf (a coset
    table's entry) stands for its constant function of t, TRat.from_cyc(v).

    Every such document is written here.  Each distinct CycNum is rendered
    once per call, from its integer coordinates; no dict is built for it.
    A bare CycNum leaf is written once per value, whole: the entries of a
    coset table repeat, and equal ones are mostly one object."""
    memo = {}
    leaves = {}

    def cyc(v):
        key = v.key()
        text = memo.get(key)
        if text is None:
            text = memo[key] = v.json_text()
        return text

    def write(x):
        if isinstance(x, CycNum):
            text = leaves.get(x)
            if text is None:
                text = leaves[x] = TRat.coeffs_json_text(
                    () if x.is_zero() else (x,), (x.field.one,), cyc)
            return text
        if isinstance(x, TRat):
            return TRat.coeffs_json_text(x.num.coeffs, x.den.coeffs, cyc)
        if isinstance(x, dict):
            return "{%s}" % ",".join(
                json.dumps(k) + ":" + write(v) for k, v in sorted(x.items()))
        if isinstance(x, (list, tuple)):
            return "[%s]" % ",".join(map(write, x))
        return json.dumps(x)

    return write(data) + "\n"


def cmd_symbols(args):
    params = resolve_params(args)
    order = similarity_order(params, args.r)
    m = (params.n,) * params.e
    if args.format == "json":
        data = []
        for cls, a in zip(order.classes, order.a_values):
            data.append(
                {
                    "a_value": a,
                    "members": [
                        {
                            "label": z.label(),
                            "alpha": [list(c) for c in z.alpha],
                            "phi": z.phi,
                            "symbol": [
                                list(row)
                                for row in make_symbol(z.alpha, m, args.r).rows
                            ],
                        }
                        for z in cls
                    ],
                }
            )
        emit(jdump(data), args)
        return 0
    lines = []
    for ci, (cls, a) in enumerate(zip(order.classes, order.a_values)):
        lines.append(f"class {ci + 1} (a = {a}):")
        for z in cls:
            sym = make_symbol(z.alpha, m, args.r)
            rows = ";".join(
                ",".join(str(x) for x in row) for row in sym.rows
            )
            lines.append(f"  {z.label():<16} ({rows})")
    emit("\n".join(lines) + "\n", args)
    return 0


def _emit_matrix(mat, args, heading=None):
    if args.format == "json":
        emit(jdump(mat.to_json(raw)), args)
    elif args.format == "csv":
        emit(mat.to_csv(), args)
    else:
        text = (heading + "\n") if heading else ""
        emit(text + mat.pretty() + "\n", args)
    return 0


def cmd_chartable(args):
    params = resolve_params(args)
    table = level_char_table(level_for(args.e, args.n))
    return _emit_matrix(table.matrix, args, f"character table of G({args.e},1,{args.n})")


def cmd_coset_chartable(args):
    params = resolve_params(args)
    table = coset_char_table(params, args.r)
    if args.format == "json":
        # jdump writes the CycNum entries as constant functions of t, no TRat built
        emit(jdump(table.matrix(raw).to_json(raw)), args)
        return 0
    return _emit_matrix(
        table.matrix(),
        args,
        f"character table of sigma^{params.q} G({params.e},{params.p},{params.n})",
    )


def cmd_hall_littlewood(args):
    params = resolve_params(args)
    level = level_for(args.e, args.n)
    data = hl_data(level, args.r)
    sign = +1 if args.sign == "+" else -1
    rows = data.sp if sign > 0 else data.sm
    qrows = data.qp if sign > 0 else data.qm
    labels = [ep_str(alpha) for alpha in data.order]
    cols = [ep_str(alpha) for alpha in level.partitions]
    blocks = [len(c) for c in data.classes]
    pmat = LabeledMatrix(labels, cols, rows, blocks, None)
    qmat = LabeledMatrix(labels, cols, qrows, blocks, None)
    if args.format == "json":
        emit(jdump({"P": pmat.to_json(raw), "Q": qmat.to_json(raw)}), args)
        return 0
    if args.format == "csv":
        emit(pmat.to_csv() + "\n" + qmat.to_csv(), args)
        return 0
    emit(
        f"P{args.sign} in Schur coordinates:\n" + pmat.pretty()
        + f"\n\nQ{args.sign} in Schur coordinates:\n" + qmat.pretty() + "\n",
        args,
    )
    return 0


def cmd_kostka(args):
    params = resolve_params(args)
    sign = +1 if args.sign == "+" else -1
    mat = kostka_gepn(params, args.r, sign)
    return _emit_matrix(mat, args, f"Kostka matrix K{args.sign}")


def cmd_green(args):
    params = resolve_params(args)
    suite = green_suite(params, args.r)
    if args.format == "json":
        emit(jdump(suite.to_json(raw)), args)
        return 0 if suite.residual_zero else 1
    if args.format == "csv":
        text = (
            suite.ktilde_minus.to_csv()
            + "\n" + suite.ktilde_plus.to_csv()
            + "\n" + suite.lambda_tilde.to_csv()
            + "\n" + suite.omega_prime.to_csv()
        )
        emit(text, args)
        return 0 if suite.residual_zero else 1
    if suite.lambda_symmetric is None:
        lambda_lines = [
            "LambdaTilde: no symmetric presentation for a twisted coset "
            "(the json and csv formats hold LambdaTilde)"
        ]
    else:
        lambda_lines = ["LambdaTilde (symmetric presentation):", suite.lambda_symmetric.pretty()]
    parts = [
        f"G({params.e},{params.p},{params.n})  coset q={params.q}  r={args.r}",
        "",
        "Ktilde- (Green functions):",
        suite.ktilde_minus.pretty(),
        "",
        "Ktilde+:",
        suite.ktilde_plus.pretty(),
        "",
        *lambda_lines,
        "",
        "OmegaPrime:",
        suite.omega_prime.pretty(),
        "",
        f"residual of Ktilde- LambdaTilde tr(Ktilde+) - OmegaPrime: "
        + ("0 (exact)" if suite.residual_zero else "NONZERO"),
    ]
    emit("\n".join(parts) + "\n", args)
    return 0 if suite.residual_zero else 1


def cmd_fake_degrees(args):
    params = resolve_params(args)
    degs = fake_degrees(params, args.r)
    alg = coset_algebra(params, args.r)
    if args.format == "json":
        emit(
            jdump({z.label(): degs[z] for z in alg.chars}),
            args,
        )
        return 0
    lines = [f"{z.label():<18} {degs[z]}" for z in alg.chars]
    emit("\n".join(lines) + "\n", args)
    return 0


def cmd_verify(args):
    # the brute-force oracle is loaded only here, the one command that uses it
    from . import oracle

    params = resolve_params(args)
    checks = []

    def check(name, fn, run=True):
        if not run:
            checks.append((name, None, ""))
            return
        try:
            ok = fn()
        except Exception as exc:           # report, do not crash the suite
            checks.append((name, False, str(exc)))
            return
        checks.append((name, bool(ok), ""))

    alg = coset_algebra(params, args.r)
    check(
        "character/class counts agree",
        lambda: len(alg.chars) == len(alg.class_params),
    )
    check("coset table orthogonality (unitarity)", alg.orthogonality_holds)

    def kostka_at_zero():
        # X(+/-) = X(0) K(+/-) with X(0) invertible, so X(+/-)(0) = X(0)
        # exactly when K(+/-)(0) is the identity
        one, zero = alg.field.one, alg.field.zero
        for sign in (+1, -1):
            mat = alg.kostka_assembled(sign)
            for i, row in enumerate(mat):
                for j, v in enumerate(row):
                    if v.eval_zero() != (one if i == j else zero):
                        return False
        return True

    check("transition matrices specialize to the table at t=0", kostka_at_zero)
    check(
        "every sub-level Hall-Littlewood LDU passes the exact L D U = N certificate",
        lambda: all(hl_data(level, alg.r).certified() for level in alg.levels.values()),
    )

    suite = None

    def green_ok():
        nonlocal suite
        suite = alg.green()
        return suite.residual_zero

    check("Green factorization holds exactly", green_ok)

    # the paper's assembly theorem, which green and kostka run only as their
    # fallback, checks the LDU route from outside it.  K+- = Ktilde+-(1/t) T and
    # D(t) = t^m T(1/t) LambdaTilde(1/t) T(1/t) (L = 1 on this route), the
    # factors that the assembly hands in, come back by TRat arithmetic, not
    # by the coefficient reversal that green reads all three with.
    def ldu_equals_assembly():
        field = alg.field
        powers = [TRat.t(field, a) for a in suite.a_diag]
        t_m = TRat.t(field, max(x.num.degree() for row in suite.omega_prime.entries for x in row))

        def kostka(mat):
            return [[x.subst_tinv() * tp for x, tp in zip(row, powers)] for row in mat.entries]

        diag = [[x.subst_tinv() * t_m / (ti * tj) for x, tj in zip(row, powers)]
                for row, ti in zip(suite.lambda_tilde.entries, powers)]
        _, d, _ = alg.assembly_ldu()
        want = [[alg.zero] * len(diag) for _ in diag]
        start = 0
        for dk in d:
            for i, row in enumerate(dk, start):
                want[i][start : start + len(dk)] = [
                    TRat(TPoly.from_coords(field, v), reduce=False) for v in row]
            start += len(dk)
        return (kostka(suite.ktilde_minus), diag, kostka(suite.ktilde_plus)) == (
            alg.kostka_assembled(-1), want, alg.kostka_assembled(+1))

    check(
        "Ktilde+- and LambdaTilde from the OmegaPrime LDU equal the Kostka assembly",
        ldu_equals_assembly,
        suite is not None and suite.route.startswith("block LDU"),
    )

    def natural(f):
        """Whether the TRat f lies in Z>=0[t]."""
        return f.is_polynomial() and all(
            c.den == 1 and c.is_rational() and c.num[0] >= 0 for c in f.num.coeffs
        )

    # the twisted class sums are not polynomials yet (ROADMAP item 1)
    check(
        "fake degrees are polynomials with natural coefficients",
        lambda: all(map(natural, fake_degrees(params, args.r).values())),
        params.q == 0,
    )

    # the brute-force group is built only up to SIZE_CAP elements, and it has
    # no character table of a coset yet
    small = params.order <= oracle.SIZE_CAP
    group = oracle.BruteForceGroup(params) if small else None

    def oracle_table_ok():
        table = coset_char_table(params, args.r)
        problems = group.table_problems(table.rows, table.cols, table.entries)
        if problems:                   # check() prints them on the [FAIL] line
            raise AssertionError("; ".join(problems))
        return True

    def centralizers_ok():
        for xi in enumerate_class_params(params):
            w = group.element_for_class_param(xi.beta, xi.b)
            if z_coset(xi, params, args.r).centralizer != group.centralizer_order(
                w, params.q
            ):
                return False
        return True

    check("coset table matches the brute-force character table", oracle_table_ok,
          small and params.q == 0)
    check("centralizer orders match brute force", centralizers_ok, small)

    # reported, never asserted: the nonzero Kostka entries in Z>=0[t]
    entries = [v for s in (+1, -1) for row in alg.kostka_assembled(s) for v in row
               if not v.is_zero()]

    lines = []
    ok_all = True
    for name, ok, msg in checks:
        status = "skip" if ok is None else "ok" if ok else "FAIL"
        ok_all = ok_all and ok is not False
        suffix = f"  ({msg})" if msg else ""
        lines.append(f"[{status:>4}] {name}{suffix}")
    if suite is not None:
        lines.append(f"[info] green's Ktilde+- and LambdaTilde: {suite.route}")
    lines.append(
        f"[info] {sum(map(natural, entries))}/{len(entries)} nonzero Kostka entries lie in Z>=0[t]"
    )
    emit("\n".join(lines) + "\n", args)
    return 0 if ok_all else 1


COMMANDS = {
    "symbols": cmd_symbols,
    "chartable": cmd_chartable,
    "coset-chartable": cmd_coset_chartable,
    "hall-littlewood": cmd_hall_littlewood,
    "kostka": cmd_kostka,
    "green": cmd_green,
    "fake-degrees": cmd_fake_degrees,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
