"""Command-line front end: period data, Hasse-Witt matrices, excellent
Frobenius lifts and congruence-verification suites.

Exit codes: 0 success, 1 check failure, 2 usage/configuration error,
3 precision-limited result under --strict-precision.
"""

import argparse
import json
import sys

from . import harness
from .errors import (
    ConfigError,
    DomainError,
    PrecisionError,
    ReductionError,
    TheoremViolation,
)
from .families import FamilySpec, PeriodData, canonical_q, mirror_map
from .frobenius import excellent_lift, frobenius_matrix
from .hasse_witt import cy_hasse_witt, hasse_witt_matrix
from .laurent import LaurentPoly
from .padic import PadicContext
from .polytope import RegionSpec, newton_polytope
from .series import PadicSeries, reduce_mod
from .sigma import FrobLift

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

_INT_KEYS = {
    "n", "prime", "precision", "degree", "s", "m", "q_exponent", "level",
}
_BOOL_KEYS = {"strict_precision", "junit"}

VERIFY_SUITES = (
    "all",
    "dwork",
    "super",
    "simple",
    "cy-super",
    "straub",
    "hw",
    "modular",
    "fixed-point",
    "frobenius",
    "pq",
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cartier",
        description="p-adic Cartier-operator computations for Laurent-polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, format_help):
        sp.add_argument("--config", help="flat key=value config file; flags override")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument(
            "--format", choices=("text", "json", "junit"), default=None,
            help=format_help,
        )

    sp = sub.add_parser("periods", help="period series F, G, W and the mirror map")
    sp.add_argument("--family", help="simplicial|hypercubic|hyperoctahedral|an|custom")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--degree", type=int, default=20, help="t-degree of the series")
    sp.add_argument("--g-file", help="polynomial literal for --family custom")
    common(sp, "output format: text or json (default text)")

    sp = sub.add_parser("hw", help="level-k Hasse-Witt matrix")
    sp.add_argument("--family", help="catalog family, 'custom', or 'square'")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--prime", type=int, required=False)
    sp.add_argument("--precision", type=int, default=None)
    sp.add_argument("--degree", type=int, default=None, help="t-degree (default 3p^2)")
    sp.add_argument("--level", type=int, default=2, help="level k (k < p)")
    sp.add_argument("--lift", default="tp", help="tp | excellent | explicit:<file>")
    sp.add_argument("--basis", choices=("omega", "unit"), default="omega")
    sp.add_argument("--g-file", help="polynomial literal for --family custom")
    common(sp, "output format: json or text (default json)")

    sp = sub.add_parser("lift", help="excellent Frobenius lift and Cartier matrix")
    sp.add_argument("--family", help="catalog family or 'custom'")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--prime", type=int, required=False)
    sp.add_argument("--precision", type=int, default=6)
    sp.add_argument("--degree", type=int, default=None, help="t-degree (default 3p^2)")
    sp.add_argument("--g-file", help="polynomial literal for --family custom")
    common(sp, "output format: text or json (default text)")

    sp = sub.add_parser("verify", help="run congruence checks")
    sp.add_argument("suite", choices=VERIFY_SUITES)
    sp.add_argument("--family")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--prime", type=int)
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--q-exponent", type=int, default=1, dest="q_exponent")
    sp.add_argument("--lift", default=None, help="tp | excellent")
    sp.add_argument("--grid", choices=("desk", "smoke"), default="desk")
    sp.add_argument("--junit", action="store_true")
    sp.add_argument("--strict-precision", action="store_true", dest="strict_precision")
    sp.add_argument("--g-file", help="polynomial literal for --family custom")
    common(sp, "output format: json, text or junit (default json)")
    return parser


def load_config(path):
    """Flat key=value file; '#' starts a comment; keys mirror the flags."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("config line without '=': %r" % line)
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _BOOL_KEYS:
                values[key] = val.lower() in ("1", "true", "yes", "on")
            else:
                values[key] = val
    return values


def parse_args(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        defaults = load_config(args.config)
        unknown = [k for k in defaults if not hasattr(args, k)]
        if unknown:
            raise ConfigError("unknown config keys: %s" % sorted(unknown))
        # flags given on the command line override the file: re-parse with
        # the file contents installed as defaults
        parser = build_parser()
        for action in _walk_actions(parser):
            if action.dest in defaults:
                action.default = defaults[action.dest]
                action.required = False
        args = parser.parse_args(argv)
    return args


def _walk_actions(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                yield from sp._actions
        else:
            yield action


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _series_text(coeffs):
    """Nonzero coefficients as 'k:value' tokens."""
    toks = ["%d:%s" % (i, c) for i, c in enumerate(coeffs) if c]
    return " ".join(toks) if toks else "0"


def _series_dict(coeffs):
    return {str(i): str(c) for i, c in enumerate(coeffs) if c}


def get_family(args):
    if not getattr(args, "family", None):
        raise ConfigError("--family is required")
    kind = args.family.lower()
    if kind == "custom":
        if not getattr(args, "g_file", None):
            raise ConfigError("--family custom requires --g-file")
        with open(args.g_file) as fh:
            g = LaurentPoly.from_text(fh.read())
        return FamilySpec.custom(g)
    return FamilySpec.by_name(kind, args.n)


def make_lift(spec, family, periods, ctx, Dt):
    """Build a Frobenius lift from a --lift value."""
    if spec == "tp":
        return FrobLift.tp(ctx, Dt)
    if spec == "excellent":
        return excellent_lift(family, periods, ctx)
    if spec.startswith("explicit:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            toks = fh.read().split()
        coeffs = [0] * (Dt + 1)
        for tok in toks:
            k, c = tok.split(":")
            k = int(k)
            if 0 <= k <= Dt:
                coeffs[k] = int(c)
        tsigma = PadicSeries(ctx, coeffs)
        for i, c in enumerate(tsigma.coeffs):
            if (c - (1 if i == ctx.p else 0)) % ctx.p:
                raise ConfigError("explicit lift: t^sigma != t^p mod p at degree %d" % i)
        return FrobLift.from_tsigma(ctx, tsigma, kind="explicit")
    raise ConfigError("unknown lift %r" % (spec,))


# ---------------------------------------------------------------------------
# subcommands


def _reject_junit(args):
    if args.format == "junit":
        raise ConfigError("--format junit is only for verify")


def cmd_periods(args):
    _reject_junit(args)
    family = get_family(args)
    D = args.degree
    if D < 0:
        raise ConfigError("degree must be >= 0")
    periods = PeriodData(family, D)
    if D >= 1:
        q = canonical_q(periods)
        tq = mirror_map(periods)
    else:
        # q = t + O(t^2) cannot be represented (or reverted) at degree 0
        q = periods.F * 0
        tq = periods.F * 0
    if args.format == "json":
        obj = {
            "family": family.kind,
            "n": family.n,
            "degree": D,
            "F": _series_dict(periods.F.coeffs),
            "G": _series_dict(periods.G.coeffs),
            "W": _series_dict(periods.W.coeffs),
            "q": _series_dict(q.coeffs),
            "mirror": _series_dict(tq.coeffs),
        }
        _emit(args, json.dumps(obj, indent=2, sort_keys=True))
    else:
        lines = [
            "family %s n=%d degree=%d" % (family.kind, family.n, D),
            "F %s" % _series_text(periods.F.coeffs),
            "G %s" % _series_text(periods.G.coeffs),
            "W %s" % _series_text(periods.W.coeffs),
            "q %s" % _series_text(q.coeffs),
            "t(q) %s" % _series_text(tq.coeffs),
        ]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def square_example_f(ctx, Dt):
    """f = 1 - x1 - x2 + (1-t) x1 x2 on the unit square."""
    one = PadicSeries.one(ctx, Dt)
    t = PadicSeries.t(ctx, Dt)
    return LaurentPoly(
        2, {(0, 0): one, (1, 0): -one, (0, 1): -one, (1, 1): one - t}
    )


def square_example_region(P, k):
    """mu = the unit square minus its upper and right edges."""
    strict = [
        i
        for i, (a, c) in enumerate(P.facets)
        if c == 1 and tuple(a) in ((1, 0), (0, 1))
    ]
    return RegionSpec.from_strict_facets(P, strict, list(range(1, k + 1)))


def _hw_text(hw):
    lines = [
        "level %d prime %d precision %d" % (hw.level, hw.prime, hw.precision),
        "basis %s" % " ".join(str(b) for b in hw.basis),
        "L_k %d" % hw.L_k,
    ]
    for i, row in enumerate(hw.entries):
        for j, e in enumerate(row):
            coeffs = e.coeffs if isinstance(e, PadicSeries) else [e.residue]
            lines.append("entry %d %d %s" % (i, j, _series_text(coeffs)))
    hw_coeffs = hw.hw.coeffs if isinstance(hw.hw, PadicSeries) else [hw.hw.residue]
    lines.append("hw %s" % _series_text(hw_coeffs))
    return "\n".join(lines)


def cmd_hw(args):
    _reject_junit(args)
    if args.prime is None:
        raise ConfigError("--prime is required")
    p = args.prime
    k = args.level
    if k >= p:
        raise DomainError("level k=%d requires k < p=%d" % (k, p))
    Dt = args.degree if args.degree is not None else 3 * p * p
    N = args.precision if args.precision is not None else k + harness.GUARD
    ctx = PadicContext(p, N)
    if args.family and args.family.lower() == "square":
        f = square_example_f(ctx, Dt)
        P = newton_polytope(f)
        region = square_example_region(P, k)
        lift = make_lift(args.lift, None, None, ctx, Dt)
        if lift.kind == "excellent":
            raise ConfigError("the square example has no catalog excellent lift; use tp or explicit")
        hw = hasse_witt_matrix(f, lift, k, region, "monomial", ctx)
    else:
        family = get_family(args)
        periods = PeriodData(family, Dt) if args.lift == "excellent" else None
        lift = make_lift(args.lift, family, periods, ctx, Dt)
        hw = cy_hasse_witt(
            family.g, family.alpha, family.gamma, lift, k, ctx, Dt, basis=args.basis
        )
    if args.format == "json" or args.format is None:
        _emit(args, hw.to_json())
    else:
        _emit(args, _hw_text(hw))
    return EXIT_OK


def cmd_lift(args):
    _reject_junit(args)
    if args.prime is None:
        raise ConfigError("--prime is required")
    p = args.prime
    Dt = args.degree if args.degree is not None else 3 * p * p
    ctx = PadicContext(p, args.precision)
    family = get_family(args)
    periods = PeriodData(family, Dt)
    lift = excellent_lift(family, periods, ctx)
    data = frobenius_matrix(family, periods, lift, ctx)
    q = reduce_mod(canonical_q(periods), ctx)
    blocks = [
        ("tsigma", lift.tsigma),
        ("q", q),
        ("lambda0", data.lambda0),
        ("lambda1", data.lambda1),
        ("Lambda00", data.Lambda[0][0]),
        ("Lambda01", data.Lambda[0][1]),
        ("Lambda10", data.Lambda[1][0]),
        ("Lambda11", data.Lambda[1][1]),
    ]
    if args.format == "json":
        obj = {
            "family": family.kind,
            "n": family.n,
            "prime": p,
            "precision": args.precision,
            "degree": Dt,
        }
        for name, series in blocks:
            obj[name] = _series_dict(series.coeffs)
        _emit(args, json.dumps(obj, indent=2, sort_keys=True))
    else:
        lines = [
            "family %s n=%d prime=%d precision=%d degree=%d"
            % (family.kind, family.n, p, args.precision, Dt)
        ]
        for name, series in blocks:
            lines.append("%s %s" % (name, _series_text(series.coeffs)))
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _single_check(args):
    """Run one named check with explicit parameters."""
    suite = args.suite
    p = args.prime
    kw = {}
    if suite in ("dwork", "super", "cy-super", "hw", "frobenius"):
        kw["family"] = get_family(args)
    if args.degree is not None and suite not in ("straub", "fixed-point", "simple"):
        kw["Dt"] = args.degree
    if suite == "dwork":
        kw.update(p=p, s=args.s, m=args.m if args.m is not None else 1)
        if args.lift:
            kw["lift_kind"] = args.lift
        return harness.verify_dwork(**kw)
    if suite == "super":
        kw.update(p=p, s=args.s, m=args.m)
        if args.lift:
            kw["lift_kind"] = args.lift
        return harness.verify_super_conjecture(**kw)
    if suite == "simple":
        return harness.verify_simple_example(p, args.s)
    if suite == "cy-super":
        kw.update(p=p, s=args.s, Q=args.q_exponent)
        if args.lift:
            kw["lift_kind"] = args.lift
        return harness.verify_cy_supercongruence(**kw)
    if suite == "straub":
        return harness.verify_straub(p, args.s)
    if suite == "hw":
        kw["p"] = p
        return harness.verify_hw_congruences(**kw)
    if suite == "modular":
        kw["p"] = p
        return harness.verify_modular_polynomial(**kw)
    if suite == "fixed-point":
        return harness.verify_fixed_point_n1(p)
    if suite == "frobenius":
        kw["p"] = p
        if args.lift:
            kw["lift_kind"] = args.lift
        return harness.verify_frobenius_structure(**kw)
    if suite == "pq":
        kw.update(p=p, s=args.s, n=args.n)
        return harness.verify_pq(**kw)
    raise ConfigError("suite %r cannot run as a single check" % (suite,))


def _reports_text(reports):
    lines = []
    for r in reports:
        tag = " (conjecture)" if r.conjecture else ""
        lines.append(
            "%-17s %s excess=%s target=%d%s"
            % (r.status, r.check_id, r.min_excess, r.target, tag)
        )
        for note in r.notes:
            lines.append("    note: %s" % note)
    return "\n".join(lines)


def cmd_verify(args):
    if args.lift and args.lift.startswith("explicit:"):
        raise ConfigError("verify supports --lift tp or excellent")
    if args.suite != "all" and (args.prime is not None or args.family):
        if args.prime is None:
            raise ConfigError("single-check verify requires --prime")
        reports = [_single_check(args)]
    else:
        suites = None if args.suite == "all" else [args.suite]
        reports = harness.run_suite(args.grid, suites=suites)
    if args.junit or args.format == "junit":
        _emit(args, harness.reports_to_junit(reports))
    elif args.format == "json" or args.format is None:
        _emit(args, harness.reports_to_json(reports))
    else:
        _emit(args, _reports_text(reports))
    hard = [r for r in reports if not r.conjecture and r.status == harness.FAIL]
    limited = [
        r for r in reports
        if not r.conjecture and r.status == harness.PRECISION_LIMITED
    ]
    if hard:
        return EXIT_FAIL
    if limited:
        return EXIT_PRECISION if args.strict_precision else EXIT_FAIL
    return EXIT_OK


_COMMANDS = {
    "periods": cmd_periods,
    "hw": cmd_hw,
    "lift": cmd_lift,
    "verify": cmd_verify,
}


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ConfigError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except TheoremViolation as exc:
        sys.stderr.write("violation: %s\n" % exc)
        return EXIT_FAIL
    except (ReductionError, PrecisionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
