"""Command-line front end: period data, Hasse-Witt matrices, excellent
Frobenius lifts and congruence-verification suites.

Exit codes: 0 success, 1 check failure, 2 usage/configuration error,
3 precision-limited result under --strict-precision.
"""

import argparse
import json
import sys

# read as module attributes: a lazily loaded module (see `cartier/__init__.py`)
# runs only when a command calls into it
from . import families, frobenius, harness, hasse_witt, laurent, polytope, series, sigma
from .errors import (
    ConfigError,
    DomainError,
    PrecisionError,
    ReductionError,
    TheoremViolation,
)
from .padic import GUARD, PadicContext

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the check parameter that each single-check verify flag sets; --n also
# picks the catalog family
_FLAG_PARAMS = {
    "family": "family", "g_file": "family", "n": "n", "prime": "p", "s": "s",
    "m": "m", "q_exponent": "Q", "degree": "Dt", "lift": "lift_kind",
}


# the verify suites in `harness.SUITES` order, each with the parameter names
# of its check: the parser reads them here, so only `verify` runs `harness`
# (tests/test_cli.py compares this table with the checks' signatures)
_SUITE_PARAMS = {
    "dwork": ("family", "p", "s", "m", "lift_kind", "Dt", "control"),
    "super": ("family", "p", "s", "m", "Dt", "lift_kind"),
    "simple": ("p", "s", "variant"),
    "cy-super": ("family", "p", "s", "Q", "Dt", "lift_kind"),
    "straub": ("p", "s"),
    "hw": ("family", "p", "Dt"),
    "modular": ("p", "Dt", "control"),
    "fixed-point": ("p",),
    "frobenius": ("family", "p", "lift_kind", "Dt", "control"),
    "pq": ("p", "s", "n", "Dt"),
}


def _takes(suite):
    """The parameter names of the suite's check."""
    return _SUITE_PARAMS[suite]


def _read_by(param):
    """Help text naming the verify suites whose check takes `param`."""
    named = (name for name, params in _SUITE_PARAMS.items() if param in params)
    return "read by %s" % ", ".join(named)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cartier",
        description="p-adic Cartier-operator computations for Laurent-polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats, format_help):
        sp.add_argument("--config", help="flat key=value config file; flags override")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=formats, default=None, help=format_help)

    sp = sub.add_parser("periods", help="period series F, G, W and the mirror map")
    sp.add_argument("--family", help="simplicial|hypercubic|hyperoctahedral|an|custom")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--degree", type=int, default=20, help="t-degree of the series")
    sp.add_argument("--g-file", help="polynomial literal for --family custom")
    common(sp, ("text", "json"), "output format: text or json (default text)")

    sp = sub.add_parser("hw", help="level-k Hasse-Witt matrix")
    sp.add_argument("--family", help="catalog family, 'custom', or 'square'")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--prime", type=int, required=False)
    sp.add_argument("--precision", type=int, default=None)
    sp.add_argument("--degree", type=int, default=None, help="t-degree (default 3p^2)")
    sp.add_argument("--level", type=int, default=2, help="level k (k < p)")
    sp.add_argument("--lift", default="tp", help="tp | excellent | explicit:FILE of 'degree:int' "
                    "tokens of t^sigma; a t^sigma that is not t^p mod p exits 2 (explicit) or "
                    "1 (excellent), naming the first such degree")
    sp.add_argument("--basis", choices=("omega", "unit"), default="omega")
    sp.add_argument("--g-file", help="polynomial literal for --family custom")
    common(sp, ("json", "text"), "output format: json or text (default json)")

    sp = sub.add_parser("lift", help="excellent Frobenius lift and Cartier matrix")
    sp.add_argument("--family", help="catalog family or 'custom'")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--prime", type=int, required=False)
    sp.add_argument("--precision", type=int, default=6)
    sp.add_argument("--degree", type=int, default=None, help="t-degree (default 3p^2)")
    sp.add_argument("--g-file", help="polynomial literal for --family custom")
    common(sp, ("text", "json"), "output format: text or json (default text)")

    sp = sub.add_parser("verify", help="run congruence checks")
    sp.add_argument("suite", choices=("all", *_SUITE_PARAMS))
    sp.add_argument("--family", help=_read_by("family"))
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--prime", type=int)
    sp.add_argument("--degree", type=int, default=None, help="t-degree Dt; " + _read_by("Dt"))
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--m", type=int, default=None, help=_read_by("m"))
    sp.add_argument("--q-exponent", type=int, default=1, dest="q_exponent", help=_read_by("Q"))
    sp.add_argument("--lift", choices=("tp", "excellent"), default=None, help=_read_by("lift_kind"))
    sp.add_argument("--grid", choices=("desk", "smoke"), default="desk")
    sp.add_argument("--strict-precision", action="store_true", dest="strict_precision")
    sp.add_argument("--g-file", help="polynomial literal for --family custom")
    common(sp, ("json", "text", "junit"), "output format: json, text or junit (default json)")
    return parser


def load_config(path):
    """Flat key=value file; '#' starts a comment; keys mirror the flags.
    Values stay strings: `parse_args` converts each as its flag does."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("config line without '=': %r" % line)
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def parse_args(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        defaults = load_config(args.config)
        # flags given on the command line override the file: re-parse with
        # the file contents installed as defaults, each converted by its
        # flag's type and checked against its choices here, so that a bad
        # value is a ConfigError that names it.  A key must name a flag of
        # the subcommand other than --config and --help
        parser = build_parser()
        actions = [a for a in _walk_actions(parser, args.command)
                   if a.option_strings and a.dest not in ("config", "help")]
        unknown = set(defaults) - {a.dest for a in actions}
        if unknown:
            raise ConfigError("unknown config keys: %s" % sorted(unknown))
        for action in actions:
            if action.dest in defaults:
                value = defaults[action.dest]
                if isinstance(action, argparse._StoreTrueAction):
                    value = value.lower() in ("1", "true", "yes", "on")
                elif action.type is not None:
                    try:
                        value = action.type(value)
                    except ValueError:
                        raise ConfigError(
                            "config %s=%s: not a valid %s"
                            % (action.dest, value, action.type.__name__)
                        ) from None
                if action.choices is not None and value not in action.choices:
                    raise ConfigError(
                        "config %s=%s: choose from %s"
                        % (action.dest, value, ", ".join(action.choices))
                    )
                action.default = value
                action.required = False
        args = parser.parse_args(argv)
    return args


def _walk_actions(parser, command):
    """The top-level actions and those of the subcommand `command`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices[command]._actions
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
            g = laurent.LaurentPoly.from_text(fh.read())
        return families.FamilySpec.custom(g)
    if getattr(args, "g_file", None):
        raise ConfigError("--g-file is read only with --family custom")
    return families.FamilySpec.by_name(kind, args.n)


def make_lift(spec, family, ctx, Dt):
    """The Frobenius lift of a --lift value: `sigma.get_lift` builds tp and
    excellent, and explicit:FILE reads t^sigma from 'degree:int' tokens, one
    per degree >= 0; terms above Dt are not read."""
    if not spec.startswith("explicit:"):
        return sigma.get_lift(spec, family, ctx, Dt)
    with open(spec.split(":", 1)[1]) as fh:
        toks = fh.read().split()
    coeffs = [0] * (Dt + 1)
    seen = set()
    for tok in toks:
        try:
            k, c = map(int, tok.split(":"))
        except ValueError:
            raise ConfigError("explicit lift: token %r is not 'degree:int'" % tok) from None
        if k < 0:
            raise ConfigError("explicit lift: token %r has a negative degree" % tok)
        if k in seen:
            raise ConfigError("explicit lift: token %r repeats degree %d" % (tok, k))
        seen.add(k)
        if k <= Dt:
            coeffs[k] = c
    return sigma.FrobLift.from_tsigma(ctx, series.PadicSeries(ctx, coeffs))


# ---------------------------------------------------------------------------
# subcommands


def cmd_periods(args):
    family = get_family(args)
    D = args.degree
    if D < 0:
        raise ConfigError("degree must be >= 0")
    periods = families.PeriodData(family, D)
    if D >= 1:
        q = families.canonical_q(periods)
        tq = families.mirror_map(periods)
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


SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))


def square_example_f(ctx, Dt):
    """f = 1 - x1 - x2 + (1-t) x1 x2 on the unit square SQUARE."""
    one = series.PadicSeries.one(ctx, Dt)
    t = series.PadicSeries.t(ctx, Dt)
    return laurent.LaurentPoly(2, dict(zip(SQUARE, (one, -one, -one, one - t))))


def square_example_region(P):
    """mu = the unit square P minus its upper and right edges: the indices
    of the facets x1 <= 1 and x2 <= 1, which mu leaves open."""
    return {i for i, (a, c) in enumerate(P.facets) if c == 1 and tuple(a) in ((1, 0), (0, 1))}


def _hw_text(hw):
    lines = [
        "level %d prime %d precision %d" % (hw.level, hw.prime, hw.precision),
        "basis %s" % " ".join(str(b) for b in hw.basis),
        "L_k %d" % hw.L_k,
    ]
    for i, row in enumerate(hw.entries):
        for j, e in enumerate(row):
            lines.append("entry %d %d %s" % (i, j, _series_text(e.coeffs)))
    lines.append("hw %s" % _series_text(hw.hw.coeffs))
    return "\n".join(lines)


def _hw_context(args, L_k):
    """Z/p^N for `hw`: --precision, by default k + GUARD raised to L_k + k,
    so that det HW^(k) / p^L_k keeps k digits."""
    k = args.level
    N = args.precision if args.precision is not None else max(k + GUARD, L_k + k)
    return PadicContext(args.prime, N)


def cmd_hw(args):
    if args.prime is None:
        raise ConfigError("--prime is required")
    p = args.prime
    k = args.level
    square = bool(args.family) and args.family.lower() == "square"
    # the square example reads neither --n, --g-file nor --basis, and the
    # level-1 matrix has no basis to choose
    unread = _changed(
        args, "hw", ("n", "g_file", "basis") if square else ("basis",) if k == 1 else ()
    )
    if unread:
        raise ConfigError(
            "hw %s does not read %s"
            % ("--family square" if square else "at --level 1", ", ".join(unread))
        )
    if k >= p:
        raise DomainError("level k=%d requires k < p=%d" % (k, p))
    Dt = args.degree if args.degree is not None else 3 * p * p
    sigma.check_degree(Dt, p)
    if square:
        if args.lift == "excellent":
            raise ConfigError("the square example has no catalog excellent lift; use tp or explicit")
        P = polytope.Polytope(SQUARE)
        region = square_example_region(P)
        ctx = _hw_context(args, hasse_witt.level_points(P, k, region)[1])
        lift = make_lift(args.lift, None, ctx, Dt)
        hw = hasse_witt.hasse_witt_matrix(square_example_f(ctx, Dt), lift, k, region, ctx)
    else:
        # the CY matrices have l basis elements at level l <= 2, so L_k = k - 1
        ctx = _hw_context(args, k - 1)
        family = get_family(args)
        lift = make_lift(args.lift, family, ctx, Dt)
        hw = hasse_witt.cy_hasse_witt(family, lift, k, ctx, Dt, basis=args.basis)
    if args.format == "json" or args.format is None:
        _emit(args, hw.to_json())
    else:
        _emit(args, _hw_text(hw))
    return EXIT_OK


def cmd_lift(args):
    if args.prime is None:
        raise ConfigError("--prime is required")
    p = args.prime
    Dt = args.degree if args.degree is not None else 3 * p * p
    ctx = PadicContext(p, args.precision)
    family = get_family(args)
    sigma.check_degree(Dt, p)
    periods = families.PeriodData(family, Dt)
    lift = frobenius.excellent_lift(family, periods, ctx)
    data = frobenius.frobenius_matrix(family, periods, lift, ctx)
    q = series.reduce_mod(families.canonical_q(periods), ctx)
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
        for name, block in blocks:
            obj[name] = _series_dict(block.coeffs)
        _emit(args, json.dumps(obj, indent=2, sort_keys=True))
    else:
        lines = [
            "family %s n=%d prime=%d precision=%d degree=%d"
            % (family.kind, family.n, p, args.precision, Dt)
        ]
        for name, block in blocks:
            lines.append("%s %s" % (name, _series_text(block.coeffs)))
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _single_check(args):
    """Run one check on the flags that set parameters its suite takes."""
    takes = _takes(args.suite)
    kw = {
        param: getattr(args, dest)
        for dest, param in _FLAG_PARAMS.items()
        if param in takes and getattr(args, dest) is not None
    }
    if "family" in takes:
        kw["family"] = get_family(args)  # the spec --family, --g-file and --n name
    return harness.run_check(args.suite, **kw)


def _unread_flags(args, single):
    """The verify flags set to other than their default that the run does
    not read: a grid run reads only --grid, a single check only the flags
    of its suite's parameters, and --n with --family."""
    takes = _takes(args.suite) if single else ("grid",)
    if "family" in takes:
        takes += ("n",)
    return _changed(
        args,
        "verify",
        [dest for dest, param in (("grid", "grid"), *_FLAG_PARAMS.items()) if param not in takes],
    )


def _changed(args, command, dests):
    """The flags of `command` among dests that are set to other than their
    default, on the command line or through --config."""
    if not dests:
        return []  # the common case builds no second parser
    defaults = {a.dest: a.default for a in _walk_actions(build_parser(), command)}
    return ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) != defaults[dest]]


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
    single = args.suite != "all" and (args.prime is not None or args.family)
    unread = _unread_flags(args, single)
    if unread:
        raise ConfigError(
            "verify %s %s does not read %s"
            % (args.suite, "as a single check" if single else "over a grid", ", ".join(unread))
        )
    if single:
        if args.prime is None:
            raise ConfigError("single-check verify requires --prime")
        reports = [_single_check(args)]
    else:
        suites = None if args.suite == "all" else [args.suite]
        reports = harness.run_suite(args.grid, suites=suites)
    if args.format == "junit":
        _emit(args, harness.reports_to_junit(reports))
    elif args.format == "json" or args.format is None:
        _emit(args, harness.reports_to_json(reports))
    else:
        _emit(args, _reports_text(reports))
    return harness.suite_exit_code(reports, args.strict_precision)


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

