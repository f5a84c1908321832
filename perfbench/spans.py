"""Layer spans for one traced cartier run, recorded from outside the library.

`Tracer.install()` replaces the public entry points of each layer with
wrappers that record a span (name, start, end, parent span) per call.  The
replacement reaches every module-level copy that `from`-imports made, so
`excellent_lift` is wrapped in `frobenius`, `harness` and `cli` alike.
Spans stay in memory in flat arrays; `Tracer.summary()` turns them into
per-layer metrics when the run ends.

Self time is a span's duration minus the time covered by its child spans.
Inclusive time counts only the outermost span of a name, so a recursive
entry point is not counted twice.  Counts marked "computed" are derived
from the operands, not observed work: a series product of two operands
truncated at degree D forms (D+1)(D+2)/2 coefficient pairs, a LaurentPoly
product forms len(a) * len(b) term pairs, zero-skipping aside.  The
operands of `PadicSeries` products are mostly zero, so for them
`nonzero_pairs` also counts the pairs of nonzero coefficients within the
degree bound: the products the schoolbook kernel actually forms.
"""

import sys
import time
from array import array
from collections import Counter
from itertools import accumulate

# (span name, module, attribute path).  Several attributes may share a
# span name: `__rmul__` is the same operation as `__mul__`.
ENTRY_POINTS = (
    ("series.padic.mul", "series", "PadicSeries.__mul__"),
    ("series.padic.mul", "series", "PadicSeries.__rmul__"),
    ("series.padic.add", "series", "PadicSeries.__add__"),
    ("series.padic.add", "series", "PadicSeries.__radd__"),
    ("series.padic.add", "series", "PadicSeries.__sub__"),
    ("series.padic.init", "series", "PadicSeries.__init__"),
    ("series.padic.compose", "series", "PadicSeries.compose"),
    ("series.padic.invert", "series", "PadicSeries.invert"),
    ("series.padic.log", "series", "PadicSeries.log"),
    ("series.rational.mul", "series", "RationalSeries.__mul__"),
    ("series.rational.mul", "series", "RationalSeries.__rmul__"),
    ("series.rational.compose", "series", "RationalSeries.compose"),
    ("series.rational.reverse", "series", "RationalSeries.reverse"),
    ("series.rational.invert", "series", "RationalSeries.invert"),
    ("series.rational.exp", "series", "RationalSeries.exp"),
    ("series.reduce_mod", "series", "reduce_mod"),
    ("families.PeriodData", "families", "PeriodData.__init__"),
    ("families.generic_periods", "families", "generic_periods"),
    ("families.closed_FG", "families", "_closed_FG"),
    ("families.canonical_q", "families", "canonical_q"),
    ("families.ab_coefficients", "families", "ab_coefficients"),
    ("frobenius.excellent_lift", "frobenius", "excellent_lift"),
    ("frobenius.reduced_q", "frobenius", "reduced_q"),
    ("frobenius.frobenius_matrix", "frobenius", "frobenius_matrix"),
    ("sigma.on_series", "sigma", "FrobLift.on_series"),
    ("expansion.expand_cy", "expansion", "expand_cy"),
    ("laurent.mul", "laurent", "LaurentPoly.__mul__"),
    ("laurent.mul", "laurent", "LaurentPoly.__rmul__"),
    ("laurent.poly_pow", "laurent", "poly_pow"),
    ("laurent.cartier_poly", "laurent", "cartier_poly"),
    ("hasse_witt.cy_hasse_witt", "hasse_witt", "cy_hasse_witt"),
    ("hasse_witt.F_k_polynomial", "hasse_witt", "F_k_polynomial"),
    ("harness.get_periods", "harness", "get_periods"),
    ("harness.get_lift", "harness", "get_lift"),
)

# Span groups whose covered share of the traced run is reported: the
# Z/p^N kernel that dominates `hw`, and the Q-side series that dominate `lift`.
COVER_GROUPS = {
    "trace.padic_laurent_cover_frac": ("series.padic.", "laurent.mul"),
    "trace.rational_cover_frac": ("series.rational.",),
}


def _series_pairs(args):
    a, b = args[0], args[1]
    if hasattr(b, "coeffs"):
        d = min(len(a.coeffs), len(b.coeffs))
        return d * (d + 1) // 2
    return len(a.coeffs)


def _nonzero_pairs(args):
    a, b = args[0].coeffs, args[1]
    if not hasattr(b, "coeffs"):
        return len(a)
    b = b.coeffs
    D = min(len(a), len(b)) - 1
    # nonzero_upto[j]: nonzero coefficients of b of degree at most j
    nonzero_upto = list(accumulate(1 if c else 0 for c in b[: D + 1]))
    return sum(nonzero_upto[D - i] for i, c in enumerate(a[: D + 1]) if c)


def _laurent_pairs(args):
    a, b = args[0], args[1]
    if hasattr(b, "terms"):
        return len(a.terms) * len(b.terms)
    return len(a.terms)


# span name -> ((counter name, operand function), ...); all "computed"
PAIR_COUNTS = {
    "series.padic.mul": (
        ("series.padic.mul.coeff_pairs", _series_pairs),
        ("series.padic.mul.nonzero_pairs", _nonzero_pairs),
    ),
    "series.rational.mul": (("series.rational.mul.coeff_pairs", _series_pairs),),
    "laurent.mul": (("laurent.mul.term_pairs", _laurent_pairs),),
}


def _rebind(orig, new):
    """Point every attribute of a cartier module that is bound to orig at new."""
    for key, module in list(sys.modules.items()):
        if key == "cartier" or key.startswith("cartier."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)


class Tracer:
    """Records spans of one run; spans of a run share `run_id`."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.period_keys = set()
        self.checks = None

    def span(self, name, fn, on_call=None):
        """Wrap fn so that each call records a span called name."""
        if name not in self.names:
            self.names.append(name)
        k = self.names.index(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)  # before the clock starts, so not in this span
            idx = len(start)
            name_of.append(k)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _counter_for(self, name):
        if name in PAIR_COUNTS:
            pair_counts = PAIR_COUNTS[name]
            counts = self.counts

            def count_pairs(args):
                for counter, pairs in pair_counts:
                    counts[counter] += pairs(args)

            return count_pairs
        if name == "families.generic_periods":
            return lambda args: self.period_keys.add((args[0].kind, args[0].n))
        return None

    def install(self):
        """Wrap every entry point in ENTRY_POINTS, plus the counters that
        need no span, in the already imported cartier modules."""
        for name, module, path in ENTRY_POINTS:
            mod = sys.modules["cartier." + module]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                setattr(owner, attr, self.span(name, owner.__dict__[attr], self._counter_for(name)))
            else:
                orig = getattr(mod, attr)
                _rebind(orig, self.span(name, orig, self._counter_for(name)))
        self._count_expansion_reads()
        self._capture_checks()

    def _count_expansion_reads(self):
        """useful_ratio of expand_cy: coefficients read from its results
        over exponents it returned."""
        expansion = sys.modules["cartier.expansion"]
        counts = self.counts
        expand_cy = expansion.expand_cy
        coeff = expansion.ConeExpansion.coeff

        def counted_expand_cy(*args, **kwargs):
            E = expand_cy(*args, **kwargs)
            counts["expansion.expand_cy.exponents_returned"] += len(E.terms)
            return E

        def counted_coeff(E, *args, **kwargs):
            if E.mode == "cy":
                counts["expansion.expand_cy.coeffs_read"] += 1
            return coeff(E, *args, **kwargs)

        _rebind(expand_cy, counted_expand_cy)
        expansion.ConeExpansion.coeff = counted_coeff

    def _capture_checks(self):
        """Keep (check id, runtime) of every report run_suite returns."""
        run_suite = sys.modules["cartier.harness"].run_suite

        def capturing_run_suite(*args, **kwargs):
            reports = run_suite(*args, **kwargs)
            self.checks = [[r.check_id, r.runtime] for r in reports]
            return reports

        _rebind(run_suite, capturing_run_suite)

    def summary(self, main_s):
        """Per-layer metrics of the run; main_s is the traced run's time
        inside cli.main, which the spans should cover."""
        n = len(self.names)
        self_s = [0.0] * n
        incl_s = [0.0] * n
        calls = [0] * n
        outer_end = [float("-inf")] * n
        starts, ends, names, parents = self.start, self.end, self.name_of, self.parent
        for i in range(len(starts)):
            dur = ends[i] - starts[i]
            k = names[i]
            calls[k] += 1
            self_s[k] += dur
            if parents[i] >= 0:
                self_s[names[parents[i]]] -= dur
            # same-name spans either nest or are disjoint; spans are
            # stored in start order, so a span that starts before the
            # outermost one of its name ended lies inside it
            if starts[i] >= outer_end[k]:
                incl_s[k] += dur
                outer_end[k] = ends[i]
        index = {name: k for k, name in enumerate(self.names)}
        out = {}
        for name, k in index.items():
            out[name + ".self_s"] = self_s[k]
            out[name + ".incl_s"] = incl_s[k]
            out[name + ".calls"] = calls[k]
        for pair_counts in PAIR_COUNTS.values():
            for counter, _ in pair_counts:
                out[counter] = self.counts[counter]
        gp = out["families.generic_periods.calls"]
        out["families.generic_periods.redundant_calls"] = gp - len(self.period_keys)
        returned = self.counts["expansion.expand_cy.exponents_returned"]
        read = self.counts["expansion.expand_cy.coeffs_read"]
        out["expansion.expand_cy.useful_ratio"] = read / returned if returned else 0.0
        for kind, request, build in (
            ("period", "harness.get_periods", "families.PeriodData"),
            ("lift", "harness.get_lift", "frobenius.excellent_lift"),
        ):
            r, b = index[request], index[build]
            requests = calls[r]
            builds = sum(
                1 for i in range(len(starts)) if names[i] == b and parents[i] >= 0 and names[parents[i]] == r
            )
            out["harness.%s_requests" % kind] = requests
            out["harness.%s_builds" % kind] = builds
            out["harness.%s_hit_ratio" % kind] = 1 - builds / requests if requests else 0.0
        roots = sum(ends[i] - starts[i] for i in range(len(starts)) if parents[i] < 0)
        out["trace.unattributed_s"] = main_s - roots
        for metric, prefixes in COVER_GROUPS.items():
            group = {k for name, k in index.items() if name.startswith(prefixes)}
            out[metric] = self._covered(group) / main_s
        return {"run_id": self.run_id, "main_s": main_s, "metrics": out, "checks": self.checks}

    def _covered(self, group):
        """Time inside at least one span whose name is in group."""
        total, outer_end = 0.0, float("-inf")
        starts, ends = self.start, self.end
        for i, k in enumerate(self.name_of):
            if k in group and starts[i] >= outer_end:
                total += ends[i] - starts[i]
                outer_end = ends[i]
        return total
