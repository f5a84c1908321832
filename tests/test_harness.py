"""Verification harness: report plumbing, suites, controls, output formats."""

import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from math import comb
from pathlib import Path
from xml.etree import ElementTree

import pytest

from cartier import families, harness, hasse_witt
from cartier.errors import ConfigError, DomainError
from cartier.catalog import FamilySpec
from cartier.frobenius import check_lift_hypothesis
from cartier.series import PadicSeries, reduce_mod
from cartier.sigma import get_lift
from coefficient_oracle import (
    expansion_diagonal,
    pq_from_expansion,
    square_example_closed,
    square_example_recurrence,
)


def test_smoke_suite_all_pass():
    reports = harness.run_suite("smoke")
    assert reports == sorted(reports, key=lambda r: r.check_id)
    assert all(r.status == harness.PASS for r in reports)
    assert harness.suite_exit_code(reports) == 0


def test_unknown_grid_and_suite():
    with pytest.raises(ConfigError):
        harness.run_suite("galaxy")
    with pytest.raises(ConfigError):
        harness.run_suite("smoke", suites=["nonsense"])


def test_suite_filter():
    reports = harness.run_suite("smoke", suites=["dwork"])
    assert reports
    assert all(r.check_id.startswith("dwork/") for r in reports)


def test_dwork_control_fails_as_intended():
    fam = FamilySpec.simplicial(2)
    r = harness.verify_dwork(fam, 5, 1, 1, control=True)
    assert r.status == harness.PASS
    assert r.min_excess < 0
    assert r.params["expected"] == "FAIL"


def test_dwork_precision_limited():
    fam = FamilySpec.simplicial(2)
    r = harness.verify_dwork(fam, 5, 2, 2, Dt=10)
    assert r.status == harness.PRECISION_LIMITED
    assert r.min_excess is None


def test_frobenius_control():
    fam = FamilySpec.hypercubic(2)
    r = harness.verify_frobenius_structure(fam, 3, lift_kind="tp", Dt=15, control=True)
    assert r.status == harness.PASS and r.min_excess < 0


def test_modular_control():
    r = harness.verify_modular_polynomial(3, Dt=25, control=True)
    assert r.status == harness.PASS and r.min_excess < 0


def test_hw_congruences_control(monkeypatch):
    # adding t to hw^(2) breaks hw^(2) = W^(1-p) mod p at degree 1
    fam = FamilySpec.hypercubic(2)
    assert harness.verify_hw_congruences(fam, 3).status == harness.PASS
    real = hasse_witt.cy_hasse_witt

    def perturbed(*args, **kwargs):
        m = real(*args, **kwargs)
        if m.level == 2:
            m.hw = m.hw + PadicSeries.t(m.hw.ctx, m.hw.D)
        return m

    monkeypatch.setattr(hasse_witt, "cy_hasse_witt", perturbed)
    r = harness.verify_hw_congruences(fam, 3)
    assert r.status == harness.FAIL and r.min_excess < 0


def test_cy_supercongruence_control(monkeypatch):
    # adding p^(2s-1) t^(p^s) to a_{p^s v} breaks the congruence mod p^(2s)
    fam = FamilySpec.hypercubic(2)
    p, s = 3, 1
    assert harness.verify_cy_supercongruence(fam, p, s).status == harness.PASS
    real = families.vertex_coefficients

    def perturbed(family, D, cs):
        hi, lo = real(family, D, cs)
        hi[p ** s] += p ** (2 * s - 1)
        return hi, lo

    monkeypatch.setattr(families, "vertex_coefficients", perturbed)
    r = harness.verify_cy_supercongruence(fam, p, s)
    assert r.status == harness.FAIL and r.min_excess < 0


def test_pq_control(monkeypatch):
    # adding p^(2s-1) to the t^(-p^s) coefficient of P_{p^s}, the constant
    # term of the cleared side t^(p^s) P_{p^s}, breaks the congruence mod
    # p^(2s); s = 2 so that the right side composes P_p with t^sigma
    p, s, n = 3, 2, 2
    assert harness.verify_pq(p, s, n).status == harness.PASS

    real = families.pq_polynomial

    def wrong(n, q):
        out = dict(real(n, q))
        if q == p ** s:
            out[-q] = out.get(-q, 0) + p ** (2 * s - 1)
        return out

    assert wrong(n, p ** s) != pq_from_expansion(n, p ** s)
    monkeypatch.setattr(families, "pq_polynomial", wrong)
    r = harness.verify_pq(p, s, n)
    assert r.status == harness.FAIL and r.min_excess < 0


def test_ratio_excess_matches_the_inverted_form(monkeypatch):
    # every ratio comparison of the desk grid, against hi - (F/F^sigma)
    # sigma(lo) with F^sigma inverted; the controls drop sigma from lo, and
    # swap hi and lo, and each must change the excess somewhere
    calls = []
    real = harness._ratio_excess

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "_ratio_excess", recorded)
    for name, kw in harness._desk_checks():
        if name in ("dwork", "super", "cy-super"):
            harness.run_check(name, **kw)
    assert len(calls) == 154
    unlifted = swapped = 0
    for family, lift_kind, ctx, Dt, hi, lo, target in calls:
        lift = get_lift(lift_kind, family, ctx, Dt)
        F = reduce_mod(families.get_periods(family, Dt).F, ctx)
        lam = F * lift.on_series(F).invert()

        def inverted(hi, lo, sigma=lift.on_series):
            hi, lo = (PadicSeries(ctx, c, Dt) for c in (hi, lo))
            return (hi - lam * sigma(lo)).min_excess_ord(target)

        excess = real(family, lift_kind, ctx, Dt, hi, lo, target)
        assert excess == inverted(hi, lo)
        unlifted += inverted(hi, lo, sigma=lambda s: s) != excess
        swapped += inverted(lo, hi) != excess
    assert unlifted and swapped


def _atlas_ratio_rows():
    """[check id, excess, status] of the ratio checks over the atlas scope:
    every catalog kind, n <= 4, p in {3, 5, 7} where the excellent lift
    exists and s in {1, 2}, at the default Dt, under both lifts; cy-super at
    Q in {1, 2} (Q = 1 at n = 4), super, dwork and the dwork control at
    m in {1, 2, 3}."""
    for kind in ("simplicial", "hypercubic", "hyperoctahedral", "an"):
        for n in (1, 2, 3, 4):
            family = harness.get_family(kind, n)
            for p in (3, 5, 7):
                try:
                    check_lift_hypothesis(family, p)
                except DomainError:
                    continue
                for s, lift_kind in product((1, 2), ("excellent", "tp")):
                    reports = [
                        harness.verify_cy_supercongruence(family, p, s, Q=Q, lift_kind=lift_kind)
                        for Q in ((1, 2) if n < 4 else (1,))
                    ]
                    for m in (1, 2, 3):
                        reports += [
                            harness.verify_super_conjecture(family, p, s, m=m, lift_kind=lift_kind),
                            harness.verify_dwork(family, p, s, m=m, lift_kind=lift_kind),
                            harness.verify_dwork(family, p, s, m=m, lift_kind=lift_kind, control=True),
                        ]
                    for r in reports:
                        yield [r.check_id, r.min_excess, r.status]


def test_ratio_checks_over_the_atlas_scope_keep_their_digest():
    # recorded before the checks shared one ratio comparison
    rows = list(_atlas_ratio_rows())
    assert len(rows) == 1560
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "e1e7e4bd800a6688afcb7e3517910017b57a85dce172ae9b7a862ba2d44232e5"


def test_conjecture_flagging():
    fam = FamilySpec.hypercubic(2)
    r = harness.verify_super_conjecture(fam, 5, 1, Dt=60)
    assert r.conjecture
    # the tp-lift variant is expected (but never asserted) to fail
    r2 = harness.verify_super_conjecture(fam, 5, 1, Dt=60, lift_kind="tp")
    assert r2.conjecture


def test_simple_example_variants():
    for variant in ("generic", "t=-1", "general-lift"):
        r = harness.verify_simple_example(3, 1, variant=variant)
        assert r.status == harness.PASS, (variant, r.min_excess, r.notes)


def test_square_example_closed_form_matches_the_recurrence():
    table = square_example_recurrence(12, 12)
    assert all(harness._square_example_alpha(i, j) == table[i][j]
               for i in range(13) for j in range(13))
    assert all(harness._square_example_alpha(Q, Q) == square_example_closed(Q)
               for Q in range(13))


def test_wrong_square_example_closed_form_trips_the_oracle():
    def wrong(i, j):
        return [comb(i, k) * comb(j, k + 1) for k in range(min(i, j) + 1)]

    table = square_example_recurrence(2, 2)
    assert wrong(1, 1) != table[1][1]
    assert wrong(1, 1) != square_example_closed(1)


def test_report_json_shape_and_determinism():
    reports = harness.run_suite("smoke", suites=["simple", "pq"])
    blob1 = harness.reports_to_json(reports)
    blob2 = harness.reports_to_json(harness.run_suite("smoke", suites=["simple", "pq"]))
    assert blob1 == blob2  # runtime is excluded by default
    data = json.loads(blob1)
    for obj in data:
        assert set(obj) == {
            "check",
            "params",
            "target_modulus_exponent",
            "min_excess_valuation",
            "status",
            "conjecture",
            "notes",
        }
    with_rt = json.loads(harness.reports_to_json(reports, include_runtime=True))
    assert all("runtime_seconds" in obj for obj in with_rt)


def test_junit_rendering():
    reports = harness.run_suite("smoke", suites=["dwork", "straub"])
    xml = harness.reports_to_junit(reports)
    root = ElementTree.fromstring(xml)
    assert root.tag == "testsuite"
    assert int(root.get("tests")) == len(reports)
    assert int(root.get("failures")) == 0


def test_junit_bytes_of_each_status():
    R = harness.CongruenceReport
    reports = [
        R("a/pass", {"p": 3}, 2, 1, harness.PASS, 0.25),
        R("b/fail", {"p": 5}, 4, -1, harness.FAIL, 1.5),
        R("c/prec", {}, 2, None, harness.PRECISION_LIMITED, 0.0),
        R("d/conj", {}, 2, -2, harness.FAIL, 0.0, conjecture=True),
    ]
    assert harness.reports_to_junit(reports) == (
        '<testsuite name="congruence-checks" tests="4" failures="1" skipped="2">'
        '<testcase name="a/pass" time="0.250" />'
        '<testcase name="b/fail" time="1.500"><failure message="congruence failed">'
        '{"check": "b/fail", "conjecture": false, "min_excess_valuation": -1, '
        '"notes": [], "params": {"p": 5}, "status": "FAIL", "target_modulus_exponent": 4}'
        '</failure></testcase>'
        '<testcase name="c/prec" time="0.000"><skipped message="precision limited" /></testcase>'
        '<testcase name="d/conj" time="0.000"><skipped message="conjecture">FAIL</skipped>'
        '</testcase></testsuite>'
    )


def test_cli_import_leaves_xml_out():
    # only --format junit reads xml.etree, so a cold command does not import
    # it; a verify command runs harness, which `import cartier.cli` only
    # registers and no other command runs
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys, types, cartier.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cartier.cli.main(['verify', 'straub', '--prime', '5', '--s', '1']) == 0\n"
        "assert type(sys.modules['cartier.harness']) is types.ModuleType\n"
        "print(*sys.modules)"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert [m for m in loaded if m == "xml" or m.startswith("xml.")] == []


def test_exit_code_counts_only_non_conjecture():
    reports = harness.run_suite("smoke")
    # flip a conjecture report to FAIL: exit code must stay 0
    fake = harness.CongruenceReport(
        "x/conj", {}, 2, -1, harness.FAIL, 0.0, conjecture=True
    )
    assert harness.suite_exit_code(reports + [fake]) == 0
    hard = harness.CongruenceReport("x/hard", {}, 2, -1, harness.FAIL, 0.0)
    assert harness.suite_exit_code(reports + [hard]) == 1


def test_straub_out_of_range_prime_is_conjectural():
    r = harness.verify_straub(3, 1)
    assert r.conjecture
    r5 = harness.verify_straub(5, 1)
    assert not r5.conjecture and r5.status == harness.PASS


@pytest.mark.parametrize("dmax", range(7))
def test_flat_expansion_diagonal_matches_the_dict_recurrence(dmax):
    assert [harness._layer_diagonal(d) for d in range(dmax + 1)] == expansion_diagonal(dmax)


def test_expansion_diagonal_is_the_apery_numbers():
    assert expansion_diagonal(5) == [1, 5, 73, 1445, 33001, 819005]


def test_straub_cross_check_catches_a_wrong_layer_formula():
    # the layer formula without its square disagrees with the raw
    # expansion from d = 1 on (3 against 5)
    def unsquared(d):
        return sum(comb(2 * d - k, d - k) * comb(d, k) for k in range(d + 1))

    direct = expansion_diagonal(5)
    assert [d for d in range(6) if unsquared(d) != direct[d]] == [1, 2, 3, 4, 5]


def test_fixed_points():
    for p in (3, 5, 7):
        r = harness.verify_fixed_point_n1(p)
        assert r.status == harness.PASS, (p, r.notes)


def test_fixed_point_control_catches_a_wrong_power(monkeypatch):
    quad_pow = harness._quad_pow

    def perturbed(a0, a1, m, B, C):
        # q^{p+1} in place of q^p, only modulo q^2 - 2q + 1 (t0 = 1/2)
        return quad_pow(a0, a1, m + 1 if B == -2 and m % 2 else m, B, C)

    monkeypatch.setattr(harness, "_quad_pow", perturbed)
    for p in (3, 5, 7):
        r = harness.verify_fixed_point_n1(p)
        assert r.status == harness.FAIL, (p, r.notes)
        assert "t0=1/2: NOT fixed" in r.notes


def test_pq_identity_case():
    # n=1: P_{p^s}(t) = (F/F^sigma) P_{p^{s-1}}(t^sigma) holds exactly
    r = harness.verify_pq(3, 1, 1)
    assert r.status == harness.PASS
