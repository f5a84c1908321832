"""Verification harness: report plumbing, suites, controls, output formats."""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path
from xml.etree import ElementTree

import pytest

from cartier import harness
from cartier.errors import ConfigError, TheoremViolation
from cartier.families import FamilySpec
from cartier.padic import PadicContext
from cartier.series import PadicSeries, reduce_mod
from cartier.sigma import FrobLift
from straub_oracle import dict_expansion_diagonal


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
    real = harness.cy_hasse_witt

    def perturbed(*args, **kwargs):
        m = real(*args, **kwargs)
        if m.level == 2:
            m.hw = m.hw + PadicSeries.t(m.hw.ctx, m.hw.D)
        return m

    monkeypatch.setattr(harness, "cy_hasse_witt", perturbed)
    r = harness.verify_hw_congruences(fam, 3)
    assert r.status == harness.FAIL and r.min_excess < 0


def test_cy_supercongruence_control(monkeypatch):
    # adding p^(2s-1) t^(p^s) to a_{p^s v} breaks the congruence mod p^(2s)
    fam = FamilySpec.hypercubic(2)
    p, s = 3, 1
    assert harness.verify_cy_supercongruence(fam, p, s).status == harness.PASS
    real = harness.vertex_coefficients

    def perturbed(family, D, cs):
        hi, lo = real(family, D, cs)
        hi[p ** s] += p ** (2 * s - 1)
        return hi, lo

    monkeypatch.setattr(harness, "vertex_coefficients", perturbed)
    r = harness.verify_cy_supercongruence(fam, p, s)
    assert r.status == harness.FAIL and r.min_excess < 0


def test_pq_control(monkeypatch):
    # adding p^(2s-1) to the t^(-p^s) coefficient of P_{p^s}, the constant
    # term of the cleared side t^(p^s) P_{p^s}, breaks the congruence mod
    # p^(2s); s = 2 so that the right side composes P_p with t^sigma
    p, s, n = 3, 2, 2
    assert harness.verify_pq(p, s, n).status == harness.PASS

    def perturbed(real):
        def polynomial(n, q):
            out = dict(real(n, q))
            if q == p ** s:
                out[-q] = out.get(-q, 0) + p ** (2 * s - 1)
            return out

        return polynomial

    # the two routes to P_Q are cross-checked, so both are perturbed
    for name in ("pq_polynomial", "_pq_from_expansion"):
        monkeypatch.setattr(harness, name, perturbed(getattr(harness, name)))
    r = harness.verify_pq(p, s, n)
    assert r.status == harness.FAIL and r.min_excess < 0


def _desk_dwork_cases():
    """(family, p, s, m, Dt) of every dwork check of the desk grid."""
    for name, kw in harness._desk_checks():
        if name == "dwork" and not kw.get("control"):
            yield kw["family"], kw["p"], kw["s"], kw["m"], kw.get("Dt", 3 * kw["p"] ** 2)


def _general_truncations(family, p, s, m, Dt, ctx):
    """F_{mp^s} and F_{mp^{s-1}}(t^p) mod p^N, each truncation reduced and
    pulled back on its own."""
    periods = harness.get_periods(family, Dt)
    hi = reduce_mod(periods.truncated_F(m * p ** s), ctx)
    lo = FrobLift.tp(ctx, Dt).on_series(reduce_mod(periods.truncated_F(m * p ** (s - 1)), ctx))
    return hi, lo


def test_dwork_truncations_are_prefixes_of_F_and_F_of_t_to_the_p():
    cases = list(_desk_dwork_cases())
    assert len(cases) > 100
    for family, p, s, m, Dt in cases:
        ctx = PadicContext(p, s + harness.GUARD)
        _, _, hi, lo = harness._truncations(family, p, s, m, "tp", Dt, ctx)
        want_hi, want_lo = _general_truncations(family, p, s, m, Dt, ctx)
        assert (hi.D, hi._c, lo.D, lo._c) == (want_hi.D, want_hi._c, want_lo.D, want_lo._c)


def test_prefix_comparison_catches_a_prefix_one_term_short():
    # negative control: F_{mp^s} cut below t^(mp^s - 1), and F_{mp^{s-1}}(t^p)
    # below its last term at t^(mp^s - p), each differ on some desk case
    short_hi = short_lo = False
    for family, p, s, m, Dt in _desk_dwork_cases():
        ctx = PadicContext(p, s + harness.GUARD)
        F, Fs, _, _ = harness._truncations(family, p, s, m, "tp", Dt, ctx)
        want_hi, want_lo = _general_truncations(family, p, s, m, Dt, ctx)
        e = m * p ** s
        short_hi |= PadicSeries(ctx, F._c[: e - 1], Dt)._c != want_hi._c
        short_lo |= PadicSeries(ctx, Fs._c[: e - p], Dt)._c != want_lo._c
    assert short_hi and short_lo


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
    table = harness._square_example_recurrence(12, 12)
    assert all(harness._square_example_alpha(i, j) == table[i][j]
               for i in range(13) for j in range(13))


def test_wrong_square_example_closed_form_trips_the_oracle(monkeypatch):
    monkeypatch.setattr(harness, "_square_example_alpha", lambda i, j: [
        comb(i, k) * comb(j, k + 1) for k in range(min(i, j) + 1)])
    with pytest.raises(TheoremViolation, match="recurrence oracle"):
        harness.verify_simple_example(3, 1)


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
    # only --format junit reads xml.etree, so a cold command does not import it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cartier.cli; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert "cartier.harness" in loaded
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
    assert list(harness._expansion_diagonal(dmax)) == dict_expansion_diagonal(dmax)


def test_expansion_diagonal_is_the_apery_numbers():
    direct = harness._expansion_diagonal(5)
    assert type(direct) is tuple
    assert direct == (1, 5, 73, 1445, 33001, 819005)
    assert direct == tuple(harness._layer_diagonal(d) for d in range(6))


def test_straub_cross_check_catches_a_wrong_layer_formula(monkeypatch):
    # the layer formula without its square disagrees with the raw
    # expansion from d = 1 on (3 against 5)
    monkeypatch.setattr(
        harness,
        "_layer_diagonal",
        lambda d: sum(comb(2 * d - k, d - k) * comb(d, k) for k in range(d + 1)),
    )
    with pytest.raises(TheoremViolation):
        harness.verify_straub(5, 1)


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
