import dataclasses

import numpy as np
import pytest

from formsteklov import feec, forms, mesh, scalar, steklov, verify
from formsteklov.errors import UnknownCheckError


def test_richardson_constructed_sequence():
    st = verify.richardson([1, 2, 3], [2.10, 2.025, 2.00625])
    assert abs(st.order - 2.0) < 1e-9
    assert abs(st.extrapolated - 2.0) < 1e-9
    assert not st.flagged


def test_richardson_constant_sequence():
    st = verify.richardson([1, 2, 3], [2.0, 2.0, 2.0])
    assert st.flagged and st.order is None
    assert st.extrapolated == 2.0


def test_richardson_oscillating_fallback():
    st = verify.richardson([1, 2, 3, 4], [2.0, 1.9, 2.05, 1.95])
    assert st.flagged
    assert st.extrapolated == 1.95
    assert st.error_bar == pytest.approx(0.2)


def test_richardson_needs_three_levels():
    with pytest.raises(ValueError):
        verify.richardson([1, 2], [1.0, 2.0])


def test_reference_ball_values():
    (v,), warn = verify.reference_ball(1, 1)
    assert v == 2 and not warn
    (v,), warn = verify.reference_ball(2, 1)
    assert float(v) == pytest.approx(5 / 3) and warn
    (v,), warn = verify.reference_ball(2, 2)
    assert v == 3 and not warn
    (z, o), warn = verify.reference_ball(2, 0)
    assert z == 0 and o == 1 and not warn
    with pytest.raises(ValueError):
        verify.reference_ball(3, 1)


def test_registry_is_complete():
    expected = {
        "CHK-SYM/PSD", "CHK-KER", "CHK-DUAL", "CHK-LOW-A", "CHK-LOW-B",
        "CHK-EQ1", "CHK-CONS", "CHK-MONO", "CHK-ISO-N", "CHK-ISO-PAIR",
        "CHK-FIELD", "CHK-HODGE", "CHK-ESC", "CHK-BIH", "CHK-MV", "CHK-BALL",
    }
    assert set(verify.check_ids()) == expected


def test_unknown_check_raises():
    with pytest.raises(UnknownCheckError):
        verify.run_check("CHK-NOPE", mesh.disk(0))


@pytest.mark.parametrize("lhs,strict,verdict", [
    (0.5, False, verify.FAIL), (0.5, True, verify.FAIL),
    (0.75, False, verify.EQUALITY), (1.25, False, verify.EQUALITY),
    (0.75, True, verify.WARN), (1.25, True, verify.WARN),
    (1.5, False, verify.PASS), (1.5, True, verify.PASS)])
def test_bound_verdict_edges(lhs, strict, verdict):
    """margin = lhs - 1 against tolerance 1/4; a margin of exactly
    +-tolerance counts as equality."""
    row = verify._bound("CHK-X", mesh.disk(0), "case", lhs, 1.0, 0.25,
                        [], strict=strict)
    assert row.verdict == verdict
    assert row.margin == lhs - 1.0 and row.tolerance == 0.25
    assert (row.lhs, row.rhs, row.hypotheses) == (lhs, 1.0, "satisfied")


def test_kernel_check_annulus():
    lab = verify.Lab()
    res = verify.run_check("CHK-KER", mesh.annulus(0.5, 1, 0),
                           levels=[0, 1, 2], lab=lab)
    by_case = {r.case: r for r in res}
    assert by_case["p=1"].verdict == verify.PASS
    assert by_case["p=1"].lhs == 1.0 and by_case["p=1"].rhs == 1.0


def test_kernel_check_can_fail():
    """CHK-KER requires a factor-100 gap above the counted kernel: with
    every gap ratio forced to 1, each disk row fails."""
    lab = verify.Lab()
    rows = verify.run_check("CHK-KER", mesh.disk(), levels=[1, 2, 3], lab=lab)
    assert [r.verdict for r in rows] == [verify.PASS, verify.PASS]
    primal = lab.primal
    lab.primal = lambda spec, level, p: dataclasses.replace(
        primal(spec, level, p), gap_ratio=1.0)
    rows = verify.run_check("CHK-KER", mesh.disk(), levels=[1, 2, 3], lab=lab)
    assert [r.verdict for r in rows] == [verify.FAIL, verify.FAIL]


@pytest.mark.parametrize("betti,wrong", [((0, 0, 0), 0), ((1, 1, 0), 1)],
                         ids=["b0=0", "b1=1"])
def test_kernel_check_fails_on_a_wrong_betti_number(betti, wrong):
    """The Lab computes b_p + 1 eigenpairs per degree, and on real disk
    spectra that still shows a kernel one too large (b_0 reported as 0:
    the constant mode is counted anyway) or one too small (b_1 reported
    as 1: the disk has no harmonic 1-field)."""
    lab = verify.Lab()
    lab.betti = lambda spec: betti
    rows = verify.run_check("CHK-KER", mesh.disk(), levels=[1, 2, 3], lab=lab)
    assert [r.verdict for r in rows] == [
        verify.FAIL if p == wrong else verify.PASS for p in (0, 1)]
    assert rows[wrong].lhs == 1 - betti[wrong]
    assert [len(lab.primal(mesh.disk(), 3, p).eigenvalues)
            for p in (0, 1)] == [b + 1 for b in betti[:2]]


def test_kernel_gap_is_measured_against_the_threshold():
    """5e-8 is no kernel value, but it lies only 25 times above the kernel
    threshold 1e-9 max(1, |nu_k|) = 2e-9, so CHK-KER fails.  Against the
    rounding-noise kernel value 1e-15 the gap would read 5e7 and pass."""
    vals = np.array([1e-15, 5e-8, 1.0, 2.0])
    kd, gap = steklov._kernel_count(vals)
    assert kd == 1 and gap == pytest.approx(25.0)
    assert steklov._kernel_count(np.array([1e-15, 2e-12]))[1] == np.inf
    lab = verify.Lab()
    lab.primal = lambda spec, level, p: steklov.SpectrumResult(
        p, False, vals, None, kd, gap, np.zeros(len(vals)))
    rows = verify.run_check("CHK-KER", mesh.disk(), levels=[1, 2, 3], lab=lab)
    assert rows[0].case == "p=0" and rows[0].verdict == verify.FAIL
    assert rows[0].lhs == rows[0].rhs == 1.0


@pytest.mark.parametrize("spec", [mesh.disk(), mesh.ball()],
                         ids=["disk", "ball"])
def test_dual_check_can_fail(spec):
    """Halving every dual p=0 eigenvalue turns the CHK-DUAL p=0 row from
    PASS to FAIL, on the disk and on the ball at levels 1-3, the coarsest
    at which the ball's row passes unhalved; the ball's p=1 row is
    untouched.  The box cannot fail this way: its halved relative gap,
    0.638, stays inside the tolerance 0.926 that its extrapolation error
    bars allow."""
    lab = verify.Lab()
    rows = verify.run_check("CHK-DUAL", spec, lab=lab)
    assert {r.verdict for r in rows} == {verify.PASS}
    dual = lab.dual

    def halved(spec, level, p):
        r = dual(spec, level, p)
        if p:
            return r
        return dataclasses.replace(r, eigenvalues=0.5 * r.eigenvalues)

    lab.dual = halved
    first, *rest = verify.run_check("CHK-DUAL", spec, lab=lab)
    assert first.case == "p=0"
    assert first.verdict == verify.FAIL and first.margin < 0
    assert [r.verdict for r in rest] == [verify.PASS] * (spec.dim - 2)


class _FixedGapLab:
    """Primal eigenvalue 1 and dual eigenvalue 1 + gap at every level, with
    zero extrapolation error bars."""

    def __init__(self, gaps):
        self.gaps = gaps

    def primal(self, spec, level, p):
        return steklov.SpectrumResult(p, False, np.array([1.0]), None, 0,
                                      0.0, np.zeros(1))

    def dual(self, spec, level, p):
        nu = 1.0 + self.gaps[level]
        return steklov.SpectrumResult(p, True, np.array([nu]), None, 0, 0.0,
                                      np.zeros(1))

    def nu(self, spec, levels, p):
        return 1.0, 0.0, None

    nu_dual = nu


def test_dual_check_margin_is_negative_when_the_gap_grows():
    """On the ball at levels 0-2 the dual p=0 gap grows (0.0642, 0.182,
    0.291) although its relative gap sits inside the tolerance: the row
    fails by that growth, with a negative margin and a note that names
    it.  At the default levels 1-3 the gap shrinks and the row passes
    with the margin tolerance minus relative gap (0.3152).  A gap equal at
    the first and last level fails like a growing one."""
    lab = verify.Lab()
    first = verify.run_check("CHK-DUAL", mesh.ball(), levels=[0, 1, 2],
                             lab=lab)[0]
    assert first.case == "p=0" and first.lhs < first.rhs
    assert first.verdict == verify.FAIL and first.margin < 0
    assert "gap not shrinking" in first.notes
    assert "relative gap above" not in first.notes
    first = verify.run_check("CHK-DUAL", mesh.ball(), lab=lab)[0]
    assert first.verdict == verify.PASS and "fails" not in first.notes
    assert first.margin == first.rhs - first.lhs
    assert abs(first.margin - 0.31518) < 1e-4
    equal, = verify._chk_dual(_FixedGapLab([0.01, 0.01, 0.01]), mesh.disk(),
                              [0, 1, 2])
    assert equal.verdict == verify.FAIL and equal.margin < 0
    assert equal.notes.endswith("fails: gap not shrinking over the sweep")


def test_hypothesis_violations_skip_not_fail():
    lab = verify.Lab()
    for cid in ("CHK-LOW-A", "CHK-LOW-B", "CHK-MONO", "CHK-ESC", "CHK-EQ1",
                "CHK-ISO-PAIR", "CHK-HODGE"):
        res = verify.run_check(cid, mesh.annulus(0.5, 1, 0),
                               levels=[0, 1, 2], lab=lab)
        assert all(r.verdict == verify.SKIPPED for r in res
                   if r.case not in ("no degrees in range",)), cid


def test_chk_ball_skips_other_domains():
    res = verify.run_check("CHK-BALL", mesh.box(1, 1, 1, 0),
                           levels=[0, 1, 2], lab=verify.Lab())
    assert res[0].verdict == verify.SKIPPED


def test_cons_holds_with_negative_curvature():
    # consecutive-degree inequality has no curvature hypothesis
    lab = verify.Lab()
    res = verify.run_check("CHK-CONS", mesh.annulus(0.5, 1, 0),
                           levels=[1, 2, 3], lab=lab)
    assert len(res) == 1
    r = res[0]
    assert r.verdict in (verify.PASS, verify.EQUALITY)
    # nu[1,1] = 0 (kernel) vs 0 + sigma_1 = -2: margin 2
    assert r.margin == pytest.approx(2.0, abs=1e-6)


def test_result_json_roundtrip():
    lab = verify.Lab()
    res = verify.run_check("CHK-KER", mesh.disk(0), levels=[1, 2], lab=lab)
    d = res[0].to_json()
    assert d["check_id"] == "CHK-KER"
    assert isinstance(d["margin"], float)
    skip = verify._skip("CHK-EQ1", mesh.annulus(0.5, 1, 0), "", "why")
    assert skip.to_json()["lhs"] is None


def test_suite_ordering_deterministic():
    lab = verify.Lab()
    specs = [mesh.annulus(0.5, 1, 0), mesh.disk(0)]
    rep = verify.run_suite(specs, levels=[0, 1, 2], ids=["CHK-KER"], lab=lab)
    keys = [(r.domain, r.check_id, r.case) for r in rep.runs]
    assert keys == sorted(keys)
    # the suite's meshes come back from the Lab memo, not rebuilt
    assert lab.mesh(specs[0], 1) is lab.mesh(specs[0], 1)


def test_lab_memo_keys_on_exact_parameters():
    lab = verify.Lab()
    near = mesh.ellipse(1.0000001, 0.7, 0)
    far = mesh.ellipse(1.0000004, 0.7, 0)
    assert near.label() == far.label() == "ellipse(1,0.7)"
    a, b = lab.mesh(near, 0), lab.mesh(far, 0)
    assert a is not b
    assert b.vertices[:, 0].max() == pytest.approx(1.0000004, abs=1e-12)


def _sym_psd_of_pencil(monkeypatch, perturb):
    """CHK-SYM/PSD on one primal pencil of the disk whose A is replaced by
    perturb(A, B) before it reaches the eigen-core."""
    K = mesh.generate(mesh.disk(2))
    Tr = feec.tangential_trace(K, 0)
    MS = feec.mass_matrix(K.boundary_complex(), 0)
    A = perturb(feec.stiffness(K, 0).tolil(), Tr.T @ MS @ Tr).tocsr()
    r = steklov._pencil_spectrum(A, Tr, MS, 8, 0, 2)
    lab = verify.Lab()
    monkeypatch.setattr(lab, "primal", lambda spec, level, p: r)
    (row,) = verify.run_check("CHK-SYM/PSD", mesh.disk(0), levels=[2], lab=lab)
    return row


def test_sym_psd_check_can_fail(monkeypatch):
    def asymmetric(A, B):
        i, j = A.nonzero()
        off = np.flatnonzero(i != j)[0]
        A[i[off], j[off]] += 1e-9 * abs(A).max()
        return A

    row = _sym_psd_of_pencil(monkeypatch, lambda A, B: A)
    assert row.verdict == verify.PASS
    row = _sym_psd_of_pencil(monkeypatch, asymmetric)
    assert row.verdict == verify.FAIL and row.lhs > 1e-10
    row = _sym_psd_of_pencil(monkeypatch, lambda A, B: A - 2.0 * B)
    assert row.verdict == verify.FAIL and row.lhs <= 1e-10


def test_mv_check_can_fail(monkeypatch):
    """The ball mesh keeps the octahedral symmetry of its base, which
    averages every harmonic polynomial of degree <= 3 to zero on volume and
    boundary alike; the cubic invariant of degree 4 does not, so CHK-MV
    fails once the flux defect that bounds the gap is forced to zero."""
    spec = mesh.ball(0)
    monkeypatch.setattr(verify, "scalar_levels", lambda spec: [2])
    lab = verify.Lab()
    (row,) = verify.run_check("CHK-MV", spec, levels=[2], lab=lab)
    assert row.verdict == verify.PASS
    exact = dataclasses.replace(lab.exit_time(spec, 2), defect=0.0)
    monkeypatch.setattr(lab, "exit_time", lambda spec, level: exact)
    (row,) = verify.run_check("CHK-MV", spec, levels=[2], lab=lab)
    assert row.verdict == verify.FAIL and row.lhs > 1e-3
    symmetric = forms.harmonic_polynomials(3)[:-1]
    monkeypatch.setattr(scalar, "harmonic_polynomials", lambda dim: symmetric)
    assert scalar.mean_value_gap(lab.mesh(spec, 2)) < 1e-12
