"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Heavy computations run once through a module-scoped cache shared by all
criteria.  One known red: the 3-d flux-defect threshold of criterion 8 is
unreachable at desk scale (see notes in the failure message); the test
asserts the criterion as stated and reports honestly.
"""

import numpy as np
import pytest

from formsteklov import feec, mesh, steklov, verify

D_DISK = mesh.disk(0)
D_ELLIPSE = mesh.ellipse(1, 0.7, 0)
D_ANNULUS = mesh.annulus(0.5, 1, 0)
D_BALL = mesh.ball(0)
D_ELLIPSOID = mesh.ellipsoid(1, 0.8, 0.7, 0)
D_SHELL = mesh.shell(0.5, 1, 0)
D_BOX = mesh.box(1, 1, 1, 0)
ALL_DOMAINS = [D_DISK, D_ELLIPSE, D_ANNULUS, D_BALL, D_ELLIPSOID, D_SHELL,
               D_BOX]

INEQUALITY_IDS = ["CHK-LOW-A", "CHK-LOW-B", "CHK-EQ1", "CHK-CONS",
                  "CHK-MONO", "CHK-ISO-N", "CHK-ISO-PAIR", "CHK-FIELD",
                  "CHK-HODGE", "CHK-ESC", "CHK-BIH"]


@pytest.fixture(scope="module")
def lab():
    return verify.Lab()


@pytest.fixture(scope="module")
def suite(lab):
    return verify.run_suite(ALL_DOMAINS, lab=lab)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def disk_steklov_oracle(count):
    """Independent oracle (separation of variables): the classical Steklov
    spectrum of the unit disk is 0, 1, 1, 2, 2, 3, 3, ..."""
    vals = [0.0]
    k = 1
    while len(vals) < count:
        vals += [float(k), float(k)]
        k += 1
    return np.array(vals[:count])


def test_criterion_1_disk_classical():
    """Seven disk eigenvalues per level, more than the verify Lab reads
    (the kernel and nu[2,0]), so the sweep solves its own spectra."""
    levels = [2, 3, 4, 5]
    oracle = disk_steklov_oracle(7)
    spectra = [steklov.solve_primal(mesh.generate(D_DISK.with_level(l)), 0,
                                    k=7, level=l) for l in levels]
    problems = []
    orders = []
    for idx in range(1, 7):
        vals = [float(r.eigenvalues[idx]) for r in spectra]
        st = verify.richardson(levels, vals, f"disk nu[{idx + 1},0]")
        if abs(st.extrapolated - oracle[idx]) > 0.01 * oracle[idx]:
            problems.append(f"index {idx}: {st.extrapolated:.5f} vs "
                            f"{oracle[idx]}")
        if st.order is None or not 1.7 <= st.order <= 2.3:
            problems.append(f"index {idx}: order {st.order}")
        orders.append(st.order)
    zero = float(spectra[-1].eigenvalues[0])
    if abs(zero) > 1e-9:
        problems.append(f"constant mode {zero}")
    ok = _report(1, not problems,
                 f"disk p=0 extrapolates to (0,1,1,2,2,3,3) within 1%, "
                 f"orders {np.round(orders, 2).tolist()}")
    assert ok, problems


def test_criterion_2_ball_values(lab):
    problems = []
    nu22, _, _ = lab.nu(D_BALL, [1, 2, 3], 2)
    if abs(nu22 - 3.0) > 0.03 * 3.0:
        problems.append(f"nu[1,2](ball) = {nu22}")
    nu21, _, _ = lab.nu(D_BALL, [1, 2, 3], 1)
    if abs(nu21 - 5.0 / 3.0) > 0.03 * 5.0 / 3.0:
        problems.append(f"nu[1,1](ball) = {nu21} (advisory reference)")
    nu11, _, _ = lab.nu(D_DISK, [2, 3, 4, 5], 1)
    if abs(nu11 - 2.0) > 0.01 * 2.0:
        problems.append(f"nu[1,1](disk) = {nu11}")
    ok = _report(2, not problems,
                 f"nu[1,2](B3)={nu22:.4f} (3 +- 3%), nu[1,1](B3)={nu21:.4f} "
                 f"(5/3 +- 3%, advisory), nu[1,1](B2)={nu11:.4f} (2 +- 1%)")
    assert ok, problems


def test_criterion_3_duality(lab):
    problems = []
    details = []
    for spec in (D_DISK, D_BALL, D_ELLIPSE):
        levels = verify.default_levels(spec)
        n = spec.dim - 1
        gaps = []
        for l in levels:
            nu_p = float(lab.primal(spec, l, n).eigenvalues[0])
            nu_d = float(lab.dual(spec, l, 0).eigenvalues[0])
            gaps.append(abs(nu_p - nu_d) / abs(nu_p))
        details.append(f"{spec.label()}: {gaps[-1]:.4%}")
        if gaps[-1] > 0.02:
            problems.append(f"{spec.label()}: finest gap {gaps[-1]:.3%}")
        if gaps[-1] >= gaps[0]:
            problems.append(f"{spec.label()}: gap not decreasing {gaps}")
    ok = _report(3, not problems, "duality gaps at finest level: "
                 + ", ".join(details))
    assert ok, problems


def test_criterion_4_kernel_topology(lab):
    cases = [(D_DISK, 1, 0), (D_ANNULUS, 1, 1), (D_BALL, 1, 0),
             (D_BALL, 2, 0), (D_SHELL, 2, 1)]
    problems = []
    for spec, p, expected in cases:
        level = verify.default_levels(spec)[-1]
        r = lab.primal(spec, level, p)
        if r.kernel_dim != expected or r.gap_ratio < 100.0:
            problems.append(f"{spec.label()} p={p}: kernel {r.kernel_dim} "
                            f"(want {expected}), gap {r.gap_ratio:.3g}")
    ok = _report(4, not problems,
                 "kernel dimensions match Betti numbers exactly with gap "
                 "ratios >= 100")
    assert ok, problems


def test_criterion_5_matrix_symmetry_psd(lab):
    problems = []
    count = 0
    for spec in ALL_DOMAINS:
        for level in verify.default_levels(spec):
            for p in range(spec.dim):
                r = lab.primal(spec, level, p)
                count += 1
                scale = max(1.0, float(abs(r.eigenvalues[-1])))
                if r.sym_defect > 1e-10:
                    problems.append(f"{spec.label()} l{level} p={p}: "
                                    f"sym {r.sym_defect:.2e}")
                if r.eigenvalues[0] < -1e-8 * scale:
                    problems.append(f"{spec.label()} l{level} p={p}: "
                                    f"min eig {r.eigenvalues[0]:.2e}")
    ok = _report(5, not problems,
                 f"{count} assembled operators pass symmetry <= 1e-10 and "
                 "positive semidefiniteness >= -1e-8 (relative)")
    assert ok, problems


def test_criterion_6_inequality_suite(suite):
    strict_domains = {s.label() for s in
                      (D_DISK, D_ELLIPSE, D_BALL, D_ELLIPSOID, D_BOX)}
    gated_domains = {s.label() for s in (D_ANNULUS, D_SHELL)}
    problems = []
    skipped_seen = 0
    for r in suite.runs:
        if r.check_id not in INEQUALITY_IDS:
            continue
        if r.domain in strict_domains and r.verdict == verify.FAIL:
            problems.append(f"{r.domain} {r.check_id} [{r.case}] FAIL "
                            f"margin {r.margin:.3e}")
        if r.domain in gated_domains:
            if r.verdict == verify.FAIL:
                problems.append(f"{r.domain} {r.check_id} [{r.case}] FAIL")
            if r.verdict == verify.SKIPPED:
                skipped_seen += 1
    if skipped_seen == 0:
        problems.append("no SKIPPED verdicts on hypothesis-violating domains")
    ok = _report(6, not problems,
                 f"inequality suite has no FAIL; {skipped_seen} gated "
                 "SKIPPED rows on annulus/shell")
    assert ok, problems


def test_suite_has_no_fail_verdict(suite):
    """Module invariant: the shipped tolerance settings never produce FAIL
    on a benchmark domain (the verified statements are true; a FAIL would
    indicate an artifact bug)."""
    fails = [f"{r.domain} {r.check_id} [{r.case}]" for r in suite.runs
             if r.verdict == verify.FAIL]
    assert not fails, fails


def test_criterion_7_equality_detection(suite):
    eq_domains = {D_DISK.label(), D_BALL.label()}
    problems = []
    for r in suite.runs:
        if r.check_id not in ("CHK-ISO-N", "CHK-EQ1"):
            continue
        if r.domain in eq_domains and r.verdict != verify.EQUALITY:
            problems.append(f"{r.domain} {r.check_id}: {r.verdict}")
        if r.domain == D_ELLIPSE.label():
            if r.verdict == verify.EQUALITY:
                problems.append(f"ellipse {r.check_id} flagged equality")
            if r.margin <= 0.01 * abs(r.rhs):
                problems.append(f"ellipse {r.check_id} margin {r.margin:.4f}"
                                f" <= 1% of rhs {r.rhs:.4f}")
    ok = _report(7, not problems,
                 "equality detected on disk and ball only; ellipse margins "
                 "exceed 1% of the bound")
    assert ok, problems


def test_criterion_8_harmonic_domain(lab):
    problems = []
    details = []
    for spec in (D_DISK, D_BALL):
        levels = verify.scalar_levels(spec)
        defects = [lab.exit_time(spec, l).defect for l in levels]
        details.append(f"{spec.label()} defects {np.round(defects, 4).tolist()}")
        if defects[-1] > 1e-2:
            problems.append(
                f"{spec.label()}: defect {defects[-1]:.4f} > 1e-2 at finest "
                f"level {levels[-1]}")
        if not all(b < a for a, b in zip(defects, defects[1:])):
            problems.append(f"{spec.label()}: defect not decreasing {defects}")
    ell_levels = [l for l in verify.scalar_levels(D_ELLIPSE) if l >= 2]
    ell_defects = [lab.exit_time(D_ELLIPSE, l).defect for l in ell_levels]
    if min(ell_defects) < 1e-2:
        problems.append(f"ellipse defect below 1e-2: {ell_defects}")
    for spec in (D_DISK, D_BALL, D_ELLIPSE):
        level = verify.scalar_levels(spec)[-1]
        gap = lab.mv_gap(spec, level)
        defect = lab.exit_time(spec, level).defect
        if (gap <= 1e-2) != (defect <= 1e-2):
            problems.append(f"{spec.label()}: gap {gap:.2e} and defect "
                            f"{defect:.4f} do not track")
    ok = _report(8, not problems, "; ".join(details))
    assert ok, (
        "criterion 8 fails on the ball as stated: the consistent flux of "
        "the inscribed polytope has a genuine edge-layer variation decaying "
        "like h*log(1/h); measured defects 0.091/0.069/0.042/0.024 at "
        "levels 2-5 and 0.0123 at level 6 (2.1M tetrahedra), so <= 1e-2 "
        "needs ~1e7 cells, beyond desk scale.  See README's 'Install and "
        "test' note and demos/06_harmonic_domains.py.  "
        f"Sub-clause failures: {problems}")


def test_criterion_9_biharmonic(lab):
    problems = []
    mu_d, _, _ = lab.mu1(D_DISK, verify.mu_levels(D_DISK))
    if abs(mu_d - 2.0) > 0.02 * 2.0:
        problems.append(f"mu1(disk) = {mu_d}")
    mu_b, _, _ = lab.mu1(D_BALL, verify.mu_levels(D_BALL))
    if abs(mu_b - 3.0) > 0.03 * 3.0:
        problems.append(f"mu1(ball) = {mu_b}")
    for spec in ALL_DOMAINS:
        n = spec.dim - 1
        mu, eb_m, _ = lab.mu1(spec, verify.mu_levels(spec))
        nu, eb_n, _ = lab.nu(spec, verify.default_levels(spec), n)
        iso = lab.geometry(spec).iso_ratio
        tol = max(1e-6, 3 * (eb_m + eb_n))
        if not (nu - tol <= mu <= iso + tol):
            problems.append(f"{spec.label()}: chain {nu:.4f} <= {mu:.4f} "
                            f"<= {iso:.4f} violated (tol {tol:.2e})")
    ok = _report(9, not problems,
                 f"mu1(disk)={mu_d:.4f} (2 +- 2%), mu1(ball)={mu_b:.4f} "
                 "(3 +- 3%); squeeze holds on all domains")
    assert ok, problems


def test_criterion_10_combinatorial_exactness(lab, tmp_path):
    problems = []
    meshes = 0
    for spec in ALL_DOMAINS:
        for level in verify.default_levels(spec):
            K = lab.mesh(spec, level)
            meshes += 1
            bc = K.boundary_complex()
            for p in range(K.dim - 1):
                D1 = mesh.coboundary(K, p)
                if abs(mesh.coboundary(K, p + 1) @ D1).max():
                    problems.append(f"{spec.label()} l{level}: D D != 0")
                comm = (feec.tangential_trace(K, p + 1) @ D1
                        - mesh.coboundary(bc, p) @ feec.tangential_trace(K, p))
                if abs(comm).max():
                    problems.append(f"{spec.label()} l{level}: trace "
                                    "commutation fails")
        K1 = lab.mesh(spec, 1)
        p1 = tmp_path / f"{spec.family}.smesh"
        p2 = tmp_path / f"{spec.family}2.smesh"
        mesh.write_mesh(p1, K1)
        mesh.write_mesh(p2, mesh.read_mesh(p1))
        if p1.read_bytes() != p2.read_bytes():
            problems.append(f"{spec.label()}: io round trip not identical")
    ok = _report(10, not problems,
                 f"integer identities and byte-identical io on {meshes} meshes")
    assert ok, problems
