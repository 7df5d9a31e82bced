"""Registry of eigenvalue bounds and identities, evaluated on benchmark
domains with Richardson extrapolation and margin reporting.

Every check produces one or more CheckResult rows with an oriented margin
(nonnegative means the bound holds) and a tolerance derived from the
extrapolation error bars: tol = max(1e-6, 3 * sum of propagated error
bars).  Verdicts: PASS, FAIL, SKIPPED (hypotheses violated),
EQUALITY-DETECTED (margin within tolerance of zero), WARN (advisory
comparisons and strictness that cannot be certified numerically).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import feec, forms, geometry, hodge, mesh, scalar, steklov
from .errors import UnknownCheckError

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
EQUALITY = "EQUALITY-DETECTED"
WARN = "WARN"


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class ConvergenceStudy:
    quantity: str
    levels: list
    values: list
    order: float | None
    extrapolated: float
    error_bar: float
    flagged: bool = False
    note: str = ""

    def to_json(self):
        return {
            "quantity": self.quantity,
            "levels": [int(l) for l in self.levels],
            "values": [float(v) for v in self.values],
            "order": None if self.order is None else float(self.order),
            "extrapolated": float(self.extrapolated),
            "error_bar": float(self.error_bar),
            "flagged": bool(self.flagged),
            "note": self.note,
        }


def richardson(levels, values, quantity="") -> ConvergenceStudy:
    """Extrapolate a level sequence with halving mesh size.

    The order comes from the last pair of consecutive differences; the
    limit is v_h + (v_h - v_2h)/(2^q - 1).  Constant or non-monotone tails
    are flagged and fall back to the finest value with doubled tolerance.
    """
    values = [float(v) for v in values]
    if len(values) < 3:
        raise ValueError("need at least 3 levels for extrapolation")
    diffs = np.diff(values)
    scale = max(1.0, max(abs(v) for v in values))
    if np.all(np.abs(diffs) < 1e-13 * scale):
        return ConvergenceStudy(quantity, list(levels), values, None,
                                values[-1], 0.0, flagged=True,
                                note="constant sequence")
    d1, d2 = diffs[-2], diffs[-1]
    monotone = d1 * d2 > 0 and abs(d2) < abs(d1)
    if not monotone:
        return ConvergenceStudy(quantity, list(levels), values, None,
                                values[-1], 2.0 * abs(d2), flagged=True,
                                note="non-monotone tail, finest value used")
    q = math.log2(abs(d1) / abs(d2))
    limit = values[-1] + d2 / (2.0 ** q - 1.0)
    study = ConvergenceStudy(quantity, list(levels), values, q, limit,
                             abs(limit - values[-1]))
    if not 1.0 <= q <= 3.0:
        study.flagged = True
        study.note = f"estimated order {q:.2f} outside [1, 3]"
    return study


def reference_ball(n: int, p: int):
    """Exact first eigenvalue(s) of the unit ball in R^(n+1).

    Returns (values, advisory): for p = 0 the first two eigenvalues (0 and
    1); otherwise the first eigenvalue.  ``advisory`` marks the low-degree
    values that rest on an unproven reference and are reported WARN-class.
    """
    if n not in (1, 2) or not 0 <= p <= n:
        raise ValueError(f"reference out of range: n={n}, p={p}")
    if p == 0:
        return (Fraction(0), Fraction(1)), False
    if 2 * p >= n + 1:
        return (Fraction(p + 1),), False
    return (Fraction((n + 3) * p, n + 1),), True


# ---------------------------------------------------------------------------
# results


@dataclass
class CheckResult:
    check_id: str
    domain: str
    case: str
    hypotheses: str          # "satisfied" or "violated: <reason>"
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    verdict: str
    notes: str = ""
    studies: list = field(default_factory=list)

    def to_json(self):
        def num(x):
            x = float(x)
            return None if math.isnan(x) else x

        return {
            "check_id": self.check_id,
            "domain": self.domain,
            "case": self.case,
            "hypotheses": self.hypotheses,
            "lhs": num(self.lhs),
            "rhs": num(self.rhs),
            "margin": float(self.margin),
            "tolerance": float(self.tolerance),
            "verdict": self.verdict,
            "notes": self.notes,
            "studies": [s.to_json() for s in self.studies],
        }


@dataclass
class VerificationReport:
    runs: list

    def verdict_counts(self):
        out = {}
        for r in self.runs:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return out

    def has_fail(self):
        return any(r.verdict == FAIL for r in self.runs)

    def to_json(self):
        return {"runs": [r.to_json() for r in self.runs],
                "verdicts": self.verdict_counts()}


# ---------------------------------------------------------------------------
# cached quantity provider


def default_levels(spec: mesh.DomainSpec):
    if spec.dim == 2:
        return [2, 3, 4, 5]
    if spec.family == "shell":   # 24x the tetrahedra of a ball per level
        return [0, 1, 2]
    return [1, 2, 3]


def scalar_levels(spec: mesh.DomainSpec):
    """Levels for the cheap scalar (exit-time / mean-value) studies; the
    flux defect needs deeper refinement than the eigenvalue studies."""
    if spec.family == "ball":
        return [2, 3, 4, 5]
    return default_levels(spec)


def mu_levels(spec: mesh.DomainSpec):
    """Levels for the biharmonic solve: Lanczos on the harmonic-extension
    Gram operator, a few dozen interior stiffness solves per level."""
    if spec.dim == 2:
        return [3, 4, 5]
    if spec.family == "shell":
        return [0, 1, 2]
    return [2, 3, 4]


def _eigen_study(quantity, levels, vals, in_kernel):
    """(value, error bar, study) of one eigenvalue sweep: a kernel
    eigenvalue is exactly zero, with the largest computed magnitude as its
    error bar; any other is Richardson-extrapolated."""
    if in_kernel:
        study = ConvergenceStudy(quantity, list(levels), vals, None, 0.0,
                                 float(max(abs(v) for v in vals)),
                                 note="kernel eigenvalue")
        return 0.0, study.error_bar, study
    study = richardson(levels, vals, quantity)
    return study.extrapolated, study.error_bar, study


class Lab:
    """Memoizing provider of meshes, spectra and derived quantities, keyed
    on the exact domain parameters (never on the rounded report label).

    A spectrum is computed only as far as the checks read it: b_p + 1
    primal eigenpairs at degree p (the kernel and the first value above
    it, which is nu_{2,0} at p = 0 on a connected domain) and the first
    dual eigenpair."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- raw objects ------------------------------------------------------

    def mesh(self, spec, level):
        return self._get(("mesh", spec.family, spec.params, level),
                         lambda: mesh.generate(spec.with_level(level)))

    def betti(self, spec):
        return self._get(("betti", spec.family, spec.params),
                         lambda: mesh.betti(self.mesh(spec, 0)))

    def geometry(self, spec):
        return self._get(("geom", spec.family, spec.params),
                         lambda: geometry.analytic_geometry(spec))

    def primal(self, spec, level, p) -> steklov.SpectrumResult:
        return self._get(
            ("primal", spec.family, spec.params, level, p),
            lambda: steklov.solve_primal(self.mesh(spec, level), p,
                                         k=self.betti(spec)[p] + 1,
                                         level=level))

    def dual(self, spec, level, p) -> steklov.SpectrumResult:
        return self._get(
            ("dual", spec.family, spec.params, level, p),
            lambda: steklov.dual_spectrum(self.mesh(spec, level), p, k=1,
                                          level=level))

    def spectrum_records(self):
        """The record of every Steklov spectrum computed so far, in the
        order computed: the domain family, then the spectrum's own JSON
        (no wall time, so fixed inputs give identical records)."""
        return [{"family": key[1], **r.to_json()}
                for key, r in self._cache.items()
                if key[0] in ("primal", "dual")]

    def exit_time(self, spec, level) -> scalar.ExitTimeResult:
        return self._get(("exit", spec.family, spec.params, level),
                         lambda: scalar.mean_exit_time(self.mesh(spec, level)))

    def mv_gap(self, spec, level) -> float:
        return self._get(("mvgap", spec.family, spec.params, level),
                         lambda: scalar.mean_value_gap(self.mesh(spec, level)))

    def mu(self, spec, level) -> float:
        return self._get(
            ("mu", spec.family, spec.params, level),
            lambda: float(scalar.biharmonic_spectrum(self.mesh(spec, level), 1)[0]))

    def lambda1_level(self, spec, level) -> float:
        return self._get(
            ("lam1", spec.family, spec.params, level),
            lambda: hodge.boundary_spectrum(self.mesh(spec, level)).lambda1)

    # -- extrapolated quantities -------------------------------------------

    def nu(self, spec, levels, p, index=0):
        """Extrapolated eigenvalue nu_{index+1, p} with error bar and study.

        Eigenvalues inside the kernel (index < Betti number) are exact
        zeros of the discrete operator and are returned as such."""
        vals = [float(self.primal(spec, l, p).eigenvalues[index]) for l in levels]
        return _eigen_study(f"nu[{index + 1},{p}]({spec.label()})", levels,
                            vals, index < self.betti(spec)[p])

    def nu_dual(self, spec, levels, p):
        """Dual counterpart of ``nu`` for the first eigenvalue; its kernel
        is the Betti number of the complementary degree n - p."""
        vals = [float(self.dual(spec, l, p).eigenvalues[0]) for l in levels]
        n = spec.dim - 1
        return _eigen_study(f"nuD[1,{p}]({spec.label()})", levels, vals,
                            self.betti(spec)[n - p] > 0)

    def lambda1(self, spec, levels):
        vals = [self.lambda1_level(spec, l) for l in levels]
        return _eigen_study(f"lambda1({spec.label()})", levels, vals, False)

    def mu1(self, spec, levels):
        vals = [self.mu(spec, l) for l in levels]
        return _eigen_study(f"mu1({spec.label()})", levels, vals, False)


# ---------------------------------------------------------------------------
# the checks


def _tol(*error_bars_with_coefs):
    return max(1e-6, 3.0 * sum(abs(c) * e for e, c in error_bars_with_coefs))


def _bound(check_id, spec, case, lhs, rhs, tol, studies, strict=False):
    """Row of a bound lhs >= rhs with margin lhs - rhs: FAIL below -tol,
    EQUALITY-DETECTED within tol of zero (WARN when the bound is strict,
    which no tolerance can certify), PASS above."""
    margin = lhs - rhs
    if margin < -tol:
        verdict = FAIL
    elif abs(margin) <= tol:
        verdict = WARN if strict else EQUALITY
    else:
        verdict = PASS
    return CheckResult(check_id, spec.label(), case, "satisfied", lhs, rhs,
                       margin, tol, verdict, studies=studies)


def _skip(check_id, spec, case, reason):
    return CheckResult(check_id, spec.label(), case, f"violated: {reason}",
                       float("nan"), float("nan"), 0.0, 0.0, SKIPPED,
                       notes=reason)


def _chk_sym_psd(lab, spec, levels):
    """Symmetry of the sparse primal pencil and the sign of its lowest
    Lanczos eigenvalue, reported with that pair's residual (the eigen-core
    rejects residuals above 1e-8)."""
    n = spec.dim - 1
    worst_sym, worst_psd, worst_res = 0.0, 0.0, 0.0
    for level in levels:
        for p in range(n + 1):
            r = lab.primal(spec, level, p)
            worst_sym = max(worst_sym, r.sym_defect)
            scale = max(1.0, float(abs(r.eigenvalues[-1])))
            worst_psd = max(worst_psd, max(0.0, -float(r.eigenvalues[0])) / scale)
            worst_res = max(worst_res, float(r.residuals[0]))
    ok = worst_sym <= 1e-10 and worst_psd <= 1e-8
    return [CheckResult(
        "CHK-SYM/PSD", spec.label(), "all degrees/levels", "satisfied",
        worst_sym, 1e-10, 1e-10 - worst_sym, 0.0,
        PASS if ok else FAIL,
        notes=f"max symmetry defect {worst_sym:.2e}, "
              f"max negative part {worst_psd:.2e}, "
              f"max lowest-pair residual {worst_res:.2e}")]


def _chk_ker(lab, spec, levels):
    n = spec.dim - 1
    b = lab.betti(spec)
    out = []
    for p in range(n + 1):
        r = lab.primal(spec, levels[-1], p)
        ok = (r.kernel_dim == b[p]) and (r.gap_ratio >= 100.0)
        out.append(CheckResult(
            "CHK-KER", spec.label(), f"p={p}", "satisfied",
            float(r.kernel_dim), float(b[p]), r.gap_ratio / 100.0 - 1.0, 0.0,
            PASS if ok else FAIL,
            notes=f"kernel {r.kernel_dim} vs Betti {b[p]}, "
                  f"gap ratio {r.gap_ratio:.3g}"))
    return out


def _chk_dual(lab, spec, levels):
    n = spec.dim - 1
    degrees = [0] if spec.dim == 2 else [0, 1]
    out = []
    for p in degrees:
        gaps, refs = [], []
        for level in levels:
            nu_p = float(lab.primal(spec, level, n - p).eigenvalues[0])
            nu_d = float(lab.dual(spec, level, p).eigenvalues[0])
            gaps.append(abs(nu_p - nu_d))
            refs.append(abs(nu_p))
        if refs[-1] < 1e-8:
            ok = gaps[-1] < 1e-8
            out.append(CheckResult(
                "CHK-DUAL", spec.label(), f"p={p}", "satisfied",
                gaps[-1], 0.0, 1e-8 - gaps[-1], 1e-8,
                PASS if ok else FAIL, notes="both sides in the kernel"))
            continue
        # two estimates of the same number: the asymptotic 2% floor widens
        # by the propagated extrapolation error bars at coarse levels
        _, eb_p, st_p = lab.nu(spec, levels, n - p)
        _, eb_d, st_d = lab.nu_dual(spec, levels, p)
        rel = gaps[-1] / refs[-1]
        tol_rel = max(0.02, 3.0 * (eb_p + eb_d) / refs[-1])
        shrinking = gaps[-1] < gaps[0]
        margin = tol_rel - rel
        notes = f"gap per level {['%.3g' % g for g in gaps]}, shrinking={shrinking}"
        failed = [] if margin >= 0 else [f"relative gap above {tol_rel:.3g}"]
        if not shrinking:
            # a gap that does not shrink fails by its growth over the sweep,
            # measured from the float below gaps[0] so that an equal gap
            # fails with a negative margin too
            margin = min(margin, (np.nextafter(gaps[0], -np.inf) - gaps[-1])
                         / refs[-1])
            failed.append("gap not shrinking over the sweep")
        if failed:
            notes += "; fails: " + " and ".join(failed)
        out.append(CheckResult(
            "CHK-DUAL", spec.label(), f"p={p}", "satisfied",
            rel, tol_rel, margin, 0.0, FAIL if failed else PASS,
            notes=notes, studies=[st_p, st_d]))
    return out


def _chk_low(lab, spec, levels, branch):
    n = spec.dim - 1
    g = lab.geometry(spec)
    if branch == "A":
        degrees = [p for p in range(1, n + 1) if 2 * p < n + 1]
        strict = True
    else:
        degrees = [p for p in range(1, n + 1) if 2 * p >= n + 1]
        strict = False
    cid = f"CHK-LOW-{branch}"
    if not degrees:
        return [CheckResult(cid, spec.label(), "no degrees in range",
                            "satisfied", 0.0, 0.0, 0.0, 0.0, PASS,
                            notes="vacuously true in this dimension")]
    out = []
    for p in degrees:
        sig = g.sigma[p - 1]
        if sig <= 0:
            out.append(_skip(cid, spec, f"p={p}",
                             f"sigma_{p} = {sig:g} not strictly positive"))
            continue
        nu, eb, study = lab.nu(spec, levels, p)
        factor = (n - p + 2) / (n - p + 1) if branch == "A" else (p + 1) / p
        rhs = factor * sig
        tol = _tol((eb, 1.0))
        out.append(_bound(cid, spec, f"p={p}", nu, rhs, tol, [study],
                          strict=strict))
    return out


def _chk_eq1(lab, spec, levels):
    n = spec.dim - 1
    g = lab.geometry(spec)
    if g.H < 0:
        return [_skip("CHK-EQ1", spec, "", f"H = {g.H:g} < 0 (not mean-convex)")]
    nu, eb, study = lab.nu(spec, levels, n)
    rhs = (n + 1) * g.H
    tol = _tol((eb, 1.0))
    return [_bound("CHK-EQ1", spec, "", nu, rhs, tol, [study])]


def _chk_cons(lab, spec, levels):
    n = spec.dim - 1
    g = lab.geometry(spec)
    out = []
    for p in range(1, n + 1):
        nu_p, eb_p, st_p = lab.nu(spec, levels, p)
        nu_q, eb_q, st_q = lab.nu(spec, levels, p - 1)
        rhs = nu_q + g.sigma[p - 1] / p
        tol = _tol((eb_p, 1.0), (eb_q, 1.0))
        out.append(_bound("CHK-CONS", spec, f"p={p}", nu_p, rhs, tol,
                          [st_p, st_q]))
    return out


def _chk_mono(lab, spec, levels):
    n = spec.dim - 1
    g = lab.geometry(spec)
    if not g.convex:
        return [_skip("CHK-MONO", spec, "", f"sigma_1 = {g.sigma[0]:g} < 0")]
    if n < 2:
        return [CheckResult("CHK-MONO", spec.label(), "chain of length 1",
                            "satisfied", 0.0, 0.0, 0.0, 0.0, PASS,
                            notes="vacuously true in this dimension")]
    worst, tol_acc, studies = np.inf, 0.0, []
    for p in range(1, n):
        nu_a, eb_a, st_a = lab.nu(spec, levels, p)
        nu_b, eb_b, st_b = lab.nu(spec, levels, p + 1)
        worst = min(worst, nu_b - nu_a)
        tol_acc += 3.0 * (eb_a + eb_b)
        studies += [st_a, st_b]
    tol = max(1e-6, tol_acc)
    return [_bound("CHK-MONO", spec, "", worst, 0.0, tol, studies)]


def _chk_iso_n(lab, spec, levels):
    n = spec.dim - 1
    g = lab.geometry(spec)
    nu, eb, study = lab.nu(spec, levels, n)
    row = _bound("CHK-ISO-N", spec, "", g.iso_ratio, nu, _tol((eb, 1.0)),
                 [study])
    if row.verdict == EQUALITY:
        d = lab.exit_time(spec, scalar_levels(spec)[-1]).defect
        row.notes = (f"equality case: exit-time defect {d:.3g} at finest "
                     "scalar level")
    return [row]


def _chk_iso_pair(lab, spec, levels):
    n = spec.dim - 1
    g = lab.geometry(spec)
    b = lab.betti(spec)
    out = []
    for p in range(2, n + 1):
        if b[p] != 0 or b[n + 1 - p] != 0:
            out.append(_skip("CHK-ISO-PAIR", spec, f"parallel p={p}",
                             f"H^{p} or relative H^{p} nonzero "
                             f"(b_{p}={b[p]}, b_{n + 1 - p}={b[n + 1 - p]})"))
            continue
        nu_a, eb_a, st_a = lab.nu(spec, levels, p - 1)
        nu_b, eb_b, st_b = lab.nu(spec, levels, n - p)
        out.append(_bound("CHK-ISO-PAIR", spec, f"parallel p={p}",
                          g.iso_ratio, nu_a + nu_b,
                          _tol((eb_a, 1.0), (eb_b, 1.0)), [st_a, st_b]))
    # linear-function variant: nu_{2,0} + nu_{1,n-1} <= iso ratio
    if b[n] != 0:
        out.append(_skip("CHK-ISO-PAIR", spec, "linear function",
                         f"relative H^1 nonzero (b_{n}={b[n]})"))
    else:
        nu2, eb2, st2 = lab.nu(spec, levels, 0, index=1)
        nu_b, eb_b, st_b = lab.nu(spec, levels, n - 1)
        out.append(_bound("CHK-ISO-PAIR", spec, "linear function",
                          g.iso_ratio, nu2 + nu_b,
                          _tol((eb2, 1.0), (eb_b, 1.0)), [st2, st_b]))
    return out


def _field_samples(dim):
    """Sampled harmonic fields (key, field, degree, parallel?): one
    parallel form per degree and two differentials of harmonic
    polynomials."""
    samples = [(f"parallel {p}-form", forms.parallel_form(dim, range(p)), p,
                True) for p in range(1, dim + 1)]
    grads_of = {name: grads
                for name, _, grads in forms.harmonic_polynomials(dim)}
    chosen = ("Re z^2", "Im z^4") if dim == 2 else ("z", "z(2z2-3x2-3y2)")
    samples += [(f"d({name})", forms.gradient_field(dim, grads_of[name],
                                                    name=name), 1, False)
                for name in chosen]
    return samples


def _chk_field(lab, spec, levels):
    n = spec.dim - 1
    b = lab.betti(spec)
    out = []
    for key, fld, p, is_parallel in _field_samples(spec.dim):
        vol = feec.integrate_analytic(spec, fld, "vol_norm")
        nor = feec.integrate_analytic(spec, fld, "nor_norm")
        # exact branch: the field is exact by construction
        if p >= 2:
            nu, eb, st = lab.nu(spec, levels, p - 1)
            label = f"exact, nu[1,{p - 1}]"
        else:
            nu, eb, st = lab.nu(spec, levels, 0, index=1)
            label = "exact, nu[2,0]"
        out.append(_bound("CHK-FIELD", spec, f"{key}: {label}", nor,
                          nu * vol, _tol((eb, vol)), [st]))
        # co-exact branch (constructively co-exact only for parallel forms;
        # for gradients it needs vanishing top cohomology)
        if p <= n:
            if not is_parallel and b[n] != 0:
                out.append(_skip("CHK-FIELD", spec, f"{key}: co-exact",
                                 f"b_{n} = {b[n]} obstructs co-exactness"))
            else:
                tan = feec.integrate_analytic(spec, fld, "tan_norm")
                nu2, eb2, st2 = lab.nu(spec, levels, n - p)
                out.append(_bound("CHK-FIELD", spec,
                                  f"{key}: co-exact, nu[1,{n - p}]", tan,
                                  nu2 * vol, _tol((eb2, vol)), [st2]))
    return out


def _chk_hodge(lab, spec, levels):
    n = spec.dim - 1
    g = lab.geometry(spec)
    b = lab.betti(spec)
    out = []
    for p in range(1, n + 1):
        reasons = []
        if b[n + 1 - p] != 0:
            reasons.append(f"relative H^{p} nonzero (b_{n + 1 - p} = {b[n + 1 - p]})")
        if min(g.sigma[p - 1], g.sigma[n - p]) < 0:
            reasons.append("p-curvature sign hypothesis fails")
        if reasons:
            out.append(_skip("CHK-HODGE", spec, f"p={p}", "; ".join(reasons)))
            continue
        lam, eb_l, st_l = lab.lambda1(spec, levels)
        nu_a, eb_a, st_a = lab.nu(spec, levels, n - p)
        nu_b, eb_b, st_b = lab.nu(spec, levels, p - 1)
        rhs = 0.5 * (g.sigma[p - 1] * nu_a + g.sigma[n - p] * nu_b)
        tol = _tol((eb_l, 1.0), (eb_a, 0.5 * g.sigma[p - 1]),
                   (eb_b, 0.5 * g.sigma[n - p]))
        out.append(_bound("CHK-HODGE", spec, f"p={p}", lam, rhs, tol,
                          [st_l, st_a, st_b]))
    return out


def _chk_esc(lab, spec, levels):
    n = spec.dim - 1
    g = lab.geometry(spec)
    if g.sigma[0] <= 0:
        return [_skip("CHK-ESC", spec, "", f"sigma_1 = {g.sigma[0]:g} "
                      "not strictly positive")]
    lam, eb_l, st_l = lab.lambda1(spec, levels)
    nu_nm1, eb_a, st_a = lab.nu(spec, levels, n - 1)
    nu20, eb_b, st_b = lab.nu(spec, levels, 0, index=1)
    nH = n * g.H
    rhs = 0.5 * (g.sigma[0] * nu_nm1 + nH * nu20)
    tol = _tol((eb_l, 1.0), (eb_a, 0.5 * g.sigma[0]), (eb_b, 0.5 * nH))
    main = _bound("CHK-ESC", spec, "sharpened bound", lam, rhs, tol,
                  [st_l, st_a, st_b])
    classic = _bound("CHK-ESC", spec, "classical bound", lam, 0.5 * nH * nu20,
                     _tol((eb_l, 1.0), (eb_b, 0.5 * nH)), [st_l, st_b],
                     strict=True)
    return [main, classic]


def _chk_bih(lab, spec, levels):
    n = spec.dim - 1
    g = lab.geometry(spec)
    mu, eb_m, st_m = lab.mu1(spec, mu_levels(spec))
    nu, eb_n, st_n = lab.nu(spec, levels, n)
    tol = _tol((eb_m, 1.0))
    out = [_bound("CHK-BIH", spec, "vs top-degree eigenvalue", mu, nu,
                  _tol((eb_m, 1.0), (eb_n, 1.0)), [st_m, st_n])]
    if g.H >= 0:
        out.append(_bound("CHK-BIH", spec, "vs mean curvature", mu,
                          (n + 1) * g.H, tol, [st_m]))
    else:
        out.append(_skip("CHK-BIH", spec, "vs mean curvature",
                         f"H = {g.H:g} < 0"))
    out.append(_bound("CHK-BIH", spec, "vs isoperimetric ratio", g.iso_ratio,
                      mu, tol, [st_m]))
    return out


def _chk_mv(lab, spec, levels):
    g = lab.geometry(spec)
    level = scalar_levels(spec)[-1]
    gap = lab.mv_gap(spec, level)
    defect = lab.exit_time(spec, level).defect
    # provable direction: the mean-value gap of a harmonic function is
    # bounded by the flux deviation times area/volume
    bound = defect * g.iso_ratio + 1e-6
    margin = bound - gap
    verdict = PASS if margin >= 0 else FAIL
    return [CheckResult("CHK-MV", spec.label(), f"level {level}", "satisfied",
                        gap, bound, margin, 1e-6, verdict,
                        notes=f"gap {gap:.3g} vs defect {defect:.3g}")]


def _chk_ball(lab, spec, levels):
    if spec.family not in ("disk", "ball"):
        return [_skip("CHK-BALL", spec, "", "reference values hold for the "
                      "unit ball family only")]
    n = spec.dim - 1
    out = []
    (zero_ref, one_ref), _ = reference_ball(n, 0)
    nu1, eb1, st1 = lab.nu(spec, levels, 0, index=0)
    nu2, eb2, st2 = lab.nu(spec, levels, 0, index=1)
    tol = _tol((eb2, 1.0))
    dev = abs(nu2 - float(one_ref))
    out.append(CheckResult(
        "CHK-BALL", spec.label(), "nu[2,0]", "satisfied",
        nu2, float(one_ref), tol - dev, tol,
        PASS if dev <= tol else FAIL,
        notes=f"nu[1,0] = {nu1:.2e} (exact 0)", studies=[st1, st2]))
    for p in range(1, n + 1):
        (ref,), advisory = reference_ball(n, p)
        nu, eb, st = lab.nu(spec, levels, p)
        tol = _tol((eb, 1.0))
        dev = abs(nu - float(ref))
        if advisory:
            verdict = WARN
            note = "advisory reference value (unproven); deviation recorded"
        else:
            verdict = PASS if dev <= tol else FAIL
            note = ""
        out.append(CheckResult(
            "CHK-BALL", spec.label(), f"p={p}", "satisfied",
            nu, float(ref), tol - dev, tol, verdict, notes=note, studies=[st]))
    return out


_REGISTRY = {
    "CHK-SYM/PSD": (_chk_sym_psd, "operator symmetry and positive semidefiniteness"),
    "CHK-KER": (_chk_ker, "kernel dimension equals the Betti number"),
    "CHK-DUAL": (_chk_dual, "dual first eigenvalue matches the complementary degree"),
    "CHK-LOW-A": (lambda lab, s, l: _chk_low(lab, s, l, "A"),
                  "strict lower bound by p-curvatures, low degrees"),
    "CHK-LOW-B": (lambda lab, s, l: _chk_low(lab, s, l, "B"),
                  "sharp lower bound by p-curvatures, high degrees"),
    "CHK-EQ1": (_chk_eq1, "top-degree bound by the mean curvature"),
    "CHK-CONS": (_chk_cons, "consecutive-degree inequality"),
    "CHK-MONO": (_chk_mono, "monotonicity in the degree on convex domains"),
    "CHK-ISO-N": (_chk_iso_n, "top-degree bound by the isoperimetric ratio"),
    "CHK-ISO-PAIR": (_chk_iso_pair, "paired-degree isoperimetric bound"),
    "CHK-FIELD": (_chk_field, "harmonic-field boundary/volume ratios"),
    "CHK-HODGE": (_chk_hodge, "boundary form-Laplacian lower bound"),
    "CHK-ESC": (_chk_esc, "boundary function-Laplacian lower bounds"),
    "CHK-BIH": (_chk_bih, "biharmonic Steklov squeeze"),
    "CHK-MV": (_chk_mv, "mean-value property vs flux defect"),
    "CHK-BALL": (_chk_ball, "ball reference eigenvalues"),
}


def check_ids():
    return list(_REGISTRY.keys())


def run_check(check_id, spec, levels=None, lab=None):
    """Evaluate one registered check on one domain; returns CheckResults."""
    if check_id not in _REGISTRY:
        raise UnknownCheckError(check_id)
    lab = lab or Lab()
    levels = levels or default_levels(spec)
    fn, _ = _REGISTRY[check_id]
    return fn(lab, spec, levels)


def run_suite(specs, levels=None, ids=None, lab=None) -> VerificationReport:
    """Run checks over a domain list; report rows ordered by
    (domain, check id, case)."""
    ids = ids or check_ids()
    lab = lab or Lab()
    runs = []
    for spec in specs:
        lv = levels or default_levels(spec)
        for cid in ids:
            runs += run_check(cid, spec, levels=lv, lab=lab)
    runs.sort(key=lambda r: (r.domain, r.check_id, r.case))
    return VerificationReport(runs=runs)
