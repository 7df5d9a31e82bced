"""The three benchmark workloads: inputs drawn from a seed, one pass over
them through the public API, and the correctness gate on the outputs.

A pass returns a ``PassOutcome``.  An operation is one (domain, check)
evaluation of the CLI ``verify`` command, one ``Lab`` quantity, or one
comparison with an analytic reference; it fails when it raises, gets a FAIL
verdict, or gives an output that the gate here rejects.
"""

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

# A verify row of these checks must be PASS, not just "not FAIL".
STRICT_CHECKS = ("CHK-KER", "CHK-SYM/PSD")
REF_TOL = 0.01                 # analytic references within 1%
EXIT_REF_TOL = 0.05            # nodal exit-time error at the finest level
IDENTITY_TOL = 1e-10           # mean flux = vol/area (discrete divergence)


@dataclass
class PassOutcome:
    attempted: int = 0
    failed: int = 0
    ref_rel_err: float = 0.0
    report_bytes: int = 0
    notes: list = field(default_factory=list)    # failure descriptions
    outputs: dict = field(default_factory=dict)  # reported, never gated

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _uniform(rng, centre, rel):
    return round(centre * rng.uniform(1.0 - rel, 1.0 + rel), 4)


def draw_ellipse(rng):
    """Semi-axes near the acceptance ellipse (1, 0.7)."""
    return _uniform(rng, 1.0, 0.05), _uniform(rng, 0.7, 0.05)


def _run_cli(pkg, argv):
    """``formsteklov`` CLI in-process with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return pkg.cli.main(["--deterministic", *argv])


def _verify_domain(pkg, out, flags, prefix, levels, checks):
    """One ``verify`` command; every (domain, check) pair is an operation."""
    argv = ["verify", *flags, "--report", prefix]
    if levels:
        argv += ["--levels", *map(str, levels)]
    if checks:
        argv += ["--checks", ",".join(checks)]
    ids = list(checks or pkg.verify.check_ids())
    label = flags[1]
    try:
        rc = _run_cli(pkg, argv)
        with open(prefix + ".json", encoding="utf-8") as f:
            rows = json.load(f)["runs"]
    except Exception as exc:  # counted as failed operations, pass goes on
        for cid in ids:
            out.op(False, f"{label} {cid}: {type(exc).__name__}: {exc}")
        return
    out.report_bytes += sum(
        os.path.getsize(os.path.join(os.path.dirname(prefix), name))
        for name in os.listdir(os.path.dirname(prefix))
        if name.startswith(os.path.basename(prefix)))
    for cid in ids:
        mine = [r for r in rows if r["check_id"] == cid]
        bad = [r for r in mine if r["verdict"] == "FAIL"
               or (cid in STRICT_CHECKS and r["verdict"] != "PASS")]
        out.op(rc == 0 and bool(mine) and not bad,
               f"{label} {cid}: exit {rc}, {len(mine)} rows, "
               f"{[r['case'] for r in bad]} bad")


def _reference(pkg, out, argv, path, expected, what):
    """Extrapolated eigenvalues of a CLI ``spectrum`` sweep against exact
    values; returns the largest relative deviation (inf on failure)."""
    try:
        rc = _run_cli(pkg, ["spectrum", *argv, "--out", path])
        with open(path, encoding="utf-8") as f:
            studies = json.load(f)["convergence"]
        got = {s["quantity"]: s["extrapolated"] for s in studies}
        err = max(abs(got[f"eigenvalue[{i}]"] - v) / v
                  for i, v in expected.items())
    except Exception as exc:  # counted as a failed operation
        out.op(False, f"{what}: {type(exc).__name__}: {exc}")
        return math.inf
    out.op(rc == 0 and err <= REF_TOL, f"{what}: exit {rc}, rel err {err:.3g}")
    return err


class VerifyPlane:
    """CLI ``verify`` with all checks on disk, ellipse and annulus at their
    default levels; the disk's classical spectrum is the reference."""

    name = "verify-plane"

    def __init__(self, seed, smoke=False):
        rng = random.Random(seed)
        a, b = draw_ellipse(rng)
        r_in, r_out = _uniform(rng, 0.5, 0.05), _uniform(rng, 1.0, 0.05)
        self.domains = [
            ["--domain", "disk"],
            ["--domain", "ellipse", "--a", str(a), "--b", str(b)],
            ["--domain", "annulus", "--rin", str(r_in), "--rout", str(r_out)],
        ]
        self.levels = [1, 2, 3] if smoke else None
        self.checks = ("CHK-SYM/PSD", "CHK-KER", "CHK-DUAL") if smoke else None
        self.inputs = {"ellipse": (a, b), "annulus": (r_in, r_out)}

    def run(self, pkg, tmp):
        out = PassOutcome()
        for flags in self.domains:
            _verify_domain(pkg, out, flags, os.path.join(tmp, flags[1]),
                           self.levels, self.checks)
        # nu[2..7,0] of the unit disk are 1, 1, 2, 2, 3, 3
        out.ref_rel_err = _reference(
            pkg, out, ["--domain", "disk", "--degree", "0", "--count", "8"],
            os.path.join(tmp, "disk_spectrum.json"),
            {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}, "disk reference")
        return out


class VerifyBox:
    """CLI ``verify`` with all checks on one box at its default levels; the
    unit ball's exact Steklov values are the 3-d reference."""

    name = "verify-box"

    def __init__(self, seed, smoke=False):
        rng = random.Random(seed)
        self.sides = tuple(_uniform(rng, 1.0, 0.1) for _ in range(3))
        self.levels = [0, 1, 2] if smoke else None
        self.checks = ("CHK-SYM/PSD", "CHK-KER", "CHK-DUAL") if smoke else None
        self.inputs = {"box": self.sides}

    def run(self, pkg, tmp):
        out = PassOutcome()
        lx, ly, lz = map(str, self.sides)
        _verify_domain(pkg, out, ["--domain", "box", "--lx", lx, "--ly", ly,
                                  "--lz", lz],
                       os.path.join(tmp, "box"), self.levels, self.checks)
        # unit ball: nu[2..4,0] = 1 (scalar) and nu[1,2] = 3 (top degree,
        # through the mixed Schur reduction)
        err0 = _reference(
            pkg, out, ["--domain", "ball", "--degree", "0", "--count", "4",
                       "--levels", "1", "2", "3"],
            os.path.join(tmp, "ball_p0.json"), {1: 1, 2: 1, 3: 1},
            "ball reference p=0")
        err2 = _reference(
            pkg, out, ["--domain", "ball", "--degree", "2", "--count", "1",
                       "--levels", "0", "1", "2"],
            os.path.join(tmp, "ball_p2.json"), {0: 3}, "ball reference p=2")
        out.ref_rel_err = max(err0, err2)
        return out


class HarmonicScalar:
    """``Lab.exit_time`` and ``Lab.mv_gap`` at every scalar level of disk,
    ellipse and ball; no Steklov solve.  The analytic exit time
    (1 - |x|^2) / (2 dim) of disk and ball is the reference."""

    name = "harmonic-scalar"

    def __init__(self, seed, smoke=False):
        rng = random.Random(seed)
        self.ellipse = draw_ellipse(rng)
        self.smoke = smoke
        self.inputs = {"ellipse": self.ellipse}

    def run(self, pkg, tmp):
        mesh, verify = pkg.mesh, pkg.verify
        out = PassOutcome()
        lab = verify.Lab()
        specs = [mesh.disk(), mesh.ellipse(*self.ellipse), mesh.ball()]
        for spec in specs:
            levels = verify.scalar_levels(spec)
            if self.smoke:
                levels = levels[:2]
            for level in levels:
                what = f"{spec.label()} level {level}"
                try:
                    r = lab.exit_time(spec, level)
                    ident = abs(r.mean_flux - r.vol_ratio) / r.vol_ratio
                    ok = ident <= IDENTITY_TOL and math.isfinite(r.defect)
                except Exception as exc:  # counted as a failed operation
                    ok, ident = False, f"{type(exc).__name__}: {exc}"
                out.op(ok, f"{what} exit time: flux identity {ident}")
                try:
                    gap = lab.mv_gap(spec, level)
                    ok = math.isfinite(gap) and gap >= 0.0
                except Exception as exc:  # counted as a failed operation
                    ok, gap = False, f"{type(exc).__name__}: {exc}"
                out.op(ok, f"{what} mean-value gap {gap}")
        disk, ball = specs[0], specs[2]
        finest = {spec: verify.scalar_levels(spec)[1 if self.smoke else -1]
                  for spec in (disk, ball)}
        try:
            errs = []
            for spec, level in finest.items():
                E = lab.exit_time(spec, level).E
                x = lab.mesh(spec, level).vertices
                exact = (1.0 - (x * x).sum(axis=1)) / (2 * spec.dim)
                errs.append(float(abs(E - exact).max() / exact.max()))
            out.ref_rel_err = max(errs)
            # the ball's finest flux defect stays above the 1e-2 threshold
            # of acceptance criterion 8; reported, never gated
            out.outputs["ball_defect"] = lab.exit_time(ball, finest[ball]).defect
            out.outputs["ball_defect_level"] = finest[ball]
        except Exception as exc:  # counted as a failed operation
            out.ref_rel_err = math.inf
            out.notes.append(f"exit-time reference: {type(exc).__name__}: {exc}")
        out.op(out.ref_rel_err <= EXIT_REF_TOL,
               f"exit-time reference: rel err {out.ref_rel_err:.3g}")
        return out


WORKLOADS = {w.name: w for w in (VerifyPlane, VerifyBox, HarmonicScalar)}
