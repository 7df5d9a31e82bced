"""Command-line surface: mesh generation, spectrum computation with level
sweeps, and the verification suite with report/plot-data emission.

A single ``verify --levels L`` sweeps the four levels ending at L.

Exit codes: 0 success (including WARN verdicts), 2 invalid domain
parameters (each must be finite and positive), a malformed mesh file (a
non-finite coordinate, an inverted or degenerate top simplex or a
non-manifold face included), a file that cannot be read or written, a
spectrum run given neither ``--domain`` nor ``--mesh``, ``--levels`` not
strictly increasing, a spectrum ``--count`` below 1 or ``--degree``
outside 0..dim-1, an unknown check id or a verify sweep of fewer than
three levels, 3 solver failure, 4 verification FAIL.
"""

import argparse
import csv
import json
import sys

from . import mesh, steklov, verify
from .errors import FormSteklovError, InvalidDomainError, MeshFormatError


def _domain_from_args(args) -> mesh.DomainSpec:
    params = [getattr(args, name) for name in mesh.PARAMS[args.domain]]
    return mesh.DomainSpec(args.domain, params, getattr(args, "level", 0) or 0)


_PARAMS = {"a": 1.0, "b": 0.7, "c": 0.7, "rin": 0.5, "rout": 1.0,
           "lx": 1.0, "ly": 1.0, "lz": 1.0}


def _add_domain_flags(p, required=True):
    p.add_argument("--domain", required=required, choices=mesh.FAMILIES)
    for name, default in _PARAMS.items():
        p.add_argument(f"--{name}", type=float, default=default)


def _resolved_config(args) -> dict:
    # without --domain the parameter defaults describe no domain
    skip = {"func"} | (set(_PARAMS) if args.domain is None else set())
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in skip and v is not None}
    cfg["deterministic"] = bool(getattr(args, "deterministic", False))
    return cfg


def cmd_gen(args) -> int:
    spec = _domain_from_args(args)
    K = mesh.generate(spec)
    mesh.write_mesh(args.out, K)
    print(f"wrote {args.out}: dim {K.dim}, {K.n_simplices(0)} vertices, "
          f"{K.n_simplices(K.dim)} top simplices")
    return 0


def _reject(message) -> int:
    """Report invalid arguments on one stderr line; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _unordered(levels) -> bool:
    """True when a --levels sweep is given but not strictly increasing."""
    levels = levels or []
    return any(b <= a for a, b in zip(levels, levels[1:]))


def cmd_spectrum(args) -> int:
    if args.domain is None and not args.mesh:
        return _reject("spectrum needs --domain or --mesh")
    out = {"config": _resolved_config(args)}
    k = args.count
    if k < 1:
        return _reject(f"--count must be at least 1, got {k}")
    if _unordered(args.levels):
        return _reject("--levels must be strictly increasing")
    solver = steklov.dual_spectrum if args.dual else steklov.solve_primal
    K = mesh.read_mesh(args.mesh) if args.mesh else None
    spec = None if args.mesh else _domain_from_args(args)
    dim = K.dim if args.mesh else spec.dim
    if not 0 <= args.degree <= dim - 1:
        return _reject(f"--degree must lie in 0..{dim - 1} on a {dim}-d "
                       f"domain, got {args.degree}")
    if args.mesh:
        res = solver(K, args.degree, k)
        out["spectrum"] = res.to_json()
    else:
        if args.levels:
            levels = args.levels
        elif args.level is not None:
            levels = [args.level]
        else:
            levels = verify.default_levels(spec)
        results = []
        for level in levels:
            K = mesh.generate(spec.with_level(level))
            results.append(solver(K, args.degree, k, level=level))
        out["spectra"] = [r.to_json() for r in results]
        # a coarse level with fewer boundary DOFs than k returns fewer
        # eigenvalues; study only the indices that every level has
        studies = []
        for idx in range(min(len(r.eigenvalues) for r in results)):
            vals = [float(r.eigenvalues[idx]) for r in results]
            try:
                studies.append(
                    verify.richardson(levels, vals, f"eigenvalue[{idx}]").to_json())
            except ValueError:
                pass
        out["convergence"] = studies
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def _write_csv_tables(report, prefix):
    """Extrapolated-eigenvalue table per (domain, degree) plus level-vs-value
    plot data for every convergence study in the report."""
    first = {}      # each quantity's first study, in report order
    for r in report.runs:
        for s in r.studies:
            first.setdefault(s.quantity, s)
    rows = sorted(first.values(), key=lambda s: s.quantity)
    with open(prefix + "_extrapolated.csv", "w", newline="",
              encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["quantity", "order", "extrapolated", "error_bar", "flagged"])
        for s in rows:
            w.writerow([s.quantity,
                        "" if s.order is None else f"{s.order:.6g}",
                        f"{s.extrapolated:.12g}", f"{s.error_bar:.6g}",
                        int(s.flagged)])
    with open(prefix + "_levels.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["quantity", "level", "value"])
        for s in rows:
            for level, v in zip(s.levels, s.values):
                w.writerow([s.quantity, level, f"{v:.12g}"])
    return list(first.values())


def _write_svg(studies, path):
    """Minimal static SVG line chart: level vs value, one polyline per
    tracked quantity (no external plotting stack)."""
    studies = [s for s in studies if len(s.values) >= 2][:12]
    if not studies:
        return
    xs = sorted({l for s in studies for l in s.levels})
    vs = [v for s in studies for v in s.values]
    lo, hi = min(vs), max(vs)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    width, height, pad = 640, 400, 48
    def px(l):
        return pad + (width - 2 * pad) * (l - xs[0]) / max(xs[-1] - xs[0], 1)
    def py(v):
        return height - pad - (height - 2 * pad) * (v - lo) / (hi - lo)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
              "#aec7e8", "#98df8a"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="monospace" font-size="10">',
             f'<rect x="{pad}" y="{pad}" width="{width-2*pad}" '
             f'height="{height-2*pad}" fill="none" stroke="#333"/>']
    for x in xs:
        parts.append(f'<text x="{px(x):.1f}" y="{height-pad+14}" '
                     f'text-anchor="middle">{x}</text>')
    parts.append(f'<text x="{pad-6:.1f}" y="{py(lo):.1f}" '
                 f'text-anchor="end">{lo:.3g}</text>')
    parts.append(f'<text x="{pad-6:.1f}" y="{py(hi)+8:.1f}" '
                 f'text-anchor="end">{hi:.3g}</text>')
    for i, s in enumerate(studies):
        pts = " ".join(f"{px(l):.1f},{py(v):.1f}"
                       for l, v in zip(s.levels, s.values))
        c = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{c}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{width-pad+4}" y="{pad+12*i+10}" fill="{c}" '
                     f'text-anchor="start" font-size="8">{s.quantity[:28]}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")


def cmd_verify(args) -> int:
    spec = _domain_from_args(args)
    if _unordered(args.levels):
        return _reject("--levels must be strictly increasing")
    if args.levels and len(args.levels) == 1:
        top = args.levels[0]
        levels = list(range(max(0, top - 3), top + 1))
    else:
        levels = args.levels or verify.default_levels(spec)
    if len(levels) < 3:
        return _reject(f"verify needs at least 3 levels for Richardson "
                       f"extrapolation, got {levels}")
    ids = args.checks.split(",") if args.checks else None
    unknown = [i for i in ids or () if i not in verify.check_ids()]
    if unknown:
        return _reject(f"unknown check id {', '.join(unknown)}")
    lab = verify.Lab()
    report = verify.run_suite([spec], levels=levels, ids=ids, lab=lab)
    payload = {"config": _resolved_config(args), **report.to_json(),
               "spectra": lab.spectrum_records()}
    prefix = args.report or "verify_report"
    with open(prefix + ".json", "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    studies = _write_csv_tables(report, prefix)
    _write_svg(studies, prefix + "_levels.svg")
    counts = report.verdict_counts()
    for r in report.runs:
        print(f"{r.verdict:18s} {r.check_id:12s} {r.case:30s} "
              f"margin={r.margin:+.3e} tol={r.tolerance:.2e}")
    print(f"summary: {counts}")
    return 4 if report.has_fail() else 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="formsteklov",
        description="Steklov spectra of differential forms on benchmark "
                    "domains and verification of their sharp bounds")
    ap.add_argument("--deterministic", action="store_true",
                    help="accepted for compatibility; every run is serial "
                         "and bit-reproducible at a fixed BLAS thread "
                         "count")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a mesh file")
    _add_domain_flags(g)
    g.add_argument("--level", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("spectrum", help="compute a Steklov spectrum")
    _add_domain_flags(s, required=False)
    s.add_argument("--mesh", help="mesh file instead of a level sweep")
    s.add_argument("--level", type=int, default=None)
    s.add_argument("--levels", type=int, nargs="+", default=None)
    s.add_argument("--degree", type=int, default=0)
    s.add_argument("--dual", action="store_true")
    s.add_argument("--count", type=int, default=6)
    s.add_argument("--out")
    s.set_defaults(func=cmd_spectrum)

    v = sub.add_parser("verify", help="run verification checks")
    _add_domain_flags(v)
    v.add_argument("--levels", type=int, nargs="+", default=None,
                   help="the levels to sweep; one value L stands for the "
                        "four levels ending at L (levels 0..L when L < 3), "
                        "and at least three levels are needed")
    v.add_argument("--checks", default=None,
                   help="comma-separated check ids (default: all)")
    v.add_argument("--report", default=None, help="output file prefix")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidDomainError, MeshFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormSteklovError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
