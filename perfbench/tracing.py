"""Span tracing of the formsteklov layers, installed from outside the package.

A ``Tracer`` replaces the public functions of each layer module (and a few
methods and private report writers named below) by wrappers that record one
span per call: name, start, end, parent span and pass id.  Spans stay in
memory until ``write`` dumps them.  Counters are taken at the same
boundaries, from the arguments and results of the wrapped calls, so the
program itself is not modified.

Layers are the package modules; ``analytic`` belongs to ``geometry``.
"""

import functools
import inspect
import itertools
import json
import time
import types
import weakref
from collections import Counter

LAYERS = ("mesh", "feec", "steklov", "scalar", "hodge", "geometry", "verify",
          "cli")
_MODULE_LAYER = {"mesh": "mesh", "feec": "feec", "steklov": "steklov",
                 "scalar": "scalar", "hodge": "hodge", "geometry": "geometry",
                 "analytic": "geometry", "verify": "verify", "cli": "cli"}

# Spans whose layer-local self time is reported as its own metric.  A span
# not listed here passes its self time to the nearest listed ancestor of the
# same layer (``mesh.refine`` counts towards ``mesh.generate``), so these
# metrics partition part of their layer's self time and never overlap.
TIMED = {
    "mesh.generate": "mesh.generate",
    "mesh.coboundary": "mesh.coboundary",
    "mesh.betti": "mesh.betti",
    "feec.mass_matrix": "feec.mass_matrix",
    "feec.integrate_analytic": "feec.integrate_analytic",
    "steklov.assemble_primal": "steklov.assemble_primal",
    "steklov.dtn_matrix": "steklov.dtn_matrix",
    "steklov.dual_spectrum": "steklov.dual_spectrum",
    "steklov.spectrum": "steklov.spectrum",
    "scalar.mean_exit_time": "scalar.mean_exit_time",
    "scalar.mean_value_gap": "scalar.mean_value_gap",
    "scalar.biharmonic_spectrum": "scalar.biharmonic_spectrum",
    "hodge.boundary_spectrum": "hodge.boundary_spectrum",
    "geometry.analytic_geometry": "geometry.analytic_geometry",
    "cli.cmd_verify": "cli.report",
    "cli.cmd_spectrum": "cli.report",
}

# name -> (unit, better); the per-layer metrics of one traced pass.
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{base}_s": ("s", "lower") for base in sorted(set(TIMED.values()))},
    "mesh.generate_calls": ("count", "lower"),
    "mesh.tops_built": ("count", "lower"),
    "mesh.coboundary_calls": ("count", "lower"),
    "mesh.coboundary_useful_ratio": ("ratio", "higher"),
    "feec.mass_matrix_calls": ("count", "lower"),
    "feec.mass_matrix_useful_ratio": ("ratio", "higher"),
    "steklov.solves": ("count", "lower"),
    "steklov.boundary_dofs": ("count", "lower"),
    "steklov.dense_bytes_computed": ("B", "lower"),
    "steklov.max_residual": ("ratio", "lower"),
    "steklov.share": ("ratio", "lower"),
    "scalar.cg_path_calls": ("count", "lower"),
    "scalar.gram_bytes_computed": ("B", "lower"),
    "verify.run_suite_s": ("s", "lower"),
    "verify.lab_requests": ("count", "lower"),
    "verify.lab_hit_ratio": ("ratio", "higher"),
    "cli.report_bytes": ("B", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.untraced_pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.span_cost_s": ("s", "lower"),
}


def self_times(spans):
    """Self time of every span: its duration minus the time its direct
    children cover.  ``spans`` is a list of (name, start, end, parent,
    pass_id) with parent an index into the list or None; children of one
    parent never overlap (calls are serial)."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def span_cost(calls=20000):
    """Seconds one traced call adds to a bare call, timed on a no-op."""
    target = types.SimpleNamespace(noop=lambda: None)
    bare = target.noop
    tracer = Tracer(None)
    tracer._patch(target, "noop", "calibration.noop")
    traced = target.noop
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        bare()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def layer_of(name):
    return _MODULE_LAYER[name.split(".", 1)[0]]


class Tracer:
    """Wraps the layer functions of a loaded ``formsteklov`` package.

    Use as a context manager around one or more passes; ``begin_pass``
    starts a new pass id.  Single-threaded: the workloads run the serial
    ``--deterministic`` path.
    """

    def __init__(self, package):
        self.pkg = package
        self.spans = []          # (name, start, end, parent, pass_id)
        self.counts = Counter()
        self.max_residual = 0.0
        self.pass_id = -1
        self._stack = []
        self._patches = []
        self._mesh_ids = weakref.WeakKeyDictionary()
        self._next_mesh_id = itertools.count()
        self._seen = set()

    # -- installation --------------------------------------------------------

    def __enter__(self):
        pkg = self.pkg
        for modname in _MODULE_LAYER:
            module = getattr(pkg, modname)
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    self._patch(module, name, f"{modname}.{name}")
        # the CLI's report emission lives in private helpers
        self._patch(pkg.cli, "_write_csv_tables", "cli._write_csv_tables")
        self._patch(pkg.cli, "_write_svg", "cli._write_svg")
        self._patch(pkg.mesh.SimplicialComplex, "boundary_complex",
                    "mesh.boundary_complex")
        for name, obj in list(vars(pkg.verify.Lab).items()):
            if inspect.isfunction(obj) and not name.startswith("_"):
                self._patch(pkg.verify.Lab, name, f"verify.Lab.{name}")
        self._patch_lab_get()
        self._patch_cg()
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, name):
        original = inspect.getattr_static(owner, attr)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _patch_lab_get(self):
        Lab = self.pkg.verify.Lab
        original = Lab._get
        counts = self.counts

        @functools.wraps(original)
        def counted(lab, key, fn):
            counts["verify.lab_requests"] += 1
            if key in lab._cache:
                counts["verify.lab_hits"] += 1
            return original(lab, key, fn)

        self._patches.append((Lab, "_get", original))
        Lab._get = counted

    def _patch_cg(self):
        # the exit-time solver imports ``cg`` at call time from this module
        import scipy.sparse.linalg as spla

        original = spla.cg
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts["scalar.cg_path_calls"] += 1
            return original(*args, **kwargs)

        self._patches.append((spla, "cg", original))
        spla.cg = counted

    # -- counters at the wrapped boundaries ------------------------------------

    def _mesh_id(self, K):
        ident = self._mesh_ids.get(K)
        if ident is None:
            ident = self._mesh_ids[K] = next(self._next_mesh_id)
        return ident

    def _distinct(self, what, key):
        self.counts[what + "_calls"] += 1
        if (what, key) not in self._seen:
            self._seen.add((what, key))
            self.counts[what + "_distinct"] += 1

    def _observe_mesh_generate(self, args, kwargs, K):
        self.counts["mesh.generate_calls"] += 1
        self.counts["mesh.tops_built"] += K.n_simplices(K.dim)

    def _observe_mesh_coboundary(self, args, kwargs, D):
        K, p = _bind(args, kwargs, "K", "p")
        self._distinct("mesh.coboundary", (self._mesh_id(K), p))

    def _observe_feec_mass_matrix(self, args, kwargs, M):
        K, p = _bind(args, kwargs, "K", "p")
        lumped = bool(kwargs.get("lumped", args[2] if len(args) > 2 else False))
        self._distinct("feec.mass_matrix", (self._mesh_id(K), p, lumped))

    def _observe_steklov_dtn_matrix(self, args, kwargs, result):
        self._count_dense(result[0].shape[0])

    def _observe_steklov_dual_spectrum(self, args, kwargs, result):
        self._count_dense(result.eigencochains.shape[0])

    def _count_dense(self, nb):
        self.counts["steklov.solves"] += 1
        self.counts["steklov.boundary_dofs"] += nb
        self.counts["steklov.dense_bytes_computed"] += 8 * nb * nb

    def _observe_steklov_spectrum(self, args, kwargs, result):
        if len(result.residuals):
            self.max_residual = max(self.max_residual,
                                    float(result.residuals.max()))

    def _observe_scalar_harmonic_extension_gram(self, args, kwargs, result):
        (K,) = _bind(args, kwargs, "K")
        nb = result[0].shape[0]
        self.counts["scalar.gram_bytes_computed"] += 8 * K.n_simplices(0) * nb

    # -- passes and results ------------------------------------------------------

    def begin_pass(self):
        """Start a new pass: counters restart, spans keep accumulating."""
        self.pass_id += 1
        self.counts.clear()
        self._seen.clear()
        self.max_residual = 0.0

    def metrics(self, pass_s, untraced_pass_s):
        """Per-layer metrics of the current pass, given its traced wall
        time and the wall time of an untraced pass of the same inputs."""
        first = next((i for i, s in enumerate(self.spans)
                      if s[4] == self.pass_id), len(self.spans))
        spans = self.spans[first:]
        # parents are indices into the full list; rebase them
        local = [(n, a, b, None if p is None else p - first, i)
                 for n, a, b, p, i in spans]
        own = self_times(local)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        timed = dict.fromkeys(set(TIMED.values()), 0.0)
        for idx, (name, _, _, _, _) in enumerate(local):
            layer = layer_of(name)
            layer_self[layer] += own[idx]
            target = _timed_target(local, idx, layer)
            if target is not None:
                timed[target] += own[idx]
        run_suite_s = sum(b - a for n, a, b, _, _ in local
                          if n == "verify.run_suite")
        c = self.counts
        out = {f"{layer}.self_s": v for layer, v in layer_self.items()}
        out.update({f"{base}_s": v for base, v in timed.items()})
        out.update({
            "mesh.generate_calls": c["mesh.generate_calls"],
            "mesh.tops_built": c["mesh.tops_built"],
            "mesh.coboundary_calls": c["mesh.coboundary_calls"],
            "mesh.coboundary_useful_ratio": _ratio(
                c["mesh.coboundary_distinct"], c["mesh.coboundary_calls"]),
            "feec.mass_matrix_calls": c["feec.mass_matrix_calls"],
            "feec.mass_matrix_useful_ratio": _ratio(
                c["feec.mass_matrix_distinct"], c["feec.mass_matrix_calls"]),
            "steklov.solves": c["steklov.solves"],
            "steklov.boundary_dofs": c["steklov.boundary_dofs"],
            "steklov.dense_bytes_computed": c["steklov.dense_bytes_computed"],
            "steklov.max_residual": self.max_residual,
            "steklov.share": layer_self["steklov"] / pass_s,
            "scalar.cg_path_calls": c["scalar.cg_path_calls"],
            "scalar.gram_bytes_computed": c["scalar.gram_bytes_computed"],
            "verify.run_suite_s": run_suite_s,
            "verify.lab_requests": c["verify.lab_requests"],
            "verify.lab_hit_ratio": _ratio(c["verify.lab_hits"],
                                           c["verify.lab_requests"]),
            "trace.pass_s": pass_s,
            "trace.untraced_pass_s": untraced_pass_s,
            "trace.overhead_s": pass_s - untraced_pass_s,
            "trace.unattributed_s": pass_s - sum(layer_self.values()),
            "trace.spans": len(local),
        })
        bases = {
            "mesh.coboundary_useful_ratio": (c["mesh.coboundary_distinct"],
                                             c["mesh.coboundary_calls"]),
            "feec.mass_matrix_useful_ratio": (c["feec.mass_matrix_distinct"],
                                              c["feec.mass_matrix_calls"]),
            "verify.lab_hit_ratio": (c["verify.lab_hits"],
                                     c["verify.lab_requests"]),
        }
        return out, bases

    def write(self, path):
        """Dump every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "pass": pass_id}) + "\n")


def _timed_target(spans, idx, layer):
    """Metric base that receives the self time of span ``idx``: its own, or
    that of the nearest ancestor in the same layer that has one."""
    while idx is not None:
        name, _, _, parent, _ = spans[idx]
        if layer_of(name) != layer:
            return None
        if name in TIMED:
            return TIMED[name]
        idx = parent
    return None


def _ratio(num, den):
    """Useful share of ``den`` attempts; 1.0 when nothing was attempted."""
    return num / den if den else 1.0


def _bind(args, kwargs, *names):
    """Leading positional-or-keyword arguments by name."""
    out = list(args[:len(names)])
    for name in names[len(out):]:
        out.append(kwargs[name])
    return out
