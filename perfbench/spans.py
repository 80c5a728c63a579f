"""In-memory span tracer that wraps gffforge's public functions from outside.

``Tracer.installed()`` replaces each traced function in every loaded
gffforge module that holds it (the defining module, the package namespace
and every module that imported it by name), and each traced method on its
class, with a wrapper that records a span; leaving the block puts the
originals back.  Spans are kept per thread, so a span that a worker thread
of ``rng.parallel_map`` opens is a root of that thread and is not
subtracted from the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
import weakref

import numpy as np

# (module, attribute, span name); "Class.method" attributes patch the class
TRACED = [
    ("excursions", "sample_excursion_hits", "excursions.sample_excursion_hits"),
    ("excursions", "continue_paths", "excursions.continue_paths"),
    ("excursions", "ExcursionSample.to_csv", "excursions.to_csv"),
    ("rng", "parallel_map", "rng.parallel_map"),
    ("rng", "replica_rng", "rng.replica_rng"),
    ("greens", "covariance_of_observables", "greens.covariance_of_observables"),
    ("greens", "LatticeDomain.white_to_field", "greens.white_to_field"),
    ("greens", "LatticeDomain.__init__", "greens.lattice_build"),
    ("greens", "DirichletCell.__init__", "greens.DirichletCell"),
    ("fields", "dgff_matrix", "fields.dgff_matrix"),
    ("fields", "stable_matrix", "fields.stable_matrix"),
    ("fields", "sample_gff_observables", "fields.sample_gff_observables"),
    ("fields", "markov_decompose", "fields.markov_decompose"),
    ("averaging", "sine_average_path", "averaging.sine_average_path"),
    ("averaging", "circle_average_path", "averaging.circle_average_path"),
    ("averaging", "rotational_average_check", "averaging.rotational_average_check"),
    ("verify", "characterize_bm", "verify.characterize_bm"),
    ("verify", "distance_correlation", "verify.distance_correlation"),
    ("verify", "test_harness", "verify.test_harness"),
    ("verify", "test_independent_increments", "verify.test_independent_increments"),
    ("verify", "test_brownian_scaling", "verify.test_brownian_scaling"),
    ("verify", "test_moment_bootstrap", "verify.test_moment_bootstrap"),
    ("verify", "test_normality", "verify.test_normality"),
    ("verify", "test_wick_fourth", "verify.test_wick_fourth"),
    ("cli", "run", "cli.run"),
    ("cli", "main", "cli.main"),
]

# spans reported as self time (span minus same-thread child spans); the
# rest are reported inclusive of their children
SELF_TIME = {
    "fields.dgff_matrix",
    "fields.stable_matrix",
    "averaging.sine_average_path",
    "averaging.circle_average_path",
    "averaging.rotational_average_check",
    "verify.characterize_bm",
    "verify.test_harness",
    "verify.test_independent_increments",
    "verify.test_brownian_scaling",
    "verify.test_moment_bootstrap",
    "verify.test_normality",
    "verify.test_wick_fourth",
    "cli.run",
    "cli.main",
}

# per-layer metrics in the order they are printed: (name, unit)
PER_LAYER = [
    ("excursions.sample_excursion_hits.s", "s"),
    ("excursions.continue_paths.s", "s"),
    ("excursions.absorbed_per_path", "ratio"),
    ("excursions.to_csv.s", "s"),
    ("rng.parallel_map.s", "s"),
    ("rng.replica_rng.calls", "count"),
    ("rng.replica_rng.s", "s"),
    ("greens.covariance_of_observables.s", "s"),
    ("greens.white_to_field.s", "s"),
    ("greens.white_to_field.columns", "count"),
    ("greens.white_to_field.gflop", "GFLOP"),
    ("greens.white_to_field.gb", "GB"),
    ("greens.DirichletCell.count", "count"),
    ("greens.DirichletCell.s", "s"),
    ("greens.lattice_build.s", "s"),
    ("fields.dgff_matrix.s", "s"),
    ("fields.stable_matrix.s", "s"),
    ("fields.sample_gff_observables.s", "s"),
    ("fields.markov_decompose.s", "s"),
    ("averaging.sine_average_path.s", "s"),
    ("averaging.circle_average_path.s", "s"),
    ("averaging.rotational_average_check.s", "s"),
    ("verify.characterize_bm.s", "s"),
    ("verify.distance_correlation.s", "s"),
    ("verify.distance_correlation.calls", "count"),
    ("verify.test_harness.s", "s"),
    ("verify.test_independent_increments.s", "s"),
    ("verify.test_brownian_scaling.s", "s"),
    ("verify.test_moment_bootstrap.s", "s"),
    ("verify.test_normality.s", "s"),
    ("verify.test_wick_fourth.s", "s"),
    ("cli.run.s", "s"),
    ("cli.main.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def upper_bandwidth(interior_ij: np.ndarray) -> int:
    """Largest index distance between 4-neighbour sites in the i-then-j
    order the lattice uses: the upper bandwidth of its Laplacian factor."""
    ij = np.asarray(interior_ij, dtype=np.int64)
    span = int(np.max(np.abs(ij))) + 2
    codes = (ij[:, 0] + span) * (4 * span) + (ij[:, 1] + span)
    order = np.argsort(codes)
    rank = np.empty(len(codes), dtype=np.int64)
    rank[order] = np.arange(len(codes))
    sorted_codes = codes[order]
    best = 0
    for step in (4 * span, 1):
        target = codes + step
        pos = np.clip(np.searchsorted(sorted_codes, target), 0, len(codes) - 1)
        hit = sorted_codes[pos] == target
        if np.any(hit):
            best = max(best, int(np.max(pos[hit] - rank[hit])))
    return best


class Tracer:
    """Records spans (name, thread, duration, child time) and counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bandwidth = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        outermost = all(frame[0] != name for frame in stack)
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dur
            # list.append is atomic, so worker threads need no lock here
            self.spans.append((name, threading.get_ident(), dur, frame[1], outermost))

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        modules = {k: m for k, m in sys.modules.items() if k == "gffforge" or k.startswith("gffforge.")}
        undo = []
        try:
            for mod_name, attr, name in TRACED:
                home = modules["gffforge." + mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, attr)
                wrapped = self._wrap(name, orig)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # -- counters taken from arguments and results ---------------------------

    def _after_excursions_sample_excursion_hits(self, args, sample) -> None:
        self.count("excursions.absorbed", sample.n_absorbed)
        self.count("excursions.paths", sample.n_paths)

    def _after_rng_replica_rng(self, args, out) -> None:
        self.count("rng.replica_rng.calls", 1)

    def _after_verify_distance_correlation(self, args, out) -> None:
        self.count("verify.distance_correlation.calls", 1)

    def _after_greens_DirichletCell(self, args, out) -> None:
        self.count("greens.DirichletCell.count", 1)

    def _after_greens_white_to_field(self, args, out) -> None:
        lat, xi = args[0], np.asarray(args[1])
        if lat not in self._bandwidth:
            self._bandwidth[lat] = upper_bandwidth(lat.interior_ij)
        n, b = lat.n_sites, self._bandwidth[lat]
        k = xi.shape[1] if xi.ndim == 2 else 1
        # computed, not measured: the triangular solve does n (2b + 1) flops
        # per column and streams the (b + 1) x n band once per column;
        # solve_banded also copies the band and the right-hand side once
        # per call
        self.count("greens.white_to_field.columns", k)
        self.count("greens.white_to_field.gflop", n * (2 * b + 1) * k / 1e9)
        self.count(
            "greens.white_to_field.gb",
            8.0 * (n * (b + 1) * k + 2 * n * k + 2 * n * (b + 1) + 2 * n * k) / 1e9,
        )

    # -- aggregation ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values of everything recorded so far (zero for a layer
        the workload never entered)."""
        totals: dict = {}
        for name, _thread, dur, child, outermost in self.spans:
            if name in SELF_TIME:
                value = dur - child
            elif outermost:
                value = dur
            else:
                continue
            totals[name] = totals.get(name, 0.0) + value
        out = {}
        for metric, unit in PER_LAYER:
            if metric.endswith(".s"):
                out[metric] = totals.get(metric[:-2], 0.0)
            else:
                out[metric] = self.counters.get(metric, 0)
        paths = self.counters.get("excursions.paths", 0)
        out["excursions.absorbed_per_path"] = (
            self.counters.get("excursions.absorbed", 0) / paths if paths else 0.0
        )
        return out
