"""Spans and counters around the names through which one ewb layer calls another.

Nothing under ``src/`` knows about this module.  ``Recorder.install`` swaps
module-level names such as ``ewb.spectral.hermitian_eigenvalues`` for
wrappers that record a span (name, start, end, parent, job id) and update
counters; ``uninstall`` puts the originals back.  Spans stay in memory and
are written out when the benchmark ends.  A layer's self time is its span
time minus the time of its direct child spans.

Counts labelled "computed" are derived from call arguments and return
values, not measured by hardware counters.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter


def _mc_counts(rec, args, result, seconds, pre):
    frame, d, trials = args[0], args[2], args[3]
    n, itemsize = frame.n, frame.entries.dtype.itemsize
    mac, mul = (8, 2) if frame.entries.dtype.kind == "c" else (2, 1)
    # masking is one product per Gram entry, each further power one n^3 matmul
    rec.add("erasure_moments.montecarlo_moment.trials", trials)
    rec.add("erasure_moments.montecarlo_moment.ops_computed",
            trials * ((d - 1) * n**3 * mac + n * n * mul))
    # the masked Gram chunk plus one product array per power, all trials x n x n
    rec.add("erasure_moments.montecarlo_moment.bytes_computed", trials * n * n * itemsize * d)


def _eig_counts(rec, args, result, seconds, pre):
    # eigenvalues only: Householder tridiagonalisation, 4k^3/3 real flops;
    # complex arithmetic costs four times as much
    k = result.source_dims[0]
    factor = 4 if args[0].dtype.kind == "c" else 1
    rec.add("spectral.eig_ops_computed", factor * 4 * k**3 / 3)


def _keep_mask_counts(rec, args, result, seconds, pre):
    trials, n, p = args[1], args[2], args[3]
    if 0.0 < p < 1.0:
        rec.add("rng.keep_masks.draws", trials * n)


def _gram_counts(rec, args, result, seconds, pre):
    frame = args[0]
    if id(frame) not in rec.job_frames:
        rec.job_frames[id(frame)] = frame
        rec.add("frames.gram.frames", 1)


def _law_cache_state(ts, params, *rest, **kwargs):
    cache = importlib.import_module("ewb.manova")._TABLE_CACHE
    return len(cache), (params.gamma, params.p) in cache


def _cdf_counts(rec, args, result, seconds, pre):
    # a call that grew the law-table cache built a table; one whose table
    # was already cached hit it; degenerate laws use no table at all
    size, cached = pre
    if cached:
        rec.add("manova.cdf_many.hits", 1)
        rec.add("manova.cdf_many.warm_s", seconds)
    elif _law_cache_state(*args)[0] > size:
        rec.add("manova.cdf_many.cold_calls", 1)
        rec.add("manova.cdf_many.cold_s", seconds)


def _file_bytes(counter, index):
    def count(rec, args, result, seconds, pre):
        rec.add(counter, os.path.getsize(args[index]))

    return count


def _result_count(counter, value):
    def count(rec, args, result, seconds, pre):
        rec.add(counter, value(args, result))

    return count


# (module, attribute, span name, counter, pre-call probe); a counter sees the
# call's arguments, result, seconds and what the probe saw before the call
WRAPPED = (
    ("ewb.cli", "main", "cli.main", None, None),
    ("ewb.cli", "save_frame", "frames.save_frame",
     _file_bytes("frames.save_frame.bytes", 1), None),
    ("ewb.cli", "load_frame", "frames.load_frame",
     _file_bytes("frames.load_frame.bytes", 0), None),
    ("ewb.cli", "random_frame", "frames.build", None, None),
    ("ewb.cli", "simplex_etf", "frames.build", None, None),
    ("ewb.cli", "harmonic_etf", "frames.build", None, None),
    ("ewb.cli", "repeated_onb", "frames.build", None, None),
    ("ewb.cli", "nearest_utf", "frames.nearest_utf",
     _result_count("frames.nearest_utf.iterations", lambda a, r: r.iterations), None),
    ("ewb.cli", "is_utf", "frames.predicates", None, None),
    ("ewb.cli", "is_etf", "frames.predicates", None, None),
    ("ewb.cli", "coherence", "frames.predicates", None, None),
    ("ewb.bounds", "is_utf", "frames.predicates", None, None),
    ("ewb.bounds", "is_etf", "frames.predicates", None, None),
    ("ewb.frames", "is_utf", "frames.predicates", None, None),
    ("ewb.frames", "gram", "frames.gram", _gram_counts, None),
    ("ewb.erasure_moments", "gram", "frames.gram", _gram_counts, None),
    ("ewb.spectral", "gram", "frames.gram", _gram_counts, None),
    ("ewb.cli", "montecarlo_moment", "erasure_moments.montecarlo_moment", _mc_counts, None),
    ("ewb.cli", "bruteforce_table", "erasure_moments.bruteforce_table",
     _result_count("erasure_moments.bruteforce_table.patterns", lambda a, r: 2 ** a[0].n), None),
    ("ewb.cli", "moment_polynomial", "erasure_moments.moment_polynomial", None, None),
    ("ewb.erasure_moments", "moment_polynomial", "erasure_moments.moment_polynomial", None, None),
    ("ewb.erasure_moments", "trace_moment", "erasure_moments.trace_moment", None, None),
    ("ewb.bounds", "trace_moment", "erasure_moments.trace_moment", None, None),
    # a span of its own so that check_theorem's self time excludes its moments
    ("ewb.bounds", "expected_moment", "erasure_moments.expected_moment", None, None),
    ("ewb.erasure_moments", "keep_masks", "rng.keep_masks", _keep_mask_counts, None),
    ("ewb.spectral", "keep_masks", "rng.keep_masks", _keep_mask_counts, None),
    ("ewb.cli", "subset_spectrum_samples", "spectral.subset_spectrum_samples", None, None),
    ("ewb.spectral", "hermitian_eigenvalues", "spectral.hermitian_eigenvalues", _eig_counts, None),
    ("ewb.cli", "pool_eigenvalues", "spectral.pool_eigenvalues",
     _result_count("spectral.pooled_values", lambda a, r: len(r)), None),
    ("ewb.cli", "ks_distance", "spectral.ks_distance", None, None),
    ("ewb.spectral", "cdf_many", "manova.cdf_many", _cdf_counts, _law_cache_state),
    ("ewb.cli", "moment_numeric", "manova.moment_numeric", None, None),
    ("ewb.cli", "density", "manova.density", None, None),
    ("ewb.cli", "check_theorem", "bounds.check_theorem",
     _result_count("bounds.violations", lambda a, r: r.equality_class == "violation"), None),
)

# (metric, unit) reported by a traced run, in BENCHMARK.json order
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("frames.save_frame.self_s", "s"),
    ("frames.save_frame.bytes", "bytes"),
    ("frames.load_frame.self_s", "s"),
    ("frames.load_frame.bytes", "bytes"),
    ("frames.gram.calls", "count"),
    ("frames.gram.self_s", "s"),
    ("frames.gram.per_frame", "ratio"),
    ("frames.predicates.calls", "count"),
    ("frames.predicates.self_s", "s"),
    ("frames.nearest_utf.self_s", "s"),
    ("frames.nearest_utf.iterations", "count"),
    ("frames.build.self_s", "s"),
    ("erasure_moments.montecarlo_moment.self_s", "s"),
    ("erasure_moments.montecarlo_moment.trials", "count"),
    ("erasure_moments.montecarlo_moment.ops_computed", "flop"),
    ("erasure_moments.montecarlo_moment.bytes_computed", "bytes"),
    ("erasure_moments.bruteforce_table.self_s", "s"),
    ("erasure_moments.bruteforce_table.patterns", "count"),
    ("erasure_moments.moment_polynomial.calls", "count"),
    ("erasure_moments.moment_polynomial.self_s", "s"),
    ("erasure_moments.trace_moment.calls", "count"),
    ("erasure_moments.trace_moment.self_s", "s"),
    ("rng.keep_masks.calls", "count"),
    ("rng.keep_masks.self_s", "s"),
    ("rng.keep_masks.draws", "count"),
    ("spectral.subset_spectrum_samples.self_s", "s"),
    ("spectral.hermitian_eigenvalues.calls", "count"),
    ("spectral.hermitian_eigenvalues.self_s", "s"),
    ("spectral.eig_ops_computed", "flop"),
    ("spectral.pool_eigenvalues.self_s", "s"),
    ("spectral.pooled_values", "count"),
    ("spectral.ks_distance.self_s", "s"),
    ("spectral.ks_distance.errors", "count"),
    ("manova.cdf_many.calls", "count"),
    ("manova.cdf_many.cold_calls", "count"),
    ("manova.cdf_many.cold_s", "s"),
    ("manova.cdf_many.warm_s", "s"),
    ("manova.table_hit_ratio", "ratio"),
    ("manova.moment_numeric.calls", "count"),
    ("manova.moment_numeric.self_s", "s"),
    ("manova.density.calls", "count"),
    ("manova.density.self_s", "s"),
    ("bounds.check_theorem.calls", "count"),
    ("bounds.check_theorem.self_s", "s"),
    ("bounds.violations", "count"),
    ("trace.overhead_frac", "ratio"),
)


class TracingError(Exception):
    """A wrapped name is missing from this version of ewb."""


class Recorder:
    """Spans and counters of traced rounds, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = defaultdict(float)
        self.job = -1
        self.job_frames = {}  # frames whose Gram the current job built, by id
        self._round_start = 0
        self._stack = []
        self._saved = []

    def add(self, counter: str, value) -> None:
        self.counts[counter] += value

    def begin_round(self) -> None:
        self._round_start = len(self.spans)
        self.counts.clear()

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self.job_frames.clear()

    def _wrap(self, name, fn, counter, pre_probe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            pre = pre_probe(*args, **kwargs) if pre_probe is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, result, span[2] - span[1], pre)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED.  Raises TracingError, and wraps
        nothing, if this version of ewb lacks any of them: a renamed layer
        must fail the traced run, not read as a layer that costs 0."""
        found = []
        for module, attr, name, counter, pre_probe in WRAPPED:
            mod = importlib.import_module(module)
            found.append((mod, attr, getattr(mod, attr, None), name, counter, pre_probe))
        missing = [f"{mod.__name__}.{attr}" for mod, attr, fn, *_ in found if fn is None]
        if missing:
            raise TracingError(f"ewb has no {', '.join(missing)}; update tracing.WRAPPED")
        for mod, attr, original, name, counter, pre_probe in found:
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, counter, pre_probe))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def round_metrics(self) -> dict:
        """Per-layer totals of the round since ``begin_round``: self time and
        calls of every span name, the counters and the ratios derived from them."""
        first = self._round_start
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = dict(self.counts)
        for name in calls:
            out[name + ".self_s"] = self_s[name]
            out[name + ".calls"] = calls[name]
        grams = out.get("frames.gram.calls", 0)
        out["frames.gram.per_frame"] = grams / out["frames.gram.frames"] if grams else 0.0
        lookups = out.get("manova.cdf_many.hits", 0) + out.get("manova.cdf_many.cold_calls", 0)
        out["manova.table_hit_ratio"] = out.get("manova.cdf_many.hits", 0) / lookups if lookups else 0.0
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
