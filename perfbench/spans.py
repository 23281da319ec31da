"""Spans around the public functions of each trailmine module, for the traced run.

The traced run executes the same CLI commands as a timed run, with
wrappers installed on the module attributes the pipeline calls through
(``trailmine.cli``, ``trailmine.pipeline``, ``trailmine.markov``,
``trailmine.cluster`` and ``EventBatch.group_by_user``). Each call gets a
span: name, start, end, parent, wall and CPU time. CPU time includes
reaped child processes, so the ingest worker pool counts. Spans stay in
memory until the run ends. A span's self time is its duration minus the
durations of its direct children, which run one after another.

Span names are ``<layer>`` or ``<layer>.<call>``; the layer is what the
self-time accounting groups by.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import time
from contextlib import contextmanager


def _cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _elbow_k(args, kwargs) -> int:
    return int(kwargs["K"] if "K" in kwargs else args[1])


class Tracer:
    """In-memory span recorder plus the facts observed at span boundaries."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.ingest: dict[str, int] = {}
        self.sessions = 0
        self.users = 0
        self.power_iters: list[int] = []
        self.fallbacks = 0
        self.elbow_inertia: dict[int, float] = {}
        self.resources = 0

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        cpu0 = _cpu()
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = _cpu() - cpu0
            self._stack.pop()

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr`` by a spanned call; absent attributes are skipped."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name(args, kwargs) if callable(name) else name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        cli = importlib.import_module("trailmine.cli")
        pipeline = importlib.import_module("trailmine.pipeline")
        markov = importlib.import_module("trailmine.markov")
        cluster = importlib.import_module("trailmine.cluster")
        # the stage functions, through both modules that orchestrate them
        stage_calls = {
            "run_pipeline": ("pipeline.run", None),
            "ingest_paths": ("ingest", self._observe_ingest),
            "build_traces": ("sessions.build", None),
            "compute_usage_stats": ("sessions.usage", None),
            "write_traces_jsonl": ("io.traces_write", None),
            "read_traces_jsonl": ("io.traces_read", None),
            "write_usage_stats": ("io.usage_write", None),
            "write_feature_csv": ("io.features_write", None),
            "read_feature_csv": ("io.features_read", None),
            "write_elbow_csv": ("io.elbow_write", None),
            "write_cluster_outputs": ("io.cluster_write", None),
            "write_pca_outputs": ("io.pca_write", None),
            "write_compare_outputs": ("io.compare_write", None),
            "build_feature_matrix": ("markov.features", None),
            "explained_variance_curve": ("cluster.elbow", None),
            "kmeans_fit": ("cluster.kmeans", None),
            "profile_clusters": ("cluster.profile", None),
            "pca_fit": ("pca.fit", None),
            "pca_project": ("pca.project", None),
            "extract_resource_traces": ("compare.extract", None),
            "aggregate_cluster_actions": ("compare.aggregate", self._observe_resources),
            "transition_diff": ("compare.diff", None),
            "project_resources": ("compare.project", None),
        }
        for module in (cli, pipeline):
            for attr, (name, observe) in stage_calls.items():
                self.wrap(module, attr, name, observe)
        # the calls inside a stage
        self.wrap(pipeline.EventBatch, "group_by_user", "sessions.group")
        self.wrap(pipeline, "sessionize", "sessions.sessionize", self._observe_sessionize)
        self.wrap(pipeline, "build_user_trace", "sessions.trace", self._observe_trace)
        self.wrap(markov, "count_transitions", "markov.count")
        self.wrap(markov, "build_transition_model", "markov.model")
        self.wrap(markov, "stationary_distribution", "markov.solve", self._observe_solve)
        self.wrap(cluster, "kmeans_fit", lambda a, kw: f"cluster.elbow.k{_elbow_k(a, kw):02d}",
                  self._observe_elbow_fit)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # observers: facts read from return values at the span boundary

    def _observe_ingest(self, args, kwargs, result) -> None:
        stats = result[1]
        for key in ("lines", "malformed", "dropped_useragent", "dropped_ip", "dropped_asset",
                    "unmapped", "events"):
            self.ingest[key] = self.ingest.get(key, 0) + getattr(stats, key)

    def _observe_sessionize(self, args, kwargs, result) -> None:
        self.sessions += len(result)

    def _observe_trace(self, args, kwargs, result) -> None:
        self.users += 1

    def _observe_solve(self, args, kwargs, result) -> None:
        if result.method == "power":
            self.power_iters.append(result.iterations)
        else:
            self.fallbacks += 1

    def _observe_elbow_fit(self, args, kwargs, result) -> None:
        self.elbow_inertia[_elbow_k(args, kwargs)] = result.inertia

    def _observe_resources(self, args, kwargs, result) -> None:
        self.resources = len(result)

    # per-layer metrics

    def metrics(self) -> dict[str, float]:
        """Inclusive seconds per span name, self seconds per layer, and the counts."""
        duration = [s["end"] - s["start"] for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                child_time[s["parent"]] += duration[i]
        out: dict[str, float] = {}
        out["trace.total_s"] = out["trace.unattributed_s"] = 0.0
        out["trace.spans"] = len(self.spans)
        for i, s in enumerate(self.spans):
            self_time = duration[i] - child_time[i]
            if s["parent"] is None:  # the whole traced run
                out["trace.total_s"] += duration[i]
                out["trace.unattributed_s"] += self_time
                continue
            name = s["name"]
            key = f"{name}_s" if "." in name else f"{name}.s"
            out[key] = out.get(key, 0.0) + duration[i]
            self_key = f"self.{name.split('.')[0]}_s"
            out[self_key] = out.get(self_key, 0.0) + self_time
        out["cli.s"] = sum(d for d, s in zip(duration, self.spans) if s["name"].startswith("cli."))
        out["cli.overhead_s"] = out.get("self.cli_s", 0.0)  # subcommand time outside library calls
        if self.ingest:
            out["ingest.cpu_s"] = sum(s["cpu"] for s in self.spans if s["name"] == "ingest")
            lines = self.ingest["lines"]
            out["ingest.lines"] = lines
            out["ingest.malformed"] = self.ingest["malformed"]
            out["ingest.dropped"] = (self.ingest["dropped_useragent"] + self.ingest["dropped_ip"]
                                     + self.ingest["dropped_asset"])
            out["ingest.unmapped"] = self.ingest["unmapped"]
            out["ingest.events"] = self.ingest["events"]
            out["ingest.yield"] = self.ingest["events"] / lines if lines else 0.0
        out["sessions.users"] = self.users
        out["sessions.sessions"] = self.sessions
        if self.power_iters:
            out["markov.power_iters_p50"] = statistics.median(self.power_iters)
            out["markov.power_iters_max"] = max(self.power_iters)
        out["markov.fallbacks"] = self.fallbacks
        out["compare.resources"] = self.resources
        return out
