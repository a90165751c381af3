"""In-memory span recorder that wraps the public functions of spraylink.

A span is (name, start, end, parent, op, work, nbytes, failed). Spans are
kept in flat arrays while the benchmark runs and written out once at the
end. Wrapping replaces a function in every spraylink module namespace that
binds it, so calls made through `module.func` and through names imported
with `from .module import func` are both recorded. Nothing under src/
changes.

Spans are recorded only while `op` is >= 0, so the benchmark's own output
checks, which call the same functions, stay out of the trace.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(index, name):
    return lambda a, k, r: (int(np.size(_arg(a, k, index, name))), 0)


def _trace_in(index, name):
    def work(a, k, r):
        trace = _arg(a, k, index, name)
        return len(trace), trace.times.nbytes + trace.volts.nbytes
    return work


def _file_read(a, k, r):
    return len(r), os.path.getsize(_arg(a, k, 0, "path"))


def _file_written(a, k, r):
    return len(_arg(a, k, 0, "trace")), os.path.getsize(_arg(a, k, 1, "path"))


def _lm_iterations(a, k, r):
    return r.iterations, 0


# (module, function, work extractor). The extractor maps (args, kwargs,
# result) to (work count, bytes); see README.md for what each one counts.
TARGETS = (
    ("cli", "main", None),
    ("fitting", "estimate_channel_params", None),
    ("fitting", "levenberg_marquardt", _lm_iterations),
    ("fitting", "distance_trend", None),
    ("channel", "response_voltages", _size(4, "times")),
    ("kinetics", "bound_concentration", _size(2, "t")),
    ("sensor", "sensitivity", _size(0, "b")),
    ("sensor", "voltage_from_sensitivity", _size(0, "ratio")),
    ("traceio", "load_trace", _file_read),
    ("traceio", "store_trace", _file_written),
    ("traceio", "preprocess", _trace_in(0, "raw")),
    ("traceio", "detect_onset", _trace_in(0, "trace")),
    ("traceio", "resample", _trace_in(0, "trace")),
)

FIELDS = ("name", "start", "end", "parent", "op", "work", "nbytes", "failed")


class Recorder:
    """Collects spans of wrapped calls; set `op` to the running op's id."""

    def __init__(self):
        self.names = []
        self.op = -1
        self._stack = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_ids = array("i")
        self.work = array("q")
        self.nbytes = array("q")
        self.failed = array("b")

    def wrap(self, label, fn, work):
        name_id = len(self.names)
        self.names.append(label)
        rec = self

        def wrapper(*args, **kwargs):
            if rec.op < 0:
                return fn(*args, **kwargs)
            i = len(rec.start)
            rec.name.append(name_id)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.op_ids.append(rec.op)
            rec.work.append(0)
            rec.nbytes.append(0)
            rec.failed.append(0)
            rec.end.append(0.0)
            rec._stack.append(i)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.end[i] = perf_counter()
                rec.failed[i] = 1
                rec._stack.pop()
                raise
            rec.end[i] = perf_counter()
            rec._stack.pop()
            if work is not None:
                rec.work[i], rec.nbytes[i] = work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in all loaded spraylink modules."""
        import spraylink.cli  # noqa: F401  (loads every module that binds a target)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spraylink" or n.startswith("spraylink."))]
        for mod_name, fn_name, work in TARGETS:
            original = getattr(sys.modules[f"spraylink.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def arrays(self):
        """The spans as a dict of numpy arrays plus the name table."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_ids, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def merge(parts):
    """Concatenate span sets (dicts as from Recorder.arrays or np.load) of
    several processes, offsetting parent indices. Every Recorder wraps
    TARGETS in the same order, so name ids agree across processes."""
    offsets = np.cumsum([0] + [p["start"].size for p in parts[:-1]])
    merged = {f: np.concatenate([p[f] for p in parts]) for f in FIELDS if f != "parent"}
    merged["parent"] = np.concatenate([np.where(p["parent"] >= 0, p["parent"] + off, -1)
                                       for p, off in zip(parts, offsets)])
    merged["names"] = list(parts[0]["names"])
    return merged


def layer_metrics(spans, pool_size, n_ops):
    """Per-layer metrics from merged spans.

    Times are seconds per op, averaged over the n_ops ops of the traced
    phase. Counts are per op over the first pass through the input pool
    (op ids below pool_size), so they depend only on the seed. Returns
    (metrics, per-op count table) where the table maps op id to a tuple
    of exact counts, for checking that repeated inputs repeat exactly.
    """
    names = spans["names"]
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    op = spans["op"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    work = spans["work"]
    nbytes = spans["nbytes"]
    failed = spans["failed"].astype(bool)
    n = dur.size
    first = op < pool_size

    def sel(label):
        return name == names.index(label)

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    parent_is = lambda mask: has_parent & mask[np.where(has_parent, parent, 0)]

    est = sel("fitting.estimate_channel_params")
    lm = sel("fitting.levenberg_marquardt") & parent_is(est)
    rv = sel("channel.response_voltages")
    grid_rv = rv & parent_is(est)
    lm_rv = rv & parent_is(lm)

    per_op = lambda mask, values=dur: float(values[mask].sum()) / n_ops
    count = lambda mask, values=None: (
        float(mask[first].sum() if values is None else values[mask & first].sum()) / pool_size
    )

    lm_time = per_op(lm)
    grid_time = per_op(est) - lm_time
    grid_evals = int((grid_rv & first).sum())
    infeasible = int((grid_rv & failed & first).sum())
    m = {
        "fitting.grid_s": grid_time,
        "fitting.grid.self_s": grid_time - per_op(grid_rv),
        "fitting.grid.infeasible_cells": infeasible / pool_size,
        "fitting.grid.feasible_ratio": (grid_evals - infeasible) / grid_evals if grid_evals else 0.0,
        "fitting.model_evals.grid": count(grid_rv),
        "fitting.model_evals.lm": count(lm_rv),
        "fitting.lm_s": lm_time,
        "fitting.lm.iterations": count(lm, work),
        "fitting.lm.failed_evals": count(lm_rv & failed),
        "channel.response_voltages.calls": count(rv),
        "channel.response_voltages.busy_s": per_op(rv),
        "channel.response_voltages.self_s": per_op(rv, dur - child_time),
        "channel.response_voltages.samples": count(rv, work),
        "channel.response_voltages.failed": count(rv & failed),
        "kinetics.bound_concentration.calls": count(sel("kinetics.bound_concentration")),
        "kinetics.bound_concentration.busy_s": per_op(sel("kinetics.bound_concentration")),
        "kinetics.bound_concentration.samples": count(sel("kinetics.bound_concentration"), work),
        "sensor.sensitivity.busy_s": per_op(sel("sensor.sensitivity")),
        "sensor.voltage_from_sensitivity.busy_s": per_op(sel("sensor.voltage_from_sensitivity")),
        "sensor.voltage_from_sensitivity.failed": count(sel("sensor.voltage_from_sensitivity") & failed),
    }
    for fn in ("load_trace", "store_trace", "preprocess", "detect_onset", "resample"):
        mask = sel(f"traceio.{fn}")
        m[f"traceio.{fn}.busy_s"] = per_op(mask)
        m[f"traceio.{fn}.bytes"] = count(mask, nbytes)
    m["traceio.load_trace.rows"] = count(sel("traceio.load_trace"), work)

    # Exact counts per op of the whole traced phase, keyed by op id.
    keyed = [grid_rv, grid_rv & failed, lm_rv, lm_rv & failed, rv]
    table = {}
    for i in np.unique(op):
        at = op == i
        row = [int((k & at).sum()) for k in keyed]
        row += [int(work[at & lm].sum()), int(work[at & rv].sum()),
                int(work[at].sum()), int(nbytes[at].sum())]
        table[int(i)] = tuple(row)
    return m, table
