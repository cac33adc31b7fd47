"""Timing wrappers installed on the library's module namespaces.

The benchmark never edits the library. It finds each public function (or
class constructor) it measures, and rebinds every module attribute that
refers to that object to a wrapper. `network` calls `batch_covariance`
through its own namespace, `losses` calls `sym_eig` through its own, and so
on, so a wrapper on the defining module alone would miss most calls.

A target that cannot be found (a refactor inlined or renamed it) is not an
error: it is listed in `Tracer.missing` and its metrics read zero calls.

Spans are kept in memory as flat lists and written out once, at the end.
Self time is a span's duration minus the time covered by its child spans;
calls are single-threaded, so children nest inside their parent and never
overlap.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

PACKAGE = "logcoral"

# layer (module) -> public names measured in it. Class entries time the
# constructor, which is where the library validates its value types. The
# data layer's only hot call, load_csv, runs in feature_align's set-up,
# which times it directly.
TARGETS = {
    "network": ["forward", "backward", "train_step", "evaluate"],
    "stats": ["batch_covariance", "update_smoothed", "FeatureBatch"],
    "linalg": ["sym_eig", "regularize_psd", "SymmetricMatrix"],
    "losses": ["logcoral_loss", "coral_loss", "mean_loss", "softmax_cross_entropy",
               "chain_to_features"],
    "training": ["train", "save_checkpoint"],
    "gradcheck": ["run_gradcheck"],
}


def first_arg_width(args, kwargs):
    """Trailing dimension of the first argument (a matrix or feature batch)."""
    a = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(getattr(a, "data", a), "shape", ())
    return shape[-1] if shape else 0


# spans that record the width of their input, for dimension metrics
PROBES = {"linalg.sym_eig": first_arg_width, "stats.batch_covariance": first_arg_width}


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_target(layer: str, name: str):
    """The object named `name`, preferring the layer's own module, else any
    package module that defines it (the function moved in a refactor)."""
    owner = sys.modules.get(f"{PACKAGE}.{layer}")
    for m in ([owner] if owner is not None else []) + package_modules():
        obj = vars(m).get(name)
        if getattr(obj, "__name__", None) != name:
            continue
        if isinstance(obj, type) and "__init__" not in vars(obj):
            return None
        return obj
    return None


class Rebinding:
    """Replace every package-namespace binding of one object; undo restores."""

    def __init__(self, original, replacement):
        self.sites = []
        if isinstance(original, type):
            # rebinding a class would break isinstance checks; patch its
            # constructor instead, which every instance goes through
            self.sites.append((original, "__init__", vars(original)["__init__"]))
            setattr(original, "__init__", replacement)
            return
        for m in package_modules():
            for attr, value in list(vars(m).items()):
                if value is original:
                    self.sites.append((m, attr, value))
                    setattr(m, attr, replacement)

    def undo(self):
        for obj, attr, value in reversed(self.sites):
            setattr(obj, attr, value)
        self.sites = []


def time_calls(layer: str, name: str, record, before=None) -> Rebinding:
    """Pass the start and duration in seconds of every call of `layer.name`
    to record(), after calling before() untimed. This is the benchmark's
    operation timer; it records no spans."""
    fn = find_target(layer, name)
    if fn is None:
        raise LookupError(f"{PACKAGE}.{layer}.{name} not found; cannot time operations")

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if before is not None:
            before()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record(t0, perf_counter() - t0)

    return Rebinding(fn, timed)


class Tracer:
    """Span recorder for the TARGETS. Spans accumulate across installs;
    `recording` keeps checks out of them while installed."""

    def __init__(self, targets=None):
        self.targets = targets or TARGETS
        self.recording = False
        # one entry per span: name, start, end, parent index, child time, probe
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.child, self.probed = [], [], []
        self._current = -1
        self._bindings = []
        self.missing = []

    def install(self):
        self.missing = []
        for layer, names in self.targets.items():
            for name in names:
                key = f"{layer}.{name}"
                fn = find_target(layer, name)
                if fn is None:
                    self.missing.append(key)
                    continue
                inner = vars(fn)["__init__"] if isinstance(fn, type) else fn
                self._bindings.append(Rebinding(fn, self.wrap(key, inner, PROBES.get(key))))
        return self

    def uninstall(self):
        for b in reversed(self._bindings):
            b.undo()
        self._bindings = []

    def wrap(self, key, fn, probe=None):
        """`fn` recording a span named `key` while `recording` is set."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, child, probed = self.parents, self.child, self.probed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(names)
            parent = self._current
            names.append(key)
            parents.append(parent)
            child.append(0.0)
            ends.append(0.0)
            probed.append(probe(args, kwargs) if probe else 0)
            self._current = idx
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                self._current = parent
                if parent >= 0:
                    child[parent] += t1 - t0

        return wrapper

    def summary(self) -> dict:
        """name -> {calls, total_s, self_s, probed} over all recorded spans;
        probed lists the probe value of each call."""
        def empty():
            return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "probed": []}

        out = {f"{layer}.{n}": empty() for layer, names in self.targets.items() for n in names}
        for i, key in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(key, empty())
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - self.child[i]
            row["probed"].append(self.probed[i])
        return out

    def write(self, path):
        """All spans as JSON lines: name, start and end in microseconds from
        the first span, and the index of the parent span (-1 for roots)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, key in enumerate(self.names):
                f.write(json.dumps([key, round((self.starts[i] - t0) * 1e6, 3),
                                    round((self.ends[i] - t0) * 1e6, 3), self.parents[i]]) + "\n")
