"""Span tracing of `ncdbr` from outside the program, and the per-layer metrics.

`install` rebinds every public function of the layer modules (the names in
each module's `__all__`) in every `ncdbr` module namespace that holds it,
and wraps `SchurSampler.__call__`.  Each call records one span (name, start,
end, parent) in flat in-memory arrays; nothing is aggregated while the
benchmark runs.  `Tracer.metrics` turns the spans into calls and self time
per operation.  A span's self time is its duration minus the durations of
its direct children.

This module imports nothing from `ncdbr` or numpy at import time, so the
traced CLI child can load it before the program.
"""

import base64
import functools
import importlib
import json
import time
import types
from array import array

LAYER_MODULES = (
    "ncdbr.ncspace",
    "ncdbr.numerics",
    "ncdbr.realization",
    "ncdbr.rowcontraction",
    "ncdbr.charfn",
    "ncdbr.kernels",
    "ncdbr.fock",
    "ncdbr.freepoly",
)
# modules that import layer functions by name and call them through their
# own globals
NAMESPACES = LAYER_MODULES + ("ncdbr", "ncdbr.cli")
SAMPLER_CALL = "SchurSampler.__call__"
COLUMNS = ("name", "parent", "start", "end")

BOTH = ("calls", "self_ms")
# (span name, reported fields); the README maps each to the end-to-end
# metric it should move
SPAN_METRICS = (
    ("coeff_lift", BOTH),
    ("pencil_tz_star", ("self_ms",)),
    ("point_block", ("self_ms",)),
    ("word_apply", BOTH),
    ("psd_sqrt", BOTH),
    ("orthonormal_range", BOTH),
    ("pinv", BOTH),
    ("orthonormal_kernel", ("self_ms",)),
    ("fit_unitary", BOTH),
    ("subspace_stable_basis", BOTH),
    ("stabilized_span", ("self_ms",)),
    ("canonical_frames", BOTH),
    ("iso_pure_decompose", ("calls",)),
    ("defects", ("calls",)),
    ("taylor_coeff", BOTH),
    (SAMPLER_CALL, BOTH),
    ("char_fn", ("self_ms",)),
    ("popescu_char", ("self_ms",)),
    ("support_frames", BOTH),
    ("weak_coincidence_fit", ("self_ms",)),
    ("moebius_inv", BOTH),
    ("cp_check", ("self_ms",)),
    ("dbr_kernel", ("calls",)),
    ("szego_kernel", BOTH),
    ("mult_operator", ("self_ms",)),
    ("dbr_space", ("self_ms",)),
    ("gleason_extremal", ("self_ms",)),
    ("shifts", ("self_ms",)),
    ("model_verify", ("self_ms",)),
    ("kernel_vector", BOTH),
)
CLI_METRICS = ("cli.startup_ms", "cli.command_ms", "cli.import_scipy_ms")
RATIO_METRICS = (
    "charfn.fit_unitary_per_fit",
    "kernels.sampler_calls_per_cp_check",
    "rowcontraction.canonical_frames_per_char_fn",
)
OVERHEAD_METRIC = "trace.ops_per_s_ratio"


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for span, fields in SPAN_METRICS:
        for field in fields:
            unit = "calls/op" if field == "calls" else "ms/op"
            spec.append(("%s.%s" % (span, field), unit, "lower"))
    spec += [(name, "ms/op", "lower") for name in CLI_METRICS]
    spec += [(name, "ratio", "lower") for name in RATIO_METRICS]
    spec.append((OVERHEAD_METRIC, "ratio", "higher"))
    return spec


class Tracer:
    """In-memory span store.  Spans are appended at entry, so a parent's
    index is always below its children's."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._restore = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Rebind the public layer functions and `SchurSampler.__call__`."""
        originals = {}
        for modname in LAYER_MODULES:
            mod = importlib.import_module(modname)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == modname:
                    originals[id(fn)] = (fn, self.wrap(attr, fn))
        for modname in NAMESPACES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, attr, originals[id(value)][1])
                    self._restore.append((mod, attr, value))
        sampler = importlib.import_module("ncdbr.charfn").SchurSampler
        call = sampler.__call__
        sampler.__call__ = self.wrap(SAMPLER_CALL, call)
        self._restore.append((sampler, "__call__", call))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def span(self, name, fn):
        """Run fn() inside a span of the given name and return its result."""
        return self.wrap(name, fn)()

    def dump(self, path):
        """Write every span: the name table, and the four columns as
        base64 of their native-endian machine arrays."""
        columns = {key: getattr(self, key) for key in COLUMNS}
        data = {key: base64.b64encode(col.tobytes()).decode("ascii") for key, col in columns.items()}
        data["names"] = self.names
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def absorb(self, path):
        """Append the spans another process dumped to path."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        cols = {}
        for key in COLUMNS:
            cols[key] = array(getattr(self, key).typecode)
            cols[key].frombytes(base64.b64decode(data[key]))
        remap = [self._name_id(name) for name in data["names"]]
        offset = len(self.name)
        self.name.extend(remap[i] for i in cols["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in cols["parent"])
        self.start.extend(cols["start"])
        self.end.extend(cols["end"])

    def metrics(self, ops):
        """Per-operation calls and self times, and the waste ratios."""
        count = len(self.name)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            dur = self.end[i] - self.start[i]
            calls[self.name[i]] += 1
            self_s[self.name[i]] += dur
            if self.parent[i] >= 0:
                self_s[self.name[self.parent[i]]] -= dur

        def total(name, table):
            nid = self._ids.get(name)
            return table[nid] if nid is not None else 0

        out = {}
        for span, fields in SPAN_METRICS:
            if "calls" in fields:
                out[span + ".calls"] = total(span, calls) / ops
            if "self_ms" in fields:
                out[span + ".self_ms"] = 1000.0 * total(span, self_s) / ops
        out["charfn.fit_unitary_per_fit"] = _ratio(
            total("fit_unitary", calls), total("weak_coincidence_fit", calls)
        )
        out["kernels.sampler_calls_per_cp_check"] = _ratio(
            self._count_under(SAMPLER_CALL, "cp_check", outermost=True),
            total("cp_check", calls),
        )
        out["rowcontraction.canonical_frames_per_char_fn"] = _ratio(
            self._count_under("canonical_frames", "char_fn"), total("char_fn", calls)
        )
        return out

    def _count_under(self, name, ancestor, outermost=False):
        """Spans of `name` below a span of `ancestor`; with outermost, only
        those not nested in another span of `name`."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        under = bytearray(len(self.name))
        nested = bytearray(len(self.name))
        found = 0
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                under[i] = under[p] or self.name[p] == aid
                nested[i] = nested[p] or self.name[p] == nid
            if self.name[i] == nid and under[i] and not (outermost and nested[i]):
                found += 1
        return found


def _ratio(num, den):
    return num / den if den else 0.0


def import_time_ms(stderr_text, module):
    """Cumulative import time of `module` from `python -X importtime`
    output, or 0 when the process never imported it."""
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1000.0
    return 0.0
