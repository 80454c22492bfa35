"""Layer tracing from outside the program.

The benchmark never edits ``src/``.  It wraps calls into the cechlab modules
from here: class methods are patched on their class, and module-level
functions are patched at every module that binds them, because modules import
them by name (``from .linalg import solve``).

Each wrapped call pushes a frame; when it returns, its wall time is charged to
the caller's child time, so a layer's self time is its duration minus the time
spent in traced callees.  Calls of non-leaf layers are kept in memory as span
records (name, start, end, parent span, op id).  Hot leaf calls (ring
arithmetic, span inserts) are aggregated per parent span to keep memory and
overhead small.  ``write`` stores everything when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref

_clock = time.perf_counter

# (module, function attribute, layer name, leaf?)
FUNCTIONS = [
    ("linalg", "solve", "linalg.solve", False),
    ("linalg", "rank", "linalg.dense", False),
    ("linalg", "nullspace", "linalg.dense", False),
    ("linalg", "cokernel_basis", "linalg.dense", False),
    ("ring", "exp_trunc", "ring.exp_trunc", True),
    ("cech", "verify_witness", "cech.verify_witness", False),
    ("spaces", "grading_lattice", "spaces.grading_lattice", False),
    ("deform", "build_family", "deform.build_family", False),
    ("deform", "affineness_probe", "deform.affineness_probe", False),
    ("moduli", "splitting_type", "moduli.splitting_type", False),
    ("moduli", "extension_verdict", "moduli.extension_verdict", False),
    ("moduli", "generic_moduli_dim", "moduli.generic_moduli_dim", False),
    ("exprs", "parse_poly", "exprs.parse_poly", False),
]

# (module, class, method attributes, layer name, leaf?)
METHODS = [
    ("ring", "LaurentPoly", ("__mul__", "__rmul__"), "ring.mul", True),
    ("ring", "LaurentPoly", ("__pow__",), "ring.pow", True),
    ("ring", "LaurentPoly", ("__add__", "__radd__"), "ring.add", True),
    ("ring", "LaurentPoly", ("substitute",), "ring.substitute", True),
    ("linalg", "IncrementalSpan", ("insert",), "linalg.span_insert", True),
    ("linalg", "IncrementalSpan", ("decompose",), "linalg.span_decompose", False),
    ("cech", "CechEngine", ("h1",), "cech.h1", False),
    ("cech", "CechEngine", ("is_coboundary",), "cech.is_coboundary", False),
    ("cech", "CechEngine", ("reduce",), "cech.reduce", False),
    ("cech", "CechEngine", ("_box_spans",), "cech.box_spans", False),
    ("cech", "_BoxModel", ("v_generators",), "cech.v_generators", False),
    ("cech", "_BoxModel", ("u_generators",), "cech.u_generators", False),
    ("cech", "_ExactModel", ("slice_generators",), "cech.slice_generators", False),
    ("spaces", "ChartMap", ("to_u_frame",), "spaces.to_u_frame", False),
    ("spaces", "ChartMap", ("to_v_frame",), "spaces.to_v_frame", False),
]

# (module, class, method, counter name): counted, not timed
COUNTED = [
    ("ring", "LaurentPoly", "__init__", "ring.new.calls"),
    ("cech", "DegreeBox", "escalate", "cech.escalations.calls"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = None
        self.spans = []  # [name, start, end, parent index, op id]
        self.leaf = {}  # (parent index, name) -> [calls, total_s, self_s]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> int
        self.keys = {}  # name -> set of distinct call keys
        self._frames = []  # [span index charged, child time]
        self._serials = weakref.WeakKeyDictionary()

    # -- bookkeeping -------------------------------------------------------

    def serial(self, obj) -> int:
        """Run-local identity of an object, stable across runs (unlike id())."""
        s = self._serials.get(obj)
        if s is None:
            s = self._serials[obj] = len(self._serials)
        return s

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def note_key(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def call(self, name, leaf, fn, args, kwargs):
        frames = self._frames
        parent = frames[-1][0] if frames else None
        if leaf:
            ref = parent
        else:
            ref = len(self.spans)
            self.spans.append(None)
        frame = [ref, 0.0]
        frames.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            frames.pop()
            dt = end - start
            own = dt - frame[1]
            if frames:
                frames[-1][1] += dt
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dt
            st[2] += own
            if leaf:
                agg = self.leaf.get((parent, name))
                if agg is None:
                    agg = self.leaf[(parent, name)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += own
            else:
                self.spans[ref] = [name, start, end, parent, self.op_id]

    def run_op(self, op_id, name, fn, *args):
        """Run one benchmark op as a root span."""
        self.op_id = op_id
        return self.call(name, False, fn, args, {})

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, leaf, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.call(name, leaf, fn, args, kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def wrap_count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines; aggregated leaf calls hang off their parent."""
        leaf_by_parent = {}
        for (parent, name), (calls, total, own) in self.leaf.items():
            leaf_by_parent.setdefault(parent, {})[name] = {
                "calls": calls,
                "total_s": total,
                "self_s": own,
            }
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                if span is None:  # a span still open when the run ended
                    continue
                name, start, end, parent, op_id = span
                rec = {
                    "id": idx,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op_id,
                }
                if idx in leaf_by_parent:
                    rec["leaf"] = leaf_by_parent[idx]
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            if None in leaf_by_parent:
                rec = {"id": None, "name": "(outside spans)", "leaf": leaf_by_parent[None]}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# -- observers: deterministic work counters next to the timings ------------


def _insert_useful(tracer, args, result):
    if result:
        tracer.count("linalg.span_insert.useful")


def _decompose_hit(tracer, args, result):
    if result is not None:
        tracer.count("linalg.span_decompose.hits")


def _box_spans_key(tracer, args, result):
    engine, box = args[0], args[1]
    tracer.note_key("cech.box_spans", (tracer.serial(engine), box))


def _slice_key(tracer, args, result):
    model, chi = args[0], args[1]
    tracer.note_key("cech.slice_generators", (tracer.serial(model), tuple(chi)))


def _v_gens(tracer, args, result):
    tracer.count("cech.v_generators.gens", len(result))


OBSERVERS = {
    "linalg.span_insert": _insert_useful,
    "linalg.span_decompose": _decompose_hit,
    "cech.box_spans": _box_spans_key,
    "cech.slice_generators": _slice_key,
    "cech.v_generators": _v_gens,
}


def _cechlab_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cechlab" or name.startswith("cechlab."))
    ]


def instrument(tracer: Tracer, claim_ids, cli_commands) -> list:
    """Patch every traced layer; returns the layers not found in cechlab.

    A layer that a later change renames or removes is skipped, not fatal: its
    metrics then read 0 and the run's metadata names it.
    """
    import importlib

    mods = {
        name: importlib.import_module("cechlab." + name)
        for name in ("ring", "linalg", "spaces", "cech", "deform", "moduli", "exprs", "claims", "cli")
    }
    bindings = _cechlab_modules()
    missing = []
    for modname, attr, name, leaf in FUNCTIONS:
        orig = getattr(mods[modname], attr, None)
        if orig is None:
            missing.append(f"{modname}.{attr}")
            continue
        wrapped = tracer.wrap(orig, name, leaf, OBSERVERS.get(name))
        for mod in bindings:
            for binding, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, binding, wrapped)
    for modname, clsname, attrs, name, leaf in METHODS:
        cls = getattr(mods[modname], clsname, None)
        for attr in attrs:
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                missing.append(f"{modname}.{clsname}.{attr}")
                continue
            setattr(cls, attr, tracer.wrap(orig, name, leaf, OBSERVERS.get(name)))
    for modname, clsname, attr, name in COUNTED:
        cls = getattr(mods[modname], clsname, None)
        orig = vars(cls).get(attr) if cls is not None else None
        if orig is None:
            missing.append(f"{modname}.{clsname}.{attr}")
            continue
        setattr(cls, attr, tracer.wrap_count(orig, name))

    table = mods["claims"].CLAIMS
    for cid in claim_ids:
        if cid in table:
            table[cid] = tracer.wrap(table[cid], f"claims.{cid}", False)
        else:
            missing.append(f"claims.CLAIMS[{cid}]")
    table = mods["cli"]._COMMANDS
    for command in cli_commands:
        if command in table:
            table[command] = tracer.wrap(table[command], f"cli.{command}", False)
        else:
            missing.append(f"cli._COMMANDS[{command}]")
    return missing


# -- per-layer metrics --------------------------------------------------------

_CALLS_SELF = [
    "ring.mul",
    "ring.pow",
    "ring.add",
    "ring.substitute",
    "ring.exp_trunc",
    "linalg.span_insert",
    "linalg.span_decompose",
    "linalg.solve",
    "linalg.dense",
    "cech.box_spans",
    "cech.v_generators",
    "cech.u_generators",
    "cech.slice_generators",
    "cech.verify_witness",
    "spaces.to_u_frame",
    "spaces.to_v_frame",
    "spaces.grading_lattice",
    "exprs.parse_poly",
]
_CALLS_TOTAL = [
    "cech.h1",
    "cech.is_coboundary",
    "cech.reduce",
    "deform.build_family",
    "deform.affineness_probe",
    "moduli.splitting_type",
    "moduli.extension_verdict",
    "moduli.generic_moduli_dim",
]


def metric_names(claim_ids, cli_commands):
    """(name, unit, deterministic?) for every per-layer metric, in report order."""
    out = []
    for layer in _CALLS_SELF:
        out += [(f"{layer}.calls", "count", True), (f"{layer}.self_s", "s", False)]
    for layer in _CALLS_TOTAL:
        out += [(f"{layer}.calls", "count", True), (f"{layer}.total_s", "s", False)]
    out += [
        ("ring.new.calls", "count", True),
        ("cech.escalations.calls", "count", True),
        ("cech.v_generators.gens", "count", True),
        ("linalg.span_insert.useful_ratio", "ratio", True),
        ("linalg.span_decompose.hit_ratio", "ratio", True),
        ("cech.box_spans.distinct_ratio", "ratio", True),
        ("cech.slice_generators.distinct_ratio", "ratio", True),
    ]
    out += [(f"claims.{cid}.total_s", "s", False) for cid in claim_ids]
    out += [(f"cli.{c}.total_s", "s", False) for c in cli_commands]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer: Tracer, claim_ids, cli_commands):
    """Every per-layer metric of this run; layers not exercised read 0."""

    def st(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])

    vals = {}
    for layer in _CALLS_SELF:
        calls, _, own = st(layer)
        vals[f"{layer}.calls"] = calls
        vals[f"{layer}.self_s"] = own
    for layer in _CALLS_TOTAL:
        calls, total, _ = st(layer)
        vals[f"{layer}.calls"] = calls
        vals[f"{layer}.total_s"] = total
    counts = tracer.counts
    vals["ring.new.calls"] = counts.get("ring.new.calls", 0)
    vals["cech.escalations.calls"] = counts.get("cech.escalations.calls", 0)
    vals["cech.v_generators.gens"] = counts.get("cech.v_generators.gens", 0)
    vals["linalg.span_insert.useful_ratio"] = _ratio(
        counts.get("linalg.span_insert.useful", 0), st("linalg.span_insert")[0]
    )
    vals["linalg.span_decompose.hit_ratio"] = _ratio(
        counts.get("linalg.span_decompose.hits", 0), st("linalg.span_decompose")[0]
    )
    for layer in ("cech.box_spans", "cech.slice_generators"):
        vals[f"{layer}.distinct_ratio"] = _ratio(
            len(tracer.keys.get(layer, ())), st(layer)[0]
        )
    for cid in claim_ids:
        vals[f"claims.{cid}.total_s"] = st(f"claims.{cid}")[1]
    for c in cli_commands:
        vals[f"cli.{c}.total_s"] = st(f"cli.{c}")[1]
    return vals
