"""Outside-in layer trace of symprep: spans and counters around its calls.

Every wrapper is installed from here; nothing under src/ knows about it.
The modules import their helpers by name (`from .linalg import mm_modp`), so
a helper is replaced in every module that holds a reference to it, and a few
methods are replaced on their class.  A span records its layer, its parent
span, and its start and end; a layer's self time is the length of its spans
minus the part covered by their children.  Spans stay in memory until the
worker writes them out after the run.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

# The span of a speed-probe sample, which interrupts whatever layer runs.
PROBE_SPAN = "speed.sample"

# linalg.mm_modp multiplies in float64 through BLAS from this many
# multiply-adds on; below it multiplies int64 arrays directly.
_BLAS_MACS = 200_000


class Trace:
    def __init__(self):
        self.spans: list = []  # [layer, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._tickers = []

    def wrap(self, layer, fn, count=None):
        """fn inside a span; `layer` is a name or a function of the call's
        arguments, and `count(counts, name, args, result)` adds counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts

        def wrapped(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            span = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(counts, name, args, result)
            return result

        return wrapped

    def record_probe(self, t0: float, t1: float):
        """A speed-probe sample as a child of the innermost open span, so it
        comes out of that layer's self time."""
        self.spans.append([PROBE_SPAN, self._stack[-1], t0, t1])

    def patch(self, owners, attr, layer, count=None):
        for owner in owners:
            setattr(owner, attr, self.wrap(layer, getattr(owner, attr), count))

    def count_calls(self, owner, unary, binary, key):
        """Count calls of scalar methods without spans: they run ~10^6 times,
        so the wrappers are kept to one C call and one Python frame."""
        ticks = itertools.count()
        self._tickers.append((key, ticks))
        for attr in unary:
            def wrapped1(obj, a, _fn=getattr(owner, attr), _tick=ticks.__next__):
                _tick()
                return _fn(obj, a)
            setattr(owner, attr, wrapped1)
        for attr in binary:
            def wrapped2(obj, a, b, _fn=getattr(owner, attr), _tick=ticks.__next__):
                _tick()
                return _fn(obj, a, b)
            setattr(owner, attr, wrapped2)

    def totals(self):
        """(self seconds by layer, calls by layer), and folds the counted
        calls into `counts`.  Call it once, after the run: reading an
        itertools.count advances it."""
        for key, ticks in self._tickers:
            self.counts[key] = next(ticks)
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, _, t0, t1) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
        return self_s, calls


def _mm_count(counts, name, args, result):
    """Multiply-adds and computed bytes of one mm_modp call.

    Bytes are what each numpy expression reads and writes, from the shapes:
    int64 operands and result, plus on the BLAS path the float64 copies of
    both operands and the float, rounded and cast results before the mod.
    Cache reuse inside BLAS is not seen.
    """
    (n, k), m = args[0].shape, args[1].shape[1]
    macs = n * k * m
    counts["linalg.mm.macs"] += macs
    if k == 0:
        moved = n * m
    elif macs >= _BLAS_MACS:
        moved = 3 * n * k + 3 * k * m + 7 * n * m
    else:
        moved = n * k + k * m + 3 * n * m
    counts["linalg.mm.bytes"] += 8 * moved


def _rref_layer(args, kwargs):
    field = args[1]
    if field.r > 1:
        return "linalg.rref.ext"
    if field.is_gf2 and not kwargs.get("force_generic"):
        return "linalg.rref.gf2"
    return "linalg.rref.modp"


def _rref_count(counts, name, args, result):
    counts[name + ".cells"] += args[0].size


def _len_count(key):
    def count(counts, name, args, result):
        counts[key] += len(result)
    return count


def install(trace: Trace):
    """Wrap every layer boundary named in PER_LAYER; returns the module caches."""
    from symprep import (classical, dickson, field, forms, linalg, oracles, perm,
                         records, snmod)

    caches = (snmod._specht_core, snmod.specht_module, snmod.irreducible_D)
    p = trace.patch
    p((snmod, dickson, oracles, forms, linalg), "mm_modp", "linalg.mm", _mm_count)
    p((snmod, linalg), "rref_array", _rref_layer, _rref_count)
    p((snmod, oracles, linalg), "kernel", "linalg.kernel")
    p((snmod, linalg), "joint_fixed_space", "linalg.fixed_space")
    p((snmod, linalg), "quotient_action", "linalg.quotient")
    p((snmod,), "specht_module", "snmod.specht")
    p((snmod,), "irreducible_D", "snmod.radical")
    p((snmod,), "loewy_length", "snmod.loewy")
    for attr in ("free_summand_count", "cyclic_profile", "fingerprint",
                 "fingerprint_of_mats"):
        p((snmod,), attr, "snmod.norm")
    p((snmod.GModule,), "_check_relations", "snmod.relations")
    trace.count_calls(field.GF, ("neg", "inv"), ("add", "mul", "sub"), "field.scalar_ops")
    p((dickson,), "_sweep_survivors_gf2", "dickson.sweep", _len_count("dickson.sweep.survivors"))
    p((perm,), "closure", "perm.closure", _len_count("perm.closure.elements"))
    p((perm,), "elem_abelian_rank_search", "perm.rank_search")
    p((oracles,), "enum_parabolic", "oracles.enum_parabolic")
    p((classical,), "intersection_dim", "classical.intersection")
    p((classical,), "ug_generators", "classical.roots")
    p((classical, forms), "unipotent_constraints", "forms.constraints")
    p((records,), "render", "records.render")
    return caches


# (metric, unit); `.s` metrics are self times summed over a layer's spans.
PER_LAYER = (
    ("snmod.specht.s", "s"), ("snmod.specht.calls", "count"),
    ("snmod.relations.s", "s"), ("snmod.radical.s", "s"),
    ("snmod.loewy.s", "s"), ("snmod.loewy.calls", "count"),
    ("snmod.norm.s", "s"),
    ("snmod.module_cache.hits", "count"), ("snmod.module_cache.misses", "count"),
    ("linalg.mm.calls", "count"), ("linalg.mm.s", "s"),
    ("linalg.mm.macs", "count"), ("linalg.mm.bytes", "B"),
    ("linalg.rref.gf2.calls", "count"), ("linalg.rref.gf2.cells", "count"),
    ("linalg.rref.gf2.s", "s"),
    ("linalg.rref.modp.calls", "count"), ("linalg.rref.modp.cells", "count"),
    ("linalg.rref.modp.s", "s"),
    ("linalg.rref.ext.calls", "count"), ("linalg.rref.ext.cells", "count"),
    ("linalg.rref.ext.s", "s"),
    ("linalg.kernel.s", "s"), ("linalg.fixed_space.s", "s"), ("linalg.quotient.s", "s"),
    ("field.scalar_ops", "count"),
    ("dickson.sweep.s", "s"), ("dickson.sweep.calls", "count"),
    ("dickson.sweep.survivors", "count"),
    ("perm.closure.s", "s"), ("perm.closure.elements", "count"),
    ("perm.rank_search.s", "s"),
    ("oracles.enum_parabolic.s", "s"),
    ("classical.intersection.s", "s"), ("classical.roots.s", "s"),
    ("forms.constraints.s", "s"),
    ("records.render.s", "s"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def layer_values(trace: Trace, caches, wall_s: float) -> dict:
    """Every PER_LAYER value of one traced run except trace.overhead_frac,
    which needs the untraced runs too; `wall_s` leaves out probe samples."""
    self_s, calls = trace.totals()
    out = {}
    for metric, _ in PER_LAYER[:-2]:
        base, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = self_s.get(base, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(base, 0)
        else:
            out[metric] = trace.counts.get(metric, 0)
    infos = [c.cache_info() for c in caches]
    out["snmod.module_cache.hits"] = sum(i.hits for i in infos)
    out["snmod.module_cache.misses"] = sum(i.misses for i in infos)
    out["trace.coverage_frac"] = sum(v for k, v in self_s.items() if k != PROBE_SPAN) / wall_s
    return out
