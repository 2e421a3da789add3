"""Spans around the calls into each layer of cylfn, and the per-layer numbers.

The wrappers replace a layer's public names in the modules that bind them
(`from .zeros import find_zeros` makes `cylfn.interlace.find_zeros` the name
that interlace actually calls), so the library itself is not edited.  Each
span is a list `[name, start_ns, end_ns, parent, op, attrs]` kept in memory
and written out at the end; self times are computed from them afterwards.

What the spans cannot see, by design:
- `theorems.verify_recurrences` calls the private `_cyl_raw` and
  `_cyl_and_prime_raw` directly, so that L0 time counts as theorems self time.
- `sweep` sends its cells to worker processes; the spans made there are lost
  and the whole `breakdown_scan` call is one span, booked as the `pool`
  residual when it ran with more than one worker.
"""

from __future__ import annotations

import functools
import math
import time

from metrics import LAYERS, REGIMES, RESIDUALS

L0 = ("special_fn.c", "special_fn.pair")


class Tracer:
    """Records nested spans; `op` tags each span with the benchmark op id."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = [type(exc).__name__]
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced


def _l0_attrs(args, kwargs, out):
    spec, x = args
    return [spec.nu, spec.delta, float(x), out if isinstance(out, float) else list(out)]


def _scan_attrs(args, kwargs, out):
    threads = kwargs.get("threads", args[5] if len(args) > 5 else 1)
    return [len(out.cells), threads]


def install(tracer: Tracer) -> dict:
    """Wrap every layer entry point where its caller binds it.

    Returns the wrappers by span name, for the benchmark's own calls.
    """
    from cylfn import cli, interlace, special_fn, theorems, wronskian, zeros

    w = {
        "special_fn.c": tracer.wrap("special_fn.c", special_fn.cylinder, _l0_attrs),
        "special_fn.pair": tracer.wrap("special_fn.pair", special_fn.cylinder_and_prime, _l0_attrs),
        "zeros.find_zeros": tracer.wrap(
            "zeros.find_zeros", zeros.find_zeros, lambda a, k, out: [len(out)]
        ),
        "interlace.check_interlaced": tracer.wrap(
            "interlace.check_interlaced", interlace.check_interlaced
        ),
        "interlace.detect_shifted": tracer.wrap("interlace.detect_shifted", interlace.detect_shifted),
        "wronskian.profile": tracer.wrap(
            "wronskian.profile", wronskian.wronskian_profile, lambda a, k, out: [len(out.extrema)]
        ),
        "theorems.verify_chain": tracer.wrap("theorems.verify_chain", interlace.verify_chain),
        "theorems.verify_equivalence": tracer.wrap(
            "theorems.verify_equivalence", wronskian.interlace_wronskian_equivalence
        ),
        "theorems.breakdown_scan": tracer.wrap(
            "theorems.breakdown_scan", theorems.breakdown_scan, _scan_attrs
        ),
    }
    for fn in ("verify_recurrences", "verify_theorem1", "verify_theorem3", "verify_transitivity"):
        w[f"theorems.{fn}"] = tracer.wrap(f"theorems.{fn}", getattr(theorems, fn))

    bindings = {
        zeros: {"cylinder": "special_fn.c", "cylinder_and_prime": "special_fn.pair"},
        interlace: {"find_zeros": "zeros.find_zeros", "check_interlaced": "interlace.check_interlaced"},
        wronskian: {
            "cylinder_and_prime": "special_fn.pair",
            "find_zeros": "zeros.find_zeros",
            "check_interlaced": "interlace.check_interlaced",
            "wronskian_profile": "wronskian.profile",
        },
        theorems: {
            "find_zeros": "zeros.find_zeros",
            "check_interlaced": "interlace.check_interlaced",
            "wronskian_profile": "wronskian.profile",
            "verify_chain": "theorems.verify_chain",
        },
        cli: {
            "cylinder": "special_fn.c",
            "cylinder_and_prime": "special_fn.pair",
            "find_zeros": "zeros.find_zeros",
            "check_interlaced": "interlace.check_interlaced",
            "detect_shifted": "interlace.detect_shifted",
            "wronskian_profile": "wronskian.profile",
            "verify_chain": "theorems.verify_chain",
            "interlace_wronskian_equivalence": "theorems.verify_equivalence",
            "breakdown_scan": "theorems.breakdown_scan",
            "verify_recurrences": "theorems.verify_recurrences",
            "verify_theorem1": "theorems.verify_theorem1",
            "verify_theorem3": "theorems.verify_theorem3",
            "verify_transitivity": "theorems.verify_transitivity",
        },
    }
    for module, names in bindings.items():
        for attr, span_name in names.items():
            if not hasattr(module, attr):
                raise AttributeError(f"{module.__name__} no longer binds {attr}")
            setattr(module, attr, w[span_name])
    return w


def merge(into: list, spans: list, op: int):
    """Append one process's spans, re-basing parent indices and op ids."""
    base = len(into)
    for name, t0, t1, parent, _, attrs in spans:
        into.append([name, t0, t1, parent + base if parent >= 0 else -1, op, attrs])


def regime(nu: float, delta: float, x: float) -> str:
    """The evaluation path cylfn.special_fn takes for (nu, delta, x)."""
    has_j = abs(math.cos(delta)) > 1e-15
    has_y = abs(math.sin(delta)) > 1e-15
    if x <= 30.0:
        if has_j and has_y:
            return "series_mixed"
        if has_y:
            return "series_yint" if nu == math.floor(nu) else "series_y"
        return "series_j"
    return "large_mixed" if has_j and has_y else "large_y" if has_y else "large_j"


def layer_of(span) -> str:
    name, attrs = span[0], span[5]
    if name == "theorems.breakdown_scan" and attrs and len(attrs) == 2 and attrs[1] > 1:
        return "pool"
    return name.split(".", 1)[0]


def _mean(total, count):
    return total / count if count else 0.0


def layer_metrics(spans: list, wall_ns: int) -> dict:
    """Per-layer numbers from one traced phase whose wall time was wall_ns."""
    n = len(spans)
    child_ns = [0] * n
    l0_children = [0] * n
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
            if name in L0:
                l0_children[parent] += 1
    dur = [s[2] - s[1] for s in spans]
    self_ns = [d - c for d, c in zip(dur, child_ns)]
    root_ns = sum(d for d, s in zip(dur, spans) if s[3] < 0)
    if min(self_ns, default=0) < 0 or root_ns > wall_ns:
        raise RuntimeError("spans do not nest; the self-time accounting is broken")
    raised = {i for i in range(n) if spans[i][5] and isinstance(spans[i][5][0], str)}

    by_layer = {layer: 0 for layer in LAYERS + RESIDUALS}
    for span, s in zip(spans, self_ns):
        by_layer[layer_of(span)] += s

    def pick(name):
        return [i for i in range(n) if spans[i][0] == name and i not in raised]

    m = {"special_fn.calls": sum(1 for s in spans if s[0] in L0)}
    for kind, span_name in (("c", "special_fn.c"), ("pair", "special_fn.pair")):
        tot = {r: [0, 0] for r in REGIMES}
        for i in pick(span_name):
            nu, delta, x, _ = spans[i][5]
            t = tot[regime(nu, delta, x)]
            t[0] += dur[i]
            t[1] += 1
        for r in REGIMES:
            m[f"special_fn.{kind}_us.{r}"] = _mean(tot[r][0] / 1e3, tot[r][1])

    fz = pick("zeros.find_zeros")
    misses = [i for i in fz if l0_children[i] > 0]
    zeros_found = sum(spans[i][5][0] for i in misses)
    m["zeros.calls"] = len(fz)
    m["zeros.ms_per_zero"] = _mean(sum(dur[i] for i in misses) / 1e6, zeros_found)
    m["zeros.l0_calls_per_zero"] = _mean(sum(l0_children[i] for i in misses), zeros_found)
    m["zeros.self_share"] = _mean(sum(self_ns[i] for i in fz), sum(dur[i] for i in fz))
    m["zeros.cache_hit_ratio"] = _mean(len(fz) - len(misses), len(fz))
    m["zeros.iteration_errors"] = sum(
        1 for i in raised if spans[i][0] == "zeros.find_zeros" and spans[i][5][0] == "IterationError"
    )

    il = pick("interlace.check_interlaced")
    il_self = sum(s for span, s in zip(spans, self_ns) if span[0].startswith("interlace."))
    m["interlace.calls"] = len(il)
    m["interlace.self_us"] = _mean(il_self / 1e3, len(il))

    wp = pick("wronskian.profile")
    m["wronskian.profile_calls"] = len(wp)
    m["wronskian.profile_self_ms"] = _mean(sum(self_ns[i] for i in wp) / 1e6, len(wp))
    m["wronskian.l0_calls_per_extremum"] = _mean(
        sum(l0_children[i] for i in wp), sum(spans[i][5][0] for i in wp)
    )

    t3 = pick("theorems.verify_theorem3")
    m["theorems.theorem3_cell_ms"] = _mean(sum(dur[i] for i in t3) / 1e6, len(t3))
    bs = pick("theorems.breakdown_scan")
    m["theorems.scan_cell_ms"] = _mean(
        sum(dur[i] for i in bs) / 1e6, sum(spans[i][5][0] for i in bs)
    )
    rc = pick("theorems.verify_recurrences")
    m["theorems.recurrences_ms"] = _mean(sum(dur[i] for i in rc) / 1e6, len(rc))
    m["theorems.self_share"] = _mean(by_layer["theorems"], wall_ns)

    m["trace.wall_ms"] = wall_ns / 1e6
    for layer, ns in by_layer.items():
        m[f"trace.self_ms.{layer}"] = ns / 1e6
    m["trace.residual_ms"] = (wall_ns - root_ns) / 1e6
    return m
