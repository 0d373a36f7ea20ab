"""Outside-in tracer for bernkit's layers.

Every public module-level function of each layer module is wrapped, and
every name bound to it in any loaded ``bernkit`` module is rebound to the
wrapper.  Rebinding all aliases matters: ``identities``, ``congr``, ``fps``
and ``polybern`` call through ``from .x import f`` names, and the package
``__init__`` re-exports, so patching only the defining module would miss
their calls.

Aggregates are kept in memory per function and per caller->callee edge.
Full spans are kept only for top-level units (one identity id, one
congruence id at one prime, one CLI command).  ``dump()`` returns them all
as plain JSON data.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from fractions import Fraction

LAYERS = ("seqcore", "classical", "fps", "polybern", "identities", "congr", "cli")
UNITS = ("identities.verify_identity", "congr.check_congruence", "cli.main")
_BITS_LAYERS = ("seqcore", "classical")


def _label(args) -> list:
    """Short description of a unit call: its str/int arguments (argv for cli)."""
    out = []
    for a in args:
        if isinstance(a, (str, int)):
            out.append(a)
        elif isinstance(a, list) and all(isinstance(s, str) for s in a):
            out.extend(a)
    return out


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []           # [key, child_s] per active call
        self.funcs: dict[str, list] = {}      # key -> [calls, incl_s]
        self.edges: dict[tuple, list] = {}    # (caller, callee) -> [calls, incl_s]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.bits = {layer: [0, 0] for layer in _BITS_LAYERS}  # num, den
        self.max_order = 0
        self.spans: list[dict] = []
        self._depth: dict[str, int] = {}

    def install(self, package: str = "bernkit") -> None:
        """Wrap every layer function and rebind all of its aliases."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(obj, layer, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def _wrap(self, fn, layer: str, key: str):
        stack, edges, self_s, depth = self.stack, self.edges, self.self_s, self._depth
        stat = self.funcs[key] = [0, 0.0]
        depth[key] = 0
        bits = self.bits.get(layer)
        is_fps = layer == "fps"
        is_unit = key in UNITS
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] += 1
            before = dict(self_s) if is_unit else None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                depth[key] -= 1
                stat[0] += 1
                if depth[key] == 0:  # count recursive time once
                    stat[1] += dt
                self_s[layer] += dt - frame[1]
                ekey = (caller[0] if caller else "<root>", key)
                edge = edges.get(ekey)
                if edge is None:
                    edge = edges[ekey] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt
                if caller is not None:
                    caller[1] += dt
                if is_unit:
                    self.spans.append({
                        "unit": key, "label": _label(args), "start": t0,
                        "dur_s": dt,
                        "self_s": {k: v - before[k] for k, v in self_s.items()
                                   if v != before[k]}})
            if bits is not None:
                if type(result) is int:
                    if result.bit_length() > bits[0]:
                        bits[0] = result.bit_length()
                elif type(result) is Fraction:
                    if result.numerator.bit_length() > bits[0]:
                        bits[0] = result.numerator.bit_length()
                    if result.denominator.bit_length() > bits[1]:
                        bits[1] = result.denominator.bit_length()
            elif is_fps:
                order = getattr(result, "order", 0)
                if isinstance(order, int) and order > self.max_order:
                    self.max_order = order
            return result

        return functools.update_wrapper(wrapper, fn)

    def dump(self, scale: float = 1.0) -> dict:
        """Everything recorded, with every duration multiplied by ``scale``
        (the process's reference seconds per wall second, see probe.py)."""
        return {
            "funcs": {k: [c, t * scale] for k, (c, t) in self.funcs.items()},
            "edges": [[a, b, c, t * scale] for (a, b), (c, t) in self.edges.items()],
            "self_s": {k: t * scale for k, t in self.self_s.items()},
            "bits": self.bits,
            "max_order": self.max_order,
            "spans": [dict(s, dur_s=s["dur_s"] * scale,
                           self_s={k: t * scale for k, t in s["self_s"].items()})
                      for s in self.spans],
        }
