"""Per-layer tracing of pvkit from outside the program.

:class:`Tracer` replaces pvkit's public functions, and the public methods
and constructors of its classes, with wrappers that record one span per
call: name, start, end, parent span and operation id.  A function is
replaced at every name a caller looks it up by: in its own module, in
every pvkit module that imported it, and in the ``pvkit`` package itself
(``pvkit.pricing.bracketed_integral``, ``pvkit.fx.price`` and so on).
Methods and constructors are replaced on their class.  Private helpers are
not wrapped, so their time is part of the public function that calls them.

Spans stay in memory until :meth:`Tracer.write`.  A span's self time is its
duration minus the time its direct child spans cover; a layer is the pvkit
module a span's function is defined in.  The wrappers' own cost lands in
the self time of the span that makes the call.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np


LAYERS = ("curves", "poly", "quadrature", "measures", "pricing", "fx",
          "arbitrage", "simplex", "io", "cli")
# classes whose construction and public methods are spans of their layer
CLASSES = {
    "curves": ("FlatCurve", "SpotGridCurve", "SvenssonCurve"),
    "measures": ("CashFlow", "Atom", "DensityPiece"),
    "fx": ("DualCurrencyMarket",),
    "arbitrage": ("Quote", "QuoteSet"),
}
PARSE = ("io.read_json", "io.parse_cashflow", "io.parse_curve", "io.parse_quotes",
         "io.parse_market", "io.parse_dual_cashflow", "io.parse_dual_functional")
FORMAT = ("io.cashflow_json", "io.price_json", "cli.fmt")
DISCOUNT = ("curves.FlatCurve.discount", "curves.SpotGridCurve.discount",
            "curves.SvenssonCurve.discount")


def _modules():
    return {name: importlib.import_module(f"pvkit.{name}") for name in LAYERS}


def _callers():
    """The ``pvkit`` package and every pvkit module loaded so far."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "pvkit" or n.startswith("pvkit."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self._root = self._name_id("op")
        # counts read from what wrapped calls return or receive
        self.irr_iterations = 0
        self.lp_rows: list[int] = []
        self.lp_cols: list[int] = []
        self.max_bits = 0
        self.fx_pieces_in = 0
        self.fx_pieces_out = 0
        self.grid_discounts = 0
        self._ybc = None

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- spans --------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def span_count(self) -> int:
        return len(self.start)

    def begin_op(self) -> None:
        self._op += 1
        self.start[self._open(self._root)] = time.perf_counter()

    def end_op(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    # -- counts read at the wrapped boundaries ------------------------------

    def _count_irr(self, _args, _kwargs, result) -> None:
        self.irr_iterations += result.iterations

    def _count_grid(self, args, kwargs, _result) -> None:
        """Discount factors of yield_bound_check's vectorised forward-rate
        scan, which no wrapped ``discount`` call sees: the points of the
        1e-3-spaced grid over the flow's support after the purchase time,
        built as ``pricing.yield_bound_check`` builds it."""
        bound = inspect.signature(self._ybc).bind(*args, **kwargs)
        bound.apply_defaults()
        lo, hi = bound.arguments["flow"].support_bounds()
        n = int(math.floor((hi - lo) / 1e-3))
        grid = np.unique(np.concatenate([lo + 1e-3 * np.arange(n + 1), [hi]]))
        self.grid_discounts += int((grid > bound.arguments["purchase_time"]).sum())

    def _count_lp(self, args, _kwargs, result) -> None:
        A, _b, c = args
        self.lp_rows.append(len(A))
        self.lp_cols.append(len(c))
        for v in list(result.x) + list(result.duals):
            self.max_bits = max(self.max_bits, v.numerator.bit_length(),
                                v.denominator.bit_length())

    def _count_fx(self, args, _kwargs, result) -> None:
        self.fx_pieces_in += len(args[1].pieces)
        self.fx_pieces_out += len(result[0].pieces)

    # -- installing ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap pvkit for the duration of the block, then restore it."""
        mods = _modules()
        targets = _callers()
        self._ybc = mods["pricing"].yield_bound_check
        hooks = {"pricing.irr": self._count_irr, "simplex.solve_lp": self._count_lp,
                 "fx.convert_measure_with_bound": self._count_fx,
                 "pricing.yield_bound_check": self._count_grid}
        undo = []
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, hooks.get(name))
                for target in targets:
                    if getattr(target, attr, None) is fn:
                        undo.append((target, attr, fn))
                        setattr(target, attr, wrapped)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if attr != "__init__" and (attr.startswith("_")
                                               or not inspect.isfunction(fn)):
                        continue
                    undo.append((cls, attr, fn))
                    setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", fn))
        try:
            yield self
        finally:
            for target, attr, fn in reversed(undo):
                setattr(target, attr, fn)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - covered

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation self time and call counts of every layer."""
        name, parent, dur, self_time = self._arrays()
        layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
        layer_of = np.array([layer_ids.get(n.split(".")[0], -1) for n in self.names],
                            dtype=np.int8)
        span_layer = layer_of[name]
        # counts are divided as integers, so whole rounds of the same
        # operations give the same figure however many rounds ran
        out = {"op.self_ms": float(self_time[name == self._root].sum()) * 1e3 / ops}
        for k, layer in enumerate(LAYERS):
            sel = span_layer == k
            out[f"{layer}.calls"] = int(sel.sum()) / ops
            out[f"{layer}.self_ms"] = float(self_time[sel].sum()) * 1e3 / ops
        by_name = {n: i for i, n in enumerate(self.names)}

        def ids(names):
            return [by_name[n] for n in names if n in by_name]

        def calls(names):
            return int(np.isin(name, ids(names)).sum()) / ops

        out["curves.discount_calls"] = calls(DISCOUNT) + self.grid_discounts / ops
        out["quadrature.calls"] = calls(["quadrature.bracketed_integral"])
        out["pricing.price_calls"] = calls(["pricing.price"])
        out["pricing.irr_iterations"] = self.irr_iterations / ops
        out["simplex.lp_rows"] = float(np.mean(self.lp_rows)) if self.lp_rows else 0.0
        out["simplex.lp_cols"] = float(np.mean(self.lp_cols)) if self.lp_cols else 0.0
        out["simplex.max_bits"] = self.max_bits
        out["fx.segments"] = (self.fx_pieces_out / self.fx_pieces_in
                              if self.fx_pieces_in else 0.0)

        # wall time of the outermost parse / format / main spans, per operation
        def outermost_ms(names):
            sel = np.isin(name, ids(names))
            total = 0.0
            for i in np.flatnonzero(sel):
                p = parent[i]
                while p >= 0 and not sel[p]:
                    p = parent[p]
                if p < 0:
                    total += dur[i]
            return float(total) * 1e3 / ops

        out["io.parse_ms"] = outermost_ms(PARSE)
        out["io.format_ms"] = outermost_ms(FORMAT)
        out["cli.main_ms"] = outermost_ms(["cli.main"])
        return out

    def write(self, path: str) -> None:
        """All spans, with the name table, as a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
