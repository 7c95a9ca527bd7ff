"""Spans around supercat's public functions, installed from outside.

`Tracer.install` replaces each traced function or method with a wrapper that
records a span (name, parent span, operation, start, end) and, for a few
kernels, counts what the call produced.  Functions imported by name into
other supercat modules (`identities`, `cli`, `counting` and the package
itself do this) are replaced there too, so no call path escapes the trace.
`uninstall` puts the originals back.

`Path.__init__`, `Path.height` and `CountTable.count` are not traced: they
run tens of thousands of times per pass and would swamp the spans.  Path
counts come from the sizes of enumeration results instead.

Counting happens after a span has ended; its time is recorded as hidden time
of every enclosing span, and the aggregation removes it, so self times do not
include the tracer's own bookkeeping.  The wrapper call itself is not removed:
that residue is the tracing overhead the traced run reports.

A counting hook reads the program's objects, whose shape a later change may
alter.  A hook that raises never reaches the traced call: its error is kept
in `hook_errors` and the counter it feeds stops short, but the program's
result is returned as if untraced.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter


def _count_coeffs(tracer, coeffs) -> None:
    counters = tracer.counters
    counters["series.coeffs.out"] += len(coeffs)
    boxed = bits = 0
    for c in coeffs:
        if type(c) is Fraction:
            if c.denominator == 1:
                boxed += 1
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
        else:
            b = c.bit_length()
        if b > bits:
            bits = b
    counters["series.coeffs.boxed_int"] += boxed
    if bits > counters["series.coeff_bits.max"]:
        counters["series.coeff_bits.max"] = bits


def _series_out(tracer, args, result) -> None:
    if result is not NotImplemented:
        _count_coeffs(tracer, result.coeffs)


def _bitrunc_out(tracer, args, result) -> None:
    if result is not NotImplemented:
        _count_coeffs(tracer, list(result.coeffs.values()))


def _table_cells(tracer, args, result) -> None:
    rows = getattr(args[0], "rows", ())
    tracer.counters["counting.count_table.cells"] += sum(len(row) for row in rows)


def _enumerated(tracer, args, result) -> None:
    tracer.counters["lattice_paths.enumerate.paths"] += len(result)


def _identity_span(args) -> str:
    return "identities." + args[0]


def targets(sc):
    """(owner, attribute, span name, counting hook) for every traced call."""
    series, height_gf, counting = sc.series, sc.height_gf, sc.counting
    return [
        (series.TruncSeries, "__mul__", "series.mul", _series_out),
        (series.TruncSeries, "invert", "series.invert", _series_out),
        (series.TruncSeries, "sqrt", "series.sqrt", None),
        (series.BiTrunc, "__mul__", "series.bitrunc.mul", _bitrunc_out),
        (series.BiTrunc, "invert", "series.bitrunc.invert", _bitrunc_out),
        (height_gf.PolyQuotient, "expand", "height_gf.expand", None),
        (height_gf.PolyQuotient, "__add__", "height_gf.quotient_arith", None),
        (height_gf.PolyQuotient, "__sub__", "height_gf.quotient_arith", None),
        (height_gf.PolyQuotient, "__mul__", "height_gf.quotient_arith", None),
        (counting.CountTable, "__init__", "counting.count_table", _table_cells),
        (counting, "super_catalan", "counting.super_catalan", None),
        (counting, "count_pairs_height_diff", "counting.pair_count", None),
        (counting, "count_E_set", "counting.pair_count", None),
        (counting, "count_F_set", "counting.pair_count", None),
        (sc.lattice_paths, "enumerate_ballot", "lattice_paths.enumerate", _enumerated),
        (sc.lattice_paths, "enumerate_dyck", "lattice_paths.enumerate_dyck", None),
        (sc.bijection, "forward", "bijection.forward", None),
        (sc.bijection, "inverse", "bijection.inverse", None),
        (sc.bijection, "trace", "bijection.trace", None),
        (sc.bijection, "enumerate_restricted_pairs", "bijection.restricted_pairs", None),
        (sc.svg, "render_trace", "svg.render", None),
        (sc.cli, "main", "cli.main", None),
        (sc.identities, "run_identity", _identity_span, None),
    ]


class Tracer:
    """Spans of one traced round, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, op, start, end, hidden]
        self.counters: Counter = Counter()
        self.hook_errors: Counter = Counter()  # "span name: error" -> calls
        self.op = -1
        self._stack: list[int] = []
        self._hidden = 0.0
        self._patched: list[tuple] = []

    def _wrap(self, orig, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name,
                    stack[-1] if stack else -1, self.op, 0.0, 0.0, self._hidden]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
                span[5] = self._hidden - span[5]
            if hook is not None:
                start = perf_counter()
                try:
                    hook(self, args, result)
                except Exception as exc:
                    self.hook_errors[f"{span[0]}: {exc!r}"[:200]] += 1
                self._hidden += perf_counter() - start
            return result

        return traced

    def install(self, sc) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "supercat" or key.startswith("supercat.")]
        for owner, attr, name, hook in targets(sc):
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, hook)
            holders = modules if isinstance(owner, type(sys)) else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patched.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    def aggregate(self) -> dict:
        """Per span name: calls, total time and self time, net of hidden time."""
        spans = self.spans
        net = [end - start - hidden for _, _, _, start, end, hidden in spans]
        covered = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[1] >= 0:
                covered[span[1]] += net[i]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for i, span in enumerate(spans):
            calls[span[0]] += 1
            total[span[0]] += net[i]
            self_s[span[0]] += net[i] - covered[i]
        return {"calls": calls, "total": total, "self": self_s}

    def write(self, path: str, origin: float) -> None:
        """Every span as [name index, parent, operation, start us, end us]."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], parent, op, round((start - origin) * 1e6),
                 round((end - origin) * 1e6)]
                for name, parent, op, start, end, _ in self.spans]
        with open(path, "w") as handle:
            json.dump({"names": names, "counters": dict(self.counters),
                       "spans": rows}, handle, separators=(",", ":"))
