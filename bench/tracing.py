"""Span recording around the engine's layer boundaries.

Nothing inside ``flexmarket`` is instrumented. While a :class:`Tracer`
is installed, the public functions of ``grid``, ``market`` and
``fileio`` are replaced, where ``market`` and ``fileio`` look them up,
by wrappers that append one span per call to an in-memory list. The
originals are restored on exit, so an untraced replay runs the engine
unchanged.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from flexmarket import fileio, grid, market

GRID_SPANS = ("grid.build_ptdf", "grid.quantity_caps", "grid.check_baseline", "grid.ptdf_column")
FILEIO_SPANS = (
    "fileio.load_network", "fileio.load_bids", "fileio.trade_log_lines", "fileio.book_json"
)


class Tracer:
    """Spans and the counts taken at the same boundaries.

    A span is ``(name, start, end, parent)``, where ``parent`` is the
    index of the enclosing span or -1. The top-level span of a call
    chain identifies it, so a ``market.submit_bid`` span and every span
    below it share that identifier.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._book = None
        self._check_pending = False
        self.flow_rows = 0
        self.delta_rows_read = 0
        self.resting_max = 0

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args)
            return result

        return traced

    # Counting hooks. A network check computes the candidate's two PTDF
    # columns and then caps it against one or more flow stacks, so the
    # first ``quantity_caps`` call after a column lookup starts a check;
    # that check stacks one delta row per accepted conditional match.

    def _on_submit(self, args) -> None:
        self._book = args[0]

    def _after_submit(self, args) -> None:
        book = args[0]
        self.resting_max = max(self.resting_max, len(book.offers) + len(book.requests))

    def _on_column(self, args) -> None:
        self._check_pending = True

    def _on_caps(self, args) -> None:
        flows = args[1]
        self.flow_rows += flows.shape[0] if getattr(flows, "ndim", 1) == 2 else 1
        if self._check_pending and self._book is not None:
            self.delta_rows_read += len(self._book.accepted)
        self._check_pending = False

    def targets(self) -> list:
        """(owner, attribute, wrapper) for every traced entry point."""
        return [
            (market, "build_ptdf", self._wrap("grid.build_ptdf", grid.build_ptdf)),
            (fileio, "build_ptdf", self._wrap("grid.build_ptdf", grid.build_ptdf)),
            (market, "quantity_caps",
             self._wrap("grid.quantity_caps", grid.quantity_caps, before=self._on_caps)),
            (market, "check_baseline", self._wrap("grid.check_baseline", grid.check_baseline)),
            (fileio, "check_baseline", self._wrap("grid.check_baseline", grid.check_baseline)),
            (grid.PtdfMatrix, "column",
             self._wrap("grid.ptdf_column", grid.PtdfMatrix.column, before=self._on_column)),
            (market.OrderBook, "submit_bid",
             self._wrap("market.submit_bid", market.OrderBook.submit_bid,
                        before=self._on_submit, after=self._after_submit)),
            (market.OrderBook, "reevaluate_book",
             self._wrap("market.reevaluate_book", market.OrderBook.reevaluate_book)),
            (fileio, "load_network", self._wrap("fileio.load_network", fileio.load_network)),
            (fileio, "load_bids", self._wrap("fileio.load_bids", fileio.load_bids)),
            (fileio, "new_book", self._wrap("fileio.new_book", fileio.new_book)),
            (fileio, "trade_log_lines",
             self._wrap("fileio.trade_log_lines", fileio.trade_log_lines)),
            (fileio, "book_json", self._wrap("fileio.book_json", fileio.book_json)),
        ]

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        targets = self.targets()
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Calls, total seconds and self seconds per span name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict = {}
        for (name, start, end, _), children in zip(self.spans, child_s):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
        return out
