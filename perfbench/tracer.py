"""Spans around tabgrid's public functions, recorded from outside the package.

``Tracer.install`` replaces each function named in ``TRACED`` at every
``tabgrid`` module binding that holds it (``assign_words_to_cells`` is
called through ``booktabs`` and ``separator``, ``levenshtein_codes``
through ``interpret``), so calls between modules and inside one module
are both seen.  ``Tracer.uninstall`` puts the originals back.

Each span records wall time (``perf_counter``) and CPU time
(``thread_time``).  The span stack is kept per thread, so worker threads
are traced as they run.  A span's self time is its duration minus its
children's; busy time is CPU time and ``wait`` is wall minus CPU, the
time the thread waited for the interpreter lock, for I/O or for a core.  In
page-scoped commands (recognize, interpret) a thread's spans carry the
name of the page file it last read as their id.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import sys
import threading
import time

TRACED = {
    "corpusio": ("read_json", "dump_json"),
    "model": (
        "page_layout_from_dict",
        "recognized_table_from_dict",
        "recognized_table_to_dict",
        "assign_words_to_cells",
    ),
    "pipeline": ("recognize_page",),
    "separator": ("recognize_separator_tables", "merge_separators", "refine_grid"),
    "booktabs": (
        "recognize_booktabs_tables",
        "find_rule_triples",
        "compute_column_threshold",
        "segment_columns",
        "build_booktabs_grid",
    ),
    "interpret": ("match_meanings", "affinity", "interpret_table"),
    "matching": ("max_weight_matching",),
    "kernels": ("levenshtein_codes", "hungarian_min", "interval_profile", "iou_matrix"),
    "evaluate": (
        "recognition_score",
        "adjacency_relations",
        "match_tables",
        "cell_f1_at_iou",
        "interpretation_score",
    ),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _size(path) -> int:
    return os.path.getsize(path)


def _seps(args, result) -> dict:
    s = len(args[0])
    return {"separator.merge_separators.pairs": s * (s - 1) // 2, "separator.clusters": len(result)}


# Work counts taken from a traced call's positional arguments and result.
COUNTERS = {
    "corpusio.read_json": lambda a, r: {"corpusio.bytes_read": _size(a[0])},
    "corpusio.dump_json": lambda a, r: {"corpusio.bytes_written": _size(a[0])},
    "model.assign_words_to_cells": lambda a, r: {
        "model.assign_words_to_cells.pairs": len(a[0]) * len(a[1])
    },
    "pipeline.recognize_page": lambda a, r: {"pipeline.accepted": len(r.tables)},
    "separator.merge_separators": _seps,
    "separator.recognize_separator_tables": lambda a, r: {"separator.tables": len(r[0])},
    "booktabs.find_rule_triples": lambda a, r: {"booktabs.triples": len(r)},
    "booktabs.recognize_booktabs_tables": lambda a, r: {"booktabs.tables": len(r[0])},
    "booktabs.compute_column_threshold": lambda a, r: {
        "booktabs.compute_column_threshold.words_scanned": len(a[0].words)
    },
    "kernels.levenshtein_codes": lambda a, r: {
        "kernels.levenshtein_codes.cells": len(a[0]) * len(a[1]),
        "kernels.levenshtein_codes.max_len": max(len(a[0]), len(a[1])),
    },
    "kernels.hungarian_min": lambda a, r: {"kernels.hungarian_min.cells": a[0].size},
    "kernels.interval_profile": lambda a, r: {"kernels.interval_profile.bins": int(a[3])},
    "kernels.iou_matrix": lambda a, r: {
        "kernels.iou_matrix.pairs": (a[0].size // 4) * (a[1].size // 4)
    },
}
# Counters kept as a maximum; every other counter is a sum.
MAX_COUNTERS = {"kernels.levenshtein_codes.max_len"}

_PAGE_FILE = re.compile(r"_page\d+\.json$")


class _ThreadState:
    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[list] = []  # [span index, child wall, child cpu]
        self.spans: list = []  # (name, page, t0, t1, cpu, parent span index)
        self.agg: dict[str, list] = {}  # name -> [calls, self wall, self cpu]
        self.via: dict[tuple[str, str], int] = {}  # (name, binding module) -> calls
        self.counts: dict[str, float] = {}
        self.counter_errors = 0
        self.page: tuple[str, str] | None = None  # (command, page file name)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []
        self.command = ""
        self.page_scoped = False

    def start_command(self, command: str, page_scoped: bool) -> None:
        """Name the command whose spans follow; page-scoped ones get page ids."""
        self.command = command
        self.page_scoped = page_scoped

    # -- installation --------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced function at every tabgrid binding; returns the
        names of traced functions the package does not have."""
        importlib.import_module("tabgrid.cli")  # loads every module the CLI calls into
        modules = [
            m for n, m in list(sys.modules.items()) if n == "tabgrid" or n.startswith("tabgrid.")
        ]
        missing = []
        for name in TRACED_NAMES:
            mod, fn = name.split(".")
            original = getattr(sys.modules.get(f"tabgrid.{mod}"), fn, None)
            if original is None:
                missing.append(name)
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, self._wrap(name, m.__name__, original))
                        self._patched.append((m, attr, original))
        return missing

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
        return st

    def _wrap(self, name: str, binding: str, fn):
        counter = COUNTERS.get(name)
        sets_page = name in ("corpusio.read_json", "corpusio.dump_json")
        via_key = (name, binding)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            if sets_page and self.page_scoped and args:
                file_name = os.path.basename(str(args[0]))
                if _PAGE_FILE.search(file_name):
                    st.page = (self.command, file_name)
            scoped = self.page_scoped and st.page and st.page[0] == self.command
            page = st.page[1] if scoped else None
            stack = st.stack
            idx = len(st.spans)
            st.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0, 0.0]
            stack.append(frame)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                wall, cpu = t1 - t0, c1 - c0
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                st.spans[idx] = (name, page, t0, t1, cpu, parent)
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += wall - frame[1]
                agg[2] += cpu - frame[2]
                st.via[via_key] = st.via.get(via_key, 0) + 1
            if counter is not None:
                try:
                    counts = counter(args, result)
                except (IndexError, TypeError, AttributeError, OSError):
                    st.counter_errors += 1
                else:
                    for k, v in counts.items():
                        if k in MAX_COUNTERS:
                            st.counts[k] = max(st.counts.get(k, 0), v)
                        else:
                            st.counts[k] = st.counts.get(k, 0) + v
            return result

        return traced

    # -- results -------------------------------------------------------

    def functions(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self wall s, self cpu s), summed over threads."""
        out = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}
        for st in self._threads:
            for name, (calls, wall, cpu) in st.agg.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += wall
                acc[2] += cpu
        return {k: tuple(v) for k, v in out.items()}

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._threads:
            for k, v in st.counts.items():
                out[k] = max(out.get(k, 0), v) if k in MAX_COUNTERS else out.get(k, 0) + v
        return out

    def calls_via(self, name: str, binding: str) -> int:
        return sum(st.via.get((name, binding), 0) for st in self._threads)

    def counter_errors(self) -> int:
        return sum(st.counter_errors for st in self._threads)

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for st in self._threads for s in st.spans if s and s[0] == name]

    def threads(self) -> int:
        return sum(1 for st in self._threads if st.spans)

    def root_intervals(self) -> list[tuple[float, float]]:
        return [(s[2], s[3]) for st in self._threads for s in st.spans if s and s[5] == -1]

    def self_time_gap(self) -> float:
        """Largest |sum of self times - traced wall time| over threads, in s.

        Self times telescope, so on each thread they add up to the summed
        duration of its outermost spans; a gap means lost bookkeeping.
        """
        gap = 0.0
        for st in self._threads:
            self_sum = sum(a[1] for a in st.agg.values())
            roots = sum(s[3] - s[2] for s in st.spans if s and s[5] == -1)
            gap = max(gap, abs(self_sum - roots))
        return gap

    def spans(self) -> list[dict]:
        return [
            {"thread": st.index, "name": s[0], "id": s[1], "start": s[2], "end": s[3],
             "cpu": s[4], "parent": s[5]}
            for st in self._threads
            for s in st.spans
            if s
        ]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
