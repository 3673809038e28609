"""Span tracer that wraps the public functions of each dgres layer.

The tracer lives entirely in the benchmark: it changes nothing under
``src/``.  ``Tracer.install()`` replaces every public module-level function
of the traced modules (plus ``SliceMatrix.rank`` and
``SliceMatrix.nullspace``) with a wrapper that records a span (function,
start, end, parent span).  The wrapper is bound under every name that refers
to the original in any ``dgres`` module, including values of module-level
dicts such as ``cli.COMMANDS``, so calls made through ``from .x import f``
are traced too.  Spans stay in memory; ``Tracer.metrics()`` folds them into
the per-layer metrics when the run ends.

A layer is the module a function is defined in.  A span's self time is its
duration minus the time covered by its child spans, so the self times of all
spans under ``cli.main`` add up to the traced wall time of ``main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("probfile", "tensor", "bar", "semifree", "homology", "modules", "linalg", "report", "cli")

# Called 10^5 times or more in one workload (word_degree 3.8e5 on the
# polynomial bar, normalize_word 1.2e5 on the Koszul tower): wrapping them
# would swamp the trace with its own overhead.  Their cost lands in the
# caller's self time, as does that of DGAlgebra methods such as basis and
# mono_mul, which are not wrapped at all.
HOT = frozenset({"tensor.word_degree", "tensor.normalize_word"})

METHODS = (("linalg", "SliceMatrix", "rank"), ("linalg", "SliceMatrix", "nullspace"))

# The ROADMAP phases.  A span takes the phase of its function, or else that of
# its caller's span, so helpers such as tensor_differential under dBB count as
# arithmetic and prefixed_coords under bb_dd_matrix as assembly.  Each phase
# sums the self time of its spans; spans with no tagged ancestor (the check
# loops in cli, bar and homology) belong to none.
PHASES = {
    "basis": ("tensor.tensor_basis", "tensor.prefixed_basis_labels",
              "semifree.bb_total_basis", "modules.modtensor_basis"),
    "assembly": ("bar.bar_slice_matrix", "bar.reduced_slice_matrix", "bar.augmentation_slice_matrix",
                 "bar.matrix_of_map", "bar.word_index", "homology.bb_dd_matrix",
                 "homology.bb_alpha_matrix", "homology.dB_matrix", "modules.naive_lift_solve"),
    "elimination": ("linalg.SliceMatrix.rank", "linalg.SliceMatrix.nullspace", "linalg.solve_linear"),
    "arithmetic": ("tensor.merge_at", "tensor.prefixed_basis_element", "semifree.DD", "semifree.frakD",
                   "semifree.dBB", "semifree.alpha", "modules.beta_N", "modules.module_differential"),
}

PHASE_OF = {name: phase for phase, names in PHASES.items() for name in names}

SLICE_FUNCS = ("bar.bar_slice_matrix", "bar.reduced_slice_matrix", "bar.augmentation_slice_matrix")
HOMOLOGY_ASSEMBLY = ("homology.dB_matrix", "homology.bb_dd_matrix", "homology.bb_alpha_matrix")


class Tracer:
    """In-memory span recorder with a few counters taken at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []       # span function id -> "layer.qualname"
        self.self_s: list[float] = []    # function id -> summed self time
        self.total_s: list[float] = []   # function id -> summed duration
        self.calls: list[int] = []       # function id -> call count
        self.spans: list[tuple] = []     # (function id, start, end, parent span index)
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self._stack: list[list] = []     # [child time, span index, phase] per open span
        self.counts = {
            "rank.cells": 0, "rank.nnz": 0, "rank.memo": 0, "rank.sum": 0,
            "nullspace.cells": 0, "solve.cells": 0,
            "basis.words": 0, "basis.repeat": 0,
            "slice.rows": 0, "slice.cols": 0, "slice.rows_hit": 0,
            "lift.rows": 0, "lift.cols": 0,
        }
        self._basis_keys: set = set()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, pre=None, post=None):
        fid = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.calls.append(0)
        stack = self._stack
        spans = self.spans
        self_s, total_s, calls, phase_s = self.self_s, self.total_s, self.calls, self.phase_s
        tag = PHASE_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            note = pre(args) if pre is not None else None
            caller = stack[-1] if stack else None
            frame = [0.0, len(spans), tag or (caller[2] if caller else None)]
            parent = caller[1] if caller else -1
            spans.append(None)
            stack.append(frame)
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                dur = t2 - t1
                spans[frame[1]] = (fid, t1, t2, parent)
                own = dur - frame[0]
                self_s[fid] += own
                total_s[fid] += dur
                calls[fid] += 1
                if frame[2] is not None:
                    phase_s[frame[2]] += own
            if post is not None:
                post(args, result, note)
            if stack:
                # bookkeeping time is charged to no layer
                stack[-1][0] += perf_counter() - t0
            return result

        return wrapper

    # -- counters at layer boundaries ----------------------------------------

    def _rank_pre(self, args):
        return args[0]._rank is not None

    def _rank_post(self, args, result, memo):
        c = self.counts
        c["rank.sum"] += result
        if memo:
            c["rank.memo"] += 1
        else:
            M = args[0]
            c["rank.cells"] += M.nrows * M.ncols
            c["rank.nnz"] += len(M.entries)

    def _nullspace_post(self, args, result, _):
        M = args[0]
        self.counts["nullspace.cells"] += M.nrows * M.ncols

    def _solve_post(self, args, result, _):
        A = args[0]
        self.counts["solve.cells"] += A.nrows * (A.ncols + 1 + A.nrows)

    def _basis_post(self, args, result, _):
        key = (id(args[0]),) + tuple(args[1:])
        if key in self._basis_keys:
            self.counts["basis.repeat"] += 1
        else:
            self._basis_keys.add(key)
            self.counts["basis.words"] += len(result)

    def _slice_post(self, args, result, _):
        c = self.counts
        c["slice.rows"] += result.nrows
        c["slice.cols"] += result.ncols
        c["slice.rows_hit"] += len({i for i, _j in result.entries})

    def _lift_post(self, args, result, _):
        self.counts["lift.rows"] += result.system_rows
        self.counts["lift.cols"] += result.system_cols

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions and rebind every reference to them."""
        hooks = {
            "linalg.SliceMatrix.rank": (self._rank_pre, self._rank_post),
            "linalg.SliceMatrix.nullspace": (None, self._nullspace_post),
            "linalg.solve_linear": (None, self._solve_post),
            "tensor.tensor_basis": (None, self._basis_post),
            "modules.naive_lift_solve": (None, self._lift_post),
        }
        for name in SLICE_FUNCS:
            hooks[name] = (None, self._slice_post)
        mods = {layer: importlib.import_module(f"dgres.{layer}") for layer in LAYERS}
        replace = {}  # id(original function) -> wrapper; the wrapper keeps the original alive
        for layer, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in HOT):
                    continue
                replace[id(obj)] = self._wrap(obj, name, *hooks.get(name, (None, None)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap(cls.__dict__[meth], name, *hooks.get(name, (None, None))))
        package = [m for n, m in sorted(sys.modules.items()) if n == "dgres" or n.startswith("dgres.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replace:
                            obj[k] = replace[id(v)]

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics folded from the recorded spans and counters."""
        by_name = {n: i for i, n in enumerate(self.names)}
        out = {}
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(self.self_s[i] for i in ids)
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
        for phase, secs in self.phase_s.items():
            out[f"phase.{phase}_s"] = secs

        def total(name):
            return self.total_s[by_name[name]]

        def calls(name):
            return self.calls[by_name[name]]

        c = self.counts
        rank_calls = calls("linalg.SliceMatrix.rank")
        basis_calls = calls("tensor.tensor_basis")
        out.update({
            "linalg.rank.s": total("linalg.SliceMatrix.rank"),
            "linalg.rank.calls": rank_calls,
            "linalg.rank.cells": c["rank.cells"],
            "linalg.rank.nnz": c["rank.nnz"],
            "linalg.rank.fill_ratio": c["rank.nnz"] / c["rank.cells"] if c["rank.cells"] else 0.0,
            "linalg.rank.memo_ratio": c["rank.memo"] / rank_calls if rank_calls else 0.0,
            "linalg.rank.sum": c["rank.sum"],
            "linalg.nullspace.s": total("linalg.SliceMatrix.nullspace"),
            "linalg.nullspace.cells": c["nullspace.cells"],
            "linalg.solve.s": total("linalg.solve_linear"),
            "linalg.solve.cells": c["solve.cells"],
            "tensor.basis.s": total("tensor.tensor_basis"),
            "tensor.basis.words": c["basis.words"],
            "tensor.basis.repeat_ratio": c["basis.repeat"] / basis_calls if basis_calls else 0.0,
            "bar.slice.rows": c["slice.rows"],
            "bar.slice.cols": c["slice.cols"],
            "bar.slice.rows_hit_ratio": c["slice.rows_hit"] / c["slice.rows"] if c["slice.rows"] else 0.0,
            "semifree.DD.calls": calls("semifree.DD"),
            "homology.assembly_s": sum(total(n) for n in HOMOLOGY_ASSEMBLY),
            "modules.lift.rows": c["lift.rows"],
            "modules.lift.cols": c["lift.cols"],
            "trace.spans": len(self.spans),
        })
        return out
