"""Spans around calls into tensplit's public functions, from outside.

The tracer patches each traced function in every loaded ``tensplit``
module that holds it, because callers look a name up in their own module
(``features.ll1_nn``, ``decomp.nnls_multi``, ``classify.estimate_mixing``).
``DenseTensor.to_array`` is patched on the class.  Patches exist only
between ``install`` and ``uninstall``, so untraced runs call the program
unchanged.

Spans (name, start, end, parent) are kept in memory and written out with
``write``.  A span's self time is its duration minus that of its direct
children; spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs traced; _observe adds counters beyond calls and time.
TRACED = (
    ("kernels", "nnls"),
    ("kernels", "nnls_multi"),
    ("kernels", "pinv"),
    ("kernels", "svd"),
    ("decomp", "ll1_nn"),
    ("decomp", "cpd_als"),
    ("decomp", "hosvd"),
    ("core", "khatri_rao"),
    ("core", "DenseTensor.to_array"),
    ("features", "fit_feature_bank"),
    ("features", "split_features"),
    ("features", "estimate_mixing"),
    ("features", "split_single"),
    ("classify", "knn_classify"),
    ("classify", "nearest_centroid"),
    ("classify", "run_experiment"),
    ("dataset", "read_pgm"),
    ("dataset", "load_pgm_ensemble"),
    ("dataset", "make_group_splits"),
    ("dataset", "group_tensor"),
    ("dataset", "synthetic_face_fixture"),
    ("dtf", "read_tensor"),
    ("dtf", "write_tensor"),
    ("cli", "main"),
    ("cli", "cmd_decompose"),
    ("cli", "cmd_split"),
)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _observe(layer: str, args, result, counts: dict) -> None:
    """Per-call counters recorded at the layer boundary."""
    if layer == "kernels.nnls_multi":
        counts["kernels.nnls_multi.rhs"] += args[1].shape[1]
    elif layer in ("decomp.ll1_nn", "decomp.cpd_als"):
        diag = result.diagnostics
        counts[f"{layer}.sweeps"] += diag.sweeps
        counts[f"{layer}.converged"] += int(diag.converged)
        counts[f"{layer}.flags"] += len(diag.flags)
    elif layer == "core.to_array":
        counts["core.to_array.bytes"] += result.nbytes
    elif layer == "classify.knn_classify":
        counts["classify.knn_classify.distance_evals"] += len(args[0]) * len(args[1])
    elif layer in ("dataset.read_pgm", "dtf.read_tensor"):
        counts[f"{layer}.bytes"] += _file_bytes(args[0])
    elif layer == "dtf.write_tensor":
        counts["dtf.write_tensor.bytes"] += _file_bytes(args[1])


def _span_name(layer: str, args, kwargs) -> str:
    if layer == "classify.run_experiment":
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        clf = cfg.classifier if cfg is not None else "knn"
        return f"{layer}.{args[2]}.{clf}"
    return layer


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.absent: list = []
        self.enabled = False  # spans are recorded only while set
        self._stack: list = []  # [span index, child time]
        self._patches: list = []

    def _wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = _span_name(layer, args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "ConvergenceError":
                    tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
                tracer.self_s[name] += (end - start) - frame[1]
                tracer.counts[f"{name}.calls"] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
            _observe(layer, args, result, tracer.counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self) -> None:
        """Patch every traced function that exists; note the ones that do not."""
        self.absent = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tensplit" or n.startswith("tensplit.")) and m is not None]
        for mod_name, func in TRACED:
            layer = f"{mod_name}.{func.split('.')[-1]}"
            home = sys.modules.get(f"tensplit.{mod_name}")
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(home, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is None:
                    self.absent.append(layer)
                    continue
                setattr(cls, meth, self._wrap(layer, orig))
                self._patches.append((cls, meth, orig))
                continue
            orig = getattr(home, func, None)
            if orig is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def top_level_s(self) -> float:
        """Summed duration of root spans."""
        return sum(s[2] - s[1] for s in self.spans if s[3] == -1)

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
