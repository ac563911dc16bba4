"""Span tracer that wraps qsnom's public names from outside the package.

Each wrapped name is replaced in the module namespace where its caller
looks it up (``qsnom.inversion.forward`` for calls made by
``invert_permittivity``, ``qsnom.perturbation.eigh`` for calls made by
``validate_against_exact``, and so on). ``Tracer`` is a context manager:
entering installs the wrappers, leaving restores the original objects.
Nothing under ``src/`` is edited.

A span is (name, start, end, parent, op id). Spans live in compact
arrays in memory and are written out by :meth:`Tracer.dump`. Self time
is a span's duration minus the summed durations of its direct children
and is accumulated while the run goes, together with call counts and
per-layer error counts.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name). The span name's prefix up to the first
# dot is the layer. One attribute may be looked up by several callers in
# several modules, so the same span name appears once per namespace.
PATCHES = (
    ("qsnom.cli", "main", "cli.main"),
    ("qsnom.cli", "forward", "inversion.forward"),
    ("qsnom.cli", "invert_permittivity", "inversion.invert"),
    ("qsnom.cli", "run_sweep", "inversion.run_sweep"),
    ("qsnom.inversion", "invert_permittivity", "inversion.invert"),
    ("qsnom.inversion", "forward", "inversion.forward"),
    ("qsnom.inversion", "run_sweep", "inversion.run_sweep"),
    ("qsnom.inversion", "build_hamiltonian_pair", "hamiltonian.build_pair"),
    ("qsnom.inversion", "rs_pt2", "perturbation.rs_pt2"),
    ("qsnom.inversion", "DielectricSample", "dipole.DielectricSample"),
    ("qsnom.inversion", "TipDipole", "dipole.TipDipole"),
    ("qsnom.inversion", "derive_image", "dipole.derive_image"),
    ("qsnom.inversion", "near_field_check", "dipole.near_field_check"),
    ("qsnom.hamiltonian", "derive_image", "dipole.derive_image"),
    ("qsnom.crosscheck", "consistency_report", "crosscheck.report"),
    ("qsnom.crosscheck", "DielectricSample", "dipole.DielectricSample"),
    ("qsnom.crosscheck", "TipDipole", "dipole.TipDipole"),
    ("qsnom.crosscheck", "build_hamiltonian_pair", "hamiltonian.build_pair"),
    ("qsnom.crosscheck", "rs_pt2", "perturbation.rs_pt2"),
    ("qsnom.crosscheck", "validate_against_exact", "perturbation.validate"),
    ("qsnom.perturbation", "rs_pt2", "perturbation.rs_pt2"),
    ("qsnom.perturbation", "eigh", "tensor.eigh"),
    ("qsnom.closedform", "photon_report", "closedform.photon_report"),
    ("qsnom.closedform", "beta_coefficients", "closedform.beta_coefficients"),
    ("qsnom.closedform", "energy_shift", "closedform.energy_shift"),
    ("qsnom.closedform", "scattered_frequency", "closedform.scattered_frequency"),
)

COMPLEX_BYTES = 16


class Tracer:
    """Install span wrappers on enter, restore the originals on exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.times = array("d")  # start, end per span
        self.links = array("q")  # name id, parent span, op id per span
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1
        self.ops = 0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.errors: Counter[str] = Counter()
        self.builds = 0
        self.useful_builds = 0
        self.matrix_bytes = 0
        self.forward_per_invert: list[int] = []
        self.heights = 0
        self.rs_pt2_in_reports = 0
        self._raised: dict[tuple[str, int], BaseException] = {}
        self._built: dict[int, object] = {}
        self._used: set[int] = set()

    # -- installation -------------------------------------------------
    def __enter__(self) -> "Tracer":
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- operation boundaries -----------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.ops += 1
        self.useful_builds += len(self._used)
        self._built.clear()
        self._used.clear()
        self._raised.clear()

    # -- spans --------------------------------------------------------
    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        layer = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.times) // 2
            before = tracer._enter(name, args)
            start = time.perf_counter()
            tracer.times.extend((start, 0.0))
            tracer.links.extend((name_id, parent, tracer.op))
            frame = [index, start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame)
                key = (layer, id(exc))
                if key not in tracer._raised:
                    tracer._raised[key] = exc
                    tracer.errors[f"{layer}.errors.{type(exc).__name__}"] += 1
                raise
            tracer._close(name, frame)
            tracer._returned(name, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        index, start, child = frame
        self.times[2 * index + 1] = end
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _enter(self, name: str, args: tuple) -> int:
        if name == "inversion.invert":
            return self.calls["inversion.forward"]
        if name == "crosscheck.report":
            return self.calls["perturbation.rs_pt2"]
        if name in ("perturbation.rs_pt2", "perturbation.validate") and args:
            if id(args[0]) in self._built:
                self._used.add(id(args[0]))
        return 0

    def _returned(self, name: str, args: tuple, result: object, before: int) -> None:
        if name == "hamiltonian.build_pair":
            self.builds += 1
            self._built[id(result.h0)] = result.h0
            self.matrix_bytes += 2 * result.h0.side ** 2 * COMPLEX_BYTES
        elif name == "inversion.invert":
            self.forward_per_invert.append(self.calls["inversion.forward"] - before)
        elif name == "crosscheck.report":
            self.heights += len(result.rows)
            self.rs_pt2_in_reports += self.calls["perturbation.rs_pt2"] - before

    # -- results ------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-operation layer figures; see the README for each name."""
        ops = max(self.ops, 1)

        def per_op(names: tuple[str, ...]) -> tuple[float, float]:
            calls = sum(self.calls[n] for n in names)
            self_ms = sum(self.self_s[n] for n in names) * 1e3
            return calls / ops, self_ms / ops

        out: dict[str, float] = {}
        for metric, names in (
            ("inversion.invert", ("inversion.invert",)),
            ("inversion.forward", ("inversion.forward",)),
            ("inversion.run_sweep", ("inversion.run_sweep",)),
            ("hamiltonian.build_pair", ("hamiltonian.build_pair",)),
            ("closedform.photon_report", ("closedform.photon_report",)),
            ("dipole", tuple(n for n in self.names if n.startswith("dipole."))),
            ("perturbation.rs_pt2", ("perturbation.rs_pt2",)),
            ("perturbation.validate", ("perturbation.validate",)),
            ("tensor.eigh", ("tensor.eigh",)),
            ("crosscheck.report", ("crosscheck.report",)),
            ("cli.main", ("cli.main",)),
        ):
            out[f"{metric}.calls"], out[f"{metric}.self_ms"] = per_op(names)
        out["inversion.forward_per_invert"] = (
            float(statistics.median(self.forward_per_invert))
            if self.forward_per_invert
            else 0.0
        )
        out["perturbation.rs_pt2_per_height"] = (
            self.rs_pt2_in_reports / self.heights if self.heights else 0.0
        )
        out["hamiltonian.useful_build_ratio"] = (
            self.useful_builds / self.builds if self.builds else 0.0
        )
        out["hamiltonian.matrix_bytes"] = self.matrix_bytes / ops
        out["trace.spans"] = (len(self.times) // 2) / ops
        for key, count in self.errors.items():
            out[key] = count / ops
        return out

    def dump(self, path) -> None:
        """Write every span as parallel arrays into an ``.npz`` file."""
        import numpy as np

        times = np.frombuffer(self.times, dtype=np.float64).reshape(-1, 2)
        links = np.frombuffer(self.links, dtype=np.int64).reshape(-1, 3)
        np.savez(
            path,
            names=np.array(self.names),
            name=links[:, 0],
            start=times[:, 0],
            end=times[:, 1],
            parent=links[:, 1],
            op=links[:, 2],
        )
