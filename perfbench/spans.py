"""Span tracing of the ``spheremap`` layers from outside the program.

``Tracer.install`` wraps ``Grid`` transform methods on the class and every
other traced function at each module that binds it: ``from .x import y``
copies the function into the caller's namespace, so wrapping only the
defining module would miss most calls.  Spans (name, start, end, parent and
the transforms issued inside) are kept in flat arrays and written out once
at the end.  A traced name the package no longer defines is listed in
``absent`` and contributes zeros.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import math
import os
import sys
import time
from array import array

import numpy as np

# rfft / irfft are counted too once Grid has them, so that a switch to real
# transforms keeps the transform counts comparable; until then they are absent.
TRANSFORM_METHODS = ("fft", "ifft", "rfft", "irfft")

# layer (module of spheremap) -> functions traced in it
TRACED = {
    "evolution": ("run", "rk4_update", "evolve_msm"),
    "gauge": (
        "msm_nonlinearity", "a_from_psi", "a0_from_psi", "derive_psi",
        "residual_compatibility", "residual_curvature", "residual_psi0",
    ),
    "geometry": ("coulomb_fix", "renormalize"),
    "diagnostics": ("diagnostics_row", "xk_norm", "directional_norm"),
    "cli_io": (
        "parse_config", "save_snapshot", "load_snapshot", "emit_diagnostics_csv",
        "emit_series_csv", "gauge_identity_suite",
    ),
    "initial_data": ("generate_initial",),
}

COMMAND_SPAN = "cli_io.cli_main"


def _file_size(args, kwargs, index: int) -> int:
    """Size of the file named by a call's ``path`` argument; 0 if unknown."""
    try:
        return os.path.getsize(kwargs["path"] if "path" in kwargs else args[index])
    except (OSError, TypeError, IndexError):
        return 0


class Tracer:
    """In-memory span recorder with the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_transforms = array("q")
        self._stack: list = []
        self.transforms = 0
        self.real_transforms = 0
        self.points = 0
        self.bytes = 0
        self.flops = 0.0
        self.file_bytes: dict = {}
        self.slice_calls = 0
        self.distinct_slices = 0
        self._command_slices: set = set()
        self.absent: list = []
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_transforms.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, transforms_before: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self.span_start[sid] = start
        self.span_transforms[sid] = self.transforms - transforms_before
        self._stack.pop()

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            before = self.transforms
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, start, before)
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def transform(self, name: str, method):
        """A ``Grid`` transform method wrapped to count and size each call."""
        nid = self.name_id(name)

        @functools.wraps(method)
        def traced(grid, f, *args, **kwargs):
            sid = self._open(nid)
            before = self.transforms
            self.transforms += 1
            start = time.perf_counter()
            try:
                out = method(grid, f, *args, **kwargs)
            finally:
                self._close(sid, start, before)
            f = np.asarray(f)
            self.real_transforms += not np.iscomplexobj(f)
            self.points += f.size
            self.bytes += f.nbytes + np.asarray(out).nbytes
            self.flops += 5.0 * f.size * math.log2(grid.n**grid.d)
            return out

        return traced

    def end_command(self) -> None:
        """Close one CLI command: distinct Coulomb slices are counted per command."""
        self.distinct_slices += len(self._command_slices)
        self._command_slices = set()

    def _count_slice(self, args, kwargs) -> None:
        frame = kwargs.get("frame", args[0] if args else None)
        values = getattr(getattr(frame, "s", None), "values", None)
        self.slice_calls += 1
        if values is not None:
            self._command_slices.add(hashlib.blake2b(np.ascontiguousarray(values)).digest())

    def _count_file(self, name: str, index: int):
        def after(args, kwargs):
            size = _file_size(args, kwargs, index)
            self.file_bytes[name] = self.file_bytes.get(name, 0) + size
        return after

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions everywhere ``spheremap`` binds them."""
        import spheremap.spectral as spectral

        self.absent = []
        for method in TRANSFORM_METHODS:
            orig = spectral.Grid.__dict__.get(method)
            if orig is None:
                self.absent.append(f"spectral.Grid.{method}")
                continue
            self._patches.append((spectral.Grid, method, orig))
            setattr(spectral.Grid, method, self.transform(f"spectral.{method}", orig))

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "spheremap" or n.startswith("spheremap."))]
        hooks = {
            "geometry.coulomb_fix": self._count_slice,
            "cli_io.save_snapshot": self._count_file("cli_io.save_snapshot", 3),
            "cli_io.load_snapshot": self._count_file("cli_io.load_snapshot", 0),
        }
        for layer, functions in TRACED.items():
            home = sys.modules.get(f"spheremap.{layer}")
            for fname in functions:
                name = f"{layer}.{fname}"
                orig = getattr(home, fname, None)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                wrapped = self.span(name, orig, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            self._patches.append((module, attr, orig))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- output -----------------------------------------------------------

    def write_csv(self, path: str) -> None:
        """All spans, one per line, with times in seconds, gzip-compressed."""
        selfs = self_times(self.span_start, self.span_end, self.span_parent)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,parent,start_s,end_s,self_s,transforms\n")
            for i, nid in enumerate(self.span_name):
                fh.write(
                    f"{i},{self.names[nid]},{self.span_parent[i]},{self.span_start[i]!r},"
                    f"{self.span_end[i]!r},{selfs[i]!r},{self.span_transforms[i]}\n"
                )


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_start = cur_end = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out


# name -> (unit, better); every name is reported by ``per_layer_metrics``.
PER_LAYER = {
    "spectral.transforms": ("count", "lower"),
    "spectral.transforms_per_step": ("count/step", "lower"),
    "spectral.transform_ms": ("ms", "lower"),
    "spectral.transform_share": ("ratio", "lower"),
    "spectral.real_input_share": ("ratio", "higher"),
    "spectral.points": ("count", "lower"),
    "spectral.bytes_computed": ("B", "lower"),
    "spectral.flops_computed": ("flop", "lower"),
    "evolution.rk4_update.calls": ("count", "lower"),
    "evolution.rk4_update.ms_p50": ("ms", "lower"),
    "evolution.rk4_update.ms_p99": ("ms", "lower"),
    "evolution.rk4_update.transforms_per_call": ("count/call", "lower"),
    "evolution.evolve_msm.calls": ("count", "lower"),
    "evolution.evolve_msm.ms_p50": ("ms", "lower"),
    "evolution.evolve_msm.ms_p99": ("ms", "lower"),
    "evolution.evolve_msm.transforms_per_call": ("count/call", "lower"),
    "evolution.run.self_ms": ("ms", "lower"),
    "gauge.msm_nonlinearity.calls": ("count", "lower"),
    "gauge.msm_nonlinearity.ms_per_call": ("ms", "lower"),
    "gauge.msm_nonlinearity.transforms_per_call": ("count/call", "lower"),
    "gauge.a_from_psi.ms_per_call": ("ms", "lower"),
    "gauge.a_from_psi.transforms_per_call": ("count/call", "lower"),
    "gauge.a0_from_psi.ms_per_call": ("ms", "lower"),
    "gauge.a0_from_psi.transforms_per_call": ("count/call", "lower"),
    "gauge.derive_psi.calls": ("count", "lower"),
    "gauge.derive_psi.ms_per_call": ("ms", "lower"),
    "gauge.residuals.ms_per_row": ("ms", "lower"),
    "gauge.residuals.transforms_per_row": ("count/row", "lower"),
    "geometry.coulomb_fix.calls": ("count", "lower"),
    "geometry.coulomb_fix.ms_per_call": ("ms", "lower"),
    "geometry.coulomb_fix.transforms_per_call": ("count/call", "lower"),
    "geometry.coulomb_fix.per_slice": ("ratio", "lower"),
    "geometry.renormalize.calls": ("count", "lower"),
    "geometry.renormalize.ms_per_call": ("ms", "lower"),
    "diagnostics.diagnostics_row.calls": ("count", "lower"),
    "diagnostics.diagnostics_row.ms_per_call": ("ms", "lower"),
    "diagnostics.diagnostics_row.transforms_per_call": ("count/call", "lower"),
    "diagnostics.xk_norm.ms": ("ms", "lower"),
    "diagnostics.directional_norm.ms": ("ms", "lower"),
    "cli_io.parse_config.ms": ("ms", "lower"),
    "cli_io.save_snapshot.calls": ("count", "lower"),
    "cli_io.save_snapshot.ms_per_call": ("ms", "lower"),
    "cli_io.save_snapshot.bytes": ("B", "lower"),
    "cli_io.load_snapshot.calls": ("count", "lower"),
    "cli_io.load_snapshot.ms_per_call": ("ms", "lower"),
    "cli_io.load_snapshot.bytes": ("B", "lower"),
    "cli_io.emit_csv.ms": ("ms", "lower"),
    "cli_io.gauge_identity_suite.ms": ("ms", "lower"),
    "cli_io.gauge_identity_suite.transforms": ("count", "lower"),
    "initial_data.generate_initial.ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

RESIDUALS = ("gauge.residual_compatibility", "gauge.residual_curvature", "gauge.residual_psi0")


def per_layer_metrics(tr: Tracer, traced_walls: list, untraced_walls: list) -> dict:
    """Per-layer figures of the traced passes, as ``{name: value}``.

    Counts and ``.ms`` totals are per workload pass, so they repeat exactly
    across runs; ``ms_per_call`` and the percentiles are per call.
    """
    passes = len(traced_walls)
    selfs = self_times(tr.span_start, tr.span_end, tr.span_parent)
    durations: dict = {name: [] for name in tr.names}
    transforms: dict = {name: 0 for name in tr.names}
    self_s: dict = {name: 0.0 for name in tr.names}
    for i, nid in enumerate(tr.span_name):
        name = tr.names[nid]
        durations[name].append(tr.span_end[i] - tr.span_start[i])
        transforms[name] += tr.span_transforms[i]
        self_s[name] += selfs[i]

    def calls(name):
        return len(durations.get(name, ()))

    def total_ms(*names):
        return 1e3 * sum(sum(durations.get(n, ())) for n in names)

    def per_call(value, name):
        return value / calls(name) if calls(name) else 0.0

    def percentile_ms(name, q):
        return 1e3 * float(np.percentile(durations[name], q)) if calls(name) else 0.0

    spectral = [f"spectral.{m}" for m in TRANSFORM_METHODS]
    steps = calls("evolution.rk4_update")
    out = {
        "spectral.transforms": tr.transforms / passes,
        "spectral.transforms_per_step": tr.transforms / steps if steps else 0.0,
        "spectral.transform_ms": total_ms(*spectral) / passes,
        "spectral.transform_share": total_ms(*spectral) / (1e3 * sum(traced_walls)),
        "spectral.real_input_share": tr.real_transforms / tr.transforms if tr.transforms else 0.0,
        "spectral.points": tr.points / passes,
        "spectral.bytes_computed": tr.bytes / passes,
        "spectral.flops_computed": tr.flops / passes,
    }
    for name in ("evolution.rk4_update", "evolution.evolve_msm"):
        out[f"{name}.calls"] = calls(name) / passes
        out[f"{name}.ms_p50"] = percentile_ms(name, 50)
        out[f"{name}.ms_p99"] = percentile_ms(name, 99)
        out[f"{name}.transforms_per_call"] = per_call(transforms.get(name, 0), name)
    out["evolution.run.self_ms"] = per_call(1e3 * self_s.get("evolution.run", 0.0),
                                            "evolution.run")
    for name in ("gauge.msm_nonlinearity", "gauge.a_from_psi", "gauge.a0_from_psi",
                 "gauge.derive_psi", "geometry.coulomb_fix", "geometry.renormalize",
                 "diagnostics.diagnostics_row", "cli_io.save_snapshot",
                 "cli_io.load_snapshot"):
        out[f"{name}.calls"] = calls(name) / passes
        out[f"{name}.ms_per_call"] = per_call(total_ms(name), name)
        out[f"{name}.transforms_per_call"] = per_call(transforms.get(name, 0), name)
    rows = calls(RESIDUALS[0])
    out["gauge.residuals.ms_per_row"] = total_ms(*RESIDUALS) / rows if rows else 0.0
    out["gauge.residuals.transforms_per_row"] = (
        sum(transforms.get(n, 0) for n in RESIDUALS) / rows if rows else 0.0)
    out["geometry.coulomb_fix.per_slice"] = (
        tr.slice_calls / tr.distinct_slices if tr.distinct_slices else 0.0)
    out["diagnostics.xk_norm.ms"] = total_ms("diagnostics.xk_norm") / passes
    out["diagnostics.directional_norm.ms"] = total_ms("diagnostics.directional_norm") / passes
    out["cli_io.parse_config.ms"] = per_call(total_ms("cli_io.parse_config"), "cli_io.parse_config")
    for name in ("cli_io.save_snapshot", "cli_io.load_snapshot"):
        out[f"{name}.bytes"] = tr.file_bytes.get(name, 0) / passes
    out["cli_io.emit_csv.ms"] = total_ms("cli_io.emit_diagnostics_csv",
                                         "cli_io.emit_series_csv") / passes
    out["cli_io.gauge_identity_suite.ms"] = total_ms("cli_io.gauge_identity_suite") / passes
    out["cli_io.gauge_identity_suite.transforms"] = (
        transforms.get("cli_io.gauge_identity_suite", 0) / passes)
    out["initial_data.generate_initial.ms"] = total_ms("initial_data.generate_initial") / passes
    untraced = float(np.median(untraced_walls))
    out["trace.overhead_share"] = (float(np.median(traced_walls)) - untraced) / untraced
    return {name: out[name] for name in PER_LAYER}
