"""Configuration, persistence, and the batch command-line interface.

Snapshot files are a small checksummed raw binary format (little-endian
64-bit floats, the 3 components of a sphere-valued field interleaved per
grid point) so round-trips are bit exact and trivially parseable.
Diagnostics tables are CSV with locale-independent 17-significant-digit
formatting; identical runs produce byte-identical files.  All writes go
through a uniquely named temp file in the target directory and an atomic
rename.
"""

from __future__ import annotations

import argparse
import configparser
import glob
import os
import struct
import sys
import tempfile
import zlib
from dataclasses import astuple, dataclass, fields

import numpy as np

from .diagnostics import (
    DiagnosticsRow,
    SpaceTimeRecord,
    direction_axis,
    directional_norm,
    frame_bound_ratio,
    xk_norm,
)
from .evolution import SimConfig, run
from .gauge import CoulombSlice, a_from_psi, coulomb_slice
from .geometry import _UNIT_TOL, SphereField
from .initial_data import InitialDataSpec, generate_initial
from .spectral import Grid, l2_norm

__all__ = [
    "ConfigError",
    "SnapshotFormatError",
    "Snapshot",
    "save_snapshot",
    "load_snapshot",
    "emit_diagnostics_csv",
    "emit_series_csv",
    "parse_config",
    "gauge_identity_suite",
    "cli_main",
]

_MAGIC = b"SPHMAP\x00\x01"
_VERSION = 1
_KIND_VECTOR3 = 3


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


class SnapshotFormatError(IOError):
    """Snapshot file is corrupt, truncated, or has the wrong format."""


@dataclass(frozen=True)
class Snapshot:
    grid: Grid
    time: float
    values: np.ndarray   # (3, n, ..., n)


# mkstemp creates its file private; outputs get the usual umask-derived mode
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def _atomic_write(path: str, *parts) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            fh.writelines(parts)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_snapshot(values: np.ndarray, grid: Grid, time: float, path: str) -> None:
    """Write the (3, n, ..., n) values of a sphere-valued field."""
    values = np.asarray(values)
    if values.shape != (3,) + grid.shape:
        raise ValueError(f"values shape {values.shape} != (3,)+{grid.shape}")
    payload = np.moveaxis(values, 0, -1)  # interleave components per point
    if np.iscomplexobj(payload):
        raise ValueError("snapshot payload must be real")
    payload = np.ascontiguousarray(payload, dtype="<f8")  # the one copy: crc32 and write read it

    header = bytearray()
    header += _MAGIC
    header += struct.pack("<III", _VERSION, _KIND_VECTOR3, grid.d)
    header += struct.pack(f"<{grid.d}I", *((grid.n,) * grid.d))
    header += struct.pack("<ddQ", grid.length, float(time), payload.size)
    header += struct.pack("<I", zlib.crc32(payload))
    header += struct.pack("<I", zlib.crc32(header))
    _atomic_write(path, header, payload)


def load_snapshot(path: str, expect_grid: Grid | None = None) -> Snapshot:
    """Read a snapshot back; raises on corruption or on a grid mismatch.

    With ``expect_grid`` the snapshot carries that very ``Grid`` object, so
    the snapshots of one record share its cached symbols.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 12 or blob[: len(_MAGIC)] != _MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic, not a snapshot file")
    off = len(_MAGIC)
    version, kind, d = struct.unpack_from("<III", blob, off)
    off += 12
    if version != _VERSION:
        raise SnapshotFormatError(f"{path}: unsupported snapshot version {version}")
    if kind != _KIND_VECTOR3:
        raise SnapshotFormatError(f"{path}: unknown field kind {kind}")
    if not 1 <= d <= 8 or len(blob) < off + 4 * d + 8 + 8 + 8 + 8:
        raise SnapshotFormatError(f"{path}: truncated header")
    ns = struct.unpack_from(f"<{d}I", blob, off)
    off += 4 * d
    length, time, count = struct.unpack_from("<ddQ", blob, off)
    off += 24
    (payload_crc,) = struct.unpack_from("<I", blob, off)
    off += 4
    (header_crc,) = struct.unpack_from("<I", blob, off)
    if zlib.crc32(blob[: off]) != header_crc:
        raise SnapshotFormatError(f"{path}: header checksum mismatch")
    off += 4

    if len(set(ns)) != 1:
        raise SnapshotFormatError(f"{path}: anisotropic grids are not supported")
    try:
        grid = Grid(d=d, n=ns[0], length=length)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc
    expected_count = 3 * grid.n**grid.d
    if count != expected_count:
        raise SnapshotFormatError(f"{path}: payload length {count} != expected {expected_count}")
    payload_bytes = memoryview(blob)[off:]  # a view: slicing bytes would copy the payload
    if len(payload_bytes) != 8 * count:
        problem = "truncated" if len(payload_bytes) < 8 * count else "trailing bytes after"
        raise SnapshotFormatError(
            f"{path}: {problem} payload: {len(payload_bytes)} bytes, expected {8 * count}"
        )
    if zlib.crc32(payload_bytes) != payload_crc:
        raise SnapshotFormatError(f"{path}: payload checksum mismatch")

    if expect_grid is not None:
        if grid != expect_grid:  # compares d, n and length
            raise ValueError(
                f"{path}: grid mismatch, file has d={grid.d} n={grid.n} L={grid.length}, "
                f"expected d={expect_grid.d} n={expect_grid.n} L={expect_grid.length}"
            )
        grid = expect_grid

    flat = np.frombuffer(blob, dtype="<f8", offset=off)
    return Snapshot(grid, time, np.moveaxis(flat.reshape(grid.shape + (3,)), -1, 0).copy())


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def emit_diagnostics_csv(rows, path: str) -> None:
    """Write diagnostics rows as CSV with a header naming every field."""
    emit_series_csv([f.name for f in fields(DiagnosticsRow)], [astuple(row) for row in rows], path)


def emit_series_csv(header, rows, path: str) -> None:
    """Write rows of numbers (17 significant digits) or text cells as CSV."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

_SCHEMA = {
    "grid": {"d": int, "n": int, "length": float},
    "time": {"dt": "float_or_auto", "steps": int},
    "run": {"integrator": str, "cadence": int, "snapshot_every": int},
    "initial": {
        "kind": str,
        "amplitude": float,
        "width": "float_or_auto",
        "mode_cutoff": int,
        "seed": int,
        "q": "triple",
        "u": "triple_or_auto",
        "profile": str,
    },
    "output": {"directory": str},
}


def _parse_triple(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated numbers, got {text!r}")
    values = tuple(float(p) for p in parts)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"expected three finite numbers, got {text!r}")
    return values


def _base_point_flag(text: str | None):
    """The unit x,y,z base point of an optional ``--q`` flag; errors name the flag."""
    if not text:
        return None
    try:
        value = _parse_triple(text)
    except ValueError as exc:
        raise ConfigError(f"--q {text!r}: {exc}") from exc
    length = float(np.linalg.norm(value))
    if not abs(length - 1.0) <= _UNIT_TOL:
        raise ConfigError(f"--q {text!r}: a base point must be a unit vector, length {length:g}")
    return value


def _convert(section: str, key: str, text: str):
    kind = _SCHEMA[section][key]
    try:
        if kind == "float_or_auto":
            return None if text.strip().lower() == "auto" else float(text)
        if kind == "triple_or_auto":
            return None if text.strip().lower() == "auto" else _parse_triple(text)
        if kind == "triple":
            return _parse_triple(text)
        return kind(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc


def parse_config(
    path: str,
    overrides,
    out_dir: str | None = None,
    seed: int | None = None,
) -> SimConfig:
    """Read a sectioned key=value config file into a SimConfig.

    Unknown sections or keys abort before any computation.  ``overrides``
    are ``section.key=value`` strings applied on top of the file; ``out_dir``
    and ``seed`` override the corresponding entries when given.
    """
    # no interpolation: a stray % is then an ordinary character, which fails
    # its own key's conversion with a message that names the key
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:  # a repeated key or section, a line without =
        raise ConfigError(" ".join(line.strip() for line in str(exc).splitlines())) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())

    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values.setdefault(section, {})[key] = _convert(section, key, text)

    # every key is a field name of Grid, InitialDataSpec or SimConfig, so an
    # omitted key takes the dataclass default
    gsec = values.get("grid", {})
    for required in ("d", "n"):
        if required not in gsec:
            raise ConfigError(f"[grid] {required} is required")
    isec = values.get("initial", {})
    if seed is not None:
        isec["seed"] = seed
    directory = out_dir if out_dir is not None else values.get("output", {}).get("directory")
    try:
        return SimConfig(
            grid=Grid(**gsec),
            initial=InitialDataSpec(**isec),
            **values.get("time", {}),
            **values.get("run", {}),
            out_dir=directory,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# verification helpers shared by the verify and sweep subcommands
# ---------------------------------------------------------------------------

def gauge_identity_suite(sl: CoulombSlice) -> dict:
    """Residuals of the structural identities on one Coulomb slice.

    Returns compatibility, curvature and psi_0 residuals, the divergence of
    the Coulomb connection, and the L2 mismatch between the connection
    recovered from psi alone and the frame connection: 2 transforms, the
    rfft and irfft of the connection recovered from psi (``a_from_psi``).
    """
    grid = sl.frame.grid
    suite = sl.residuals()
    div_a = suite.pop("div_a")
    a_psi = a_from_psi(grid, sl.psi)
    cross = np.sqrt(sum(l2_norm(grid, a_psi[m] - sl.a[m]) ** 2 for m in range(grid.d)))
    return {**suite, "res_cross": float(cross), "div_a": div_a}


def _sphere_from_snapshot(snap: Snapshot, q: np.ndarray | None) -> SphereField:
    """The snapshot's map with base point q, or its normalized mean direction."""
    if q is None:
        mean = snap.values.mean(axis=tuple(range(1, snap.grid.d + 1)))
        q = mean / np.linalg.norm(mean)
    return SphereField(snap.grid, snap.values, q)


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------

def _terminated(signum, frame):
    raise KeyboardInterrupt("SIGTERM")


def _cmd_run(args) -> int:
    import signal  # here, not at package import: only a run needs the handler

    config = parse_config(args.config, args.override, args.out, args.seed)
    # a SIGTERM in the step loop becomes a recorded abort, as a SIGINT does
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        record = run(config)
    except MemoryError as exc:
        grid = config.grid
        raise ConfigError(f"grid.d={grid.d}, grid.n={grid.n}: out of memory; one (3, n, ..., n) "
                          f"float64 field takes {24 * grid.n**grid.d} bytes") from exc
    finally:
        signal.signal(signal.SIGTERM, previous)
    last = record.rows[-1]
    print(f"completed {len(record.rows)} diagnostic rows, final t = {_fmt(last.t)}")
    print(f"energy = {_fmt(last.energy)}  l2_dist_q = {_fmt(last.l2_dist_q)}")
    if config.out_dir:
        print(f"outputs written to {config.out_dir}")
    if record.aborted:
        print(f"run aborted: {record.abort_reason}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    q = _base_point_flag(args.q)
    sl = coulomb_slice(_sphere_from_snapshot(load_snapshot(args.snapshot), q))
    for name, value in gauge_identity_suite(sl).items():
        print(f"{name} = {_fmt(value)}")
    return 0


def _cmd_norms(args) -> int:
    q = _base_point_flag(args.q)  # reject a bad base point before loading any snapshot
    paths = sorted(glob.glob(os.path.join(args.dir, "snapshot_*.bin")))
    if len(paths) < 2:
        raise ConfigError(f"{args.dir}: need at least two snapshots for a record")
    sn = load_snapshot(paths[0])
    grid = sn.grid
    direction_axis(grid, args.direction)  # reject a bad direction before any slice
    # one record, filled row by row as each snapshot is read and dropped: a
    # row of psi is a view that would keep the whole psi stack of its slice alive
    dtype = complex if args.observable == "psi1" else float
    values = np.empty((len(paths),) + grid.shape, dtype=dtype)
    times = np.empty(len(paths))
    for i, row in enumerate(values):
        if i:
            sn = load_snapshot(paths[i], expect_grid=grid)
        times[i] = sn.time
        s = _sphere_from_snapshot(sn, q)
        if args.observable == "sminusq":
            diff = s.values - s.q.reshape((3,) + (1,) * grid.d)
            row[...] = np.sqrt(np.sum(diff**2, axis=0))
        else:  # psi1
            row[...] = coulomb_slice(s).psi[0]
    rec = SpaceTimeRecord(grid, times, values)

    results = []
    pq = {"1": 1.0, "2": 2.0, "inf": np.inf}
    value = directional_norm(rec, args.direction, pq[args.p], pq[args.q_exp])
    results.append((f"L^({args.p},{args.q_exp})_e{args.direction:+d}", value))
    print(f"{results[-1][0]} = {_fmt(value)}")
    if args.modulation_k is not None:
        xk = xk_norm(rec, args.modulation_k)
        results.append((f"X_{args.modulation_k}", xk))
        print(f"X_{args.modulation_k} = {_fmt(xk)}")
    if args.out:
        emit_series_csv(["norm", "value"], results, args.out)
    return 0


def _number_or_text(value: str):
    try:
        return float(value)
    except ValueError:
        return value  # e.g. initial.kind; written verbatim


def _cmd_sweep(args) -> int:
    if "=" not in args.vary:
        raise ConfigError("--vary must be section.key=v1,v2,...")
    target, raw_values = args.vary.split("=", 1)
    swept = [v.strip() for v in raw_values.split(",") if v.strip()]
    if len(swept) < 2:
        raise ConfigError("--vary needs at least two values")

    configs = []  # every value's config is checked before the first slice
    for value in swept:
        try:
            configs.append(parse_config(args.config, list(args.override) + [f"{target}={value}"],
                                        out_dir=None, seed=args.seed))
        except ValueError as exc:
            raise ConfigError(f"{target} = {value}: {exc}") from exc
    if args.out:
        os.makedirs(args.out, exist_ok=True)  # an unusable path fails before the first slice

    rows = []
    suites = []
    for value, config in zip(swept, configs):
        try:
            sl = coulomb_slice(generate_initial(config.initial, config.grid))
        except ValueError as exc:  # a data or frame error of this value
            _emit_sweep(args.out, target, suites, rows)
            raise ConfigError(f"{target} = {value}: {exc}") from exc
        suite = gauge_identity_suite(sl)
        ratio = frame_bound_ratio(sl)
        suites.append(suite)
        rows.append((_number_or_text(value), *suite.values(), ratio))
        printable = "  ".join(f"{k}={_fmt(v)}" for k, v in suite.items())
        print(f"{target} = {value}:  {printable}  frame_ratio={_fmt(ratio)}")

    for prev, cur, v_prev, v_cur in zip(suites, suites[1:], swept, swept[1:]):
        for key in ("res_compatibility", "res_curvature", "res_psi0", "res_cross"):
            if cur[key] > 0:
                print(f"ratio[{key}] {v_prev}->{v_cur} = {_fmt(prev[key] / cur[key])}")

    _emit_sweep(args.out, target, suites, rows)
    return 0


def _emit_sweep(out: str | None, target: str, suites: list, rows: list) -> None:
    """Write the rows computed so far to ``out``/sweep.csv, if any and ``out`` is set."""
    if out and rows:
        header = [target, *suites[0], "frame_ratio"]
        emit_series_csv(header, rows, os.path.join(out, "sweep.csv"))
        print(f"summary written to {os.path.join(out, 'sweep.csv')}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheremap",
        description="Pseudo-spectral lab for the sphere-valued Schrodinger map flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate per config file")
    p_run.add_argument("--config", required=True, help="path to the run config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="initial-data RNG seed")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="gauge-identity residual suite on a snapshot")
    p_ver.add_argument("snapshot", help="snapshot file")
    p_ver.add_argument("--q", default=None, help="base point, x,y,z (default: mean direction)")
    p_ver.set_defaults(func=_cmd_verify)

    p_nrm = sub.add_parser("norms", help="directional / modulation norms on a record")
    p_nrm.add_argument("--dir", required=True, help="run output directory with snapshots")
    p_nrm.add_argument("--observable", choices=("sminusq", "psi1"), default="sminusq")
    p_nrm.add_argument("--direction", type=int, default=1, help="signed axis, e.g. 1 or -2")
    p_nrm.add_argument("--p", choices=("1", "2", "inf"), default="2")
    p_nrm.add_argument("--q-exp", choices=("1", "2", "inf"), default="2",
                       help="inner exponent")
    p_nrm.add_argument("--q", default=None, help="base point x,y,z")
    p_nrm.add_argument("--modulation-k", type=int, default=None)
    p_nrm.add_argument("--out", default=None, help="CSV output path")
    p_nrm.set_defaults(func=_cmd_norms)

    p_swp = sub.add_parser("sweep", help="amplitude or resolution sweeps, summary CSV")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--vary", required=True, metavar="SECTION.KEY=V1,V2,...")
    p_swp.add_argument("--seed", type=int, default=None)
    p_swp.add_argument("--out", default=None, help="directory for sweep.csv")
    p_swp.add_argument("--override", action="append", default=[])
    p_swp.set_defaults(func=_cmd_sweep)
    return parser


def cli_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SnapshotFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
