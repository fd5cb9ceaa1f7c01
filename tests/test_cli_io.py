"""Tests for initial data generation, persistence, config parsing and the CLI."""

import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spheremap.geometry as geometry
from spheremap.cli_io import (
    ConfigError,
    SnapshotFormatError,
    cli_main,
    emit_diagnostics_csv,
    load_snapshot,
    parse_config,
    save_snapshot,
)
from spheremap.diagnostics import DiagnosticsRow, critical_norm
from spheremap.evolution import rk4_update, step_rk4_projected
from spheremap.gauge import coulomb_slice
from spheremap.initial_data import InitialDataSpec, generate_initial
from spheremap.spectral import Grid

from reference import sobolev_norm


def coords(grid):
    return [np.broadcast_to(grid.coordinate(m), grid.shape) for m in range(1, grid.d + 1)]


REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "run-d2.ini")

CONFIG_TEXT = """\
[grid]
d = 2
n = 16
length = 6.283185307179586

[time]
dt = auto
steps = 4

[run]
integrator = rk4-projected
cadence = 2
snapshot_every = 2

[initial]
kind = geodesic-bump
amplitude = 0.05
seed = 11

[output]
directory = {out}
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
    return str(path)


class TestGenerateInitial:
    def test_zero_amplitude_is_base_point(self):
        g = Grid(d=2, n=16)
        s = generate_initial(InitialDataSpec(amplitude=0.0), g)
        assert np.max(np.abs(s.values - s.q.reshape(3, 1, 1))) < 1e-15

    def test_unit_norm_all_kinds(self):
        g = Grid(d=2, n=16)
        for kind in ("geodesic-bump", "band-limited-random", "stereographic-pullback"):
            s = generate_initial(InitialDataSpec(kind=kind, amplitude=0.3, seed=5), g)
            assert np.max(np.abs(np.sqrt(np.sum(s.values**2, axis=0)) - 1.0)) < 1e-14

    def test_critical_norm_slope(self):
        # amplitude 1e-3 cosine profile: critical norm / eps matches the
        # profile's own critical norm to O(eps^2)
        g = Grid(d=2, n=16)
        eps = 1e-3
        s = generate_initial(InitialDataSpec(amplitude=eps, profile="cosine"), g)
        theta_norm = sobolev_norm(g, np.cos(coords(g)[0]), g.d / 2.0, homogeneous=True)
        assert critical_norm(s, g.rfft(s.values)) / eps == pytest.approx(theta_norm, rel=1e-4)

    def test_seed_determinism(self):
        g = Grid(d=2, n=16)
        spec = InitialDataSpec(kind="band-limited-random", amplitude=0.2, seed=42)
        s1, s2 = generate_initial(spec, g), generate_initial(spec, g)
        assert np.array_equal(s1.values, s2.values)
        other = generate_initial(
            InitialDataSpec(kind="band-limited-random", amplitude=0.2, seed=43), g
        )
        assert not np.array_equal(s1.values, other.values)

    def test_invalid_transverse_direction(self):
        with pytest.raises(ValueError, match="orthogonal"):
            InitialDataSpec(u=(0.0, 0.0, 1.0))  # parallel to default q
        with pytest.raises(ValueError, match="unit"):
            InitialDataSpec(u=(2.0, 0.0, 0.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            InitialDataSpec(kind="vortex")

    @pytest.mark.parametrize(
        "kwargs, cause",
        [
            ({"q": (np.nan, 0.0, 1.0)}, "base point q"),
            ({"u": (np.nan, 0.0, 0.0)}, "transverse direction u"),
            ({"u": (1.0, np.nan, 0.0)}, "transverse direction u"),
        ],
    )
    def test_nan_direction_rejected(self, kwargs, cause):
        with pytest.raises(ValueError, match=cause):
            InitialDataSpec(**kwargs)


def write_header(path, d, n, length, kind=3):
    """A snapshot header with valid checksums and an empty payload."""
    header = bytearray(b"SPHMAP\x00\x01")
    header += struct.pack("<III", 1, kind, d)
    header += struct.pack(f"<{d}I", *((n,) * d))
    header += struct.pack("<ddQ", length, 0.0, 0)
    header += struct.pack("<I", zlib.crc32(b""))
    header += struct.pack("<I", zlib.crc32(bytes(header)))
    path.write_bytes(bytes(header))


class TestSnapshotRoundtrip:
    def test_vector_bitwise(self, tmp_path):
        g = Grid(d=2, n=16)
        s = generate_initial(InitialDataSpec(amplitude=0.1, seed=3), g)
        path = str(tmp_path / "field.bin")
        save_snapshot(s.values, g, 0.25, path)
        snap = load_snapshot(path)
        assert snap.time == 0.25
        assert snap.grid == g
        assert np.array_equal(snap.values, s.values)

    def test_four_dimensional_vector(self, tmp_path):
        g = Grid(d=4, n=8)
        s = generate_initial(InitialDataSpec(amplitude=0.05, seed=2), g)
        path = str(tmp_path / "field4.bin")
        save_snapshot(s.values, g, 2.0, path)
        snap = load_snapshot(path, expect_grid=g)
        assert np.array_equal(snap.values, s.values)

    def test_file_is_the_header_then_the_interleaved_payload(self, tmp_path):
        g = Grid(d=3, n=8)
        values = generate_initial(InitialDataSpec(amplitude=0.1, seed=4), g).values
        path = tmp_path / "field3.bin"
        save_snapshot(values, g, 0.5, str(path))
        payload = np.ascontiguousarray(np.moveaxis(values, 0, -1), dtype="<f8").tobytes()
        header = (b"SPHMAP\x00\x01" + struct.pack("<IIIIII", 1, 3, 3, 8, 8, 8)
                  + struct.pack("<ddQ", g.length, 0.5, values.size)
                  + struct.pack("<I", zlib.crc32(payload)))
        assert path.read_bytes() == header + struct.pack("<I", zlib.crc32(header)) + payload

    def test_load_holds_the_file_and_the_values_only(self, tmp_path):
        # the file's bytes and the de-interleaved values: the checks read
        # the payload through a view, not a copy of it
        g = Grid(d=4, n=12)
        values = generate_initial(InitialDataSpec(amplitude=0.02), g).values
        path = str(tmp_path / "field4.bin")
        save_snapshot(values, g, 0.0, path)
        load_snapshot(path, expect_grid=g)
        tracemalloc.start()
        try:
            snap = load_snapshot(path, expect_grid=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(snap.values, values)
        assert peak < 2.05 * values.nbytes, peak / values.nbytes

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_snapshot(str(path))

    def test_version_mismatch(self, tmp_path):
        g = Grid(d=2, n=8)
        path = str(tmp_path / "field.bin")
        save_snapshot(np.ones((3,) + g.shape), g, 0.0, path)
        blob = bytearray(Path(path).read_bytes())
        blob[8] = 9  # version field follows the 8-byte magic
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="version"):
            load_snapshot(path)

    def test_corrupt_payload(self, tmp_path):
        g = Grid(d=2, n=8)
        path = str(tmp_path / "field.bin")
        save_snapshot(np.zeros((3,) + g.shape) + 1.0, g, 0.0, path)
        blob = bytearray(Path(path).read_bytes())
        blob[-5] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="payload checksum"):
            load_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        g = Grid(d=2, n=8)
        path = str(tmp_path / "field.bin")
        save_snapshot(np.ones((3,) + g.shape), g, 0.0, path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-16])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b + b"\0", "trailing bytes after payload: 1537 bytes, expected 1536"),
            (lambda b: b[:-16], "truncated payload: 1520 bytes, expected 1536"),
        ],
        ids=["trailing", "truncated"],
    )
    def test_payload_size_mismatch_names_sizes(self, tmp_path, edit, message):
        g = Grid(d=2, n=8)
        path = tmp_path / "field.bin"
        save_snapshot(np.ones((3,) + g.shape), g, 0.0, str(path))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(str(path))
        assert str(exc.value).endswith(message)

    def test_every_truncation_and_bit_flip_rejected(self, tmp_path):
        g = Grid(d=2, n=8)
        values = generate_initial(InitialDataSpec(amplitude=0.1), g).values
        path = tmp_path / "field.bin"
        save_snapshot(values, g, 0.5, str(path))
        blob = path.read_bytes()
        assert len(blob) == 60 + 8 * 3 * g.n**2
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(SnapshotFormatError):
                load_snapshot(str(path))
        for offset in range(len(blob)):
            bad = bytearray(blob)
            bad[offset] ^= 1 << (offset % 8)
            path.write_bytes(bytes(bad))
            with pytest.raises(SnapshotFormatError):
                load_snapshot(str(path))

    @pytest.mark.parametrize(
        "d, n, length",
        [(1, 8, 1.0), (5, 8, 1.0), (2, 6, 1.0), (2, 7, 1.0), (2, 8, -1.0), (2, 8, np.nan)],
    )
    def test_unsupported_grid_in_header_is_a_format_error(self, tmp_path, d, n, length):
        path = tmp_path / "field.bin"
        write_header(path, d, n, length)
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(str(path))
        assert str(exc.value).startswith(f"{path}: ")

    def test_scalar_kind_is_unknown(self, tmp_path):
        path = tmp_path / "field.bin"
        write_header(path, 2, 8, 1.0, kind=1)
        with pytest.raises(SnapshotFormatError, match="unknown field kind 1"):
            load_snapshot(str(path))

    def test_grid_mismatch_rejected(self, tmp_path):
        g = Grid(d=2, n=8)
        path = str(tmp_path / "field.bin")
        save_snapshot(np.ones((3,) + g.shape), g, 0.0, path)
        with pytest.raises(ValueError, match="grid mismatch"):
            load_snapshot(path, expect_grid=Grid(d=2, n=16))

    def test_matching_header_returns_the_expected_grid_object(self, tmp_path):
        g = Grid(d=2, n=8)
        path = str(tmp_path / "field.bin")
        save_snapshot(np.ones((3,) + g.shape), g, 0.0, path)
        assert load_snapshot(path, expect_grid=g).grid is g
        assert load_snapshot(path).grid is not g


class TestDiagnosticsCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = str(tmp_path / "diag.csv")
        emit_diagnostics_csv([], path)
        text = Path(path).read_text()
        assert text == ",".join(f.name for f in fields(DiagnosticsRow)) + "\n"

    def test_deterministic_bytes(self, tmp_path):
        row = DiagnosticsRow(0.1, 1.0 / 3.0, 2e-7, 0.5, 1e-12, 0.0, 1e-9, 2e-9, 3e-9)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit_diagnostics_csv([row, row], p1)
        emit_diagnostics_csv([row, row], p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_seventeen_digits(self, tmp_path):
        row = DiagnosticsRow(np.pi, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        path = str(tmp_path / "diag.csv")
        emit_diagnostics_csv([row], path)
        value = Path(path).read_text().splitlines()[1].split(",")[0]
        assert float(value) == np.pi


    def test_stale_tmp_directory_does_not_block(self, tmp_path):
        (tmp_path / "diagnostics.csv.tmp").mkdir()
        path = tmp_path / "diagnostics.csv"
        emit_diagnostics_csv([], str(path))
        assert path.read_text() == ",".join(f.name for f in fields(DiagnosticsRow)) + "\n"
        assert sorted(os.listdir(tmp_path)) == ["diagnostics.csv", "diagnostics.csv.tmp"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            emit_diagnostics_csv([], str(tmp_path / "diagnostics.csv"))
        assert os.listdir(tmp_path) == []


class TestParseConfig:
    def test_full_parse(self, config_file, tmp_path):
        config = parse_config(config_file, [])
        assert config.grid == Grid(d=2, n=16)
        assert config.steps == 4
        assert config.cadence == 2
        assert config.dt is None
        assert config.initial.amplitude == 0.05
        assert config.initial.seed == 11
        assert config.out_dir == str(tmp_path / "out")

    def test_unknown_key_rejected(self, config_file):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(config_file, overrides=["time.stepz=5"])
        # the frame direction is no longer a setting: a stale config says so
        with pytest.raises(ConfigError, match="unknown key 'qprime' in section \\[run\\]"):
            parse_config(config_file, overrides=["run.qprime=1,0,0"])

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nd=2\nn=16\n[physics]\nc=3e8\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(str(path), [])

    def test_overrides_and_seed(self, config_file):
        config = parse_config(config_file, overrides=["time.steps=9"], seed=99)
        assert config.steps == 9
        assert config.initial.seed == 99

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/run.ini", [])

    def test_bad_value(self, config_file):
        with pytest.raises(ConfigError, match="amplitude"):
            parse_config(config_file, overrides=["initial.amplitude=fast"])

    def test_invalid_override_format(self, config_file):
        with pytest.raises(ConfigError, match="section.key"):
            parse_config(config_file, overrides=["steps=9"])

    def test_triple_values(self, config_file):
        config = parse_config(
            config_file,
            overrides=[
                "initial.q=0,1,0",
                "initial.u=0,0,1",
            ],
        )
        assert config.initial.q == (0.0, 1.0, 0.0)
        assert config.initial.u == (0.0, 0.0, 1.0)

    def test_bad_triple(self, config_file):
        with pytest.raises(ConfigError, match="three"):
            parse_config(config_file, overrides=["initial.q=1,0"])


class TestCliRun:
    def test_end_to_end_deterministic(self, config_file, tmp_path):
        assert cli_main(["run", "--config", config_file]) == 0
        out = tmp_path / "out"
        first = (out / "diagnostics.csv").read_bytes()
        snaps = sorted(os.listdir(out))
        assert "snapshot_00000000.bin" in snaps
        assert "snapshot_00000004.bin" in snaps
        assert cli_main(["run", "--config", config_file]) == 0
        assert (out / "diagnostics.csv").read_bytes() == first
        # 1 + steps/cadence rows
        assert len(first.decode().splitlines()) == 1 + 1 + 4 // 2

    def test_zero_steps_initial_only(self, config_file, tmp_path):
        rc = cli_main(
            ["run", "--config", config_file, "--override", "time.steps=0",
             "--out", str(tmp_path / "zero")]
        )
        assert rc == 0
        lines = (tmp_path / "zero" / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_bad_config_exit_code(self, config_file):
        rc = cli_main(["run", "--config", config_file, "--override", "grid.n=7"])
        assert rc == 2

    @pytest.mark.parametrize(
        "override, cause",
        [
            ("time.dt=nan", "dt = nan must be finite"),
            ("time.dt=0", "dt = 0.0 must be finite and non-zero"),
            ("time.dt=-1", "violates the stability bound"),
            ("initial.amplitude=nan", "amplitude = nan"),
            ("initial.width=inf", "width = inf"),
            ("initial.width=1e-300", "width = 1e-300"),
            ("initial.width=1e200", "width = 1e+200"),
            # 2 * width**2 = 2e-320 is subnormal, so the spec admits it; the
            # bump's rho^2 / (2 * width**2) overflows on the grid
            ("initial.width=1e-160", "width = 1e-160"),
            ("grid.n=1099511627776", "n=1099511627776 too large for d=2"),
            ("initial.q=nan,0,1", "[initial] q = 'nan,0,1': expected three finite numbers"),
            ("initial.u=nan,0,0", "[initial] u = 'nan,0,0': expected three finite numbers"),
        ],
    )
    def test_bad_value_rejected_before_any_output(
        self, config_file, tmp_path, capsys, override, cause
    ):
        out = tmp_path / "bad"
        rc = cli_main(["run", "--config", config_file, "--out", str(out), "--override", override])
        assert rc == 2
        assert not out.exists()
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, override, cause",
        [
            ("d = 2\n", "d = 2\nd = 2\n", None,
             "[line  3]: option 'd' in section 'grid' already exists"),
            ("[output]", "[grid]\nn = 8\n[output]", None, "section 'grid' already exists"),
            ("[grid]\n", "d = 2\n[grid]\n", None, "no section headers"),
            ("steps = 4\n", "steps = 4\nsteps\n", None, "[line  9]: 'steps\\n'"),
            ("n = 16", "n = %(x)s", None, "[grid] n = '%(x)s': invalid literal"),
            (None, None, "initial.u=%(x)s", "[initial] u = '%(x)s': expected three"),
            (None, None, "grid.n=16%", "[grid] n = '16%': invalid literal"),
            # written in latin-1, so these two bytes are 0xff 0xfe
            ("n = 16", "\xff\xfe = 16", None, "bad.ini: not a UTF-8 text file: "),
        ],
        ids=["repeated-key", "repeated-section", "no-section-header", "line-without-equals",
             "interpolation-in-file", "interpolation-in-override", "trailing-percent",
             "not-utf-8"],
    )
    def test_malformed_config_rejected_by_file_or_key(
        self, tmp_path, capsys, old, new, override, cause
    ):
        path = tmp_path / "bad.ini"
        text = CONFIG_TEXT if old is None else CONFIG_TEXT.replace(old, new, 1)
        path.write_bytes(text.encode("latin-1"))
        out = tmp_path / "out"
        argv = ["run", "--config", str(path), "--out", str(out)]
        if override is not None:
            argv += ["--override", override]
        assert cli_main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert cause in err
        if override is None and "[grid] n" not in cause:
            assert str(path) in err

    @pytest.mark.parametrize(
        "overrides, cause",
        [
            (["initial.kind=band-limited-random", "initial.mode_cutoff=-1"],
             "mode_cutoff = -1 must be >= 1"),
            (["initial.kind=band-limited-random", "initial.mode_cutoff=0"],
             "mode_cutoff = 0 must be >= 1"),
            (["initial.seed=-3"], "seed = -3 must be >= 0"),
        ],
        ids=["negative-cutoff", "zero-cutoff", "negative-seed"],
    )
    def test_bad_initial_integer_rejected_by_name(
        self, config_file, tmp_path, capsys, monkeypatch, overrides, cause
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("initial data built before the spec was checked")

        monkeypatch.setattr("spheremap.evolution.generate_initial", no_data)
        out = tmp_path / "bad"
        argv = ["run", "--config", config_file, "--out", str(out)]
        for item in overrides:
            argv += ["--override", item]
        assert cli_main(argv) == 2
        assert not out.exists()
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_antipodal_initial_data_rejected_before_any_step(
        self, config_file, tmp_path, capsys, monkeypatch, d
    ):
        # a bump of amplitude 2 pi reaches s = -q at the centre point, where
        # no transport frame, so no Coulomb slice, exists
        def no_step(*args, **kwargs):
            raise AssertionError("stepped data with no Coulomb slice")

        monkeypatch.setattr("spheremap.evolution.rk4_update", no_step)
        out = tmp_path / "bad"
        rc = cli_main(["run", "--config", config_file, "--out", str(out),
                       "--override", f"grid.d={d}", "--override", "grid.n=8",
                       "--override", "initial.amplitude=6.283185307179586"])
        assert rc == 2
        assert not out.exists()
        point = ", ".join(["4"] * d)
        assert f"1 + s.q = 0.000e+00 at grid point ({point})" in capsys.readouterr().err

    def test_unusable_out_rejected_before_any_step(self, config_file, tmp_path, capsys,
                                                   monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped with an output directory that cannot exist")

        monkeypatch.setattr("spheremap.evolution.rk4_update", no_step)
        blocker = tmp_path / "F"
        blocker.write_text("a regular file")
        out = blocker / "out"
        assert cli_main(["run", "--config", config_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(out) in err
        assert blocker.read_text() == "a regular file"

    @pytest.mark.parametrize("d, n", [(2, 16), (4, 8)])
    def test_out_of_memory_for_the_data_names_the_grid(self, config_file, tmp_path, capsys,
                                                        monkeypatch, d, n):
        # the patch stands for an allocation too large for the machine
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("spheremap.evolution.generate_initial", no_memory)
        out = tmp_path / "big"
        rc = cli_main(["run", "--config", config_file, "--out", str(out),
                       "--override", f"grid.d={d}", "--override", f"grid.n={n}"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"grid.d={d}, grid.n={n}" in err
        assert f"{24 * n**d} bytes" in err

    def test_memory_error_in_the_step_loop_is_a_recorded_abort(self, config_file, tmp_path,
                                                               capsys, monkeypatch):
        # the patch stands for an allocation that fails at step 3; the rows
        # and snapshots of steps 0-2 are on disk
        calls = {"n": 0}

        def step(s, dt, work):
            calls["n"] += 1
            if calls["n"] == 3:
                raise MemoryError("no room for the stage")
            return step_rk4_projected(s, dt, work)

        monkeypatch.setattr("spheremap.evolution.step_rk4_projected", step)
        out = tmp_path / "oom"
        rc = cli_main(["run", "--config", config_file, "--out", str(out), "--override",
                       "time.steps=6", "--override", "run.cadence=1",
                       "--override", "run.snapshot_every=1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "run aborted: step 3, t = " in err
        assert "MemoryError: no room for the stage" in err
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 3
        assert sorted(os.listdir(out)) == ["diagnostics.csv"] + [
            f"snapshot_{k:08d}.bin" for k in range(3)]

    def test_interrupt_in_the_step_loop_is_a_recorded_abort(self, config_file, tmp_path,
                                                             capsys, monkeypatch):
        # the patch stands for a SIGINT that arrives during step 3
        calls = {"n": 0}

        def interrupted_update(s, dt, work):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return rk4_update(s, dt, work)

        monkeypatch.setattr("spheremap.evolution.rk4_update", interrupted_update)
        out = tmp_path / "sigint"
        rc = cli_main(["run", "--config", config_file, "--out", str(out), "--override",
                       "time.steps=6", "--override", "run.cadence=1",
                       "--override", "run.snapshot_every=1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "run aborted: step 3, t = " in err
        assert "KeyboardInterrupt" in err
        assert "grid point" not in err
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 3
        assert sorted(os.listdir(out)) == ["diagnostics.csv"] + [
            f"snapshot_{k:08d}.bin" for k in range(3)]

    def test_sigterm_in_the_step_loop_is_a_recorded_abort(self, config_file, tmp_path,
                                                          capsys, monkeypatch):
        # the process signals itself during step 3; run's handler is
        # installed for the command alone
        before = signal.getsignal(signal.SIGTERM)
        calls = {"n": 0}

        def terminated_update(s, dt, work):
            calls["n"] += 1
            if calls["n"] == 3:
                # without run's handler the signal would end the test session
                assert signal.getsignal(signal.SIGTERM) is not before
                os.kill(os.getpid(), signal.SIGTERM)
            return rk4_update(s, dt, work)

        monkeypatch.setattr("spheremap.evolution.rk4_update", terminated_update)
        out = tmp_path / "sigterm"
        rc = cli_main(["run", "--config", config_file, "--out", str(out), "--override",
                       "time.steps=6", "--override", "run.cadence=1",
                       "--override", "run.snapshot_every=1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "run aborted: step 3, t = " in err
        assert "SIGTERM" in err
        assert "grid point" not in err
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 3
        assert sorted(os.listdir(out)) == ["diagnostics.csv"] + [
            f"snapshot_{k:08d}.bin" for k in range(3)]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_negative_dt_steps_backwards(self, config_file, tmp_path):
        # the flow is time-reversible, so a stable negative step is legal
        out = tmp_path / "back"
        rc = cli_main(["run", "--config", config_file, "--out", str(out),
                       "--override", "time.dt=-0.001"])
        assert rc == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert float(lines[-1].split(",")[0]) == pytest.approx(-0.004)

    def test_nonfinite_connection_is_a_recorded_abort(self, config_file, tmp_path, capsys,
                                                      monkeypatch):
        # from the slice of step 2 on, the d_m v of the connection are NaN;
        # a slice takes 3d products in geometry: the d_m v, div a and d_m chi
        real_derivative = geometry.real_derivative
        calls = {"n": 0}

        def nan_derivative(grid, f, axis):
            calls["n"] += 1
            out = real_derivative(grid, f, axis)
            return np.full_like(out, np.nan) if calls["n"] > 2 * 3 * grid.d else out

        monkeypatch.setattr(geometry, "real_derivative", nan_derivative)
        out = tmp_path / "o"
        rc = cli_main(["run", "--config", config_file, "--out", str(out),
                       "--override", "run.cadence=1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "run aborted: step 2, t = " in err
        assert "ValueError: connection contains non-finite values" in err
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # t = 0 and step 1
        assert (out / "snapshot_00000002.bin").exists()

    def test_inadmissible_frame_is_a_recorded_abort(self, config_file, tmp_path, capsys,
                                                    monkeypatch):
        # from step 3 on the step puts s = -q at one point, where the
        # transport frame does not exist
        calls = {"n": 0}

        def antipodal_update(s, dt, work):
            calls["n"] += 1
            raw = rk4_update(s, dt, work)
            if calls["n"] >= 3:
                raw[:, 5, 7] = -s.q
            return raw

        monkeypatch.setattr("spheremap.evolution.rk4_update", antipodal_update)
        out = tmp_path / "o"
        rc = cli_main(["run", "--config", config_file, "--out", str(out),
                       "--override", "run.cadence=1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "run aborted: step 3, t = " in err
        assert "FrameDegenerateError" in err
        assert "1 + s.q = 0.000e+00 at grid point (5, 7)" in err
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # t = 0 and the two completed steps
        assert (out / "snapshot_00000002.bin").exists()
        assert (out / "snapshot_00000003.bin").exists()

    @pytest.mark.parametrize(
        "config, overrides",
        [
            (REFERENCE_CONFIG, ["initial.amplitude=0.1", "time.steps=400", "grid.n=16"]),
            (None, ["initial.kind=stereographic-pullback", "initial.amplitude=0.02",
                    "grid.n=32"]),
            (None, ["initial.kind=stereographic-pullback", "initial.amplitude=0.02",
                    "grid.d=4", "grid.n=8"]),
        ],
        ids=["bump-0.1-n16-400-steps", "stereographic-d2-n32", "stereographic-d4-n8"],
    )
    def test_data_past_the_old_projection_frame_complete(
        self, config_file, tmp_path, config, overrides
    ):
        # each of these left |s . q'| < 2^-5, where the projection frame
        # that slices were once built from exists
        out = tmp_path / "o"
        argv = ["run", "--config", config or config_file, "--out", str(out)]
        for item in overrides:
            argv += ["--override", item]
        assert cli_main(argv) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) > 2
        assert np.all(np.isfinite(np.loadtxt(lines[1:], delimiter=",")))


class TestCliVerify:
    def test_constant_map_residuals_vanish(self, tmp_path, capsys):
        g = Grid(d=2, n=16)
        s = generate_initial(InitialDataSpec(amplitude=0.0), g)
        path = str(tmp_path / "q.bin")
        save_snapshot(s.values, g, 0.0, path)
        assert cli_main(["verify", path, "--q", "0,0,1"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        for key, text in values.items():
            assert abs(float(text)) < 1e-12, key

    @pytest.mark.parametrize("flag", ["--q"])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag):
        g = Grid(d=2, n=16)
        path = str(tmp_path / "q.bin")
        save_snapshot(generate_initial(InitialDataSpec(amplitude=0.0), g).values, g, 0.0, path)
        assert cli_main(["verify", path, flag, "nan,0,1"]) == 2
        assert f"{flag} 'nan,0,1': expected three finite numbers" in capsys.readouterr().err

    def test_non_unit_base_point_rejected(self, tmp_path, capsys):
        g = Grid(d=2, n=16)
        path = str(tmp_path / "q.bin")
        save_snapshot(generate_initial(InitialDataSpec(amplitude=0.0), g).values, g, 0.0, path)
        assert cli_main(["verify", path, "--q", "0,0,2"]) == 2
        assert "--q '0,0,2': a base point must be a unit vector, length 2" in capsys.readouterr().err

    def test_map_through_the_antipode_rejected(self, tmp_path, capsys):
        g = Grid(d=2, n=16)
        path = str(tmp_path / "q.bin")
        s = generate_initial(InitialDataSpec(amplitude=2.0 * np.pi), g)
        save_snapshot(s.values, g, 0.0, path)
        assert cli_main(["verify", path, "--q", "0,0,1"]) == 2
        assert "1 + s.q = 0.000e+00 at grid point (8, 8)" in capsys.readouterr().err


# a (2, 8) snapshot: the 60-byte header and 3 * 8^2 float64 values
SNAPSHOT_BYTES = 60 + 8 * 3 * 8**2


class TestCorruptSnapshotProperty:
    """Whatever a truncation, one flipped bit or appended bytes do to a
    snapshot, ``verify`` exits 2 with a message that starts with the path."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edit=st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, SNAPSHOT_BYTES - 1)),
        st.tuples(st.just("flip"), st.integers(0, 8 * SNAPSHOT_BYTES - 1)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=32)),
    ))
    def test_verify_exits_2_naming_the_path(self, tmp_path, capsys, edit):
        g = Grid(d=2, n=8)
        path = tmp_path / "field.bin"
        save_snapshot(generate_initial(InitialDataSpec(amplitude=0.1), g).values, g, 0.5, str(path))
        blob = bytearray(path.read_bytes())
        assert len(blob) == SNAPSHOT_BYTES
        kind, where = edit
        if kind == "truncate":
            del blob[where:]
        elif kind == "flip":
            blob[where // 8] ^= 1 << (where % 8)
        else:
            blob += where
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert cli_main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: "), captured.err


class TestCliNorms:
    def test_norms_on_run_output(self, config_file, tmp_path, capsys):
        assert cli_main(["run", "--config", config_file]) == 0
        rc = cli_main(
            ["norms", "--dir", str(tmp_path / "out"), "--observable", "sminusq",
             "--direction", "1", "--p", "2", "--q-exp", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "L^(2,2)" in out
        value = float(out.strip().splitlines()[-1].split(" = ")[1])
        assert value > 0

    def test_psi_observable_with_modulation(self, config_file, tmp_path, capsys):
        assert cli_main(["run", "--config", config_file]) == 0
        rc = cli_main(
            ["norms", "--dir", str(tmp_path / "out"), "--observable", "psi1",
             "--direction", "-2", "--p", "inf", "--q-exp", "2", "--modulation-k", "1"]
        )
        # the four-snapshot record is too short for modulation shells
        assert rc == 2
        assert "too short" in capsys.readouterr().err

    @pytest.mark.parametrize("direction", ["0", "3", "-3"])
    def test_bad_direction_rejected_before_any_slice(
        self, config_file, tmp_path, capsys, monkeypatch, direction
    ):
        assert cli_main(["run", "--config", config_file]) == 0
        capsys.readouterr()

        def no_slice(*args, **kwargs):
            raise AssertionError("coulomb_slice called before the direction was checked")

        monkeypatch.setattr("spheremap.cli_io.coulomb_slice", no_slice)
        rc = cli_main(["norms", "--dir", str(tmp_path / "out"), "--observable", "psi1",
                       "--direction", direction])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"direction {direction} is not a signed coordinate axis of a 2-d grid" in err

    def test_snapshots_of_a_record_share_one_grid(self, config_file, tmp_path, monkeypatch):
        assert cli_main(["run", "--config", config_file]) == 0
        grids = []

        def recording_slice(s):
            grids.append(s.grid)
            return coulomb_slice(s)

        monkeypatch.setattr("spheremap.cli_io.coulomb_slice", recording_slice)
        rc = cli_main(["norms", "--dir", str(tmp_path / "out"), "--observable", "psi1",
                       "--direction", "1"])
        assert rc == 0
        assert len(grids) == len(list((tmp_path / "out").glob("snapshot_*.bin"))) >= 2
        assert all(g is grids[0] for g in grids)

    def test_snapshot_from_another_grid_rejected(self, config_file, tmp_path, capsys):
        assert cli_main(["run", "--config", config_file]) == 0
        capsys.readouterr()
        last = sorted((tmp_path / "out").glob("snapshot_*.bin"))[-1]
        other = Grid(d=2, n=8)
        save_snapshot(generate_initial(InitialDataSpec(amplitude=0.05), other).values,
                      other, 1.0, str(last))
        rc = cli_main(["norms", "--dir", str(tmp_path / "out"), "--observable", "psi1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{last}: grid mismatch" in err

    def test_non_finite_base_point_rejected_before_any_snapshot(
        self, config_file, tmp_path, capsys, monkeypatch
    ):
        assert cli_main(["run", "--config", config_file]) == 0
        capsys.readouterr()

        def no_load(*args, **kwargs):
            raise AssertionError("snapshot loaded before --q was checked")

        monkeypatch.setattr("spheremap.cli_io.load_snapshot", no_load)
        rc = cli_main(["norms", "--dir", str(tmp_path / "out"), "--q", "nan,0,1"])
        assert rc == 2
        assert "--q 'nan,0,1': expected three finite numbers" in capsys.readouterr().err

    def test_non_unit_base_point_rejected_before_any_snapshot(
        self, config_file, tmp_path, capsys, monkeypatch
    ):
        assert cli_main(["run", "--config", config_file]) == 0
        capsys.readouterr()

        def no_load(*args, **kwargs):
            raise AssertionError("snapshot loaded before --q was checked")

        monkeypatch.setattr("spheremap.cli_io.load_snapshot", no_load)
        rc = cli_main(["norms", "--dir", str(tmp_path / "out"), "--q", "0,0,2"])
        assert rc == 2
        assert "--q '0,0,2': a base point must be a unit vector, length 2" in capsys.readouterr().err

    @pytest.mark.parametrize("observable", ["sminusq", "psi1"])
    def test_snapshot_off_the_spacing_named(self, config_file, tmp_path, capsys, observable):
        # 5 steps with snapshot_every = 2 write snapshots 0, 2, 4 and the last, 5
        assert cli_main(["run", "--config", config_file, "--override", "time.steps=5"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        rc = cli_main(["norms", "--dir", str(out), "--observable", observable])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'snapshot_00000005.bin'}: t = "), err
        assert err.rstrip().endswith("record times must be uniform and increasing"), err

    @staticmethod
    def _norms_peak_bytes(tmp_path, count, grid, values):
        record = tmp_path / f"record-{count}"
        record.mkdir()
        for k in range(count):
            save_snapshot(values, grid, 0.1 * k, str(record / f"snapshot_{k:08d}.bin"))
        argv = ["norms", "--dir", str(record), "--observable", "psi1"]
        tracemalloc.start()
        try:
            assert cli_main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_psi1_record_keeps_one_component_per_snapshot(self, tmp_path, capsys):
        # each added snapshot costs one complex psi_1 row, not the d = 4
        # components of its psi stack, nor its values (3 real components):
        # a snapshot is dropped once its row is filled
        grid = Grid(d=4, n=8)
        values = generate_initial(InitialDataSpec(amplitude=0.02), grid).values
        peaks = {count: self._norms_peak_bytes(tmp_path, count, grid, values) for count in (3, 9)}
        component = np.empty(grid.shape, dtype=complex).nbytes
        per_snapshot = (peaks[9] - peaks[3]) / 6
        assert per_snapshot < 2 * component, (peaks, per_snapshot / component)


class TestCliSweep:
    def test_resolution_sweep_reports_ratios(self, config_file, tmp_path, capsys):
        rc = cli_main(
            ["sweep", "--config", config_file, "--vary", "grid.n=16,32",
             "--out", str(tmp_path / "sweepout")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        ratios = [
            float(line.rsplit("= ", 1)[1])
            for line in out.splitlines()
            if line.startswith("ratio[")
        ]
        assert ratios and all(r >= 10.0 for r in ratios)
        assert (tmp_path / "sweepout" / "sweep.csv").exists()

    def test_amplitude_sweep(self, config_file, tmp_path, capsys):
        rc = cli_main(
            ["sweep", "--config", config_file, "--vary",
             "initial.amplitude=0.02,0.05,0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("frame_ratio=") == 3

    def test_kind_sweep_writes_text_cells(self, config_file, tmp_path):
        rc = cli_main(
            ["sweep", "--config", config_file, "--vary",
             "initial.kind=geodesic-bump,band-limited-random",
             "--override", "initial.amplitude=0.02", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("initial.kind,res_compatibility,res_curvature,res_psi0,"
                            "res_cross,div_a,frame_ratio")
        assert [line.split(",")[0] for line in lines[1:]] == [
            "geodesic-bump", "band-limited-random"]

    def test_failing_value_named(self, config_file, capsys):
        # the second value puts s = -q at the centre point
        rc = cli_main(["sweep", "--config", config_file, "--vary",
                       "initial.amplitude=0.02,6.283185307179586"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: initial.amplitude = 6.283185307179586: " in err
        assert "at grid point (8, 8)" in err

    def test_bad_value_rejected_before_any_slice(self, config_file, capsys):
        rc = cli_main(["sweep", "--config", config_file, "--vary",
                       "initial.amplitude=0.02,abc"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: initial.amplitude = abc: " in err

    def test_unusable_out_rejected_before_any_slice(self, config_file, tmp_path, capsys,
                                                    monkeypatch):
        def no_slice(*args, **kwargs):
            raise AssertionError("swept a value with an output directory that cannot exist")

        monkeypatch.setattr("spheremap.cli_io.coulomb_slice", no_slice)
        blocker = tmp_path / "F"
        blocker.write_text("a regular file")
        out = blocker / "out"
        rc = cli_main(["sweep", "--config", config_file, "--vary", "grid.n=16,32",
                       "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert str(out) in captured.err

    def test_rows_before_a_failing_value_written(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "swout"
        rc = cli_main(["sweep", "--config", config_file, "--vary",
                       "initial.amplitude=0.02,6.283185307179586",
                       "--override", "grid.n=16", "--out", str(out_dir)])
        assert rc == 2
        assert "error: initial.amplitude = 6.283185307179586: " in capsys.readouterr().err
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("initial.amplitude,res_compatibility,res_curvature,res_psi0,"
                            "res_cross,div_a,frame_ratio")
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.02]

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 12), (4, 8)])
    def test_random_data_amplitude_sweep(self, config_file, capsys, d, n):
        rc = cli_main(["sweep", "--config", config_file, "--vary",
                       "initial.amplitude=0.01,0.02,0.04",
                       "--override", "initial.kind=band-limited-random",
                       "--override", f"grid.d={d}", "--override", f"grid.n={n}"])
        assert rc == 0
        assert capsys.readouterr().out.count("frame_ratio=") == 3


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli_quietly(self):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "spheremap", "--help"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stderr == ""
        assert "usage: spheremap" in done.stdout
