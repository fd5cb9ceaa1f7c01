"""Self-tests of the benchmark: span arithmetic, the gate, the seed and the manifest.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import PER_LAYER, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    Q, RESIDUAL_COLUMNS, WORKLOADS, check_command, load_reference, seed_override,
    transverse_direction,
)


def test_self_time_subtracts_the_union_of_children():
    # 0: root [0, 10]; 1: [1, 3] and 2: [2, 4] overlap; 3: [5, 6]; 4: [1.5, 2] in 1
    starts = [0.0, 1.0, 2.0, 5.0, 1.5]
    ends = [10.0, 3.0, 4.0, 6.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([6.0, 1.5, 2.0, 1.0, 0.5])


def test_self_time_clips_children_to_the_parent():
    assert self_times([0.0, -1.0], [2.0, 1.0], [-1, 0]) == pytest.approx([1.0, 2.0])


def test_tracer_records_parents_and_transforms():
    tr = Tracer()

    class FakeGrid:
        n, d = 8, 2

    fft = tr.transform("spectral.fft", lambda grid, f: f.astype(complex))
    inner = tr.span("inner", lambda: fft(FakeGrid(), np.zeros((3, 8, 8))))
    outer = tr.span("outer", lambda: [inner(), inner()])
    outer()
    names = [tr.names[i] for i in tr.span_name]
    assert names == ["outer", "inner", "spectral.fft", "inner", "spectral.fft"]
    assert list(tr.span_parent) == [-1, 0, 1, 0, 3]
    assert list(tr.span_transforms) == [2, 1, 1, 1, 1]
    assert tr.transforms == 2 and tr.real_transforms == 2 and tr.points == 2 * 192


def test_install_reports_a_missing_function_as_absent(monkeypatch):
    run.load_cli()
    import spheremap.evolution
    import spheremap.gauge

    original = spheremap.evolution.rk4_update
    monkeypatch.delattr(spheremap.gauge, "a0_from_psi")
    tr = Tracer()
    tr.install()
    try:
        assert spheremap.evolution.rk4_update is not original
        assert "gauge.a0_from_psi" in tr.absent
    finally:
        tr.uninstall()
    assert spheremap.evolution.rk4_update is original


def _write_diagnostics(path, reference, scale_energy_row=None):
    rows = len(reference["energy"])
    header = ["t", "energy", "l2_dist_q", "critical_norm", *RESIDUAL_COLUMNS]
    lines = [",".join(header)]
    for i in range(rows):
        energy = reference["energy"][i]
        if i == scale_energy_row:
            energy *= 1.0 + 1e-6
        values = [0.1 * i, energy, reference["l2_dist_q"][i], reference["critical_norm"][i]]
        values += [1e-18] * len(RESIDUAL_COLUMNS)
        lines.append(",".join(repr(v) for v in values))
    path.write_text("\n".join(lines) + "\n")


def test_gate_accepts_the_reference_and_rejects_a_perturbed_row(tmp_path):
    workload = WORKLOADS["flow-d2"]
    reference = load_reference(str(run.REFERENCE))["flow-d2"]
    argv = ["run"]
    _write_diagnostics(tmp_path / "diagnostics.csv", reference)
    assert check_command(workload, argv, 0, "", str(tmp_path), reference) == []
    _write_diagnostics(tmp_path / "diagnostics.csv", reference, scale_energy_row=7)
    problems = check_command(workload, argv, 0, "", str(tmp_path), reference)
    assert any("energy row 7" in p for p in problems)


def test_gate_rejects_a_nonzero_exit(tmp_path):
    workload = WORKLOADS["monitor-d4"]
    assert check_command(workload, ["verify"], 2, "", str(tmp_path), {}) == [
        "verify exited with code 2"
    ]


def test_gate_rejects_missing_outputs(tmp_path):
    workload = WORKLOADS["msm-d2"]
    reference = load_reference(str(run.REFERENCE))["msm-d2"]
    problems = check_command(workload, ["run"], 0, "", str(tmp_path), reference)
    assert len(problems) == 1 and "unreadable" in problems[0]


def test_gate_checks_verify_ceilings_and_norms():
    workload = WORKLOADS["monitor-d4"]
    good = "".join(f"{k} = {v / 10!r}\n" for k, v in workload.verify_ceilings.items())
    assert check_command(workload, ["verify"], 0, good, "", {}) == []
    bad = good.replace("res_psi0 = ", "res_psi0 = 1", 1)
    assert check_command(workload, ["verify"], 0, bad, "", {})
    assert check_command(workload, ["norms"], 0, "L = 0.02\nX_1 = 0.03\n", "", {}) == []
    assert check_command(workload, ["norms"], 0, "L = 0.02\nX_1 = nan\n", "", {})


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 2**31 - 1])
def test_seed_gives_a_unit_direction_orthogonal_to_q(seed):
    u = transverse_direction(seed)
    assert all(type(c) is float for c in u)
    assert abs(sum(c * c for c in u) - 1.0) < 1e-15
    assert sum(a * b for a, b in zip(u, Q)) == 0.0
    text = seed_override(seed).split("=", 1)[1]
    assert tuple(float(c) for c in text.split(",")) == u
    assert transverse_direction(seed) == u != transverse_direction(seed + 1)


def test_manifest_matches_what_the_benchmark_prints():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} == PER_LAYER
    assert manifest["paths"] == [os.path.basename(HERE)]
