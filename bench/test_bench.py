"""Tests of the benchmark itself: generators, workloads at a tiny size, tracer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import synth
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(
    record_seconds=8.0,
    batch=16,
    per_class=20,
    infer_pool=8,
    check_windows=2,
    replay_steps=2,
    setup_repeats=6,
)


def positions():
    from dagam.layouts import build_62_channel_layout

    return build_62_channel_layout().positions


def test_raw_generator_is_deterministic_per_seed():
    a, b, c = (synth.RawGenerator(seed, positions(), 4.0, 1000.0, 6).next() for seed in (3, 3, 4))
    assert a[0].shape == (62, 4000)
    assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]
    assert not np.array_equal(a[0], c[0])


def test_de_dataset_is_deterministic_and_standardised_per_subject():
    a = synth.de_dataset(5, positions(), n_subjects=3, per_class=10)
    b = synth.de_dataset(5, positions(), n_subjects=3, per_class=10)
    c = synth.de_dataset(6, positions(), n_subjects=3, per_class=10)
    assert a.x.shape == (90, 62, 5)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.label, b.label)
    assert not np.array_equal(a.x, c.x)
    for s in range(3):
        block = a.x[a.subject == s]
        np.testing.assert_allclose(block.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(block.std(axis=0), 1.0)


def test_every_class_pattern_touches_its_regions():
    masks = synth.regions(positions())
    assert all(mask.any() for mask in masks.values())
    patterns = synth.class_patterns(positions())
    assert np.abs(patterns[0]).sum() > 0 and np.abs(patterns[2]).sum() > 0
    assert not patterns[1].any()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize(
    # An untraced run must leave TAIL_BEYOND operations beyond its tail percentile.
    "trace, section, seconds", [(False, "end_to_end", 2.5), (True, "per_layer", 0.6)]
)
def test_workload_emits_exactly_the_named_metrics(name, trace, section, seconds):
    result = workloads.run(name, 11, seconds, trace, ROOT / "src", TINY)
    assert result.correct, result.lines
    assert result.failed == 0 and result.attempted >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: u for k, (v, u) in result.metrics.items()}
    assert got == expected
    assert all(np.isfinite(v) for v, _ in result.metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in result.metrics.values())
    json.dumps(result.summary())


def test_tracer_restores_modules_and_catches_a_missed_entry_point():
    with workloads.own_dagam_imports():
        prog, _, _ = workloads.set_up(0)
        before = workloads.module_state(prog)
        unwrapped_relu = prog.ops.relu
        tracer = Tracer(prog.ops, prog.model, prog.features)
        tracer.install()
        try:
            x = prog.tensor.Tensor(np.ones((2, 2)))
            prog.ops.relu(x)
            assert tracer.take().unmatched_ops() == {}
            unwrapped_relu(x)  # like a default argument bound at import
            assert tracer.take().unmatched_ops() == {"relu": (0, 1)}
        finally:
            tracer.restore()
        after = workloads.module_state(prog)
        assert before.keys() == after.keys()
        assert all(before[k] is after[k] for k in before)


def test_a_tail_with_fewer_than_ten_operations_beyond_it_is_a_problem():
    assert workloads.thin_tail("features", [0.1] * 20) == []
    assert workloads.thin_tail("features", [0.1] * 19) != []
    assert workloads.thin_tail("train", [0.1] * 100) == []
    assert workloads.thin_tail("train", [0.1] * 99) != []
    assert workloads.thin_tail("infer", [0.1] * 1000) == []
    assert workloads.thin_tail("infer", [0.1] * 999) != []


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "infer", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
