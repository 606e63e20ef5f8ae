"""Self-tests of the benchmark's output checks.

Each check must accept a real program output and reject it after one
small corruption.  Run from the root of the checkout::

    python3 -m pytest -q e2ebench/test_checks.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
from repro.analysis.mergetree import MergeTreeWorkload  # noqa: E402
from repro.analysis.statistics import StatisticsWorkload  # noqa: E402
from repro.data import hcci_proxy  # noqa: E402
from repro.obs import JsonlExporter  # noqa: E402
from repro.runtimes import SerialController  # noqa: E402

THRESHOLD = 0.45


@pytest.fixture(scope="module")
def field():
    return hcci_proxy((16, 16, 16), n_features=8, feature_sigma=2.0, seed=3)


@pytest.fixture(scope="module")
def segmentation(field):
    wl = MergeTreeWorkload(field, 16, THRESHOLD, valence=4)
    seg = wl.assemble(wl.run(SerialController()))
    assert len(np.unique(seg[seg >= 0])) >= 2, "field needs two features"
    return seg


@pytest.fixture(scope="module")
def components(field):
    return checks.superlevel_components(field, THRESHOLD)


def test_partition_accepts_the_program_output(segmentation, components):
    checks.check_partition(segmentation, components)


def test_partition_rejects_one_voxel_relabelled_to_a_new_label(segmentation, components):
    bad = segmentation.copy()
    bad[tuple(np.argwhere(bad >= 0)[0])] = bad.max() + 1
    with pytest.raises(checks.CheckFailed):
        checks.check_partition(bad, components)


def test_partition_rejects_one_voxel_moved_to_another_feature(segmentation, components):
    bad = segmentation.copy()
    labels = np.unique(bad[bad >= 0])
    voxel = tuple(np.argwhere(bad == labels[0])[0])
    bad[voxel] = labels[1]
    with pytest.raises(checks.CheckFailed):
        checks.check_partition(bad, components)


def test_partition_rejects_one_voxel_dropped_below_threshold(segmentation, components):
    bad = segmentation.copy()
    bad[tuple(np.argwhere(bad >= 0)[0])] = -1
    with pytest.raises(checks.CheckFailed):
        checks.check_partition(bad, components)


def test_offsets_accept_truth_and_reject_one_shifted_offset():
    truth = np.array([[0, 0, 0], [1, -2, 0], [0, 2, 0], [-1, 1, 0]], dtype=np.int64)
    checks.check_offsets(truth.copy(), truth)
    bad = truth.copy()
    bad[2, 1] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_offsets(bad, truth)


@pytest.fixture(scope="module")
def stats_run(field, tmp_path_factory):
    wl = StatisticsWorkload(field, 16, valence=4)
    path = str(tmp_path_factory.mktemp("trace") / "run.jsonl")
    exporter = JsonlExporter(path)
    result = wl.run(SerialController(sinks=[exporter]))
    exporter.close()
    with open(path) as fp:
        lines = fp.read().splitlines()
    return wl, wl.global_stats(result), lines


def test_summary_accepts_the_program_output(field, stats_run):
    wl, stats, _ = stats_run
    checks.check_summary(stats, field, wl.bins, wl.bin_range)


@pytest.mark.parametrize(
    "change",
    [
        {"mean": lambda s: s.mean * (1 + 1e-9)},
        {"m2": lambda s: s.m2 * (1 + 1e-9)},
        {"count": lambda s: s.count - 1},
        {"minimum": lambda s: s.minimum + 1e-6},
        {"maximum": lambda s: s.maximum - 1e-6},
        {"histogram": lambda s: s.histogram + np.eye(len(s.histogram), dtype=np.int64)[0]},
    ],
    ids=["mean", "variance", "count", "min", "max", "histogram"],
)
def test_summary_rejects_a_perturbed_field(field, stats_run, change):
    wl, stats, _ = stats_run
    bad = dataclasses.replace(stats, **{k: f(stats) for k, f in change.items()})
    with pytest.raises(checks.CheckFailed):
        checks.check_summary(bad, field, wl.bins, wl.bin_range)


def test_trace_accepts_the_program_output(stats_run):
    wl, _, lines = stats_run
    assert checks.check_trace(lines, wl.graph.size()) == len(lines)


def test_trace_rejects_a_dropped_line(stats_run):
    wl, _, lines = stats_run
    dropped = next(i for i, line in enumerate(lines) if '"task_finished"' in line)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace(lines[:dropped] + lines[dropped + 1 :], wl.graph.size())


def test_trace_rejects_a_duplicated_or_truncated_line(stats_run):
    wl, _, lines = stats_run
    i = next(i for i, line in enumerate(lines) if '"task_finished"' in line)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace(lines + [lines[i]], wl.graph.size())
    with pytest.raises(checks.CheckFailed):
        checks.check_trace(lines[:-1] + [lines[-1][:-5]], wl.graph.size())


def test_task_count_rejects_a_missing_task():
    checks.check_task_count(55, 55)
    with pytest.raises(checks.CheckFailed):
        checks.check_task_count(54, 55)
