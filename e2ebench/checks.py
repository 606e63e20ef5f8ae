"""Output checks of the end-to-end benchmark.

Every check compares a program output with a computation made here,
apart from the program, or with a property the method must have.  None
compares with a stored copy of an earlier output.  A failed check raises
:class:`CheckFailed` with a message naming what differs.
"""

from __future__ import annotations

import json

import numpy as np
from scipy import ndimage


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independent computation."""


def check_task_count(executed: int, expected: int) -> None:
    """Every task of the graph ran exactly once (no retries, no drops)."""
    if executed != expected:
        raise CheckFailed(f"{executed} tasks executed, graph has {expected}")


# ---------------------------------------------------------------------- #
# Merge tree: segmentation partition
# ---------------------------------------------------------------------- #


def superlevel_components(field: np.ndarray, threshold: float) -> np.ndarray:
    """6-connected components of ``field >= threshold`` (0 below it).

    This is the benchmark's own labelling with ``scipy.ndimage.label``;
    the merge tree's segmentation at ``threshold`` must induce the same
    partition of the above-threshold voxels, whatever labels it uses.
    """
    structure = ndimage.generate_binary_structure(3, 1)
    components, _ = ndimage.label(field >= threshold, structure=structure)
    return components


def check_partition(segmentation: np.ndarray, components: np.ndarray) -> None:
    """``segmentation`` (-1 below threshold) partitions the voxels as
    ``components`` (0 below threshold) does.

    Two labellings agree as partitions when they mark the same voxels and
    the pairs ``(label, component)`` form a one-to-one map.
    """
    if segmentation.shape != components.shape:
        raise CheckFailed(
            f"segmentation shape {segmentation.shape} != field shape "
            f"{components.shape}"
        )
    above = components > 0
    if not np.array_equal(segmentation >= 0, above):
        n = int(np.count_nonzero((segmentation >= 0) != above))
        raise CheckFailed(f"{n} voxels disagree on being above the threshold")
    seg = segmentation[above]
    comp = components[above]
    n_seg = len(np.unique(seg))
    n_comp = len(np.unique(comp))
    n_pairs = len(np.unique(np.stack([seg, comp.astype(seg.dtype)]), axis=1).T)
    if not n_seg == n_comp == n_pairs:
        raise CheckFailed(
            f"partition differs: {n_seg} segments, {n_comp} components, "
            f"{n_pairs} distinct (segment, component) pairs"
        )


# ---------------------------------------------------------------------- #
# Registration: recovered offsets
# ---------------------------------------------------------------------- #


def check_offsets(recovered: np.ndarray, truth: np.ndarray) -> None:
    """The recovered per-volume offsets equal the generator's jitter."""
    recovered = np.asarray(recovered)
    if recovered.shape != truth.shape or not np.array_equal(recovered, truth):
        bad = (
            np.argwhere(np.any(recovered != truth, axis=1)).ravel().tolist()
            if recovered.shape == truth.shape
            else "shape"
        )
        raise CheckFailed(f"offsets differ from the ground truth at {bad}")


# ---------------------------------------------------------------------- #
# Statistics: summary and trace
# ---------------------------------------------------------------------- #


def check_summary(stats, field: np.ndarray, bins: int, bin_range) -> None:
    """count, mean, variance, min, max and histogram equal numpy's over
    the whole field.  Means and variances are compared to 1e-12 relative
    (the reduction adds in another order); everything else exactly."""
    flat = field.ravel()
    expect_hist, _ = np.histogram(flat, bins=bins, range=bin_range)
    if stats.count != flat.size:
        raise CheckFailed(f"count {stats.count} != {flat.size}")
    for name, got, want in (
        ("mean", stats.mean, float(flat.mean())),
        ("variance", stats.variance, float(flat.var())),
    ):
        if not np.isclose(got, want, rtol=1e-12, atol=0.0):
            raise CheckFailed(f"{name} {got!r} != numpy {want!r}")
    if stats.minimum != flat.min() or stats.maximum != flat.max():
        raise CheckFailed(
            f"extrema ({stats.minimum}, {stats.maximum}) != numpy "
            f"({flat.min()}, {flat.max()})"
        )
    if not np.array_equal(stats.histogram, expect_hist):
        raise CheckFailed("histogram differs from numpy.histogram")


def check_trace(lines, n_tasks: int) -> int:
    """Every line is a JSON event and each task ``0..n_tasks-1`` has
    exactly one ``task_finished``.  Returns the number of events."""
    finished = np.zeros(n_tasks, dtype=np.int64)
    n_events = 0
    for i, line in enumerate(lines):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"trace line {i + 1} is not JSON: {exc}") from None
        n_events += 1
        if event.get("type") == "task_finished":
            task = event.get("task", -1)
            if not 0 <= task < n_tasks:
                raise CheckFailed(f"task_finished for unknown task {task}")
            finished[task] += 1
    wrong = np.flatnonzero(finished != 1)
    if wrong.size:
        raise CheckFailed(
            f"{wrong.size} tasks without exactly one task_finished "
            f"(first: task {int(wrong[0])}, seen {int(finished[wrong[0]])})"
        )
    return n_events
