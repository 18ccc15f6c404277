"""Formatting the experiment results the way the paper's figures report them.

* "Performance comparison" figures (4, 6, 8, 10, 12) plot every evaluation as
  (elapsed process time, measured runtime) per tuner — :func:`trajectory_csv`
  emits the exact series, :func:`ascii_trajectory` renders a terminal scatter,
  and :func:`process_summary_table` condenses each tuner's trajectory.
* "Minimum runtimes" figures (5, 7, 9, 11, 13) compare each tuner's best —
  :func:`min_runtime_table`, including the paper's "tensor size" notation
  (``400x50`` for the solvers, a triple for 3mm).
"""

from __future__ import annotations

import io
import math
from typing import TYPE_CHECKING

from repro.common.tabulate import format_table

if TYPE_CHECKING:  # the figure list is read without loading the session stack
    from repro.experiments.runner import ExperimentResult, TunerRun

#: Map experiment id -> (kernel, size, paper figure numbers).
EXPERIMENT_FIGURES: dict[str, tuple[str, str, str]] = {
    "lu-large": ("lu", "large", "Figures 4-5"),
    "lu-extralarge": ("lu", "extralarge", "Figures 6-7"),
    "cholesky-large": ("cholesky", "large", "Figures 8-9"),
    "cholesky-extralarge": ("cholesky", "extralarge", "Figures 10-11"),
    "3mm-extralarge": ("3mm", "extralarge", "Figures 12-13"),
}


def format_tensor_size(kernel: str, config: dict[str, int]) -> str:
    """The paper's "tensor size" notation for a best configuration."""
    if kernel in ("lu", "cholesky"):
        return f"{config['P0']}x{config['P1']}"
    if kernel == "3mm":
        return (
            f"({config['P0']}x{config['P1']}, "
            f"{config['P2']}x{config['P3']}, "
            f"{config['P4']}x{config['P5']})"
        )
    return ", ".join(f"{k}={v}" for k, v in sorted(config.items()))


def min_runtime_table(result: ExperimentResult) -> str:
    """The "Minimum runtimes" figure as a table."""
    rows = []
    for name, run in result.runs.items():
        rows.append(
            [
                name,
                f"{run.best_runtime:.4g}",
                format_tensor_size(result.kernel, run.best_config),
                run.n_evals,
            ]
        )
    rows.sort(key=lambda r: float(r[1]))
    return format_table(
        rows,
        headers=["tuner", "best runtime (s)", "tensor size", "evals"],
        title=f"Minimum runtimes — {result.kernel} / {result.size_name}",
    )


def process_summary_table(result: ExperimentResult) -> str:
    """Condensed "autotuning process over time" comparison."""
    rows = []
    for name, run in result.runs.items():
        ok_rts = [rt for _, rt in run.trajectory if math.isfinite(rt)]
        rows.append(
            [
                name,
                run.n_evals,
                f"{run.total_time:.1f}",
                f"{min(ok_rts):.4g}" if ok_rts else "-",
                f"{_median(ok_rts):.4g}" if ok_rts else "-",
                f"{max(ok_rts):.4g}" if ok_rts else "-",
            ]
        )
    rows.sort(key=lambda r: float(r[2]))
    return format_table(
        rows,
        headers=["tuner", "evals", "process time (s)", "min rt", "median rt", "max rt"],
        title=f"Autotuning process — {result.kernel} / {result.size_name}",
    )


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def trajectory_csv(result: ExperimentResult) -> str:
    """CSV of every evaluation: tuner, eval index, elapsed, runtime."""
    buf = io.StringIO()
    buf.write("tuner,eval,elapsed_s,runtime_s\n")
    for name, run in result.runs.items():
        for i, (elapsed, rt) in enumerate(run.trajectory):
            rt_s = f"{rt:.6g}" if math.isfinite(rt) else "failed"
            buf.write(f"{name},{i},{elapsed:.3f},{rt_s}\n")
    return buf.getvalue()


def ascii_trajectory(
    run: TunerRun, width: int = 72, height: int = 14, log_y: bool = True
) -> str:
    """A terminal scatter of one tuner's (process time, runtime) evaluations."""
    pts = [(t, rt) for t, rt in run.trajectory if math.isfinite(rt) and rt > 0]
    if not pts:
        return f"{run.tuner}: no successful evaluations"
    xs = [p[0] for p in pts]
    ys = [math.log10(p[1]) if log_y else p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y_hi - y) / y_span * (height - 1)))
        grid[row][col] = "*"
    unit = "log10(s)" if log_y else "s"
    lines = [f"{run.tuner} — runtime [{unit}] vs process time [s]"]
    for r, row in enumerate(grid):
        label = y_hi - r / (height - 1) * y_span if height > 1 else y_hi
        lines.append(f"{label:8.2f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(f"{'':9}{x_lo:<12.1f}{'':{max(0, width - 24)}}{x_hi:>12.1f}")
    return "\n".join(lines)
