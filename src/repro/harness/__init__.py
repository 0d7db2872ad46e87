"""Experiment harness: parameters, rig assembly, per-figure runners."""

from repro.harness.background import BackgroundKernelLoad
from repro.harness.grid import CellSpec, run_cells
from repro.harness.export import (
    runs_from_csv,
    runs_from_json,
    runs_to_csv,
    runs_to_json,
)
from repro.harness.sanity import (
    SanityCheck,
    SanityReport,
    dual_spin_ceiling_w,
    run_sanity_checks,
    sanity_runs,
)
from repro.harness.experiments import (
    BufferSweepResult,
    ConsumerScalingResult,
    MultiComparisonResult,
    ProfileStudyResult,
    WakeupAccountingResult,
    run_buffer_sweep,
    run_consumer_scaling,
    run_multi_comparison,
    run_profile_study,
    run_wakeup_accounting,
)
from repro.harness.parallel import (
    ParallelExecutor,
    WorkerCrashError,
    resolve_jobs,
)
from repro.harness.params import StandardParams, quick_params
from repro.harness.pipelines import (
    PIPELINE_IMPLEMENTATIONS,
    PIPELINE_TOPOLOGIES,
    PipelineStudyResult,
    run_pipeline,
    run_pipeline_study,
)
from repro.harness.report import FullReport, build_full_report
from repro.harness.runner import (
    MULTI_IMPLEMENTATIONS,
    STUDY_IMPLEMENTATIONS,
    Rig,
    baseline_power_w,
    run_multi,
)
from repro.harness.tables import render_comparison, render_series, render_table
from repro.harness.tuning import ProbePoint, TuningResult, suggest_slot_size

__all__ = [
    "BackgroundKernelLoad",
    "BufferSweepResult",
    "CellSpec",
    "ConsumerScalingResult",
    "FullReport",
    "MULTI_IMPLEMENTATIONS",
    "MultiComparisonResult",
    "PIPELINE_IMPLEMENTATIONS",
    "PIPELINE_TOPOLOGIES",
    "ParallelExecutor",
    "PipelineStudyResult",
    "ProfileStudyResult",
    "Rig",
    "STUDY_IMPLEMENTATIONS",
    "SanityCheck",
    "SanityReport",
    "TuningResult",
    "ProbePoint",
    "StandardParams",
    "WakeupAccountingResult",
    "WorkerCrashError",
    "baseline_power_w",
    "build_full_report",
    "dual_spin_ceiling_w",
    "quick_params",
    "run_sanity_checks",
    "runs_from_csv",
    "runs_from_json",
    "runs_to_csv",
    "runs_to_json",
    "sanity_runs",
    "render_comparison",
    "render_series",
    "resolve_jobs",
    "render_table",
    "run_buffer_sweep",
    "run_cells",
    "run_consumer_scaling",
    "run_multi",
    "run_multi_comparison",
    "run_pipeline",
    "run_pipeline_study",
    "run_profile_study",
    "run_wakeup_accounting",
    "suggest_slot_size",
]
