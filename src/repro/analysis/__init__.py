"""Diagnostics: representation geometry, calibration, and sweep analysis."""

from .calibration import (
    confidence_threshold_sweep,
    expected_calibration_error,
)
from .plots import ascii_curve
from .stats import (
    PairedTest,
    holm_correction,
    paired_t_test,
    t_sf,
    wilcoxon_signed_rank,
)
from .tables import (
    SignificanceRow,
    SweepCell,
    analyze_cache,
    cross_seed_table,
    load_sweep_records,
    render_latex,
    render_markdown,
    render_significance_latex,
    render_significance_markdown,
    significance_report,
)
from .representation import (
    RepresentationReport,
    centroid_separability,
    cosine_separation_gap,
    knn_label_purity,
    representation_report,
    silhouette_score,
)

__all__ = [
    "RepresentationReport", "representation_report",
    "cosine_separation_gap", "silhouette_score", "knn_label_purity",
    "centroid_separability",
    "expected_calibration_error", "confidence_threshold_sweep",
    "ascii_curve",
    "PairedTest", "paired_t_test", "wilcoxon_signed_rank",
    "holm_correction", "t_sf",
    "SweepCell", "SignificanceRow", "load_sweep_records",
    "cross_seed_table", "significance_report", "analyze_cache",
    "render_markdown", "render_latex",
    "render_significance_markdown", "render_significance_latex",
]
