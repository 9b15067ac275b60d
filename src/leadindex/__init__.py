"""Leadership-index scoring for publication datasets.

Computes per-investigator academic output (toughness-weighted impact
factors), equivalent managed time, efficiency, and their geometric-mean
leadership index, plus cohort, trend, binning and correlation reports.
"""

from .analysis import (
    BinSeries,
    CohortReport,
    CohortSummary,
    Grouping,
    TrendSeries,
    age_band,
    bin_by_time,
    cohort_report,
    funding_correlations,
    trend,
)
from .credit import CreditScenario, a_index, group_size_for_credit, scenario_share
from .errors import (
    DataValidationError,
    FileFormatError,
    LeadIndexError,
    UndefinedMetricError,
)
from .metrics import (
    ScoredPaper,
    efficiency,
    equivalent_time,
    leadership,
    leadership_from_funding,
    output_raw,
    output_weighted,
    score_all,
)
from .model import (
    Gender,
    GrantRecord,
    IFFallback,
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    Rank,
    ScoreCard,
    ValidatedDataset,
    aggregate_grants,
    apply_funding,
    validate_dataset,
)
from .stats import mean_sd, pearson, significance_mark, welch_t_test
from .toughness import (
    DivisorMode,
    ToughnessTable,
    build_table,
    estimate_paper_counts,
    weight_of,
    weighted_if,
)

__version__ = "0.1.0"

__all__ = [
    "BinSeries", "CohortReport", "CohortSummary", "CreditScenario",
    "DataValidationError", "DivisorMode", "FileFormatError", "Gender",
    "GrantRecord", "Grouping", "IFFallback", "InvestigatorProfile",
    "JournalYearIF", "LeadIndexError", "PublicationRecord", "Rank",
    "ScoreCard", "ScoredPaper", "ToughnessTable", "TrendSeries",
    "UndefinedMetricError", "ValidatedDataset",
    "a_index", "age_band", "aggregate_grants", "apply_funding",
    "bin_by_time", "build_table", "cohort_report", "efficiency",
    "equivalent_time", "estimate_paper_counts", "funding_correlations",
    "group_size_for_credit", "leadership", "leadership_from_funding",
    "mean_sd", "output_raw", "output_weighted", "pearson", "scenario_share",
    "score_all", "significance_mark", "trend", "validate_dataset",
    "weight_of", "weighted_if", "welch_t_test",
]
