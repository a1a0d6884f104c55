"""Noun sense disambiguation by conceptual density over a noun taxonomy."""

from .baselines import (
    FrequencyTable,
    SalienceTable,
    analytic_random_expectation,
    build_frequency,
    build_salience,
    most_frequent_baseline,
    mutual_constraint_assignment,
    random_baseline,
    sussna_baseline,
    yarowsky_baseline,
)
from .corpus import (
    CorpusError,
    CorpusStats,
    Document,
    ExtractedNouns,
    SemcorToken,
    SenseKey,
    corpus_stats,
    extract_nouns,
    parse_plain,
    parse_semcor,
    serialize_semcor,
)
from .density import (
    ConfigError,
    DensityParams,
    DensityScore,
    Lattice,
    NhypMode,
    conceptual_density,
    score_candidates,
)
from .disambiguator import (
    Assignment,
    Method,
    NounOccurrence,
    Outcome,
    Window,
    apply_random_fallback,
    build_window,
    disambiguate_document,
    disambiguate_window,
    write_assignments,
)
from .evaluation import (
    EvalReport,
    Level,
    Population,
    compare,
    merge_reports,
    score,
)
from .taxonomy import (
    RelationMode,
    SubhierarchyMetrics,
    Taxonomy,
    TaxonomyError,
    load_taxonomy,
    solve_nhyp,
)

__version__ = "0.1.0"
