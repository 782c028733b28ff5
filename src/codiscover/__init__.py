"""Co-occurring object discovery over region-feature embeddings.

Builds concept groups from caption corpora, discovers co-occurring regions
across grouped images via text-guided similarity and a learned prototype
head, trains the head with region-word and image-text alignment losses, and
evaluates discovery quality against oracle-labeled synthetic scenarios.
"""

from .core import (
    DiscoveryHead,
    OpenVocabClassifier,
    baseline_max_size,
    baseline_region_word,
    head_forward,
    heuristic_picks,
    image_text_loss,
    region_word_loss,
    similarity_rows,
    text_guide_weights,
    text_guided_similarity,
    unit_rows,
)
from .corpus import (
    CaptionRecord,
    ConceptGroupIndex,
    Lexicon,
    MiniGroup,
    build_concept_index,
    extract_concepts,
    load_index,
    parse_corpus,
    sample_mini_group,
    save_index,
)
from .errors import CodiscoverError, ConfigError, FormatError
from .evaluation import (
    AblationRow,
    EvalReport,
    ablate,
    compare_strategies,
    iou,
    write_ablation_csv,
    write_report_csv,
    write_report_json,
)
from .scenario import (
    RegionFeatureSet,
    Scenario,
    ScenarioConfig,
    ScenarioTruth,
    TextEmbeddingTable,
    generate_scenario,
    load_features,
    load_features_tsv,
    load_text_embeddings,
    save_features,
    save_features_tsv,
    save_text_embeddings,
)
from .training import (
    BatchLoss,
    GradientBundle,
    MetricRow,
    ModelState,
    TrainConfig,
    caption_batch_loss,
    finite_diff_check,
    init_model,
    load_checkpoint,
    run_training,
    save_checkpoint,
    sgd_step,
    write_metrics_csv,
)

__version__ = "0.1.0"
