"""Deterministic simulator and offline toolkit for head-tail rebalancing
in iterative self-improvement data pipelines."""

from .core import (
    ORIGIN_CORRECTED,
    ORIGIN_EXPLORED,
    ORIGIN_RESAMPLED_AR,
    ORIGIN_RESAMPLED_GR,
    Corpus,
    CorpusMismatchError,
    QueryRecord,
    Trajectory,
    TrajectoryDataset,
    merge_datasets,
)
from .rewards import (
    cot_length_filter,
    discard_dataset,
    filter_dataset,
    load_alias_table,
    normalize_answer,
    partition_dataset,
    reward,
)
from .strategies import (
    Draws,
    Sampler,
    SamplerError,
    StrategyConfig,
    adaptive_resample,
    guided_resample,
    head_clip,
    repeat_invert,
    repeat_pad,
    self_correct_augment,
    threshold_clip,
    vanilla,
)
from .learner import (
    CorpusParams,
    LearnerParams,
    LearnerState,
    calibrate_difficulty,
    init_learner,
    synth_corpus,
)
from .metrics import (
    MetricsRow,
    build_row,
    matthew_series,
    rows_to_csv,
)
from .harness import (
    ConfigError,
    RunAborted,
    RunConfig,
    RunReport,
    SchemaError,
    TrajectoryLogRecord,
    emit_report,
    rebalance_offline,
    run,
)

__version__ = "0.1.0"
