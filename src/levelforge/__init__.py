"""levelforge: complexity-directed paraphrase datasets and their evaluation.

Build simplification / complexification / same-level paraphrase datasets
from raw paraphrase-pair corpora, render relative/absolute prompt files,
and score paraphrasing systems, level classifiers, and annotation studies.
"""

__version__ = "0.1.0"

from .agreement import (
    LabeledPrediction,
    RatingMatrix,
    adjacent_accuracy,
    krippendorff_alpha,
    likert_report,
    mae,
    majority_gold,
    weighted_f1,
)
from .corpus import (
    DropReason,
    FilterConfig,
    ParaphrasePair,
    TaskLabel,
    attach_levels,
    bucket,
    build_datasets,
    filter_pair,
    lexical_similarity,
    split_dataset,
)
from .genmetrics import (
    EvalInstance,
    SariBreakdown,
    copy_rate,
    corpus_sari,
    repetition_score,
    sari,
    sari_r,
)
from .prompts import PromptSpec, Strategy, render, render_record, strip_prompt
from .readability import (
    ComplexityLevel,
    Scheme,
    cefr6_to_cefr3,
    corpus_fkgl,
    fkgl,
    level_delta,
    level_of,
)
from .textcore import Sentence, count_syllables, ngrams, sentence_stats, split_sentences, tokenize
