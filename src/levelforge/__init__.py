"""levelforge: complexity-directed paraphrase datasets and their evaluation.

Build simplification / complexification / same-level paraphrase datasets
from raw paraphrase-pair corpora, render relative/absolute prompt files,
and score paraphrasing systems, level classifiers, and annotation studies.
"""

__version__ = "0.1.0"
