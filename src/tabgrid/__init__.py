"""Table extraction from page layouts: recognition, interpretation, evaluation.

Recognition turns a page's words and ruling lines into cell grids,
handling both fully ruled tables and open-style tables whose columns
are separated only by whitespace.  Interpretation maps recognized
columns onto user-declared meanings and emits one value tuple per body
row.  Evaluation scores recognized structure and extracted tuples
against ground truth.
"""

from .errors import (
    ConfigError,
    DegenerateGrid,
    DuplicateKey,
    EmptyBody,
    EmptyCorpus,
    InsufficientContext,
    InvalidPattern,
    LayoutError,
    TabgridError,
)
from .geometry import BoundingBox, box, intersection_area, iou
from .kernels import hungarian_min, interval_profile, iou_matrix, levenshtein_codes
from .model import (
    Cell,
    PageLayout,
    RecognizedTable,
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    TableSource,
    Word,
    cell_grid,
    load_recognizer_config,
    page_layout_from_dict,
    page_layout_to_dict,
    recognized_table_from_dict,
    recognized_table_to_dict,
)
from .matching import Matching, WeightedBipartiteGraph, max_weight_matching
from .separator import recognize_separator_tables
from .booktabs import (
    compute_column_threshold,
    find_rule_triples,
    horizontal_profile,
    recognize_booktabs_tables,
    segment_columns,
    segment_rows,
    vertical_profile,
)
from .pipeline import PageOrientation, PageResult, recognize_page, transpose_layout
from .interpret import (
    DataType,
    MeaningConfig,
    RowTuple,
    TupleSet,
    affinity,
    fuzzy_similarity,
    interpret_table,
    levenshtein,
    load_meanings,
    match_meanings,
    meanings_from_json,
)
from .evaluate import (
    Direction,
    PRF,
    adjacency_relations,
    cell_f1_at_iou,
    corpus_average,
    interpretation_score,
    match_tables,
    recognition_score,
    tuple_set_f1,
    wavg_f1,
)
from .fixtures import (
    build_corpus,
    default_meanings,
    gen_booktabs_page,
    gen_bordered_page,
    shift_separators,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TabgridError",
    "LayoutError",
    "ConfigError",
    "InvalidPattern",
    "DegenerateGrid",
    "EmptyBody",
    "InsufficientContext",
    "EmptyCorpus",
    "DuplicateKey",
    # geometry
    "BoundingBox",
    "box",
    "intersection_area",
    "iou",
    # kernels
    "levenshtein_codes",
    "hungarian_min",
    "interval_profile",
    "iou_matrix",
    # model
    "Word",
    "Separator",
    "SeparatorOrientation",
    "PageLayout",
    "Cell",
    "RecognizedTable",
    "RecognizerConfig",
    "TableSource",
    "cell_grid",
    "page_layout_from_dict",
    "page_layout_to_dict",
    "recognized_table_from_dict",
    "recognized_table_to_dict",
    "load_recognizer_config",
    # matching
    "WeightedBipartiteGraph",
    "Matching",
    "max_weight_matching",
    # recognition
    "recognize_separator_tables",
    "recognize_booktabs_tables",
    "find_rule_triples",
    "horizontal_profile",
    "vertical_profile",
    "segment_rows",
    "segment_columns",
    "compute_column_threshold",
    "recognize_page",
    "PageOrientation",
    "PageResult",
    "transpose_layout",
    # interpretation
    "DataType",
    "MeaningConfig",
    "RowTuple",
    "TupleSet",
    "levenshtein",
    "fuzzy_similarity",
    "affinity",
    "match_meanings",
    "interpret_table",
    "meanings_from_json",
    "load_meanings",
    # evaluation
    "Direction",
    "PRF",
    "adjacency_relations",
    "match_tables",
    "recognition_score",
    "corpus_average",
    "cell_f1_at_iou",
    "wavg_f1",
    "tuple_set_f1",
    "interpretation_score",
    # fixtures
    "build_corpus",
    "default_meanings",
    "gen_bordered_page",
    "gen_booktabs_page",
    "shift_separators",
]
