"""repro — reproduction of Zhou et al. (ICDE 2005).

Converting semi-structured clinical medical records into information
and knowledge: numeric field extraction via link-grammar distance,
medical term extraction via POS patterns + ontology, and categorical
field classification via NLP features + an ID3 decision tree.

Quickstart::

    from repro import RecordExtractor, RecordGenerator, CohortSpec

    records, golds = RecordGenerator(seed=1).generate_cohort()
    extractor = RecordExtractor()
    extractor.train_categorical(records[:40], golds[:40])
    result = extractor.extract(records[40])

See README.md for the full tour and DESIGN.md for the architecture.
"""

from repro.errors import (
    DictionaryError,
    OntologyError,
    ParseFailure,
    RecordFormatError,
    ReproError,
    ResilienceError,
    SchemaError,
    StorageError,
    TokenizationError,
    TrainingError,
)
from repro.extraction import (
    CategoricalClassifier,
    ExtractionResult,
    FeatureOptions,
    NumericExtractor,
    RecordExtractor,
    TermExtractor,
)
from repro.linkgrammar import LinkGrammarParser, Linkage, LinkWeights
from repro.nlp import Document, Pipeline, analyze, default_pipeline
from repro.ontology import OntologyStore, default_ontology
from repro.records import (
    PatientRecord,
    load_records,
    save_records,
    split_record,
)
from repro.runtime import (
    FaultPlan,
    ResilientCorpusRunner,
    RetryPolicy,
)
from repro.storage import ResultStore
from repro.synth import (
    CohortSpec,
    DictationStyle,
    GoldAnnotations,
    RecordGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "DictionaryError",
    "OntologyError",
    "ParseFailure",
    "RecordFormatError",
    "ReproError",
    "SchemaError",
    "StorageError",
    "TokenizationError",
    "TrainingError",
    "CategoricalClassifier",
    "ExtractionResult",
    "FeatureOptions",
    "NumericExtractor",
    "RecordExtractor",
    "TermExtractor",
    "LinkGrammarParser",
    "Linkage",
    "LinkWeights",
    "Document",
    "Pipeline",
    "analyze",
    "default_pipeline",
    "OntologyStore",
    "default_ontology",
    "PatientRecord",
    "load_records",
    "save_records",
    "split_record",
    "FaultPlan",
    "ResilienceError",
    "ResilientCorpusRunner",
    "RetryPolicy",
    "ResultStore",
    "CohortSpec",
    "DictationStyle",
    "GoldAnnotations",
    "RecordGenerator",
    "__version__",
]
