"""Knowledge-graph guided retrieval with multi-path subgraph fusion."""

from .config import PipelineConfig, load_config
from .errors import (
    GenerationError,
    ModelServiceError,
    NotFoundError,
    ParseError,
    QmkgfError,
    ThresholdError,
    UndefinedSimilarityError,
    ValidationError,
)
from .fusion import FusionConfig, FusionResult, ScoredSubgraph, fuse, select_max
from .kg import Entity, IngestReport, KnowledgeGraph, Triple, ingest_extraction, load, save
from .metrics import MetricReport, bleu_1, meteor, retrieval_metrics, rouge_1, rouge_l, token_prf
from .pipeline import (
    Chunk,
    ExpandedQuery,
    QmkgfResult,
    RankedChunks,
    RetrievalIndices,
    expand_query,
    extract_query_entities,
    generate_answer,
    map_entity,
    rerank_chunks,
    retrieve,
    run_qmkgf,
)
from .reward import (
    AttentionParams,
    RMTrainingExample,
    grad_check,
    init_params,
    score,
    train_rm,
)
from .subgraphs import (
    PageRankConfig,
    PageRankResult,
    Subgraph,
    multi_hop_subgraph,
    one_hop_subgraph,
    pagerank_subgraph,
    personalized_pagerank,
)
from .vectors import VectorIndex, cosine, top_k

__version__ = "0.1.0"
