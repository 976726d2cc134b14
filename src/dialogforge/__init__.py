"""dialogforge: multi-turn multimodal dialogue synthesis and stream serialization."""

from .taxonomy import (
    DependencyModality,
    DepthKind,
    InputModality,
    OutputModality,
    TaskSignature,
    enumerate_valid_signatures,
    format_signature,
    parse_signature,
)
from .dialogue import (
    Dialogue,
    ImageRef,
    ImageSource,
    Provenance,
    Role,
    Round,
    Segment,
    Stage,
    Turn,
    infer_signature,
    make_dialogue,
    validate_dialogue,
)
from .atomic_ops import MockBackend, OpKind, OpRequest, OpResponse, RemoteBackend, invoke
from .stream import StreamConfig, TokenStream, loss_summary, serialize, validate_stream

__version__ = "0.1.0"
