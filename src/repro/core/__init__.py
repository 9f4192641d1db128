"""The paper's primary contribution: the pCAM analog match-action process.

Layout
------
``pcam_cell``      the eight-parameter five-region transfer function
``device_cell``    the same cell realised on simulated memristors
``pcam_pipeline``  series (product) composition — Figure 4b
``pcam_array``     stored-policy memory searched in parallel — Figure 4a
``match_action``   read / output / action tables — ``table analogAQM``
``programming``    prog_pCAM / update_pCAM / pipeline and table builders
``compiler``       precision-aware digital/analog placement — RQ2
``calibration``    feature <-> voltage mapping over the chip dataset
"""

from repro.core.calibration import (
    FeatureScaler,
    analog_read_energy_j,
    noise_band,
    scale_params,
)
from repro.core.compiler import (
    AnalogErrorBudget,
    CognitiveCompiler,
    CompilationError,
    Domain,
    FunctionKind,
    NetworkFunctionSpec,
    Placement,
    PrecisionClass,
)
from repro.core.device_cell import DevicePCAMCell, EvaluationResult
from repro.core.dsl import DSLError, parse_program, parse_table
from repro.core.hardware_array import (
    CrossbarPCAMArray,
    HardwareSearchResult,
)
from repro.core.match_action import (
    AnalogMatchActionTable,
    StoredActionMemory,
    TableResult,
)
from repro.core.pcam_array import (
    ArraySearchResult,
    BatchSearchResult,
    PCAMArray,
    PCAMWord,
)
from repro.core.pcam_cell import MatchRegion, PCAMCell, PCAMParams, prog_pcam
from repro.core.pcam_pipeline import (
    COMPOSITIONS,
    MissingFeatureError,
    PCAMPipeline,
    PipelineFeatureError,
    StageOutput,
    UnknownFeatureError,
)
from repro.core.programming import (
    PipelineProgram,
    TableProgram,
    update_pcam,
)

__all__ = [
    "AnalogErrorBudget",
    "AnalogMatchActionTable",
    "ArraySearchResult",
    "BatchSearchResult",
    "COMPOSITIONS",
    "CognitiveCompiler",
    "CompilationError",
    "CrossbarPCAMArray",
    "DSLError",
    "DevicePCAMCell",
    "HardwareSearchResult",
    "Domain",
    "EvaluationResult",
    "FeatureScaler",
    "FunctionKind",
    "MatchRegion",
    "MissingFeatureError",
    "NetworkFunctionSpec",
    "PCAMArray",
    "PCAMCell",
    "PCAMParams",
    "PCAMPipeline",
    "PCAMWord",
    "PipelineFeatureError",
    "PipelineProgram",
    "Placement",
    "PrecisionClass",
    "StageOutput",
    "UnknownFeatureError",
    "StoredActionMemory",
    "TableProgram",
    "TableResult",
    "analog_read_energy_j",
    "noise_band",
    "parse_program",
    "parse_table",
    "prog_pcam",
    "scale_params",
    "update_pcam",
]
