"""Series composition of pCAM stages (paper Figure 4b).

"For multistage match-action process, multiple pCAM cells can be
combined in series to obtain the **product** of deterministic and
probabilistic matches at the output."

A :class:`PCAMPipeline` holds named stages — each an ideal
:class:`~repro.core.pcam_cell.PCAMCell` or a device-realised
:class:`~repro.core.device_cell.DevicePCAMCell` — and evaluates a
feature vector to a single probability.  The paper's composition is
the product; ``min``, geometric-mean and arithmetic-mean compositions
are provided for the ablation benches (DESIGN.md section 5, item 3).

Batch evaluation
----------------
The analog array matches every applied input in a single cycle, so
the software model must not pay a Python-interpreter round trip per
packet.  :meth:`PCAMPipeline.evaluate_batch` (and the batch variants
of the trace/energy entry points) evaluate a whole feature matrix
through :meth:`PCAMCell.response_array` in one NumPy pass.  The
scalar entry points delegate to the batch kernels with size-1 arrays,
so there is exactly one evaluation code path; equivalence is pinned
by ``tests/test_batch_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.core.device_cell import DevicePCAMCell
from repro.core.pcam_cell import PCAMCell, PCAMParams
from repro.observability.profiling import profiled
from repro.observability.tracing import maybe_span

__all__ = [
    "COMPOSITIONS",
    "MatchStage",
    "MissingFeatureError",
    "PCAMPipeline",
    "PipelineFeatureError",
    "StageOutput",
    "UnknownFeatureError",
]


class PipelineFeatureError(Exception):
    """A feature vector does not line up with the pipeline's stages."""


class MissingFeatureError(PipelineFeatureError, KeyError):
    """A feature mapping lacks values for one or more stages."""

    def __init__(self, missing: Sequence[str],
                 stage_names: Sequence[str]) -> None:
        self.missing = tuple(missing)
        self.stage_names = tuple(stage_names)
        super().__init__(
            f"missing features for stages {sorted(self.missing)}; "
            f"pipeline stages are {list(self.stage_names)}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class UnknownFeatureError(PipelineFeatureError, ValueError):
    """A feature mapping names keys no pipeline stage matches."""

    def __init__(self, unknown: Sequence[str],
                 stage_names: Sequence[str]) -> None:
        self.unknown = tuple(unknown)
        self.stage_names = tuple(stage_names)
        super().__init__(
            f"unknown feature keys {sorted(self.unknown)}; "
            f"pipeline stages are {list(self.stage_names)}")


class MatchStage(Protocol):
    """Anything that maps scalar features to match probabilities."""

    def response(self, value: float) -> float:
        """Match probability for a scalar feature."""
        ...

    def response_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised match probabilities for a feature array."""
        ...

    def program(self, params: PCAMParams) -> object:
        """Reprogram the stage with fresh parameters."""
        ...

    @property
    def params(self) -> PCAMParams:
        """The stage's current eight-parameter set."""
        ...


# ----------------------------------------------------------------------
# Composition rules: each reduces a (n_stages, batch) probability matrix
# along axis 0.
# ----------------------------------------------------------------------
def _product(probabilities: np.ndarray) -> np.ndarray:
    return np.prod(probabilities, axis=0)


def _min(probabilities: np.ndarray) -> np.ndarray:
    return np.min(probabilities, axis=0)


def _geometric(probabilities: np.ndarray) -> np.ndarray:
    return np.prod(probabilities, axis=0) ** (1.0 / probabilities.shape[0])


def _mean(probabilities: np.ndarray) -> np.ndarray:
    return np.mean(probabilities, axis=0)


#: Available stage-composition rules over a (n_stages, batch)
#: probability matrix.  ``"product"`` is the paper's.
COMPOSITIONS: Mapping[str, Callable[[np.ndarray], np.ndarray]] = {
    "product": _product,
    "min": _min,
    "geometric": _geometric,
    "mean": _mean,
}


@dataclass(frozen=True)
class StageOutput:
    """Per-stage diagnostics of one pipeline evaluation."""

    name: str
    feature: float
    probability: float


class PCAMPipeline:
    """An ordered set of named pCAM stages evaluated in series.

    Parameters
    ----------
    stages:
        Mapping of stage name to match stage.  Iteration order is the
        physical series order.
    composition:
        Key into :data:`COMPOSITIONS`; ``"product"`` reproduces the
        paper's Figure 4b behaviour.
    """

    def __init__(self, stages: Mapping[str, MatchStage],
                 composition: str = "product") -> None:
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        if composition not in COMPOSITIONS:
            raise ValueError(
                f"unknown composition {composition!r}; "
                f"choose from {sorted(COMPOSITIONS)}")
        self._stages = dict(stages)
        self.composition = composition
        self._compose = COMPOSITIONS[composition]
        #: Optional observability hooks (set by the hub wiring): a
        #: :class:`repro.observability.tracing.Tracer` emitting one
        #: span per batch evaluation with a child per stage, and a
        #: :class:`repro.observability.profiling.Profiler` receiving
        #: the ``@profiled`` kernel wall times.  Both default to off.
        self.tracer = None
        self.profiler = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stage_names(self) -> tuple[str, ...]:
        """Stage names in physical series order."""
        return tuple(self._stages)

    def __len__(self) -> int:
        return len(self._stages)

    def stage(self, name: str) -> MatchStage:
        """Access one stage by name."""
        try:
            return self._stages[name]
        except KeyError:
            raise KeyError(
                f"no stage {name!r}; stages: {self.stage_names}") from None

    def program_stage(self, name: str, params: PCAMParams) -> None:
        """Reprogram one stage — the per-stage half of update_pCAM()."""
        self.stage(name).program(params)

    # ------------------------------------------------------------------
    # Feature validation
    # ------------------------------------------------------------------
    def _check_mapping(self, features: Mapping[str, object]) -> None:
        missing = [name for name in self._stages if name not in features]
        if missing:
            raise MissingFeatureError(missing, self.stage_names)
        unknown = [key for key in features if key not in self._stages]
        if unknown:
            raise UnknownFeatureError(unknown, self.stage_names)

    def _feature_vector(self, features: Mapping[str, float] |
                        Sequence[float]) -> list[tuple[str, float]]:
        if isinstance(features, Mapping):
            self._check_mapping(features)
            return [(name, float(features[name])) for name in self._stages]
        values = list(features)
        if len(values) != len(self._stages):
            raise ValueError(
                f"expected {len(self._stages)} features, got {len(values)}")
        return list(zip(self._stages, (float(v) for v in values)))

    def _feature_matrix(self, features: Mapping[str, np.ndarray] |
                        np.ndarray) -> np.ndarray:
        """Validate a feature batch into a (n_stages, batch) matrix.

        Accepts either a mapping of stage name to 1-D array (scalars
        broadcast), or a 2-D array of shape (batch, n_stages) with
        columns in stage order.
        """
        if isinstance(features, Mapping):
            self._check_mapping(features)
            columns = []
            for name in self._stages:
                column = np.asarray(features[name], dtype=float)
                if column.ndim > 1:
                    raise ValueError(
                        f"feature {name!r} must be at most 1-D, "
                        f"got shape {column.shape}")
                columns.append(np.atleast_1d(column))
            try:
                columns = np.broadcast_arrays(*columns)
            except ValueError:
                lengths = {name: np.atleast_1d(
                    np.asarray(features[name])).shape[0]
                    for name in self._stages}
                raise ValueError(
                    f"feature arrays must share one batch length, "
                    f"got {lengths}") from None
            return np.array(columns, dtype=float)
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._stages):
            raise ValueError(
                f"feature matrix must have shape (batch, "
                f"{len(self._stages)}), got {matrix.shape}")
        return matrix.T.copy()

    def _stage_probabilities(self, matrix: np.ndarray) -> np.ndarray:
        """(n_stages, batch) probabilities from a feature matrix."""
        if self.tracer is None:
            return np.stack([
                stage.response_array(matrix[index])
                for index, stage in enumerate(self._stages.values())])
        rows = []
        for index, (name, stage) in enumerate(self._stages.items()):
            with self.tracer.span(f"pcam.stage.{name}"):
                rows.append(stage.response_array(matrix[index]))
        return np.stack(rows)

    # ------------------------------------------------------------------
    # Batch evaluation (the one true code path)
    # ------------------------------------------------------------------
    @profiled("pcam.evaluate_batch")
    def evaluate_batch(self, features: Mapping[str, np.ndarray] |
                       np.ndarray) -> np.ndarray:
        """Composite match probability for a whole feature batch.

        ``features`` maps each stage name to an array of per-packet
        feature values (or is a (batch, n_stages) matrix); the return
        is the (batch,)-shaped composite probability — one analog
        search result per packet, all evaluated in a single NumPy
        pass.
        """
        matrix = self._feature_matrix(features)
        with maybe_span(self.tracer, "pcam.evaluate_batch",
                        batch=int(matrix.shape[1])):
            return self._compose(self._stage_probabilities(matrix))

    def evaluate_trace_batch(self, features: Mapping[str, np.ndarray] |
                             np.ndarray
                             ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Batch composite probabilities plus per-stage breakdowns.

        Returns ``(composite, per_stage)`` where ``per_stage`` maps
        each stage name to its (batch,)-shaped probability array.
        """
        matrix = self._feature_matrix(features)
        with maybe_span(self.tracer, "pcam.evaluate_batch",
                        batch=int(matrix.shape[1])):
            probabilities = self._stage_probabilities(matrix)
            composite = self._compose(probabilities)
        per_stage = {name: probabilities[index]
                     for index, name in enumerate(self._stages)}
        return composite, per_stage

    def evaluate_with_energy_batch(
            self, features: Mapping[str, np.ndarray] | np.ndarray
    ) -> tuple[np.ndarray, float]:
        """(batch probabilities, total evaluation energy in joules).

        Ideal stages contribute zero energy; device stages contribute
        their per-read evaluation energy summed over the batch.
        """
        matrix = self._feature_matrix(features)
        rows = []
        energy = 0.0
        with maybe_span(self.tracer, "pcam.evaluate_batch",
                        batch=int(matrix.shape[1])):
            for index, (name, stage) in enumerate(self._stages.items()):
                with maybe_span(self.tracer, f"pcam.stage.{name}"):
                    if isinstance(stage, DevicePCAMCell):
                        probabilities, stage_energy = stage.evaluate_array(
                            matrix[index])
                        rows.append(probabilities)
                        energy += stage_energy
                    else:
                        rows.append(stage.response_array(matrix[index]))
            return self._compose(np.stack(rows)), energy

    # ------------------------------------------------------------------
    # Scalar evaluation (delegates to the batch kernels)
    # ------------------------------------------------------------------
    def _row_matrix(self, pairs: Sequence[tuple[str, float]]
                    ) -> np.ndarray:
        """A validated feature vector as a (1, n_stages) batch matrix.

        ``pairs`` comes from :meth:`_feature_vector` and is already in
        stage order, so the ndarray fast lane of
        :meth:`_feature_matrix` applies — no per-call dict of
        one-element arrays, no re-validation, no broadcast pass.
        """
        return np.array([[value for _, value in pairs]], dtype=float)

    def evaluate(self, features: Mapping[str, float] |
                 Sequence[float]) -> float:
        """Composite match probability for a full feature vector."""
        pairs = self._feature_vector(features)
        return float(self.evaluate_batch(self._row_matrix(pairs))[0])

    def evaluate_trace(self, features: Mapping[str, float] |
                       Sequence[float]) -> tuple[float, list[StageOutput]]:
        """Composite probability plus the per-stage breakdown."""
        pairs = self._feature_vector(features)
        composite, per_stage = self.evaluate_trace_batch(
            self._row_matrix(pairs))
        outputs = [StageOutput(name=name, feature=value,
                               probability=float(per_stage[name][0]))
                   for name, value in pairs]
        return float(composite[0]), outputs

    def programming_energy_j(self) -> float:
        """Total programming energy of device-realised stages [J]."""
        return sum(stage.programming_energy_j
                   for stage in self._stages.values()
                   if isinstance(stage, DevicePCAMCell))

    def evaluate_with_energy(self, features: Mapping[str, float] |
                             Sequence[float]) -> tuple[float, float]:
        """(probability, evaluation energy in joules) for one vector.

        Ideal stages contribute zero energy; device stages contribute
        their two-read evaluation energy.
        """
        pairs = self._feature_vector(features)
        probabilities, energy = self.evaluate_with_energy_batch(
            self._row_matrix(pairs))
        return float(probabilities[0]), energy

    @classmethod
    def from_params(cls, params: Mapping[str, PCAMParams],
                    composition: str = "product", *,
                    device_backed: bool = False,
                    **device_kwargs: object) -> "PCAMPipeline":
        """Build a pipeline from per-stage parameters.

        With ``device_backed`` every stage is realised on simulated
        memristors (extra keyword arguments are forwarded to
        :class:`DevicePCAMCell`).
        """
        stages: dict[str, MatchStage] = {}
        for name, stage_params in params.items():
            if device_backed:
                stages[name] = DevicePCAMCell(stage_params, **device_kwargs)
            else:
                stages[name] = PCAMCell(stage_params)
        return cls(stages, composition=composition)

    def __repr__(self) -> str:
        return (f"PCAMPipeline(stages={list(self._stages)}, "
                f"composition={self.composition!r})")
