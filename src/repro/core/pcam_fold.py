"""Constant-folded uniform evaluation of a pCAM pipeline.

The batched AQM admission path evaluates the whole pipeline over a
chunk whose feature columns are *uniform* — every packet in the chunk
is judged against the chunk-start queue state, so ``np.full(n, raw)``
per stage feeds :meth:`PCAMPipeline.evaluate_batch` with ``n``
identical rows and `n` identical outputs come back.  For plain
healthy linear cells that is pure overhead: one scalar evaluation
broadcast over the chunk is *bit-identical* (elementwise float64
ufuncs do not depend on batch length) at a fraction of the cost.

:func:`fold_pipeline` performs the constant-folding pass: it captures
each stage's eight parameters — including the ramp intercepts, which
``response_array`` re-divides on every call — into flat floats, and
returns a :class:`FoldedPCAMPipeline` whose
:meth:`~FoldedPCAMPipeline.evaluate_uniform` replicates the exact
expression tree of :meth:`PCAMCell.response_array` (linear branch)
plus the sequential composition reduce.  Folding refuses anything
whose uniform output cannot be proven equal to the batch kernel's:

* device-realised or otherwise subclassed cells (their response may
  be stochastic per element, or consume RNG state per draw);
* cells with an injected fault (read-noise faults draw per-element);
* non-linear ramp shapes (kept on the one true batch path);
* a pipeline with a tracer or profiler attached (the folded kernel
  opens no spans and bypasses the ``@profiled`` batch entry point).

Validity is re-checked cheaply per call site via
:meth:`FoldedPCAMPipeline.matches`: ``program()`` replaces a cell's
frozen :class:`PCAMParams` object, so parameter *identity* plus the
fault slot revalidates the fold — reprogramming or fault injection
invalidates it naturally and the caller re-folds (or falls back).

When :mod:`numba` is importable the folded scalar kernel is
additionally lowered to a jitted function over a constants matrix
(:data:`LOWERING` reports which backend is active); the pure-Python/
NumPy form is the hermetic fallback and the reference the lowering
must agree with bit-for-bit (``tests/test_pcam_fold.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.pcam_cell import PCAMCell
from repro.core.pcam_pipeline import COMPOSITIONS, PCAMPipeline

__all__ = ["FoldedPCAMPipeline", "FoldedStage", "LOWERING",
           "fold_pipeline"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # the hermetic CI container has no numba
    _numba = None

#: Active lowering backend for the folded scalar kernel.
LOWERING = "numba" if _numba is not None else "python"

#: Column layout of the per-stage constants matrix the lowered kernel
#: consumes: thresholds, slopes, rails, precomputed ramp intercepts,
#: clip flag.
_CONST_COLUMNS = ("m1", "m2", "m3", "m4", "sa", "sb", "pmin", "pmax",
                  "rise_const", "fall_const", "clip")


def _stage_response(c: np.ndarray, x: float) -> float:
    """One folded five-region response; mirrors ``response_array``.

    ``c`` is one row of the constants matrix (indexed, not unpacked,
    so the identical function body lowers through numba).  The branch
    order is exactly the ``np.select`` condition order of the batch
    kernel, and the ramp expressions reuse the intercepts the fold
    precomputed — the division is deterministic, so folding it is
    exact.
    """
    pmin = c[6]
    pmax = c[7]
    if x <= c[0] or x >= c[3]:
        out = pmin
    elif x > c[2]:
        out = c[5] * x + c[9]
    elif x < c[1]:
        out = c[4] * x + c[8]
    else:
        out = pmax
    if c[10] != 0.0:
        out = min(pmax, max(pmin, out))
    return out


if _numba is not None:  # pragma: no cover - numba-only lowering
    _stage_response_lowered = _numba.njit(cache=False)(_stage_response)

    @_numba.njit(cache=False)
    def _product_lowered(consts, values):
        out = 1.0
        for index in range(consts.shape[0]):
            out *= _stage_response_lowered(consts[index], values[index])
        return out

    @_numba.njit(cache=False)
    def _min_lowered(consts, values):
        out = _stage_response_lowered(consts[0], values[0])
        for index in range(1, consts.shape[0]):
            probability = _stage_response_lowered(consts[index],
                                                  values[index])
            if probability < out:
                out = probability
        return out


class FoldedStage:
    """One stage's constants plus its validity tokens."""

    __slots__ = ("cell", "params")

    def __init__(self, cell: PCAMCell) -> None:
        self.cell = cell
        self.params = cell.params

    def constants(self) -> list[float]:
        """The stage's row of the constants matrix."""
        p = self.params
        # Identical fold of the zero-width-ramp guard the batch kernel
        # applies before dividing.
        rise_span = (p.m2 - p.m1) if p.m2 > p.m1 else 1.0
        fall_span = (p.m4 - p.m3) if p.m4 > p.m3 else 1.0
        return [p.m1, p.m2, p.m3, p.m4, p.sa, p.sb, p.pmin, p.pmax,
                (p.m2 * p.pmin - p.m1 * p.pmax) / rise_span,
                (p.m4 * p.pmax - p.m3 * p.pmin) / fall_span,
                1.0 if self.cell.clip_to_rails else 0.0]

    def valid(self) -> bool:
        """Cheap revalidation: same frozen params, still healthy."""
        cell = self.cell
        return cell.params is self.params and cell.fault is None


class FoldedPCAMPipeline:
    """A pipeline constant-folded for uniform (broadcast) evaluation.

    Built by :func:`fold_pipeline`; evaluate with
    :meth:`evaluate_uniform` after :meth:`matches` confirms the fold
    is still current.
    """

    def __init__(self, pipeline: PCAMPipeline,
                 stages: Sequence[FoldedStage]) -> None:
        self.pipeline = pipeline
        self.stage_names = pipeline.stage_names
        self.composition = pipeline.composition
        self._stages = tuple(stages)
        self._consts = np.array(
            [stage.constants() for stage in stages], dtype=float)
        self._cells = tuple(stage.cell for stage in stages)
        self._lowered = None
        if _numba is not None and self.composition in ("product", "min"):
            self._lowered = (_product_lowered
                             if self.composition == "product"
                             else _min_lowered)

    def __len__(self) -> int:
        return len(self._stages)

    @property
    def lowering(self) -> str:
        """Backend evaluating this fold (``numba`` or ``python``)."""
        return "numba" if self._lowered is not None else "python"

    def matches(self, pipeline: PCAMPipeline) -> bool:
        """True while the fold still describes ``pipeline`` exactly.

        Reprogramming a stage (``update_pCAM``) replaces its frozen
        params object and fault injection populates the fault slot, so
        identity checks catch every invalidation; attaching a tracer
        or profiler demotes to the batch path for observability.
        """
        if pipeline is not self.pipeline:
            return False
        if pipeline.tracer is not None or pipeline.profiler is not None:
            return False
        return all(stage.valid() for stage in self._stages)

    def evaluate_uniform(self, values: Sequence[float],
                         count: int = 1) -> float:
        """Composite probability of one feature vector, counted as
        ``count`` evaluations.

        ``values`` are voltage-domain features in stage order.  Every
        cell's evaluation counter advances by ``count`` — exactly what
        ``response_array`` over a ``count``-row uniform batch records
        — so hardware-utilisation accounting cannot tell the folded
        and batch paths apart.
        """
        for cell in self._cells:
            cell.tally_evaluations(count)
        if self._lowered is not None:  # pragma: no cover - numba-only
            try:
                return float(self._lowered(
                    self._consts, np.asarray(values, dtype=float)))
            except Exception:
                # Lowering failed (e.g. unsupported platform): demote
                # to the pure-Python kernel permanently for this fold.
                self._lowered = None
        consts = self._consts
        probabilities = [_stage_response(consts[index], float(value))
                         for index, value in enumerate(values)]
        if self.composition == "product":
            # np.prod reduces sequentially left-to-right for short
            # axes (pairwise blocking starts far above 8 stages), so a
            # scalar chain is bit-identical.
            out = 1.0
            for probability in probabilities:
                out *= probability
            return out
        if self.composition == "min":
            return min(probabilities)
        # geometric / mean involve a pow or division whose scalar
        # libm rounding is not guaranteed to match NumPy's — run the
        # actual batch reduce over one column instead.
        column = np.asarray(probabilities, dtype=float).reshape(-1, 1)
        return float(COMPOSITIONS[self.composition](column)[0])


def fold_pipeline(pipeline: PCAMPipeline) -> FoldedPCAMPipeline | None:
    """Constant-fold a pipeline, or ``None`` when exactness is unprovable.

    Only plain healthy linear :class:`PCAMCell` stages fold — exactly
    the cases where broadcasting one scalar evaluation is bit-equal to
    the batch kernel.  Device cells, injected faults, non-linear ramps
    and attached observability hooks all refuse (the caller keeps the
    staged/batched path).
    """
    if pipeline.tracer is not None or pipeline.profiler is not None:
        return None
    # "mean" reduces through np.add.reduce, whose pairwise summation
    # order depends on operand contiguity — a (n_stages, 1) column
    # and a (n_stages, n) matrix can round the last ulp differently,
    # so uniform-broadcast equality is unprovable.  The multiplicative
    # and min reduces are strictly sequential at these widths.
    if pipeline.composition not in ("product", "min", "geometric"):
        return None
    stages: list[FoldedStage] = []
    for name in pipeline.stage_names:
        cell = pipeline.stage(name)
        if type(cell) is not PCAMCell:
            return None
        if cell.fault is not None or cell.nonlinearity != "linear":
            return None
        stages.append(FoldedStage(cell))
    return FoldedPCAMPipeline(pipeline, stages)
