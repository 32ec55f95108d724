"""Importance-sampling estimation of high-sigma chip-delay tails.

The paper signs off at the 99 % chip quantile; real sign-off wants
99.99 %+ quantiles and per-chip failure probabilities, where naive
Monte-Carlo needs 1e6–1e8 samples.  Following the stochastic-logical-
effort importance-sampling recipe (*Fast Monte Carlo Estimation of
Timing Yield: Importance Sampling with Stochastic Logical Effort*,
PAPERS.md), this module reaches the same tail accuracy with ~1e3–1e4
weighted samples by sampling the *correlated* threshold components from
a shifted proposal and reweighting:

* the chip-delay tail at near-threshold is dominated by the die-to-die
  threshold draw ``D_s`` (it slows every lane at once and its delay
  impact is exponentially amplified), so the proposal mean-shifts ``D_s``
  by ``s * sigma_vth_d2d`` volts — optionally as a K-component normal
  mixture (a defensive component at 0 bounds the weights), optionally
  with an additional per-lane mean shift;
* every shift is applied *after* the draw leaves the chip's own
  :class:`numpy.random.SeedSequence` stream, so a shifted run consumes
  exactly the same variates as the nominal one: the weighted estimator
  inherits the kernel layer's batch-size / worker-count invariance, and
  a zero-shift proposal reproduces plain sampling bit-for-bit;
* each chip comes back with its log-likelihood ratio
  ``log p(x) - log q(x)`` (exact, in standardized units), and the
  self-normalized estimators — :func:`~repro.core.stats.weighted_quantile`
  for tail quantiles, a weighted indicator mean for ``P(delay > t)`` —
  consume the weights together with effective-sample-size (ESS) and
  max-weight diagnostics;
* :meth:`TailSampler.find_shift` runs a coarse cross-entropy /
  moment-matching pilot loop before the production run: each round
  takes the weighted elite fraction of chip delays and moves the shift
  to the weighted mean of their standardized d2d draws, ramping the
  elite threshold toward the target quantile (or failure threshold).

Production runs shard over :class:`~repro.runtime.parallel.
ParallelSampler` (weights ride the shared-memory transport next to the
delays), so a tail estimate is bit-identical at ``jobs=1`` and
``jobs=32`` and survives the full chaos-recovery ladder.  Emits
``tail.*`` metrics (ESS, weight-max-ratio, shift-search rounds) on the
active observability context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.montecarlo import MonteCarloEngine
from repro.core.kernels import MonteCarloKernel
from repro.core.stats import weighted_quantile
from repro.devices.technology import TechnologyNode, get_technology
from repro.errors import ConfigurationError
from repro.obs.api import counter as _obs_counter
from repro.obs.api import gauge as _obs_gauge
from repro.runtime.context import profiled_stage

__all__ = [
    "ShiftProposal", "TailEstimate", "TailSampler",
    "effective_sample_size", "weight_max_ratio", "normalized_weights",
    "DEFAULT_DEFENSIVE_WEIGHT", "MAX_SHIFT",
]

#: Mixture mass the :meth:`ShiftProposal.defensive` helper leaves on the
#: nominal (zero-shift) component.  Defensive mixing bounds the
#: likelihood ratio at ``1 / defensive_weight`` in the far nominal bulk,
#: which keeps the weight spectrum tame when the shift overshoots.
DEFAULT_DEFENSIVE_WEIGHT = 0.1

#: Largest |mean shift| accepted, in sigma units.  Beyond ~8 sigma the
#: double-precision normal CDF underflows and the estimator is
#: extrapolating anyway.
MAX_SHIFT = 8.0

#: Entropy tag mixed into the pilot streams so the shift search never
#: shares draws with the production shards (which spawn directly from
#: ``SeedSequence(root_seed)``).
_PILOT_STREAM_TAG = 0x7461696C            # "tail"


def normalized_weights(log_weights) -> np.ndarray:
    """Self-normalized weights ``w_i / sum(w)`` from log-likelihood ratios.

    Stable for any offset: the max log-weight is subtracted before
    exponentiation, and common offsets cancel in the normalization.
    """
    lw = np.asarray(log_weights, dtype=float).ravel()
    if lw.size == 0:
        raise ConfigurationError("need at least one log-weight")
    if not np.all(np.isfinite(lw)):
        raise ConfigurationError("log-weights must be finite")
    w = np.exp(lw - lw.max())
    return w / w.sum()


def effective_sample_size(log_weights) -> float:
    """Kish effective sample size ``(sum w)^2 / sum(w^2)``.

    Equals ``n`` for uniform weights and degrades toward 1 as the weight
    spectrum concentrates; the tail estimators surface it as the honest
    "how many samples is this really" diagnostic.
    """
    w = normalized_weights(log_weights)
    return float(1.0 / np.square(w).sum())


def weight_max_ratio(log_weights) -> float:
    """Fraction of the total weight carried by the single heaviest sample.

    ``1/n`` for uniform weights; values near 1 mean the estimate hangs
    off one sample and the proposal needs a smaller shift (or more
    defensive mass).
    """
    w = normalized_weights(log_weights)
    return float(w.max())


@dataclass(frozen=True)
class ShiftProposal:
    """A mean-shifted / mixture-normal proposal on the Vth components.

    ``d2d_shifts`` are the K mixture-component mean shifts applied to
    the die-to-die threshold component, in units of ``sigma_vth_d2d``;
    ``mix_weights`` their probabilities (normalized at construction;
    uniform when omitted).  ``lane_shift`` is an additional pure mean
    shift on every per-lane threshold draw, in units of
    ``sigma_vth_lane``.  Shifts are applied *post-draw*, so the
    underlying standard-normal stream is exactly the nominal one; a
    mixture (K > 1) consumes one extra uniform per chip for component
    selection, drawn before the chip's correlated draws.
    """

    d2d_shifts: tuple = (0.0,)
    mix_weights: tuple = ()
    lane_shift: float = 0.0
    _cum_weights: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        shifts = tuple(float(s) for s in np.atleast_1d(self.d2d_shifts))
        if not shifts:
            raise ConfigurationError("d2d_shifts must not be empty")
        for s in shifts:
            if not math.isfinite(s) or abs(s) > MAX_SHIFT:
                raise ConfigurationError(
                    f"d2d shifts must be finite and |s| <= {MAX_SHIFT} "
                    f"sigma, got {s}")
        weights = tuple(float(w) for w in np.atleast_1d(self.mix_weights)) \
            if len(np.atleast_1d(self.mix_weights)) else \
            tuple([1.0 / len(shifts)] * len(shifts))
        if len(weights) != len(shifts):
            raise ConfigurationError(
                f"mix_weights has {len(weights)} entries for "
                f"{len(shifts)} components")
        if any((not math.isfinite(w)) or w <= 0.0 for w in weights):
            raise ConfigurationError(
                "mixture weights must be finite and positive")
        total = sum(weights)
        weights = tuple(w / total for w in weights)
        lane = float(self.lane_shift)
        if not math.isfinite(lane) or abs(lane) > MAX_SHIFT:
            raise ConfigurationError(
                f"lane_shift must be finite and |s| <= {MAX_SHIFT} sigma, "
                f"got {lane}")
        object.__setattr__(self, "d2d_shifts", shifts)
        object.__setattr__(self, "mix_weights", weights)
        object.__setattr__(self, "lane_shift", lane)
        object.__setattr__(self, "_cum_weights",
                           tuple(np.cumsum(weights)[:-1]))

    # -- constructors --------------------------------------------------------

    @classmethod
    def mean_shift(cls, shift: float, lane_shift: float = 0.0
                   ) -> "ShiftProposal":
        """A single-component mean shift (no extra stream consumption)."""
        return cls(d2d_shifts=(float(shift),), lane_shift=lane_shift)

    @classmethod
    def defensive(cls, shift: float,
                  defensive_weight: float = DEFAULT_DEFENSIVE_WEIGHT,
                  lane_shift: float = 0.0) -> "ShiftProposal":
        """A two-component mixture: the shift plus a nominal component.

        ``defensive_weight`` is the mass left on the zero-shift
        component; ``0`` degrades to a pure :meth:`mean_shift`.
        """
        dw = float(defensive_weight)
        if not 0.0 <= dw < 1.0:
            raise ConfigurationError(
                f"defensive_weight must be in [0, 1), got {dw}")
        if dw == 0.0 or float(shift) == 0.0:
            return cls.mean_shift(shift, lane_shift)
        return cls(d2d_shifts=(float(shift), 0.0),
                   mix_weights=(1.0 - dw, dw), lane_shift=lane_shift)

    # -- identity ------------------------------------------------------------

    @property
    def is_mixture(self) -> bool:
        return len(self.d2d_shifts) > 1

    @property
    def has_d2d_shift(self) -> bool:
        return self.is_mixture or self.d2d_shifts[0] != 0.0

    @property
    def is_nominal(self) -> bool:
        """True when sampling under this proposal is plain Monte-Carlo."""
        return not self.has_d2d_shift and self.lane_shift == 0.0

    def fingerprint(self) -> str:
        """Deterministic cache-key fragment naming this proposal exactly."""
        shifts = ",".join(repr(s) for s in self.d2d_shifts)
        weights = ",".join(repr(w) for w in self.mix_weights)
        return f"d2d[{shifts}]w[{weights}]lane[{self.lane_shift!r}]"

    def as_dict(self) -> dict:
        """Plain-data form for shard task dicts / JSON payloads."""
        return {"d2d_shifts": list(self.d2d_shifts),
                "mix_weights": list(self.mix_weights),
                "lane_shift": self.lane_shift}

    @classmethod
    def from_dict(cls, data: dict) -> "ShiftProposal":
        return cls(d2d_shifts=tuple(data["d2d_shifts"]),
                   mix_weights=tuple(data["mix_weights"]),
                   lane_shift=float(data.get("lane_shift", 0.0)))

    def validate_for(self, variation) -> None:
        """Reject shifts on components the variation model zeroes out."""
        if self.has_d2d_shift and not variation.sigma_vth_d2d:
            raise ConfigurationError(
                "proposal shifts the d2d Vth component but sigma_vth_d2d "
                "is 0 (the likelihood ratio would be undefined)")
        if self.lane_shift and not variation.sigma_vth_lane:
            raise ConfigurationError(
                "proposal shifts the lane Vth component but sigma_vth_lane "
                "is 0 (the likelihood ratio would be undefined)")

    # -- sampling hooks (called from the kernel's per-chip loop) -------------

    def pick_component(self, rng) -> int:
        """Choose this chip's mixture component.

        Consumes one uniform from the chip stream *only* for a genuine
        mixture, so single-component proposals leave the stream
        untouched relative to nominal sampling.
        """
        if not self.is_mixture:
            return 0
        return int(np.searchsorted(self._cum_weights, rng.random(),
                                   side="right"))

    def _log_mix_density(self, z: float) -> float:
        """Log proposal density of a standardized d2d value (const-free).

        The ``1/sqrt(2 pi)`` normalizations cancel against the target
        density in the likelihood ratio, so both sides drop them.
        """
        terms = [math.log(w) - 0.5 * (z - s) * (z - s)
                 for w, s in zip(self.mix_weights, self.d2d_shifts)]
        m = max(terms)
        return m + math.log(sum(math.exp(t - m) for t in terms))

    def shift_chip(self, component: int, die_dvth: float, lane_dvth,
                   sigma_d2d: float, sigma_lane: float) -> tuple:
        """Apply this chip's shifts; return ``(shifted_die, log_weight)``.

        ``die_dvth`` is the chip's nominal die-level threshold draw in
        volts; ``lane_dvth`` its per-lane threshold draws (shifted in
        place when ``lane_shift`` is set).  The returned log weight is
        the exact ``log p(x) - log q(x)`` of the shifted components.
        """
        logw = 0.0
        if self.has_d2d_shift:
            shifted = die_dvth + self.d2d_shifts[component] * sigma_d2d
            z = shifted / sigma_d2d
            logw += -0.5 * z * z - self._log_mix_density(z)
            die_dvth = shifted
        s = self.lane_shift
        if s:
            z_lane = lane_dvth / sigma_lane + s
            np.multiply(z_lane, sigma_lane, out=lane_dvth)
            logw += float(np.sum(0.5 * s * s - s * z_lane))
        return die_dvth, logw


@dataclass(frozen=True)
class TailEstimate:
    """One importance-sampled tail estimate plus its diagnostics.

    ``value`` is seconds for a quantile estimate and a probability for a
    failure-rate estimate (``kind`` says which).  ``ess`` is the Kish
    effective sample size of the weighted run, ``weight_max_ratio`` the
    heaviest sample's weight share, ``shift_search_rounds`` how many
    pilot rounds the adaptive search spent (0 for an explicit proposal
    or a cache hit that recorded none).
    """

    value: float
    kind: str
    ess: float
    weight_max_ratio: float
    n_samples: int
    shift_search_rounds: int
    proposal: ShiftProposal
    q: float | None = None
    threshold: float | None = None

    def as_dict(self) -> dict:
        """JSON-ready form (serving payloads, manifests)."""
        out = {"value": float(self.value), "kind": self.kind,
               "ess": float(self.ess),
               "weight_max_ratio": float(self.weight_max_ratio),
               "n_samples": int(self.n_samples),
               "shift_search_rounds": int(self.shift_search_rounds),
               "proposal": self.proposal.as_dict()}
        if self.q is not None:
            out["q"] = float(self.q)
        if self.threshold is not None:
            out["threshold"] = float(self.threshold)
        return out


class TailSampler:
    """Importance-sampling tail estimator over the per-gate MC kernels.

    Binds a technology card to an architecture shape and answers tail
    questions with weighted Monte-Carlo: production runs go through a
    :class:`~repro.runtime.parallel.ParallelSampler` (the handed-in one,
    or a private serial sampler with the standard shard size — either
    way the result depends only on ``(root_seed, shard_size)``, never on
    the worker count), while the adaptive shift search runs small
    in-process pilots on streams derived from ``root_seed`` plus a fixed
    tag, so the chosen proposal — and therefore the whole estimate — is
    deterministic end to end.
    """

    def __init__(self, tech, *, width: int = 128, paths_per_lane: int = 100,
                 chain_length: int = 50, spares: int = 0,
                 batch_size: int = 64, sampler=None,
                 precision: str = "float64",
                 block_elems: int | None = None) -> None:
        if isinstance(tech, str):
            tech = get_technology(tech)
        if not isinstance(tech, TechnologyNode):
            raise ConfigurationError(
                f"tech must be a TechnologyNode or name, got {type(tech)!r}")
        if width < 1 or paths_per_lane < 1 or chain_length < 1:
            raise ConfigurationError(
                "width, paths_per_lane and chain_length must be >= 1")
        if spares < 0:
            raise ConfigurationError("spares must be >= 0")
        if not tech.variation.sigma_vth_d2d:
            raise ConfigurationError(
                f"{tech.name}: importance sampling needs a nonzero "
                "sigma_vth_d2d component to shift")
        self.tech = tech
        self.width = int(width)
        self.paths_per_lane = int(paths_per_lane)
        self.chain_length = int(chain_length)
        self.spares = int(spares)
        self.batch_size = int(batch_size)
        self.precision = str(precision)
        self.block_elems = block_elems
        self._sampler = sampler
        self._own_sampler = None
        self._pilot_kernel: MonteCarloKernel | None = None

    # -- sampling ------------------------------------------------------------

    def _production_sampler(self):
        if self._sampler is not None:
            return self._sampler
        if self._own_sampler is None:
            from repro.runtime.parallel import ParallelSampler
            self._own_sampler = ParallelSampler(jobs=1)
        return self._own_sampler

    def sample(self, vdd, n_samples: int, proposal: ShiftProposal,
               root_seed=0) -> tuple:
        """Sharded weighted sampling -> ``(delays, logw)`` (float64)."""
        sampler = self._production_sampler()
        return sampler.weighted_system_delays(
            self.tech, vdd, proposal=proposal, width=self.width,
            paths_per_lane=self.paths_per_lane,
            chain_length=self.chain_length, n_chips=int(n_samples),
            spares=self.spares, batch_size=self.batch_size,
            root_seed=root_seed, precision=self.precision,
            block_elems=self.block_elems)

    def _pilot(self, vdd, n: int, proposal: ShiftProposal, seed) -> tuple:
        """One in-process pilot -> ``(delays, logw, d2d)``."""
        if self._pilot_kernel is None:
            self._pilot_kernel = MonteCarloKernel(
                self.tech, precision=self.precision,
                block_elems=self.block_elems)
        engine = MonteCarloEngine(self.tech,
                                  rng=np.random.default_rng(seed),
                                  kernel=self._pilot_kernel)
        return engine.weighted_system_delays(
            vdd, width=self.width, paths_per_lane=self.paths_per_lane,
            chain_length=self.chain_length, n_chips=int(n),
            spares=self.spares, proposal=proposal,
            batch_size=self.batch_size, return_d2d=True)

    # -- adaptive shift search ----------------------------------------------

    def find_shift(self, vdd, q: float | None = None, *,
                   t_limit: float | None = None, n_pilot: int = 512,
                   max_rounds: int = 5, elite_fraction: float = 0.1,
                   defensive_weight: float = DEFAULT_DEFENSIVE_WEIGHT,
                   root_seed=0) -> tuple:
        """Coarse cross-entropy search -> ``(proposal, rounds)``.

        Each round samples ``n_pilot`` chips under the current proposal,
        takes the weighted elite set — delays above the smaller of the
        target (the ``q`` weighted quantile, or ``t_limit``) and the
        ``1 - elite_fraction`` weighted quantile — and moment-matches
        the shift to the weighted mean of the elites' standardized d2d
        draws.  Stops early once the elite threshold has reached the
        target and the shift has stabilized.  Deterministic in
        ``root_seed`` (pilot streams are tagged so they never overlap
        the production shards).
        """
        if (q is None) == (t_limit is None):
            raise ConfigurationError(
                "find_shift needs exactly one of q / t_limit")
        if q is not None and not 0.0 < q < 1.0:
            raise ConfigurationError(f"q must be in (0, 1), got {q}")
        if t_limit is not None and not t_limit > 0.0:
            raise ConfigurationError(
                f"t_limit must be positive seconds, got {t_limit}")
        if n_pilot < 16:
            raise ConfigurationError(
                f"n_pilot must be >= 16, got {n_pilot}")
        if max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {max_rounds}")
        if not 0.0 < elite_fraction < 0.5:
            raise ConfigurationError(
                f"elite_fraction must be in (0, 0.5), got {elite_fraction}")
        sigma = self.tech.variation.sigma_vth_d2d
        seeds = np.random.SeedSequence(
            [_PILOT_STREAM_TAG, int(root_seed)]).spawn(int(max_rounds))
        shift = 0.0
        rounds = 0
        with profiled_stage("tail.shift_search"):
            for r in range(int(max_rounds)):
                proposal = ShiftProposal.defensive(shift, defensive_weight)
                delays, logw, d2d = self._pilot(vdd, int(n_pilot), proposal,
                                                seeds[r])
                rounds = r + 1
                delays = np.asarray(delays, dtype=float)
                w = normalized_weights(logw)
                gamma_elite = weighted_quantile(
                    delays, 1.0 - elite_fraction, w)
                gamma_target = (float(t_limit) if t_limit is not None
                                else weighted_quantile(delays, q, w))
                gamma = min(gamma_target, gamma_elite)
                elite = delays >= gamma
                elite_mass = float(w[elite].sum())
                if elite_mass <= 0.0:
                    break
                new_shift = float(np.dot(w[elite], d2d[elite] / sigma)
                                  / elite_mass)
                new_shift = min(max(new_shift, 0.0), MAX_SHIFT)
                reached = gamma_elite >= gamma_target
                stable = abs(new_shift - shift) <= 0.05
                shift = new_shift
                if reached and stable:
                    break
        return ShiftProposal.defensive(shift, defensive_weight), rounds

    # -- estimators ----------------------------------------------------------

    def tail_quantile(self, vdd, q: float, *, n_samples: int = 4096,
                      proposal: ShiftProposal | None = None, root_seed=0,
                      n_pilot: int = 512, max_rounds: int = 5,
                      elite_fraction: float = 0.1,
                      defensive_weight: float = DEFAULT_DEFENSIVE_WEIGHT
                      ) -> TailEstimate:
        """Self-normalized weighted ``q`` chip-delay quantile (seconds).

        ``proposal=None`` runs the adaptive shift search first; an
        explicit proposal skips it (rounds = 0).  Bit-reproducible in
        ``root_seed`` and invariant to ``batch_size`` and worker count.
        """
        if not 0.0 < q < 1.0:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {q}")
        self._check_samples(n_samples)
        rounds = 0
        if proposal is None:
            proposal, rounds = self.find_shift(
                vdd, q, n_pilot=n_pilot, max_rounds=max_rounds,
                elite_fraction=elite_fraction,
                defensive_weight=defensive_weight, root_seed=root_seed)
        with profiled_stage("tail.estimate", int(n_samples)):
            delays, logw = self.sample(vdd, n_samples, proposal, root_seed)
            value = weighted_quantile(np.asarray(delays, dtype=float), q,
                                      np.exp(logw - logw.max()))
        return self._finish(value, "quantile", logw, n_samples, rounds,
                            proposal, q=float(q))

    def failure_probability(self, vdd, t_limit: float | None = None, *,
                            f_clk: float | None = None,
                            n_samples: int = 4096,
                            proposal: ShiftProposal | None = None,
                            root_seed=0, n_pilot: int = 512,
                            max_rounds: int = 5,
                            elite_fraction: float = 0.1,
                            defensive_weight: float =
                            DEFAULT_DEFENSIVE_WEIGHT) -> TailEstimate:
        """Self-normalized ``P(chip delay > t_limit)`` estimate.

        Pass the delay budget directly (``t_limit`` seconds) or as a
        clock target (``f_clk`` Hz, giving ``t_limit = 1 / f_clk``).
        """
        if (t_limit is None) == (f_clk is None):
            raise ConfigurationError(
                "failure_probability needs exactly one of t_limit / f_clk")
        if f_clk is not None:
            if not f_clk > 0.0:
                raise ConfigurationError(
                    f"f_clk must be positive Hz, got {f_clk}")
            t_limit = 1.0 / float(f_clk)
        if not t_limit > 0.0:
            raise ConfigurationError(
                f"t_limit must be positive seconds, got {t_limit}")
        self._check_samples(n_samples)
        rounds = 0
        if proposal is None:
            proposal, rounds = self.find_shift(
                vdd, t_limit=t_limit, n_pilot=n_pilot,
                max_rounds=max_rounds, elite_fraction=elite_fraction,
                defensive_weight=defensive_weight, root_seed=root_seed)
        with profiled_stage("tail.estimate", int(n_samples)):
            delays, logw = self.sample(vdd, n_samples, proposal, root_seed)
            w = normalized_weights(logw)
            value = float(w[np.asarray(delays, dtype=float)
                            > float(t_limit)].sum())
        return self._finish(value, "probability", logw, n_samples, rounds,
                            proposal, threshold=float(t_limit))

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _check_samples(n_samples: int) -> None:
        if n_samples < 2:
            raise ConfigurationError(
                f"n_samples must be >= 2, got {n_samples}")

    def _finish(self, value: float, kind: str, logw, n_samples: int,
                rounds: int, proposal: ShiftProposal, q=None,
                threshold=None) -> TailEstimate:
        ess = effective_sample_size(logw)
        wmr = weight_max_ratio(logw)
        _obs_counter("tail.estimates").inc()
        _obs_gauge("tail.ess").set(ess)
        _obs_gauge("tail.weight_max_ratio").set(wmr)
        if rounds:
            _obs_counter("tail.shift_search_rounds").inc(int(rounds))
        return TailEstimate(value=float(value), kind=kind, ess=ess,
                            weight_max_ratio=wmr, n_samples=int(n_samples),
                            shift_search_rounds=int(rounds),
                            proposal=proposal, q=q, threshold=threshold)
