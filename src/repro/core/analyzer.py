"""High-level variation analysis API.

:class:`VariationAnalyzer` is the single object most users need: it binds a
technology card to the paper's architecture parameters (128 lanes x 100
critical paths x 50-FO4 chains, 99 % sign-off) and answers the paper's
questions directly:

>>> from repro import VariationAnalyzer
>>> a = VariationAnalyzer("90nm")
>>> round(100 * a.chain_variation(0.5), 1)        # Fig. 1(b) @ 0.5 V
9.1
>>> round(100 * a.performance_drop(0.5), 1)       # Fig. 4 @ 0.5 V
6.5

The mitigation packages (:mod:`repro.sparing`, :mod:`repro.mitigation`)
consume an analyzer rather than raw technology cards, so every technique is
evaluated against the same baseline definitions.
"""

from __future__ import annotations

import numpy as np

from repro.core.chip_delay import ChipDelayEngine
from repro.core.montecarlo import MonteCarloEngine
from repro.core.results import DelayDistribution
from repro.core.tailsampling import (DEFAULT_DEFENSIVE_WEIGHT, ShiftProposal,
                                     TailEstimate, TailSampler)
from repro.devices.technology import TechnologyNode, get_technology
from repro.errors import ConfigurationError, ShardExecutionError
from repro.obs.api import counter as _obs_counter
from repro.obs.api import gauge as _obs_gauge
from repro.resilience.ledger import current_ledger
from repro.runtime.cache import QuantileCache, technology_fingerprint
from repro.runtime.context import current_runtime, profiled_stage

__all__ = ["VariationAnalyzer"]

#: Minimum uncached query points before a batch solve fans out across an
#: active parallel runtime's worker pool (below this the pool round trip
#: costs more than the solve).
_MIN_PARALLEL_SOLVE = 8


class VariationAnalyzer:
    """Paper-level analysis of one technology node.

    Parameters
    ----------
    tech:
        A :class:`~repro.devices.technology.TechnologyNode` or a node name
        (``"90nm"``, ...).
    width, paths_per_lane, chain_length:
        Architecture model parameters; defaults follow the paper
        (Section 3.2).
    signoff_quantile:
        The chip-delay quantile performance is judged at (paper: 0.99).
    quantile_cache:
        Persistent memo for deterministic quantiles; defaults to the
        standard on-disk :class:`~repro.runtime.cache.QuantileCache`
        (``~/.cache/repro``, overridable via ``REPRO_CACHE_DIR`` and
        disabled by ``REPRO_CACHE_DISABLE``).
    """

    def __init__(self, tech, *, width: int = 128, paths_per_lane: int = 100,
                 chain_length: int = 50, signoff_quantile: float = 0.99,
                 quantile_cache: QuantileCache | None = None) -> None:
        if isinstance(tech, str):
            tech = get_technology(tech)
        if not isinstance(tech, TechnologyNode):
            raise ConfigurationError(
                f"tech must be a TechnologyNode or name, got {type(tech)!r}")
        if not 0.0 < signoff_quantile < 1.0:
            raise ConfigurationError("signoff_quantile must be in (0, 1)")
        self.tech = tech
        self.signoff_quantile = float(signoff_quantile)
        self.engine = ChipDelayEngine(
            tech, width=width, paths_per_lane=paths_per_lane,
            chain_length=chain_length)
        self.quantile_cache = (QuantileCache() if quantile_cache is None
                               else quantile_cache)
        self._signoff_cache: dict = {}
        self._tail_cache: dict = {}

    # -- basic properties ----------------------------------------------------

    @property
    def width(self) -> int:
        return self.engine.width

    @property
    def paths_per_lane(self) -> int:
        return self.engine.paths_per_lane

    @property
    def chain_length(self) -> int:
        return self.engine.chain_length

    @property
    def nominal_vdd(self) -> float:
        return self.tech.nominal_vdd

    def fo4_unit(self, vdd) -> float:
        """Variation-free FO4 delay at ``vdd`` (seconds)."""
        return self.tech.fo4_unit(vdd)

    def monte_carlo(self, seed: int | None = 0,
                    precision: str | None = None,
                    block_elems: int | None = None) -> MonteCarloEngine:
        """A per-gate Monte-Carlo engine sharing this analyzer's card.

        ``precision`` and ``block_elems`` default to the active
        runtime's policies (``--mc-precision`` / ``--block-elems``), or
        float64 with the kernel's default block budget without one.
        """
        runtime = current_runtime()
        if precision is None:
            precision = (runtime.precision if runtime is not None
                         else "float64")
        if block_elems is None and runtime is not None:
            block_elems = runtime.block_elems
        return MonteCarloEngine(self.tech, seed=seed, precision=precision,
                                block_elems=block_elems)

    # -- circuit level ---------------------------------------------------------

    def chain_variation(self, vdd, n_gates: int | None = None) -> float:
        """Analytic 3sigma/mu (fraction) of an FO4 chain delay (Fig. 1b/2/11)."""
        return float(self.engine.chain_statistics(vdd, n_gates).three_sigma_over_mu)

    def chain_mean_delay(self, vdd, n_gates: int | None = None) -> float:
        """Mean chain delay in seconds (Section 3.2 absolute anchors)."""
        return float(self.engine.chain_statistics(vdd, n_gates).mean)

    # -- architecture level -----------------------------------------------------

    @staticmethod
    def _validate_point(q: float, spares) -> None:
        """Reject malformed query points before any cache is consulted.

        The engine would catch these eventually, but only after the memo
        and disk layers had been probed — and a bad point must never risk
        landing in (or colliding with) a cache key.
        """
        if not 0.0 < float(q) < 1.0:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {q}")
        s = float(spares)
        if not np.isfinite(s) or s < 0.0:
            raise ConfigurationError(
                f"spares must be finite and >= 0, got {spares}")

    def _point_key(self, vdd, spares, q):
        """In-process memo key ``(vdd, spares, q)`` for one query point.

        Spares are keyed on the *rounded float* (not ``int``): the engine
        supports fractional sparing, and truncation would silently collide
        ``spares=1.5`` with ``spares=1`` in both cache layers.
        """
        q_eff = self.signoff_quantile if q is None else float(q)
        return (round(float(vdd), 9), round(float(spares), 9),
                round(q_eff, 12))

    def _disk_key(self, key) -> str:
        """The persistent-cache key for an in-process ``_point_key``."""
        engine = self.engine
        return QuantileCache.make_key(
            self.tech, width=engine.width,
            paths_per_lane=engine.paths_per_lane,
            chain_length=engine.chain_length,
            quad_within=engine.quad_within,
            quad_corr_vth=engine.quad_corr_vth,
            quad_corr_mult=engine.quad_corr_mult,
            vdd=key[0], q=key[2], spares=key[1])

    def chip_quantile(self, vdd, spares: float = 0, q: float | None = None) -> float:
        """Deterministic chip-delay quantile in seconds.

        ``q`` defaults to the analyzer's sign-off quantile (99 %).  Results
        are memoised twice: in-process (a dict keyed by the rounded query
        point, so ``q=None`` and an explicit ``q=signoff_quantile`` share
        an entry) and on disk via :attr:`quantile_cache`, so repeated runs
        never re-pay a deterministic solve.
        """
        q_eff = self.signoff_quantile if q is None else float(q)
        self._validate_point(q_eff, spares)
        key = self._point_key(vdd, spares, q)
        cached = self._signoff_cache.get(key)
        if cached is not None:
            return cached
        disk_key = self._disk_key(key)
        value = self.quantile_cache.get(disk_key)
        if value is None:
            with profiled_stage("analyzer.quantile_solve"):
                value = self.engine.chip_quantile(vdd, q_eff, spares=spares)
            self.quantile_cache.put(disk_key, value)
        else:
            with profiled_stage("analyzer.quantile_cache_hit"):
                pass
        self._signoff_cache[key] = value
        return value

    def _solve_batch(self, solve_keys, *, invariant: bool = False) -> np.ndarray:
        """Solve uncached ``(vdd, spares, q)`` points in one batch.

        When a parallel runtime is active and the batch is big enough,
        the solve goes through
        :meth:`~repro.runtime.parallel.ParallelSampler.solve_quantiles`
        *regardless of the worker count*: the fixed-size chunk partition
        is part of the solver's reproducibility key, so routing through
        the sampler even at ``jobs=1`` keeps a serial baseline
        bit-identical to a pooled (or chaos-recovered) run.  Without a
        runtime the solve runs as one in-process batch.  Both paths
        polish every root to the solver's ~1e-12 relative tolerance, and
        a pool whose recovery ladder is exhausted falls back to the
        in-process batch (the solve is deterministic either way).
        """
        vdds = np.array([k[0] for k in solve_keys])
        qs = np.array([k[2] for k in solve_keys])
        sps = np.array([k[1] for k in solve_keys])
        runtime = current_runtime()
        sampler = runtime.sampler if runtime is not None else None
        engine = self.engine
        if (sampler is not None
                and len(solve_keys) >= _MIN_PARALLEL_SOLVE):
            try:
                return sampler.solve_quantiles(
                    self.tech, vdds, qs, sps, width=engine.width,
                    paths_per_lane=engine.paths_per_lane,
                    chain_length=engine.chain_length,
                    quads=(engine.quad_within, engine.quad_corr_vth,
                           engine.quad_corr_mult),
                    cluster=not invariant)
            except ShardExecutionError as exc:
                # The pool's recovery ladder is exhausted; the solve is
                # deterministic either way, so finish it in-process.
                _obs_counter("resilience.analyzer.pool_solve_failures").inc()
                current_ledger().record("analyzer_pool_solve_failed",
                                        shards=list(exc.shards),
                                        points=len(solve_keys))
        return np.atleast_1d(engine.chip_quantile_batch(
            vdds, qs, sps, cluster=not invariant))

    def chip_quantiles(self, vdd, spares: float = 0, q=None, *,
                       invariant: bool = False) -> np.ndarray:
        """Batched deterministic chip-delay quantiles (seconds).

        ``vdd``, ``spares`` and ``q`` broadcast together; the result has
        the broadcast shape (scalar inputs return a plain float).  The
        whole batch shares one pass through both cache layers — one
        in-process memo sweep, one :meth:`QuantileCache.get_many` disk
        lookup — and every remaining miss is solved in a single
        :meth:`ChipDelayEngine.chip_quantile_batch` call, so partial hits
        only pay for the points that are genuinely new.  Values agree
        bit-for-bit with what :meth:`chip_quantile` caches.

        ``invariant=True`` solves misses with the engine's
        batch-composition-invariant mode (``cluster=False``): each root is
        then a pure function of its own query point, so any grouping of
        the same queries — across calls, clients, or chunk boundaries —
        returns bit-identical values.  The serving dispatcher coalesces
        unrelated clients' queries under this mode.
        """
        q_eff = self.signoff_quantile if q is None else q
        vdd_b, sp_b, q_b = np.broadcast_arrays(
            np.asarray(vdd, dtype=float), np.asarray(spares, dtype=float),
            np.asarray(q_eff, dtype=float))
        shape = vdd_b.shape
        if not np.all((q_b > 0.0) & (q_b < 1.0)):
            raise ConfigurationError("quantile must be in (0, 1)")
        if not np.all(np.isfinite(sp_b) & (sp_b >= 0.0)):
            raise ConfigurationError("spares must be finite and >= 0")
        keys = [self._point_key(v, s, qq) for v, s, qq in
                zip(vdd_b.ravel(), sp_b.ravel(), q_b.ravel())]
        out = np.empty(len(keys))
        missing: dict = {}          # unique missed key -> output positions
        for i, key in enumerate(keys):
            cached = self._signoff_cache.get(key)
            if cached is not None:
                out[i] = cached
            else:
                missing.setdefault(key, []).append(i)
        _obs_counter("analyzer.memo_hits").inc(len(keys) - len(missing))
        if missing:
            ukeys = list(missing)
            disk_vals = self.quantile_cache.get_many(
                self._disk_key(k) for k in ukeys)
            solve_keys = [k for k, v in zip(ukeys, disk_vals) if v is None]
            solved: dict = {}
            if solve_keys:
                with profiled_stage("analyzer.quantile_solve_batch",
                                    len(solve_keys)):
                    values = np.atleast_1d(
                        self._solve_batch(solve_keys, invariant=invariant))
                solved = dict(zip(solve_keys, (float(v) for v in values)))
                self.quantile_cache.put_many(
                    (self._disk_key(k), v) for k, v in solved.items())
            for key, disk_val in zip(ukeys, disk_vals):
                value = solved[key] if disk_val is None else disk_val
                self._signoff_cache[key] = value
                out[missing[key]] = value
        if shape == ():
            return float(out[0])
        return out.reshape(shape)

    # -- high-sigma tails ----------------------------------------------------

    def _tail_key(self, kind: str, vdd, spares, target, n_samples,
                  root_seed, spec: str) -> str:
        """Persistent-cache key for one importance-sampled tail estimate.

        ``target`` (the quantile, or the failure threshold in seconds)
        goes in by exact ``repr`` — thresholds live at the 1e-9 scale,
        where the quantile keys' decimal rounding would collapse distinct
        points.  ``spec`` names the proposal exactly (an explicit
        proposal's fingerprint, or the adaptive search's parameters), and
        ``n_samples``/``root_seed`` complete the run identity.
        """
        return ":".join((
            self.tech.name, technology_fingerprint(self.tech),
            f"w{self.width}", f"p{self.paths_per_lane}",
            f"c{self.chain_length}", "tail", kind,
            f"v{float(vdd)!r}", f"s{float(spares)!r}",
            f"t{float(target)!r}", f"n{int(n_samples)}",
            f"r{int(root_seed)}", spec))

    def _tail_sampler(self, spares: int) -> TailSampler:
        """A tail sampler wired to the active runtime's policies.

        Sharding goes through the runtime's :class:`ParallelSampler`
        when one is active (the estimate is jobs-invariant either way);
        precision and blocking follow the runtime like
        :meth:`monte_carlo`.
        """
        runtime = current_runtime()
        return TailSampler(
            self.tech, width=self.width,
            paths_per_lane=self.paths_per_lane,
            chain_length=self.chain_length, spares=spares,
            sampler=runtime.sampler if runtime is not None else None,
            precision=(runtime.precision if runtime is not None
                       else "float64"),
            block_elems=runtime.block_elems if runtime is not None else None)

    _TAIL_FIELDS = ("value", "ess", "wmr", "rounds", "shift")

    def _tail_estimate(self, kind: str, vdd, target: float, *, spares,
                       n_samples, proposal, root_seed, n_pilot, max_rounds,
                       defensive_weight) -> TailEstimate:
        """Shared memoised path behind both tail estimators.

        Estimates are memoised like quantiles — in-process dict plus the
        on-disk :class:`QuantileCache` — but each estimate persists five
        float entries under suffixed keys (value, ESS, weight-max-ratio,
        search rounds, found shift), so a disk hit restores the full
        diagnostics and the adaptively-found proposal, not just the
        number.  ``tail.*`` gauges are (re-)emitted on hits so a serving
        process's metrics reflect the last estimate either way.
        """
        spares = int(spares)
        if spares < 0:
            raise ConfigurationError(f"spares must be >= 0, got {spares}")
        if n_samples < 2:
            raise ConfigurationError(
                f"n_samples must be >= 2, got {n_samples}")
        spec = (proposal.fingerprint() if proposal is not None else
                f"auto[{int(n_pilot)}x{int(max_rounds)}"
                f"x{float(defensive_weight)!r}]")
        key = self._tail_key(kind, vdd, spares, target, n_samples,
                             root_seed, spec)
        memo = self._tail_cache.get(key)
        if memo is not None:
            self._tail_hit(memo)
            return memo
        cached = self.quantile_cache.get_many(
            f"{key}:{f}" for f in self._TAIL_FIELDS)
        if (all(v is not None for v in cached[:4])
                and (proposal is not None or cached[4] is not None)):
            prop = (proposal if proposal is not None else
                    ShiftProposal.defensive(cached[4],
                                            float(defensive_weight)))
            est = TailEstimate(
                value=cached[0], kind=kind, ess=cached[1],
                weight_max_ratio=cached[2], n_samples=int(n_samples),
                shift_search_rounds=int(cached[3]), proposal=prop,
                q=target if kind == "quantile" else None,
                threshold=target if kind == "probability" else None)
            self._tail_cache[key] = est
            self._tail_hit(est)
            return est
        sampler = self._tail_sampler(spares)
        with profiled_stage("analyzer.tail_solve", int(n_samples)):
            if kind == "quantile":
                est = sampler.tail_quantile(
                    vdd, target, n_samples=n_samples, proposal=proposal,
                    root_seed=root_seed, n_pilot=n_pilot,
                    max_rounds=max_rounds,
                    defensive_weight=defensive_weight)
            else:
                est = sampler.failure_probability(
                    vdd, t_limit=target, n_samples=n_samples,
                    proposal=proposal, root_seed=root_seed,
                    n_pilot=n_pilot, max_rounds=max_rounds,
                    defensive_weight=defensive_weight)
        self.quantile_cache.put_many(zip(
            (f"{key}:{f}" for f in self._TAIL_FIELDS),
            (est.value, est.ess, est.weight_max_ratio,
             float(est.shift_search_rounds),
             float(est.proposal.d2d_shifts[0]))))
        self._tail_cache[key] = est
        return est

    @staticmethod
    def _tail_hit(est: TailEstimate) -> None:
        _obs_counter("analyzer.tail_memo_hits").inc()
        _obs_gauge("tail.ess").set(float(est.ess))
        _obs_gauge("tail.weight_max_ratio").set(float(est.weight_max_ratio))

    def chip_tail_quantile(self, vdd, q: float, *, spares: float = 0,
                           n_samples: int = 4096,
                           proposal: ShiftProposal | None = None,
                           root_seed: int = 0, n_pilot: int = 512,
                           max_rounds: int = 5,
                           defensive_weight: float =
                           DEFAULT_DEFENSIVE_WEIGHT) -> TailEstimate:
        """High-sigma chip-delay quantile by importance sampling.

        Where :meth:`chip_quantile` inverts the analytic CDF (exact for
        the compositional model), this estimates the ``q`` quantile of
        the *per-gate Monte-Carlo* chip delay — the reference the
        analytic model is validated against — at tail depths brute-force
        MC cannot reach: ``n_samples`` of a few thousand resolve the
        99.99 % point that would otherwise need 1e6+ chips.  Returns a
        :class:`~repro.core.tailsampling.TailEstimate` (value in seconds
        plus ESS / max-weight / search diagnostics).  ``proposal=None``
        runs the adaptive shift search; estimates are deterministic in
        ``root_seed`` and memoised like quantiles (memo + disk, keyed by
        the full run identity including the proposal spec).
        """
        if not 0.0 < float(q) < 1.0:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {q}")
        return self._tail_estimate(
            "quantile", vdd, float(q), spares=spares, n_samples=n_samples,
            proposal=proposal, root_seed=root_seed, n_pilot=n_pilot,
            max_rounds=max_rounds, defensive_weight=defensive_weight)

    def chip_failure_probability(self, vdd, t_limit: float | None = None, *,
                                 f_clk: float | None = None,
                                 spares: float = 0, n_samples: int = 4096,
                                 proposal: ShiftProposal | None = None,
                                 root_seed: int = 0, n_pilot: int = 512,
                                 max_rounds: int = 5,
                                 defensive_weight: float =
                                 DEFAULT_DEFENSIVE_WEIGHT) -> TailEstimate:
        """``P(chip delay > t_limit)`` by importance sampling.

        Pass the budget as seconds (``t_limit``) or as a clock target
        (``f_clk`` Hz, i.e. ``t_limit = 1/f_clk``).  Same machinery,
        caching and diagnostics as :meth:`chip_tail_quantile`.
        """
        if (t_limit is None) == (f_clk is None):
            raise ConfigurationError(
                "chip_failure_probability needs exactly one of "
                "t_limit / f_clk")
        if f_clk is not None:
            if not f_clk > 0.0:
                raise ConfigurationError(
                    f"f_clk must be positive Hz, got {f_clk}")
            t_limit = 1.0 / float(f_clk)
        if not t_limit > 0.0:
            raise ConfigurationError(
                f"t_limit must be positive seconds, got {t_limit}")
        return self._tail_estimate(
            "probability", vdd, float(t_limit), spares=spares,
            n_samples=n_samples, proposal=proposal, root_seed=root_seed,
            n_pilot=n_pilot, max_rounds=max_rounds,
            defensive_weight=defensive_weight)

    def chip_quantile_fo4(self, vdd, spares: float = 0, q: float | None = None) -> float:
        """Chip-delay quantile expressed in FO4 units at the same ``vdd``.

        This is the paper's ``fo4chipd`` metric.
        """
        return self.chip_quantile(vdd, spares, q) / self.fo4_unit(vdd)

    def nominal_signoff_fo4(self) -> float:
        """``fo4chipd`` of the spare-less chip at nominal (full) voltage."""
        return self.chip_quantile_fo4(self.nominal_vdd)

    def performance_drop(self, vdd, spares: float = 0) -> float:
        """Fractional performance drop vs the full-voltage baseline (Fig. 4).

        ``(fo4chipd@NTV - fo4chipd@FV) / fo4chipd@FV``: by normalising both
        sides to the FO4 delay at their own supply, the metric isolates the
        *variation-induced* slowdown from the ~10x absolute near-threshold
        slowdown.
        """
        return (self.chip_quantile_fo4(vdd, spares)
                / self.nominal_signoff_fo4() - 1.0)

    def performance_drops(self, vdds, spares: float = 0) -> np.ndarray:
        """Vectorised :meth:`performance_drop` over a supply sweep (Fig. 4).

        All sign-off quantiles behind the sweep are resolved through one
        :meth:`chip_quantiles` batch, so a whole Fig.-4 column costs a
        single kernelised solve instead of one scalar root-find per
        voltage.  Each element equals the scalar method exactly for
        cached points.
        """
        vdds = np.asarray(vdds, dtype=float)
        flat = np.atleast_1d(vdds).ravel()
        quantiles = np.atleast_1d(self.chip_quantiles(flat, spares))
        fo4 = np.array([self.fo4_unit(v) for v in flat])
        drops = (quantiles / fo4) / self.nominal_signoff_fo4() - 1.0
        if vdds.shape == ():
            return float(drops[0])
        return drops.reshape(vdds.shape)

    def target_delay(self, vdd) -> float:
        """The mitigation target delay at ``vdd`` (seconds), Section 4.2.

        The chip delay the architecture *would* have at ``vdd`` if its
        FO4-unit delay matched the full-voltage baseline:
        ``FO4(vdd) * fo4chipd@FV``.  Both duplication and margining are
        sized to bring the 99 % chip delay under this target.
        """
        return self.fo4_unit(vdd) * self.nominal_signoff_fo4()

    # -- ensembles ----------------------------------------------------------------

    def chip_distribution(self, vdd, *, spares: int = 0, n_samples: int = 10_000,
                          seed: int | None = 0, rng=None,
                          label: str | None = None) -> DelayDistribution:
        """Sampled chip-delay ensemble (Figs. 3, 5, 6).

        When a parallel runtime is active (``--jobs N`` with N > 1) and no
        explicit ``rng`` was passed, sampling shards across the runtime's
        worker pool via :class:`~repro.runtime.parallel.ParallelSampler`;
        the sharded stream is reproducible in ``seed`` but differs from
        the serial single-generator stream.
        """
        runtime = current_runtime()
        if (rng is None and runtime is not None
                and runtime.sampler is not None and runtime.sampler.jobs > 1):
            samples = runtime.sampler.sample_chips(
                self.tech, vdd, n_samples=n_samples, width=self.width,
                paths_per_lane=self.paths_per_lane,
                chain_length=self.chain_length, spares=spares,
                root_seed=seed)
        else:
            if rng is None:
                rng = np.random.default_rng(seed)
            with profiled_stage("analyzer.sample_chips", n_samples):
                samples = self.engine.sample_chips(vdd, n_samples, rng,
                                                   spares=spares)
        if label is None:
            spare_txt = f"+{spares}-spares" if spares else ""
            label = f"{self.width}-wide{spare_txt}@{vdd:g}V"
        return DelayDistribution(samples=samples, vdd=float(vdd), label=label,
                                 fo4_unit=self.fo4_unit(vdd))

    def lane_distribution(self, vdd, *, n_samples: int = 10_000,
                          seed: int | None = 0, rng=None) -> DelayDistribution:
        """Sampled one-lane (1-wide) delay ensemble (Fig. 3)."""
        if rng is None:
            rng = np.random.default_rng(seed)
        samples = self.engine.sample_lanes(vdd, n_samples, rng)
        return DelayDistribution(samples=samples, vdd=float(vdd),
                                 label=f"1-wide@{vdd:g}V",
                                 fo4_unit=self.fo4_unit(vdd))

    def path_distribution(self, vdd, *, n_samples: int = 10_000,
                          seed: int | None = 0, rng=None) -> DelayDistribution:
        """Sampled critical-path delay ensemble (Fig. 3)."""
        if rng is None:
            rng = np.random.default_rng(seed)
        samples = self.engine.sample_paths(vdd, n_samples, rng)
        return DelayDistribution(samples=samples, vdd=float(vdd),
                                 label=f"critical-path@{vdd:g}V",
                                 fo4_unit=self.fo4_unit(vdd))
