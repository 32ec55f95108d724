"""Brute-force per-gate Monte-Carlo engine.

This is the paper's actual method (HSPICE Monte-Carlo with per-device
threshold draws), transplanted onto the analytic delay model: every gate of
every path of every lane gets its own threshold and multiplicative draw,
plus the die-level correlated draws.  It is exact with respect to the
statistical model but costs O(chips x lanes x paths x gates); use it for

* the circuit-level figures (Fig. 1/2/11 need only 10^3 samples of <= 200
  gates — trivial), and
* cross-validating the analytic :class:`~repro.core.chip_delay.ChipDelayEngine`
  at reduced architecture scale (see tests/test_cross_validation.py).

Evaluation is delegated to a :class:`~repro.core.kernels.MonteCarloKernel`
(fused in-place ufuncs over preallocated workspaces; ``precision=`` selects
the float64/float32 dtype policy; ``fused=False`` keeps the naive
allocate-per-temporary reference path for parity tests and benchmarks).

Random-stream contract: :meth:`system_delays` and :meth:`lane_delays` give
every chip (or lane sample) its own :class:`numpy.random.SeedSequence`
child, spawned from one entropy draw off the engine stream per call.
Results are therefore **invariant to** ``batch_size`` (and to the kernel's
internal evaluation blocking) — batching is purely a memory knob.
:meth:`chain_delays` keeps the legacy single-stream draw order so
chain-level results for a given seed are unchanged by the kernel rewrite.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import MonteCarloKernel
from repro.errors import ConfigurationError
from repro.obs.api import counter as _obs_counter

__all__ = ["MonteCarloEngine"]


class MonteCarloEngine:
    """Per-gate-sample Monte-Carlo for a technology node.

    Parameters
    ----------
    tech:
        Technology card.
    seed:
        Seed for the internal :class:`numpy.random.Generator`; pass an
        existing generator via ``rng`` to share a stream.
    precision:
        Dtype policy, ``"float64"`` (default) or ``"float32"`` — see
        :mod:`repro.core.kernels`.
    fused:
        ``False`` selects the kernel's naive reference evaluation path
        (identical draws and results in float64; far more temporaries).
    block_elems:
        Per-block element budget for the kernel's internal blocking
        (``None`` = kernel default).
    kernel:
        Share an existing :class:`~repro.core.kernels.MonteCarloKernel`
        (and its workspaces) instead of building one; must be bound to
        the same technology card.
    """

    def __init__(self, tech, seed: int | None = 0, rng=None,
                 precision: str = "float64", fused: bool = True,
                 block_elems: int | None = None,
                 kernel: MonteCarloKernel | None = None) -> None:
        self.tech = tech
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        if kernel is None:
            kernel = MonteCarloKernel(tech, precision=precision, fused=fused,
                                      block_elems=block_elems)
        elif kernel.tech != tech:
            raise ConfigurationError(
                "kernel is bound to a different technology card")
        self.kernel = kernel
        self.precision = kernel.precision
        self.fused = kernel.fused

    # -- random streams ----------------------------------------------------

    def _spawn_children(self, n: int):
        """Per-sample SeedSequence children for one batched call.

        One entropy draw from the engine stream seeds a call-level
        :class:`~numpy.random.SeedSequence`; its children are handed to
        the kernel one per chip/lane sample, which is what makes batched
        results independent of ``batch_size``.
        """
        entropy = self.rng.integers(0, 2 ** 63, size=4).tolist()
        return np.random.SeedSequence(entropy).spawn(n)

    # -- building blocks --------------------------------------------------

    def gate_delays(self, vdd, n_samples: int, include_die: bool = True):
        """Delays of ``n_samples`` independent single FO4 inverters (seconds).

        Each sample is a separate die (matching the paper's Fig. 1a, where
        each Monte-Carlo sample is an independent SPICE seed).
        """
        return self.chain_delays(vdd, 1, n_samples, include_die=include_die)

    def chain_delays(self, vdd, chain_length: int, n_samples: int,
                     include_die: bool = True):
        """Delays of ``n_samples`` co-located chains of FO4 gates.

        One die draw and one spatial-region (lane-level) draw per sample —
        a standalone test chain fits inside one correlation region; within
        a sample, every gate draws its own within-die variation.  Returns
        seconds, shape ``(n_samples,)``.  ``include_die=False`` drops the
        correlated scales entirely (pure mismatch ablation).
        """
        if chain_length < 1:
            raise ConfigurationError("chain_length must be >= 1")
        if n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        return self.kernel.chain_batch(self.rng, float(vdd), n_samples,
                                       chain_length, include_die=include_die)

    # -- architecture level ------------------------------------------------

    def system_delays(self, vdd, *, width: int, paths_per_lane: int,
                      chain_length: int, n_chips: int, spares: int = 0,
                      batch_size: int = 64):
        """Full per-gate MC of the SIMD chip delay (seconds).

        Memory-bounded by ``batch_size`` chips at a time (the fused
        kernel additionally blocks internally; neither affects the
        result).  The cost is ``n_chips * (width+spares) * paths_per_lane
        * chain_length`` gate evaluations — keep architecture sizes
        modest (this is the validation path; production analysis uses
        :class:`~repro.core.chip_delay.ChipDelayEngine`).
        """
        if width < 1:
            raise ConfigurationError("width must be >= 1")
        if paths_per_lane < 1:
            raise ConfigurationError("paths_per_lane must be >= 1")
        if chain_length < 1:
            raise ConfigurationError("chain_length must be >= 1")
        if n_chips < 1:
            raise ConfigurationError("n_chips must be >= 1")
        if spares < 0:
            raise ConfigurationError("spares must be >= 0")
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}")
        n_lanes = width + spares
        vdd = float(vdd)
        _obs_counter("montecarlo.chips").inc(int(n_chips))
        children = self._spawn_children(n_chips)
        out = np.empty(n_chips, dtype=self.kernel.dtype)
        done = 0
        while done < n_chips:
            batch = min(batch_size, n_chips - done)
            rngs = [np.random.default_rng(child)
                    for child in children[done:done + batch]]
            self.kernel.system_batch(rngs, vdd, n_lanes, paths_per_lane,
                                     chain_length, spares,
                                     out[done:done + batch])
            done += batch
        return out

    def weighted_system_delays(self, vdd, *, width: int, paths_per_lane: int,
                               chain_length: int, n_chips: int, proposal,
                               spares: int = 0, batch_size: int = 64,
                               return_d2d: bool = False):
        """Importance-sampled chip delays plus log-likelihood weights.

        Identical stream contract to :meth:`system_delays` — per-chip
        SeedSequence children, so the result is invariant to
        ``batch_size`` and kernel blocking — but each chip's die/lane
        threshold draws are mean-shifted by ``proposal`` (a
        :class:`~repro.core.tailsampling.ShiftProposal`) *after* leaving
        the stream, and the chip's log-likelihood ratio ``log p/q``
        comes back alongside its delay.  Returns ``(delays, logw)``
        (both shape ``(n_chips,)``; ``logw`` is always float64), or
        ``(delays, logw, d2d)`` with the shifted die-level threshold
        draws in volts when ``return_d2d`` is set (the adaptive shift
        search reads them).  A zero-shift single-component proposal
        reproduces :meth:`system_delays` bit-for-bit with zero weights.
        """
        if width < 1:
            raise ConfigurationError("width must be >= 1")
        if paths_per_lane < 1:
            raise ConfigurationError("paths_per_lane must be >= 1")
        if chain_length < 1:
            raise ConfigurationError("chain_length must be >= 1")
        if n_chips < 1:
            raise ConfigurationError("n_chips must be >= 1")
        if spares < 0:
            raise ConfigurationError("spares must be >= 0")
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}")
        proposal.validate_for(self.tech.variation)
        n_lanes = width + spares
        vdd = float(vdd)
        _obs_counter("montecarlo.weighted_chips").inc(int(n_chips))
        children = self._spawn_children(n_chips)
        out = np.empty(n_chips, dtype=self.kernel.dtype)
        logw = np.empty(n_chips, dtype=np.float64)
        d2d = np.empty(n_chips, dtype=np.float64) if return_d2d else None
        done = 0
        while done < n_chips:
            batch = min(batch_size, n_chips - done)
            rngs = [np.random.default_rng(child)
                    for child in children[done:done + batch]]
            self.kernel.system_batch(
                rngs, vdd, n_lanes, paths_per_lane, chain_length, spares,
                out[done:done + batch], proposal=proposal,
                logw_out=logw[done:done + batch],
                d2d_out=None if d2d is None else d2d[done:done + batch])
            done += batch
        if return_d2d:
            return out, logw, d2d
        return out, logw

    def lane_delays(self, vdd, *, paths_per_lane: int, chain_length: int,
                    n_samples: int, batch_size: int = 512):
        """Full per-gate MC of single-lane delays (max of P paths), seconds."""
        if paths_per_lane < 1:
            raise ConfigurationError("paths_per_lane must be >= 1")
        if chain_length < 1:
            raise ConfigurationError("chain_length must be >= 1")
        if n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}")
        vdd = float(vdd)
        _obs_counter("montecarlo.lanes").inc(int(n_samples))
        children = self._spawn_children(n_samples)
        out = np.empty(n_samples, dtype=self.kernel.dtype)
        done = 0
        while done < n_samples:
            batch = min(batch_size, n_samples - done)
            rngs = [np.random.default_rng(child)
                    for child in children[done:done + batch]]
            self.kernel.lane_batch(rngs, vdd, paths_per_lane, chain_length,
                                   out[done:done + batch])
            done += batch
        return out
