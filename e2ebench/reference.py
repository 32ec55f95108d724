"""Reference values computed in the benchmark process.

The reference quantile is the program's scalar solver
``ChipDelayEngine.chip_quantile`` (bracketing + Brent on the exact CDF),
called on an analyzer whose persistent cache is off and with no runtime
active, so no value the measured processes wrote can leak into a check.
"""

from __future__ import annotations


class Reference:
    """Memoised ``ref(node, vdd, q, spares) -> seconds`` plus helpers."""

    def __init__(self, repro) -> None:
        from repro.runtime.cache import QuantileCache
        from repro.simd.diet_soda import DIET_SODA
        self._repro = repro
        self._cache_off = QuantileCache(enabled=False)
        self._analyzers: dict = {}
        self._memo: dict = {}
        self._pe = DIET_SODA

    def analyzer(self, node: str, arch: dict | None = None):
        """A cache-less analyzer (the library as a plain user calls it)."""
        key = (node, tuple(sorted((arch or {}).items())))
        a = self._analyzers.get(key)
        if a is None:
            a = self._repro.VariationAnalyzer(
                node, quantile_cache=self._cache_off, **(arch or {}))
            self._analyzers[key] = a
        return a

    def __call__(self, node: str, vdd: float, q: float, spares: float,
                 arch: dict | None = None) -> float:
        key = (node, float(vdd), float(q), float(spares),
               tuple(sorted((arch or {}).items())))
        value = self._memo.get(key)
        if value is None:
            value = float(self.analyzer(node, arch).engine.chip_quantile(
                float(vdd), float(q), float(spares)))
            self._memo[key] = value
        return value

    def tail(self, node: str, vdd: float, q: float, arch: dict) -> float:
        """The analytic quantile of a reduced architecture (no spares)."""
        return self(node, vdd, q, 0.0, arch)

    def fo4(self, node: str, vdd: float) -> float:
        return float(self.analyzer(node).fo4_unit(vdd))

    def nominal(self, node: str) -> float:
        return float(self.analyzer(node).nominal_vdd)

    def target(self, node: str, vdd: float) -> float:
        """The paper's sign-off target ``FO4(vdd) * fo4chipd@FV``."""
        nom = self.nominal(node)
        return self.fo4(node, vdd) * (self(node, nom, 0.99, 0.0)
                                      / self.fo4(node, nom))

    def power(self, vdd: float, spares: int, margin: float) -> float:
        """Power overhead of a (spares, margin) combination."""
        return (self._pe.spare_power_overhead(spares)
                + self._pe.margin_power_overhead(vdd, margin))
