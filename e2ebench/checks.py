"""Output checks, as pure functions over reported values.

Every check returns a list of failure messages (empty when it passes).
Tolerances follow the program's own guarantees:

* the batch and scalar quantile solvers each polish to ~1e-12 relative,
  so any value is compared with the scalar reference
  ``ChipDelayEngine.chip_quantile`` at ``REF_RTOL = 1e-9`` — loose
  against solver round-off (3e-12 measured), tight against any real
  error (a 1e-6 relative error fails);
* the persistent cache stores ``float.hex`` strings, so warm values must
  equal cold values bit for bit, and so must a served point answered
  twice and a tail estimate repeated in a second process;
* the Fig. 4 anchor bands are the ones ``tests/test_paper_fidelity.py``
  pins;
* the tail bounds are sized from a seed sweep, see ``TAIL_*`` below.

``ref`` arguments are callables ``ref(node, vdd, q, spares) -> seconds``.
"""

from __future__ import annotations

import math

REF_RTOL = 1e-9

#: 99.99 % tail estimate vs the analytic quantile.  A sweep of 100
#: estimates (4096 samples; 55 at 32 nm, the widest node: mean -0.74 %,
#: sd 1.15 %, range -2.87 % .. +2.31 %; the other nodes within +-1.5 %)
#: puts 6 % more than 4.5 sd beyond the widest node's mean.
TAIL_REL_BOUND = 0.06
#: Kish ESS floor as a share of the samples; the same sweep's lowest share
#: was 0.25 (22 nm), while a collapsed proposal sits near 0.
TAIL_ESS_FLOOR = 0.10

#: Voltage-margin search tolerance (``solve_voltage_margin`` default
#: ``xtol``); the returned margin lies within a few ``xtol`` above the root.
MARGIN_XTOL = 1e-5


def _close(value: float, reference: float, rtol: float = REF_RTOL) -> bool:
    return (math.isfinite(value) and math.isfinite(reference)
            and abs(value - reference) <= rtol * abs(reference))


def finite_positive(label: str, values) -> list:
    bad = [v for v in values if not (math.isfinite(v) and v > 0.0)]
    return [f"{label}: {len(bad)} values not finite and > 0"] if bad else []


def against_reference(label: str, pairs) -> list:
    """``pairs`` of ``(what, value, reference)`` must agree to REF_RTOL."""
    return [f"{label}: {what} = {value!r}, reference {reference!r}"
            for what, value, reference in pairs
            if not _close(value, reference)]


def bit_equal(label: str, first, second) -> list:
    """Two reports must be identical (floats compared as hex strings)."""
    return [] if first == second else [f"{label}: outputs differ"]


def _interp(x0, x1, y0, y1, x) -> float:
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def fig4_anchors(points: dict, nominal: dict, fo4, anchors: dict,
                 ref) -> list:
    """The Fig. 4 performance-drop claims, read off the swept values.

    ``points[node]`` lists the swept ``(vdd, q99)`` pairs of the
    spare-less 99 % quantile; the drop at each anchor voltage is
    interpolated between the nearest swept voltages below and above it.
    Those two values and the nominal quantile ``nominal[node] = (vdd,
    q99)`` are first checked against ``ref``.  ``anchors`` is the
    program's ``FIG4_PERF_DROP`` table.
    """
    fails = []
    drops: dict = {}
    for node in ("90nm", "22nm"):
        swept = sorted(points[node])
        nom_v, nom_q = nominal[node]
        fails += against_reference(f"fig4 {node} nominal", [(
            f"q99@{nom_v}", nom_q, ref(node, nom_v, 0.99, 0.0))])
        base = nom_q / fo4(node, nom_v)
        for anchor in (0.5, 0.6, 0.7):
            k = max(i for i, (v, _) in enumerate(swept) if v <= anchor)
            pair = swept[k:k + 2]
            fails += against_reference(f"fig4 {node}", [
                (f"q99@{v}", q, ref(node, v, 0.99, 0.0)) for v, q in pair])
            d0, d1 = (100.0 * (q / fo4(node, v) / base - 1.0)
                      for v, q in pair)
            drops[node, anchor] = _interp(pair[0][0], pair[1][0], d0, d1,
                                          anchor)
    d90, d22 = drops["90nm", 0.5], drops["22nm", 0.5]
    if not (abs(d90 - anchors["90nm"][0.5]) <= 2.5 and d90 < 10.0):
        fails.append(f"fig4: 90nm drop at 0.5 V is {d90:.2f} %")
    if not abs(d22 - anchors["22nm"][0.5]) <= 0.25 * anchors["22nm"][0.5]:
        fails.append(f"fig4: 22nm drop at 0.5 V is {d22:.2f} %")
    for anchor in (0.5, 0.6, 0.7):
        if not drops["22nm", anchor] > drops["90nm", anchor]:
            fails.append(f"fig4: 22nm drop not above 90nm at {anchor} V")
    return fails


def design_flow(node: str, design: dict, target, ref, power) -> list:
    """Every design-flow solution meets its target; spares are minimal.

    ``target(node, vdd)`` is the reference sign-off target and
    ``power(vdd, spares, margin)`` the reference power overhead of a
    combination.  Each reported delay, target and overhead is compared
    with its reference, so any perturbed value fails.
    """
    fails = []
    label = f"design {node}"
    for s in design["spares"]:
        v, n = s["vdd"], s["spares"]
        tgt = target(node, v)
        if not isinstance(n, int) or n < 0:
            fails.append(f"{label}: spares {n!r} at {v} V")
            continue
        fails += against_reference(label, [
            (f"spare target@{v}", s["target_delay"], tgt),
            (f"spare achieved@{v}", s["achieved_delay"],
             ref(node, v, 0.99, float(n)))])
        if s["feasible"]:
            if not s["achieved_delay"] <= s["target_delay"]:
                fails.append(f"{label}: {n} spares miss the target at {v}")
            if n > 0 and not ref(node, v, 0.99, float(n - 1)) > tgt:
                fails.append(f"{label}: {n} spares not minimal at {v} V")
        elif not (n == s["max_spares"]
                  and ref(node, v, 0.99, float(n)) > tgt):
            fails.append(f"{label}: infeasible spare cell at {v} V")
    for m in design["margins"]:
        v, margin = m["vdd"], m["margin"]
        tgt = target(node, v)
        fails += against_reference(label, [
            (f"margin target@{v}", m["target_delay"], tgt),
            (f"margin achieved@{v}", m["achieved_delay"],
             ref(node, v + margin, 0.99, 0.0))])
        if m["feasible"]:
            if not m["achieved_delay"] <= m["target_delay"]:
                fails.append(f"{label}: margin misses the target at {v}")
            low = margin - 10 * MARGIN_XTOL
            if margin > 0.0 and low > 0.0 and not ref(
                    node, v + low, 0.99, 0.0) > tgt:
                fails.append(f"{label}: margin {margin} not minimal at {v}")
    for c in design["combinations"]:
        v, n, margin = c["vdd"], c["spares"], c["margin"]
        if not (isinstance(n, int) and n >= 0 and c["feasible"]):
            fails.append(f"{label}: combination {n!r} at {v} V")
            continue
        achieved = ref(node, v + margin, 0.99, float(n))
        if not achieved <= target(node, v):
            fails.append(f"{label}: combination misses the target at {v}")
        fails += against_reference(label, [
            (f"combination power@{v}", c["power_overhead"],
             power(v, n, margin))])
    for f in design["frequency"]:
        v = f["vdd"]
        fails += against_reference(label, [
            (f"t_clk@{v}", f["t_clk"], target(node, v)),
            (f"t_va_clk@{v}", f["t_va_clk"], ref(node, v, 0.99, 0.0))])
    return fails


def tail(first: dict, repeat: dict, analytic: float, n_samples: int) -> list:
    """A 99.99 % estimate: repeatable, well weighted, near the analytic."""
    fails = bit_equal("tail repeat", first, repeat)
    value, ess = first["value"], first["ess"]
    if not (math.isfinite(value) and value > 0.0):
        fails.append(f"tail: estimate {value!r}")
    if not ess >= TAIL_ESS_FLOOR * n_samples:
        fails.append(f"tail: ESS {ess:.1f} below "
                     f"{TAIL_ESS_FLOOR * n_samples:.0f}")
    rel = value / analytic - 1.0
    if not abs(rel) <= TAIL_REL_BOUND:
        fails.append(f"tail: IS/analytic - 1 = {rel:+.4f}")
    return fails


def served_repeats(label: str, answers) -> list:
    """Every point answered more than once got identical bits each time.

    ``answers`` is an iterable of ``(point, hex value)``.
    """
    seen: dict = {}
    bad = set()
    for point, value in answers:
        if seen.setdefault(point, value) != value:
            bad.add(point)
    return [f"{label}: {len(bad)} points answered with different bits"] \
        if bad else []
