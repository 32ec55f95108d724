"""Every output check passes on consistent outputs and fails when one
checked value is perturbed by 1e-6 relative.

The program is replaced by a smooth synthetic model with the properties
the checks rely on: the quantile falls with supply voltage and spares, and
the reference is exact.
"""

import copy
import math

import pytest

import checks

NOMINAL = {"90nm": 1.0, "45nm": 1.0, "22nm": 0.8}
SLOPE = {"90nm": 0.0976, "45nm": 0.3, "22nm": 0.55}
FIG4 = {"90nm": {0.5: 5.0}, "22nm": {0.5: 18.0}}
BUMP = 1.0 + 1e-6


def ref(node, vdd, q, spares):
    scale = 1.1 if q == 0.999 else 1.0
    return (1e-8 * scale * math.exp(-(4.9 + SLOPE[node]) * (vdd - 0.5))
            / (1.0 + 0.02 * spares))


def fo4(node, vdd):
    return 1e-10 * math.exp(-4.9 * (vdd - 0.5))


def target(node, vdd):
    nom = NOMINAL[node]
    return fo4(node, vdd) * ref(node, nom, 0.99, 0.0) / fo4(node, nom)


def power(vdd, spares, margin):
    return 0.01 * spares + 2.0 * margin


def _margin(node, vdd, spares=0):
    """Smallest margin meeting the target, to 1e-6 V, on the meeting side."""
    lo, hi = 0.0, 0.2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ref(node, vdd + mid, 0.99, spares) <= target(node, vdd):
            hi = mid
        else:
            lo = mid
    return hi


def _design(node):
    vdd = 0.6
    tgt = target(node, vdd)
    n = next(a for a in range(129) if ref(node, vdd, 0.99, a) <= tgt)
    m = _margin(node, vdd)
    cm = _margin(node, vdd, 1)
    return {
        "spares": [{"vdd": vdd, "spares": n, "feasible": True,
                    "max_spares": 128, "target_delay": tgt,
                    "achieved_delay": ref(node, vdd, 0.99, n)}],
        "margins": [{"vdd": vdd, "margin": m, "feasible": True,
                     "target_delay": tgt,
                     "achieved_delay": ref(node, vdd + m, 0.99, 0.0)}],
        "combinations": [{"vdd": vdd, "spares": 1, "margin": cm,
                          "feasible": True,
                          "power_overhead": power(vdd, 1, cm)}],
        "frequency": [{"vdd": vdd, "t_clk": tgt,
                       "t_va_clk": ref(node, vdd, 0.99, 0.0)}],
    }


def _bumped(obj, path):
    out = copy.deepcopy(obj)
    *head, last = path
    box = out
    for key in head:
        box = box[key]
    box[last] = box[last] * BUMP
    return out


DESIGN_FIELDS = [
    ("spares", 0, "spares"), ("spares", 0, "target_delay"),
    ("spares", 0, "achieved_delay"), ("margins", 0, "margin"),
    ("margins", 0, "target_delay"), ("margins", 0, "achieved_delay"),
    ("combinations", 0, "margin"), ("combinations", 0, "power_overhead"),
    ("combinations", 0, "spares"), ("frequency", 0, "t_clk"),
    ("frequency", 0, "t_va_clk"),
]


def test_design_flow_passes_on_consistent_solutions():
    for node in NOMINAL:
        assert checks.design_flow(node, _design(node), target, ref,
                                  power) == []


@pytest.mark.parametrize("field", DESIGN_FIELDS)
def test_design_flow_fails_on_a_perturbed_value(field):
    design = _bumped(_design("45nm"), field)
    assert checks.design_flow("45nm", design, target, ref, power)


def test_design_flow_rejects_non_minimal_spares():
    design = _design("45nm")
    s = design["spares"][0]
    s["spares"] += 1
    s["achieved_delay"] = ref("45nm", s["vdd"], 0.99, s["spares"])
    assert any("not minimal" in f for f in
               checks.design_flow("45nm", design, target, ref, power))


def _sweep():
    points = {}
    for node in ("90nm", "22nm"):
        vdds = [0.45 + 0.0013 + 0.0025 * k for k in range(
            int(round((NOMINAL[node] - 0.45) / 0.0025)))]
        points[node] = [(v, ref(node, v, 0.99, 0.0)) for v in vdds]
    nominal = {node: (NOMINAL[node], ref(node, NOMINAL[node], 0.99, 0.0))
               for node in ("90nm", "22nm")}
    return points, nominal


def test_fig4_anchors_pass_and_fail_on_a_perturbed_value():
    points, nominal = _sweep()
    assert checks.fig4_anchors(points, nominal, fo4, FIG4, ref) == []
    # Perturb the swept value just below 0.5 V at 22 nm.
    k = max(i for i, (v, _) in enumerate(points["22nm"]) if v <= 0.5)
    bad = copy.deepcopy(points)
    v, q = bad["22nm"][k]
    bad["22nm"][k] = (v, q * BUMP)
    assert checks.fig4_anchors(bad, nominal, fo4, FIG4, ref)
    bad_nominal = dict(nominal, **{"90nm": (1.0, nominal["90nm"][1] * BUMP)})
    assert checks.fig4_anchors(points, bad_nominal, fo4, FIG4, ref)


def test_fig4_anchors_fail_outside_the_paper_band():
    points, nominal = _sweep()
    assert checks.fig4_anchors(points, nominal, fo4,
                               {"90nm": {0.5: 9.0}, "22nm": {0.5: 18.0}},
                               ref)


def test_reference_and_sweep_checks():
    pairs = [("a", ref("45nm", 0.6, 0.99, 2.0), ref("45nm", 0.6, 0.99, 2.0))]
    assert checks.against_reference("s", pairs) == []
    assert checks.against_reference(
        "s", [("a", pairs[0][1] * BUMP, pairs[0][2])])
    assert checks.against_reference(
        "s", [("a", pairs[0][1] * (1.0 + 2e-12), pairs[0][2])]) == []
    assert checks.finite_positive("s", [1.0, 2.0]) == []
    assert checks.finite_positive("s", [1.0, math.nan])
    assert checks.finite_positive("s", [1.0, -1e-9])
    cold = [[(1e-8).hex(), (2e-8).hex()]]
    warm = [[(1e-8).hex(), (2e-8 * BUMP).hex()]]
    assert checks.bit_equal("w", cold, copy.deepcopy(cold)) == []
    assert checks.bit_equal("w", cold, warm)


def _tail_outputs(value=3.2e-9):
    return {"value": value, "ess": 3100.5, "weight_max_ratio": 0.004,
            "rounds": 5, "shift": 2.25, "proposal": "defensive"}


@pytest.mark.parametrize("key", ["value", "ess", "weight_max_ratio",
                                 "shift"])
def test_tail_check_fails_on_a_perturbed_value(key):
    first = _tail_outputs()
    analytic = first["value"] / 1.01
    assert checks.tail(first, _tail_outputs(), analytic, 4096) == []
    repeat = _bumped(_tail_outputs(), [key])
    assert checks.tail(first, repeat, analytic, 4096)


def test_tail_check_bounds():
    first = _tail_outputs()
    assert checks.tail(first, _tail_outputs(), first["value"] / 1.07, 4096)
    low_ess = dict(first, ess=100.0)
    assert checks.tail(low_ess, dict(low_ess), first["value"], 4096)


def test_served_repeats_fail_on_a_perturbed_value():
    point = ("45nm", 0.6012, 0.0, 0.99)
    value = ref(*point[:2], 0.99, 0.0)
    answers = [(point, value.hex()), (("45nm", 0.61, 0.0, 0.99), "0x1p-27"),
               (point, value.hex())]
    assert checks.served_repeats("s", answers) == []
    answers[2] = (point, (value * BUMP).hex())
    assert checks.served_repeats("s", answers)
