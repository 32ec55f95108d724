"""The seeded input generators: pure in the seed, fixed amount of work."""

import pytest

import inputs as gen

NOMINAL = {"90nm": 1.0, "45nm": 1.0, "32nm": 0.9, "22nm": 0.8}
SEEDS = (0, 1, 2, 17, 12345)


def _sizes(plan):
    return [len(c["vdd"]) for c in plan["columns"]]


@pytest.mark.parametrize("seed", SEEDS)
def test_signoff_inputs_are_pure_and_fixed_size(seed):
    a = gen.signoff_inputs(seed, NOMINAL)
    assert a == gen.signoff_inputs(seed, NOMINAL)
    assert sum(_sizes(a)) == 4560
    assert _sizes(a) == _sizes(gen.signoff_inputs(0, NOMINAL))
    for node, d in a["design"].items():
        assert len(d["voltages"]) == len(gen.DESIGN_VOLTAGES)
        assert len(d["combination"]) == len(gen.COMBINATION_VOLTAGES)
    assert len(a["check_sample"]) == gen.SWEEP_CHECK_POINTS


def test_signoff_seed_moves_every_voltage():
    a = gen.signoff_inputs(1, NOMINAL)
    b = gen.signoff_inputs(2, NOMINAL)
    for ca, cb in zip(a["columns"], b["columns"]):
        assert not set(ca["vdd"]) & set(cb["vdd"])
    assert a["design"] != b["design"]


def test_sweep_stays_inside_its_band():
    plan = gen.signoff_inputs(3, NOMINAL)
    for col in plan["columns"]:
        assert gen.SWEEP_LOW_V < min(col["vdd"])
        assert max(col["vdd"]) < NOMINAL[col["node"]]


def _serve_counts(plan):
    kinds = [r["kind"] for r in plan["requests"]]
    return (len(kinds), kinds.count("hot"), kinds.count("single"),
            kinds.count("slice"),
            sum(len(r["points"]) for r in plan["requests"]),
            sum(len(r["points"]) for r in plan["warmup"]))


@pytest.mark.parametrize("seed", SEEDS)
def test_serve_inputs_are_pure_and_fixed_size(seed):
    a = gen.serve_inputs(seed, NOMINAL)
    assert a == gen.serve_inputs(seed, NOMINAL)
    assert _serve_counts(a) == _serve_counts(gen.serve_inputs(0, NOMINAL))
    assert len(a["requests"]) >= 1000
    due = [r["due_s"] for r in a["requests"]]
    assert due == sorted(due) and due[0] == 0.0


def test_serve_cold_points_are_never_repeated_and_hot_ones_are_warm():
    plan = gen.serve_inputs(5, NOMINAL)
    warm = {tuple(p) for r in plan["warmup"] for p in r["points"]}
    cold = [tuple(p) for r in plan["requests"] if r["kind"] != "hot"
            for p in r["points"]]
    assert len(cold) == len(set(cold))
    assert not set(cold) & warm
    hot = {tuple(p) for r in plan["requests"] if r["kind"] == "hot"
           for p in r["points"]}
    assert hot <= warm
    sizes = [len(r["points"]) for r in plan["requests"]
             if r["kind"] == "slice"]
    assert min(sizes) == 8 and max(sizes) == 16


@pytest.mark.parametrize("seed", SEEDS)
def test_tail_inputs_are_pure(seed):
    a = gen.tail_inputs(seed, NOMINAL)
    assert a == gen.tail_inputs(seed, NOMINAL)
    assert a["node"] in NOMINAL
    assert a["n_samples"] == 4096 and a["q"] == 0.9999
