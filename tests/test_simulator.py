import math

import pytest

from iterflow.errors import KindAbsentError
from iterflow.scenarios import load_scenario
from iterflow.simulator import (
    format_table,
    generate_trace,
    idle_trace,
    simulate,
)

from conftest import sim_node, sim_spec

# Frozen once from the implementation: seed 7, frequencies (0.4, 0.4, 0.2),
# ten iterations.  These are the traces the directional comparisons run on;
# any drift in trace generation is a breaking change and must show up here.
GOLDEN_CLASSIFICATION = [
    ("data-preprocessing", "dedupe_rows"),
    ("data-preprocessing", "build_features"),
    ("data-preprocessing", "clean_rows"),
    ("data-preprocessing", "build_features"),
    ("evaluation", "compute_metrics"),
    ("data-preprocessing", "scale_numeric"),
    ("ml", "calibrate_model"),
    ("data-preprocessing", "scale_numeric"),
    ("data-preprocessing", "clean_rows"),
    ("evaluation", "summary_report"),
]
GOLDEN_IE = [
    ("data-preprocessing", "context_features"),
    ("data-preprocessing", "candidate_features"),
    ("data-preprocessing", "pos_tag"),
    ("data-preprocessing", "sentence_segment"),
    ("data-preprocessing", "pos_tag"),
    ("data-preprocessing", "clean_markup"),
    ("ml", "extract_relations"),
    ("data-preprocessing", "pos_tag"),
    ("ml", "tune_thresholds"),
    ("data-preprocessing", "corpus_raw"),
]


def three_kind_spec():
    return sim_spec(
        [
            sim_node("prep", kind="data-preprocessing", compute_seconds=4.0,
                     output_bytes=1000),
            sim_node("fit", ("prep",), kind="ml", compute_seconds=2.0,
                     output_bytes=1000),
            sim_node("check", ("fit",), kind="evaluation", compute_seconds=1.0,
                     output_bytes=1000),
        ],
        outputs=("check",),
    )


class TestGenerateTrace:
    def test_degenerate_frequencies_pick_one_kind(self):
        trace = generate_trace(three_kind_spec(), (1.0, 0.0, 0.0), 8, seed=3)
        assert all(s.kind == "data-preprocessing" for s in trace.steps)

    def test_same_seed_same_trace(self):
        spec = load_scenario("classification")
        a = generate_trace(spec, (0.4, 0.4, 0.2), 10, seed=21)
        b = generate_trace(spec, (0.4, 0.4, 0.2), 10, seed=21)
        assert a == b

    def test_golden_trace_classification(self):
        trace = generate_trace(load_scenario("classification"), (0.4, 0.4, 0.2), 10, 7)
        assert [(s.kind, s.node) for s in trace.steps] == GOLDEN_CLASSIFICATION

    def test_golden_trace_ie(self):
        trace = generate_trace(load_scenario("ie"), (0.4, 0.4, 0.2), 10, 7)
        assert [(s.kind, s.node) for s in trace.steps] == GOLDEN_IE

    def test_absent_kind_is_an_error(self):
        spec = sim_spec([sim_node("only", kind="ml")], outputs=("only",))
        with pytest.raises(KindAbsentError):
            generate_trace(spec, (1.0, 0.0, 0.0), 3, seed=1)

    def test_frequencies_must_sum_to_one(self):
        for frequencies in ((0.5, 0.4, 0.2), (math.nan, 1.0, 1.0)):
            with pytest.raises(ValueError, match="summing to 1"):
                generate_trace(three_kind_spec(), frequencies, 3, seed=1)


class TestSimulate:
    def test_materialize_none_recomputes_everything_every_time(self):
        spec = three_kind_spec()
        trace = idle_trace(spec, 4)
        result = simulate(spec, trace, "materialize-none")
        assert [round(r.seconds, 6) for r in result.rows] == [7.0] * 4
        # cumulative curve is linear when nothing is ever reused
        assert [round(r.cumulative_seconds, 6) for r in result.rows] == [7.0, 14.0, 21.0, 28.0]

    def test_engine_on_idle_trace_converges_to_sink_loads(self):
        spec = three_kind_spec()
        result = simulate(spec, idle_trace(spec, 3), "engine")
        assert result.rows[0].seconds == 7.0
        sink_load = 1000 / 100e6
        for row in result.rows[1:]:
            assert row.seconds == pytest.approx(sink_load)

    def test_identical_seeds_reproduce_identical_tables(self):
        spec = load_scenario("classification")
        trace = generate_trace(spec, n_iterations=4, seed=7)
        first = simulate(spec, trace, "engine")
        second = simulate(spec, trace, "engine")
        assert format_table([first]) == format_table([second])

    def test_dominance_on_a_small_trace(self):
        spec = load_scenario("classification")
        trace = generate_trace(spec, n_iterations=5, seed=7)
        engine = simulate(spec, trace, "engine").cumulative_seconds
        for baseline in ("materialize-all", "materialize-none"):
            other = simulate(spec, trace, baseline).cumulative_seconds
            assert engine <= other * 1.01

    def test_table_shape(self):
        spec = three_kind_spec()
        trace = idle_trace(spec, 2)
        results = [simulate(spec, trace, p) for p in ("engine", "materialize-none")]
        lines = format_table(results).strip().split("\n")
        assert lines[0].split("\t") == [
            "iteration", "kind", "policy", "iteration_seconds", "cumulative_seconds",
        ]
        assert len(lines) == 1 + 2 * 2


def _linear(step: float) -> list[float]:
    return [step * i for i in range(1, 16)]


# Every row's cumulative seconds at seed 7, 15 iterations and the default
# frequencies, per scenario, budget and policy.  Frozen from the
# implementation; a change to any policy's decisions shows up here.
PINNED_CUMULATIVE = {
    ("ie", None): {
        "engine": [171.0, 266.7, 403.2, 561.9, 698.4, 858.6, 889.15, 1025.65,
                   1075.65, 1244.85, 1294.85, 1316.55, 1347.1, 1362.1, 1392.65],
        "materialize-all": [322.45, 484.4, 736.55, 1035.6, 1287.75, 1597.8, 1648.05,
                            1900.2, 1978.45, 2298.9, 2377.15, 2412.85, 2463.1, 2485.1,
                            2535.35],
        "materialize-none": _linear(171.0),
        "paper-literal": _linear(171.0),
    },
    ("ie", 3 * 10**9): {
        "engine": [171.0, 319.6, 468.2, 626.9, 785.6, 945.8, 1106.0, 1266.2, 1426.4,
                   1595.6, 1755.8, 1916.0, 2076.2, 2236.4, 2396.6],
        "materialize-all": [199.2, 347.8, 496.4, 655.1, 813.8, 974.0, 1134.2, 1294.4,
                            1454.6, 1625.2, 1785.4, 1945.6, 2105.8, 2266.0, 2426.2],
        "materialize-none": _linear(171.0),
        "paper-literal": _linear(171.0),
    },
    ("classification", None): {
        "engine": [100.0, 138.9, 221.4, 260.3, 264.5, 308.2, 324.5, 368.2, 450.7,
                   451.74, 468.04, 499.14, 544.64, 613.04, 681.44],
        "materialize-all": [109.5, 151.3, 241.2, 283.0, 287.25, 334.25, 351.05, 398.05,
                            487.95, 489.0, 505.8, 538.7, 587.7, 662.1, 736.5],
        "materialize-none": _linear(100.0),
        "paper-literal": _linear(100.0),
    },
    ("classification", 3 * 10**9): {
        "engine": [100.0, 138.9, 221.4, 260.3, 264.5, 308.2, 324.5, 368.2, 450.7,
                   451.74, 534.24, 616.74, 699.24, 781.74, 864.24],
        "materialize-all": [109.5, 151.3, 241.2, 283.0, 287.25, 334.25, 351.05, 398.05,
                            480.6, 481.65, 564.2, 646.74, 729.24, 811.74, 894.24],
        "materialize-none": _linear(100.0),
        "paper-literal": _linear(100.0),
    },
}


@pytest.mark.parametrize("scenario, budget", list(PINNED_CUMULATIVE),
                         ids=lambda v: str(v))
def test_policies_reproduce_the_pinned_cumulative_seconds(scenario, budget):
    spec = load_scenario(scenario)
    trace = generate_trace(spec, n_iterations=15, seed=7)
    for policy, expected in PINNED_CUMULATIVE[scenario, budget].items():
        result = simulate(spec, trace, policy, budget_bytes=budget)
        got = [row.cumulative_seconds for row in result.rows]
        assert got == pytest.approx(expected, abs=1e-6), policy
