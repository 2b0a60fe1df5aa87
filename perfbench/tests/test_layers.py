"""Self-time accounting of nested layer timers."""

import time

import layers


def test_self_times_add_up_to_the_outermost_frame():
    clock = layers.LayerClock()
    clock.enter("experiment.x")
    time.sleep(0.01)
    clock.enter("fold")
    time.sleep(0.02)
    clock.enter("fold")  # recursion: counted once in total_s
    time.sleep(0.01)
    clock.exit()
    clock.exit()
    clock.exit()
    total = clock.total_s["experiment.x"]
    assert abs(sum(clock.self_s.values()) - total) < 1e-9
    assert clock.calls["fold"] == 2
    assert clock.total_s["fold"] < total
    assert abs(clock.self_s["fold"] - clock.total_s["fold"]) < 1e-9


def test_wrap_counts_results_and_keeps_exceptions():
    clock = layers.LayerClock()
    seen = []
    wrapped = clock.wrap("predictors", lambda n: n * 2, lambda result, args: seen.append(result))
    assert wrapped(4) == 8 and seen == [8]

    def boom():
        raise KeyError("x")

    failing = clock.wrap("predictors", boom)
    try:
        failing()
    except KeyError:
        pass
    assert clock.calls["predictors"] == 2


def test_derive_reports_unattributed_remainder():
    clock = layers.LayerClock()
    clock.calls.update({"experiment.a": 1, "fold": 2})
    clock.self_s.update({"experiment.a": 1.0, "fold": 2.0})
    clock.total_s.update({"experiment.a": 3.0, "fold": 2.0})
    metrics = layers.derive(clock.to_json(), whole_s=5.0, import_s=0.5, exit_s=0.5,
                            replay_events=4000)
    assert metrics["experiment.a.s"] == 3.0
    assert metrics["fold.replay_s"] == 2.0
    assert metrics["fold.events_per_s"] == 2000.0
    assert metrics["analysis.self_s"] == 1.0
    assert abs(metrics["unattributed_s"] - 1.0) < 1e-9
    rows = {row[0]: row for row in layers.self_time_table(clock.to_json(), 5.0, 0.5, 0.5)}
    assert abs(sum(row[1] for row in rows.values()) - 5.0) < 1e-9


def _report(workload, whole, rows, metrics):
    return {"workload": workload, "whole_s": whole, "traced_runs": 1, "table": rows,
            "missing": [], "metrics": metrics}


def test_report_diff_orders_layers_by_change():
    import report

    old = _report("paper-warm", 7.0, [["predictors", 2.0, 10, 0.3], ["fold", 1.0, 5, 0.1]],
                  {"unattributed_s": 0.1, "obs.tracing_overhead_ratio": 0.02,
                   "predictors.run_trace_s": 2.0})
    new = _report("paper-warm", 6.2, [["predictors", 1.1, 10, 0.2], ["fold", 1.1, 5, 0.2],
                                      ["sampling", 0.1, 1, 0.0]],
                  {"unattributed_s": 0.1, "obs.tracing_overhead_ratio": 0.02,
                   "predictors.run_trace_s": 1.1})
    text = report.diff(old, new)
    lines = text.splitlines()
    assert "-0.800 s" in lines[0]
    assert lines[2].split()[0] == "predictors"  # largest |delta| first
    assert "sampling" in text and "predictors.run_trace_s" in text
    assert "unattributed_s" not in text.split("changed:")[1]
    assert "predictors" in report.render(new)
