//! Metric names, units, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run reports, with units.
///
/// `ok_ratio` is `1 − fail_ratio`: the result line carries the share
/// that succeeded because a ratio that reads 0 when all is well has no
/// relative spread to bound. `fail_ratio` itself is printed above it.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("gtlc.lex_us", "us"),
    ("gtlc.parse_us", "us"),
    ("gtlc.elaborate_us", "us"),
    ("gtlc.tokens_per_op", "count/op"),
    ("gtlc.type_nodes_new_per_op", "count/op"),
    ("translate.b_to_c_us", "us"),
    ("translate.c_to_s_us", "us"),
    ("translate.normalizer_hit_ratio", "ratio"),
    ("core.compose_hit_ratio", "ratio"),
    ("core.compose_misses_per_op", "count/op"),
    ("core.coercion_nodes_new_per_op", "count/op"),
    ("machine.machine_s.ns_per_step", "ns/step"),
    ("machine.machine_b.ns_per_step", "ns/step"),
    ("machine.machine_c.ns_per_step", "ns/step"),
    ("machine.lambda_s.ns_per_step", "ns/step"),
    ("machine.machine_s.steps_per_op", "count/op"),
    ("machine.machine_b.steps_per_op", "count/op"),
    ("machine.machine_c.steps_per_op", "count/op"),
    ("machine.lambda_s.steps_per_op", "count/op"),
    ("machine.machine_s.peak_cast_frames", "count"),
    ("session.compile_us", "us"),
    ("session.run_us", "us"),
    ("session.self_us", "us"),
    ("session.tree_builds", "count"),
    ("pool.queue_wait_us.p50", "us"),
    ("pool.queue_wait_us.p99", "us"),
    ("pool.steals_per_job", "count/op"),
    ("pool.compiled_share", "ratio"),
    ("pool.coercion_base_hit_rate", "ratio"),
    ("pool.compose_base_hit_rate", "ratio"),
    ("pool.promotions", "count"),
    ("pool.promotion_us", "us"),
    ("pool.respawns", "count"),
    ("sched.slices_per_job", "count/op"),
    ("sched.preemptions_per_job", "count/op"),
    ("sched.deadline_misses", "count"),
    ("sched.rejected", "count"),
    ("obs.scrape_us", "us"),
    ("obs.audit_dropped", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.count_window_ops", "count"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A ratio, 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Renders the result line: `metrics` must hold exactly the names in
/// `spec`, each a finite number.
///
/// # Panics
///
/// Panics if a name is missing or extra, or a value is not finite — a
/// bug in the benchmark, not a measurement.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(&'static str, &'static str)],
    metrics: &Metrics,
) -> String {
    assert_eq!(
        metrics.len(),
        spec.len(),
        "metric set differs from the spec: {:?}",
        metrics.keys().collect::<Vec<_>>()
    );
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in spec.iter().enumerate() {
        let value = *metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
