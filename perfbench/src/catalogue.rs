//! The benchmark's workloads and metric names, in the order the result
//! line prints them. `run.py` checks every result line against
//! `BENCHMARK.json`, so a name or unit that drifts from it fails the run.

/// Workload names.
pub const WORKLOADS: &[&str] = &["paper-study", "megaflow", "relay-loopback"];

/// End-to-end metrics of the untraced run (`--trace 0`): name, unit.
/// Every workload reports both.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s")];

/// Workload-specific end-to-end figures, printed by name and unit on
/// the lines before the result line. They are not gated: a gated
/// metric must be reported by every workload, and `peak_rss_mb` is not
/// steady on `relay-loopback` (its thread stacks and socket buffers
/// make it bimodal).
pub const DETAIL: &[(&str, &str)] = &[
    ("measurement_s", "s"),
    ("selection_s", "s"),
    ("megaflow_s", "s"),
    ("ttfb_p50_ms", "ms"),
    ("ttfb_p99_ms", "ms"),
    ("ttfb_samples", "count"),
    ("fetch_p50_ms", "ms"),
    ("fetch_p99_ms", "ms"),
    ("fetch_samples", "count"),
    ("goodput_mbps", "MB/s"),
    ("bulk_samples", "count"),
    ("bulk_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("drain_forced", "count"),
    ("failed_frac", "ratio"),
];

/// A per-layer metric of the traced run (`--trace 1`).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Workloads that exercise the layer; elsewhere it reads 0.
    pub on: &'static [&'static str],
}

const PAPER: &[&str] = &["paper-study"];
const MEGA: &[&str] = &["megaflow"];
const SIM: &[&str] = &["paper-study", "megaflow"];
const RELAY: &[&str] = &["relay-loopback"];
const ALL: &[&str] = &["paper-study", "megaflow", "relay-loopback"];

const fn layer(name: &'static str, unit: &'static str, on: &'static [&'static str]) -> Layer {
    Layer { name, unit, on }
}

/// Per-layer metrics, in the order of `BENCHMARK.json` and the
/// layer→end-to-end map in `LAYERS.md`.
pub const PER_LAYER: &[Layer] = &[
    layer("workload.scenario_build_s", "s", PAPER),
    layer("simnet.race_calls", "count", PAPER),
    layer("simnet.race_busy_s", "s", PAPER),
    layer("simnet.finish_calls", "count", PAPER),
    layer("simnet.finish_busy_s", "s", PAPER),
    layer("simnet.begin_calls", "count", PAPER),
    layer("simnet.begin_busy_s", "s", PAPER),
    layer("simnet.cancel_busy_s", "s", PAPER),
    layer("simnet.advance_busy_s", "s", PAPER),
    layer("simnet.net_clone_s", "s", PAPER),
    layer("simnet.boundaries", "count", SIM),
    layer("simnet.full_solves", "count", SIM),
    layer("simnet.incremental_solves", "count", SIM),
    layer("simnet.component_solves", "count", SIM),
    layer("simnet.start_flow_calls", "count", MEGA),
    layer("simnet.start_flow_busy_s", "s", MEGA),
    layer("simnet.boundary_busy_s", "s", MEGA),
    layer("simnet.boundary_p50_us", "us", MEGA),
    layer("simnet.boundary_p99_us", "us", MEGA),
    layer("simnet.ns_per_flow_boundary", "ns", MEGA),
    layer("simnet.sharded_boundary_busy_s", "s", MEGA),
    layer("simnet.sharded_speedup", "ratio", MEGA),
    layer("session.measurement.calls", "count", PAPER),
    layer("session.measurement.self_s", "s", PAPER),
    layer("session.selection.calls", "count", PAPER),
    layer("session.selection.self_s", "s", PAPER),
    layer("session.probe_paths_per_session", "count", PAPER),
    layer("session.indirect_chosen_frac", "ratio", PAPER),
    layer("policy.calls", "count", PAPER),
    layer("policy.busy_s", "s", PAPER),
    layer("analysis.measurement_reports_s", "s", PAPER),
    layer("analysis.selection_reports_s", "s", PAPER),
    layer("analysis.fig1_s", "s", PAPER),
    layer("analysis.fig3_s", "s", PAPER),
    layer("stats.bootstrap_s", "s", PAPER),
    layer("stats.bootstrap_n", "count", PAPER),
    layer("stats.theil_sen_s", "s", PAPER),
    layer("stats.theil_sen_n", "count", PAPER),
    layer("relay.connect_us_p50", "us", RELAY),
    layer("relay.head_wait_us_p50", "us", RELAY),
    layer("relay.head_wait_us_p99", "us", RELAY),
    layer("relay.accept_first_byte_us_p50", "us", RELAY),
    layer("relay.accept_first_byte_us_p99", "us", RELAY),
    layer("relay.body_mbps", "MB/s", RELAY),
    layer("relay.accepted", "count", RELAY),
    layer("relay.completed", "count", RELAY),
    layer("relay.refused", "count", RELAY),
    layer("relay.forced", "count", RELAY),
    layer("http.encode_request_ns", "ns", RELAY),
    layer("http.parse_response_ns", "ns", RELAY),
    layer("trace.overhead_frac", "ratio", ALL),
    layer("trace.spans_dropped", "count", ALL),
];
