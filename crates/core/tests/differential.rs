//! Differential and fault-injection tests for striped sessions.
//!
//! The load-bearing guarantee: `SessionMode::Striped { chunks: 1,
//! k: 1 }` on a healthy network produces a record **bit-identical** to
//! the racing runner's. Everything striping adds (multi-chunk fan-out,
//! drift stealing, stall-death reassignment) must therefore be visible
//! only on the geometries it exists for.

use ir_core::predictor::FirstPortion;
use ir_core::sim_transport::SimTransport;
use ir_core::{
    run_paths_session_stats, run_paths_session_traced, PathSpec, ProbeMode, RebalanceConfig,
    SessionConfig, SessionMode, StripeStats,
};
use ir_simnet::bandwidth::ConstantProcess;
use ir_simnet::faults::FaultPlan;
use ir_simnet::sim::Network;
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::{LinkId, NodeId, NodeKind, Topology};
use ir_telemetry::trace::EventKind;
use ir_telemetry::Telemetry;

/// A 3-node world where the indirect path runs at `overlay_rate` and
/// the direct path at `direct_rate` (mirrors `ir-core`'s session test
/// world so the differential baselines match its fixtures).
fn world(direct_rate: f64, overlay_rate: f64) -> (SimTransport, NodeId, NodeId, NodeId) {
    faulty_world(direct_rate, overlay_rate, |_, _| FaultPlan::default())
}

fn faulty_world(
    direct_rate: f64,
    overlay_rate: f64,
    plan: impl FnOnce(LinkId, LinkId) -> FaultPlan,
) -> (SimTransport, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let c = t.add_node("client", NodeKind::Client);
    let v = t.add_node("relay", NodeKind::Intermediate);
    let s = t.add_node("server", NodeKind::Server);
    let l_cs = t.add_link(c, s, SimDuration::from_millis(80));
    let l_cv = t.add_link(c, v, SimDuration::from_millis(50));
    let l_vs = t.add_link(v, s, SimDuration::from_millis(15));
    let mut net = Network::new(t, 1.0);
    net.set_link_process(l_cs, Box::new(ConstantProcess::new(direct_rate)));
    net.set_link_process(l_cv, Box::new(ConstantProcess::new(overlay_rate)));
    net.set_link_process(l_vs, Box::new(ConstantProcess::new(50e6)));
    net.set_fault_plan(&plan(l_cs, l_cv));
    (SimTransport::new(net), c, v, s)
}

fn striped(chunks: u32, k: u32) -> SessionConfig {
    let mut cfg = SessionConfig::paper_defaults();
    cfg.mode = SessionMode::Striped {
        chunks,
        k,
        rebalance: RebalanceConfig::paper_defaults(),
    };
    cfg
}

fn run_racing(
    tp: &mut SimTransport,
    c: NodeId,
    v: NodeId,
    s: NodeId,
    cfg: &SessionConfig,
) -> ir_core::TransferRecord {
    run_paths_session_traced(
        tp,
        &mut FirstPortion,
        c,
        s,
        &[PathSpec::indirect(c, s, v)],
        vec![v],
        0,
        cfg,
        None,
    )
}

fn run_striped(
    tp: &mut SimTransport,
    c: NodeId,
    v: NodeId,
    s: NodeId,
    cfg: &SessionConfig,
) -> (ir_core::TransferRecord, StripeStats) {
    run_paths_session_stats(
        tp,
        &mut FirstPortion,
        c,
        s,
        &[PathSpec::indirect(c, s, v)],
        vec![v],
        0,
        cfg,
        None,
    )
}

/// The tentpole identity: one chunk, k = 1, healthy network — the
/// striper's record is the racing record, bit for bit, in both probe
/// modes and regardless of which path wins the probe.
#[test]
fn single_chunk_k1_is_bit_identical_to_racing() {
    for (direct, overlay) in [(100_000.0, 800_000.0), (800_000.0, 50_000.0)] {
        for probe_mode in [ProbeMode::FirstToFinish, ProbeMode::MeasureAll] {
            let mut racing_cfg = SessionConfig::paper_defaults();
            racing_cfg.probe_mode = probe_mode;
            let mut striped_cfg = striped(1, 1);
            striped_cfg.probe_mode = probe_mode;

            let (mut tp1, c1, v1, s1) = world(direct, overlay);
            let raced = run_racing(&mut tp1, c1, v1, s1, &racing_cfg);

            let (mut tp2, c2, v2, s2) = world(direct, overlay);
            let (striped_rec, stats) = run_striped(&mut tp2, c2, v2, s2, &striped_cfg);

            assert_eq!(
                raced, striped_rec,
                "striped {{1, 1}} diverged from racing (direct {direct}, overlay {overlay}, {probe_mode:?})"
            );
            // The whole remainder rode the probe winner, in one chunk.
            assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 1);
            assert_eq!(stats.reassignments, 0);
            assert_eq!(stats.deaths, 0);
        }
    }
}

/// Racing-mode configs through the stats runner return the racing
/// record and no stripe accounting.
#[test]
fn racing_mode_delegates_to_core() {
    let cfg = SessionConfig::paper_defaults();
    let (mut tp1, c1, v1, s1) = world(100_000.0, 800_000.0);
    let raced = run_racing(&mut tp1, c1, v1, s1, &cfg);
    let (mut tp2, c2, v2, s2) = world(100_000.0, 800_000.0);
    let (delegated, stats) = run_striped(&mut tp2, c2, v2, s2, &cfg);
    assert_eq!(raced, delegated);
    assert!(stats.per_path.is_empty(), "racing mode has no stripe stats");
}

/// Telemetry is strictly observational: a traced striped session
/// returns the identical record and emits the stripe counters.
#[test]
fn traced_striped_session_is_bit_identical_and_counts_chunks() {
    let cfg = striped(6, 1);
    let (mut tp1, c1, v1, s1) = world(100_000.0, 800_000.0);
    let (plain, stats) = run_striped(&mut tp1, c1, v1, s1, &cfg);

    let (mut tp2, c2, v2, s2) = world(100_000.0, 800_000.0);
    let tel = Telemetry::new();
    let traced = run_paths_session_traced(
        &mut tp2,
        &mut FirstPortion,
        c2,
        s2,
        &[PathSpec::indirect(c2, s2, v2)],
        vec![v2],
        0,
        &cfg,
        Some(&tel),
    );
    assert_eq!(plain, traced, "telemetry changed the record");
    let snap = tel.metrics.snapshot();
    assert_eq!(snap.counter("session_started", &vec![]), Some(1));
    assert_eq!(snap.counter("stripe_chunks_completed", &vec![]), Some(6));
    // Per-path chunk counters reconcile with the stats the scheduler
    // reported on the untraced run.
    for p in stats.per_path.iter().filter(|p| p.chunks > 0) {
        assert_eq!(
            snap.counter("stripe_path_chunks", &vec![("path", p.path.to_string())]),
            Some(p.chunks),
            "path {} chunk counter",
            p.path
        );
    }
}

/// Multi-chunk striping on a healthy asymmetric network: both paths
/// carry bytes, every chunk completes, and the session beats the
/// winner-take-all racer (the direct path's idle capacity is free).
#[test]
fn multi_chunk_striping_uses_both_paths_and_completes() {
    let cfg = striped(8, 1);
    let (mut tp, c, v, s) = world(400_000.0, 800_000.0);
    let (rec, stats) = run_striped(&mut tp, c, v, s, &cfg);
    assert!(!rec.abandoned);
    assert!(rec.selected_throughput > 0.0);
    assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 8);
    assert_eq!(stats.per_path.len(), 2, "direct + one candidate");
    for p in &stats.per_path {
        assert!(p.chunks > 0, "path {} sat idle", p.path);
    }
    assert_eq!(stats.deaths, 0);
    assert_eq!(
        rec.file_bytes,
        cfg.probe_bytes + stats.per_path.iter().map(|p| p.bytes).sum::<u64>(),
        "every remainder byte accounted to exactly one path"
    );
}

/// The stale-prediction geometry striping exists for: the overlay wins
/// the probe, then browns out to a crawl immediately after the
/// decision. Racing (even with failover) keeps waiting — the path
/// still trickles, so no stall ever fires — while the striper's drift
/// rebalancer moves the remaining chunks to the healthy direct path.
#[test]
fn striping_beats_racing_on_stale_prediction_brownout() {
    let brownout = |_cs: LinkId, cv: LinkId| {
        FaultPlan::default().brownout(cv, SimTime::from_secs(1), SimTime::from_secs(4000), 0.02)
    };
    let mut racing_cfg = SessionConfig::paper_defaults();
    racing_cfg.failover = Some(ir_core::FailoverConfig::paper_defaults());
    racing_cfg.horizon = SimDuration::from_secs(3600);
    let (mut tp1, c1, v1, s1) = faulty_world(100_000.0, 800_000.0, brownout);
    let raced = run_racing(&mut tp1, c1, v1, s1, &racing_cfg);

    let mut striped_cfg = striped(8, 1);
    striped_cfg.horizon = SimDuration::from_secs(3600);
    let (mut tp2, c2, v2, s2) = faulty_world(100_000.0, 800_000.0, brownout);
    let (striped_rec, stats) = run_striped(&mut tp2, c2, v2, s2, &striped_cfg);

    assert!(!raced.abandoned && !striped_rec.abandoned);
    assert!(
        striped_rec.selected_throughput > 1.5 * raced.selected_throughput,
        "striping should dodge the stale-prediction penalty: striped {} vs raced {}",
        striped_rec.selected_throughput,
        raced.selected_throughput
    );
    assert!(
        stats.reassignments > 0,
        "the win must come from rebalancing"
    );
    let direct_bytes = stats
        .per_path
        .iter()
        .filter(|p| !p.path.is_indirect())
        .map(|p| p.bytes)
        .sum::<u64>();
    let total: u64 = stats.per_path.iter().map(|p| p.bytes).sum();
    assert!(
        direct_bytes * 2 > total,
        "most remainder bytes should migrate to the healthy direct path"
    );
}

/// Path death mid-transfer: the overlay's uplink dies outright after
/// the probe decision. The striper declares the path dead after one
/// stall window, reassigns its remaining bytes, finishes on the direct
/// path, and records the death as a failover.
#[test]
fn path_death_mid_transfer_is_reassigned_and_survives() {
    let outage = |_cs: LinkId, cv: LinkId| {
        FaultPlan::default().link_outage(cv, SimTime::from_secs(1), SimTime::from_secs(4000))
    };
    let mut cfg = striped(4, 1);
    if let SessionMode::Striped { rebalance, .. } = &mut cfg.mode {
        rebalance.stall_window = SimDuration::from_secs(5);
    }
    let (mut tp, c, v, s) = faulty_world(100_000.0, 800_000.0, outage);
    let tel = Telemetry::new();
    let (rec, stats) = run_paths_session_stats(
        &mut tp,
        &mut FirstPortion,
        c,
        s,
        &[PathSpec::indirect(c, s, v)],
        vec![v],
        0,
        &cfg,
        Some(&tel),
    );
    assert!(!rec.abandoned, "direct path survived");
    assert!(rec.selected_throughput > 0.0);
    assert!(stats.deaths >= 1);
    assert!(rec.failovers >= 1, "death is recorded as a failover");
    assert!(rec.stall_ms > 0, "the stall window was paid");
    assert!(stats.reassignments >= 1, "the dead path's bytes moved");
    let kinds: Vec<EventKind> = tel.tracer.snapshot().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::ChunkReassigned));
    let snap = tel.metrics.snapshot();
    assert!(snap.counter("stripe_path_deaths", &vec![]).unwrap_or(0) >= 1);
    assert!(
        snap.counter("stripe_chunks_reassigned", &vec![])
            .unwrap_or(0)
            >= 1
    );
}

/// When every path dies the striper abandons — no fabricated
/// throughput, stats still account for the bytes that did arrive.
#[test]
fn abandons_when_every_path_dies() {
    let all_dead = |cs: LinkId, cv: LinkId| {
        FaultPlan::default()
            .link_outage(cs, SimTime::from_secs(3), SimTime::from_secs(10_000))
            .link_outage(cv, SimTime::from_secs(3), SimTime::from_secs(10_000))
    };
    let mut cfg = striped(4, 1);
    cfg.horizon = SimDuration::from_secs(60);
    if let SessionMode::Striped { rebalance, .. } = &mut cfg.mode {
        rebalance.stall_window = SimDuration::from_secs(5);
    }
    let (mut tp, c, v, s) = faulty_world(100_000.0, 300_000.0, all_dead);
    let (rec, stats) = run_striped(&mut tp, c, v, s, &cfg);
    assert!(rec.abandoned);
    assert_eq!(rec.selected_throughput, 0.0, "no fabricated throughput");
    assert!(stats.deaths >= 2, "both paths declared dead");
    assert!(rec.selected_path_rate.is_nan());
}

/// Striped sessions are deterministic: identical worlds and configs
/// produce identical records and identical chunk accounting.
#[test]
fn striped_sessions_are_deterministic() {
    let cfg = striped(8, 1);
    let mut outcomes = Vec::new();
    for _ in 0..2 {
        let (mut tp, c, v, s) = world(400_000.0, 800_000.0);
        outcomes.push(run_striped(&mut tp, c, v, s, &cfg));
    }
    assert_eq!(outcomes[0].0, outcomes[1].0, "records diverged");
    assert_eq!(outcomes[0].1, outcomes[1].1, "stripe stats diverged");
}

/// `k` caps the stripe width: with two candidates and `k = 1` only the
/// first candidate is probed or striped over.
#[test]
fn k_caps_the_probe_and_stripe_set() {
    let mut t = Topology::new();
    let c = t.add_node("client", NodeKind::Client);
    let v1 = t.add_node("relay1", NodeKind::Intermediate);
    let v2 = t.add_node("relay2", NodeKind::Intermediate);
    let s = t.add_node("server", NodeKind::Server);
    let l_cs = t.add_link(c, s, SimDuration::from_millis(80));
    let l_cv1 = t.add_link(c, v1, SimDuration::from_millis(50));
    let l_v1s = t.add_link(v1, s, SimDuration::from_millis(15));
    let l_cv2 = t.add_link(c, v2, SimDuration::from_millis(50));
    let l_v2s = t.add_link(v2, s, SimDuration::from_millis(15));
    let mut net = Network::new(t, 1.0);
    net.set_link_process(l_cs, Box::new(ConstantProcess::new(200_000.0)));
    net.set_link_process(l_cv1, Box::new(ConstantProcess::new(500_000.0)));
    net.set_link_process(l_v1s, Box::new(ConstantProcess::new(50e6)));
    net.set_link_process(l_cv2, Box::new(ConstantProcess::new(900_000.0)));
    net.set_link_process(l_v2s, Box::new(ConstantProcess::new(50e6)));
    let mut tp = SimTransport::new(net);
    let paths = vec![PathSpec::indirect(c, s, v1), PathSpec::indirect(c, s, v2)];
    let (rec, stats) = run_paths_session_stats(
        &mut tp,
        &mut FirstPortion,
        c,
        s,
        &paths,
        vec![v1, v2],
        0,
        &striped(4, 1),
        None,
    );
    assert!(!rec.abandoned);
    // Only direct + the first candidate are in the roster; the faster
    // second candidate was cut by k.
    assert_eq!(stats.per_path.len(), 2);
    assert!(stats.per_path.iter().all(|p| p.path.via() != Some(v2)));
}
