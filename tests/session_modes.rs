//! Every session entry point honours `SessionConfig::mode`.
//!
//! A striped config handed to the relay-plane wrapper
//! (`core::run_session`), the path-plane runner
//! (`core::run_paths_session_traced`) or the selector plane
//! (`policy::run_selector_session`) must stripe the remainder exactly
//! as `core::run_paths_session_stats` does — never fall back to racing
//! without a word.

use indirect_routing::core::{
    run_paths_session_stats, run_paths_session_traced, run_session, run_session_traced,
    FirstPortion, PathSpec, RebalanceConfig, SessionConfig, SessionMode, SimTransport,
    StaticSingle, TransferRecord,
};
use indirect_routing::policy::{run_selector_session, run_selector_session_traced, PolicySelector};
use indirect_routing::simnet::bandwidth::ConstantProcess;
use indirect_routing::simnet::sim::Network;
use indirect_routing::simnet::time::SimDuration;
use indirect_routing::simnet::topology::{NodeId, NodeKind, Topology};
use ir_telemetry::Telemetry;

/// Direct at 400 KB/s, the overlay at 800 KB/s: both paths are worth
/// striping over, so an 8-chunk session splits its chunks.
fn world() -> (SimTransport, Topology, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let c = t.add_node("client", NodeKind::Client);
    let v = t.add_node("relay", NodeKind::Intermediate);
    let s = t.add_node("server", NodeKind::Server);
    let l_cs = t.add_link(c, s, SimDuration::from_millis(80));
    let l_cv = t.add_link(c, v, SimDuration::from_millis(50));
    let l_vs = t.add_link(v, s, SimDuration::from_millis(15));
    let mut net = Network::new(t.clone(), 1.0);
    net.set_link_process(l_cs, Box::new(ConstantProcess::new(400_000.0)));
    net.set_link_process(l_cv, Box::new(ConstantProcess::new(800_000.0)));
    net.set_link_process(l_vs, Box::new(ConstantProcess::new(50e6)));
    (SimTransport::new(net), t, c, v, s)
}

fn striped_8_1() -> SessionConfig {
    let mut cfg = SessionConfig::paper_defaults();
    cfg.mode = SessionMode::Striped {
        chunks: 8,
        k: 1,
        rebalance: RebalanceConfig::paper_defaults(),
    };
    cfg
}

fn paths_session(cfg: &SessionConfig, tel: Option<&Telemetry>) -> TransferRecord {
    let (mut tp, _, c, v, s) = world();
    let paths = [PathSpec::indirect(c, s, v)];
    run_paths_session_traced(
        &mut tp,
        &mut FirstPortion,
        c,
        s,
        &paths,
        vec![v],
        0,
        cfg,
        tel,
    )
}

/// `stripe_path_chunks` as (direct, overlay) chunk counts.
fn chunk_split(tel: &Telemetry) -> (u64, u64) {
    let (_, _, c, v, s) = world();
    let snap = tel.metrics.snapshot();
    let count = |p: PathSpec| {
        snap.counter("stripe_path_chunks", &vec![("path", p.to_string())])
            .unwrap_or(0)
    };
    (
        count(PathSpec::direct(c, s)),
        count(PathSpec::indirect(c, s, v)),
    )
}

#[test]
fn every_entry_point_stripes_a_striped_config() {
    let cfg = striped_8_1();
    let (expected, stats) = {
        let (mut tp, _, c, v, s) = world();
        let paths = [PathSpec::indirect(c, s, v)];
        run_paths_session_stats(
            &mut tp,
            &mut FirstPortion,
            c,
            s,
            &paths,
            vec![v],
            0,
            &cfg,
            None,
        )
    };
    assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 8);
    assert!(stats.per_path.iter().all(|p| p.chunks > 0), "{stats:?}");
    let racing = paths_session(&SessionConfig::paper_defaults(), None);
    assert_ne!(expected, racing, "striping must change the record");

    let (mut tp, _, c, v, s) = world();
    let plain = run_session(
        &mut tp,
        &mut StaticSingle(v),
        &mut FirstPortion,
        c,
        s,
        &[v],
        0,
        &cfg,
    );
    assert_eq!(plain, expected, "run_session raced a striped config");
    let (mut tp, topo, c, v, s) = world();
    let mut selector = PolicySelector::new(StaticSingle(v));
    let plain = run_selector_session(
        &mut tp,
        &mut selector,
        &mut FirstPortion,
        c,
        s,
        &[v],
        &topo,
        0,
        &cfg,
    );
    assert_eq!(
        plain, expected,
        "run_selector_session raced a striped config"
    );

    type Entry = fn(&SessionConfig, &Telemetry) -> TransferRecord;
    let entries: [(&str, Entry); 3] = [
        ("run_session", |cfg, tel| {
            let (mut tp, _, c, v, s) = world();
            let mut policy = StaticSingle(v);
            run_session_traced(
                &mut tp,
                &mut policy,
                &mut FirstPortion,
                c,
                s,
                &[v],
                0,
                cfg,
                Some(tel),
            )
        }),
        ("run_paths_session_traced", |cfg, tel| {
            paths_session(cfg, Some(tel))
        }),
        ("run_selector_session", |cfg, tel| {
            let (mut tp, topo, c, v, s) = world();
            let mut selector = PolicySelector::new(StaticSingle(v));
            run_selector_session_traced(
                &mut tp,
                &mut selector,
                &mut FirstPortion,
                c,
                s,
                &[v],
                &topo,
                0,
                cfg,
                Some(tel),
            )
        }),
    ];
    for (name, run) in entries {
        let tel = Telemetry::new();
        let rec = run(&cfg, &tel);
        assert_eq!(
            rec, expected,
            "{name} diverged from run_paths_session_stats"
        );
        assert_ne!(rec, racing, "{name} raced a striped config");
        let (direct, overlay) = chunk_split(&tel);
        assert_eq!(direct + overlay, 8, "{name} chunk count");
        assert!(direct > 0 && overlay > 0, "{name} split {direct}/{overlay}");
    }
}
