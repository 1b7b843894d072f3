//! The [`PathSelector`] trait and its decision context.

use ir_core::{PathSpec, TransferRecord};
use ir_simnet::topology::{NodeId, Topology};

/// Context for one path-selection decision.
///
/// Unlike `ir-core`'s `SelectCtx`, this carries the **topology**: path
/// selectors may inspect link latency to build chains, where relay
/// policies only choose among opaque relay ids.
#[derive(Debug, Clone)]
pub struct PathCtx<'a> {
    /// The client about to transfer.
    pub client: NodeId,
    /// The destination server.
    pub server: NodeId,
    /// Every relay available to this client (the paper's "full set").
    pub relays: &'a [NodeId],
    /// The network topology the transfer will run over.
    pub topo: &'a Topology,
    /// Sequence number of this transfer for this client (0-based).
    pub transfer_index: u64,
}

/// A path-selection policy: decides which indirect paths (1-hop or
/// multi-hop chains) a session probes against the direct path, and in
/// what order. The probe race still makes the final call — a selector
/// shapes the candidate field, it does not override measurement.
pub trait PathSelector: Send {
    /// Short name for reports and per-policy telemetry labels.
    fn name(&self) -> &'static str;

    /// Indirect candidate paths to probe for this transfer, in probe
    /// order. Empty means direct-only. The direct path is always raced
    /// and must not be returned here.
    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec>;

    /// Learns from a completed transfer.
    fn observe(&mut self, _rec: &TransferRecord) {}

    /// The best `k` candidate paths: the first `k` distinct entries of
    /// [`PathSelector::paths`], preserving probe order. Striped sessions
    /// width their stripe with this, so racer and striper
    /// share one selection path — `best_k(ctx, 1)` is exactly the path
    /// the racer would commit to first. Selectors with a smarter
    /// notion of "best" (e.g. rate-ordered) may override.
    fn best_k(&mut self, ctx: &PathCtx<'_>, k: usize) -> Vec<PathSpec> {
        let mut out: Vec<PathSpec> = Vec::with_capacity(k);
        for p in self.paths(ctx) {
            if out.len() == k {
                break;
            }
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kshortest::{KShortest, KShortestConfig};
    use ir_simnet::time::SimDuration;
    use ir_simnet::topology::NodeKind;

    /// A canned selector returning a fixed list (with a duplicate, to
    /// exercise the default `best_k` dedup).
    struct Canned(Vec<PathSpec>);

    impl PathSelector for Canned {
        fn name(&self) -> &'static str {
            "canned"
        }
        fn paths(&mut self, _ctx: &PathCtx<'_>) -> Vec<PathSpec> {
            self.0.clone()
        }
    }

    fn world() -> (Topology, NodeId, NodeId, Vec<NodeId>) {
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let r2 = t.add_node("r2", NodeKind::Intermediate);
        let r3 = t.add_node("r3", NodeKind::Intermediate);
        let ms = |n: u64| SimDuration::from_micros(n * 1_000);
        t.add_link(c, s, ms(100));
        t.add_link(c, r2, ms(40));
        t.add_link(r2, s, ms(40));
        t.add_link(c, r3, ms(10));
        t.add_link(r3, s, ms(10));
        (t, c, s, vec![r2, r3])
    }

    fn ctx<'a>(topo: &'a Topology, c: NodeId, s: NodeId, relays: &'a [NodeId]) -> PathCtx<'a> {
        PathCtx {
            client: c,
            server: s,
            relays,
            topo,
            transfer_index: 0,
        }
    }

    /// The striper/racer contract: `best_k(ctx, 1)` is exactly the
    /// path the racer probes first — `paths(ctx)[0]` — for a real
    /// selector, not just a stub.
    #[test]
    fn best_one_equals_first_probe_path() {
        let (topo, c, s, relays) = world();
        let mut sel = KShortest::new(KShortestConfig::default());
        let first = sel.paths(&ctx(&topo, c, s, &relays))[0];
        let best = sel.best_k(&ctx(&topo, c, s, &relays), 1);
        assert_eq!(best, vec![first]);
    }

    #[test]
    fn best_k_truncates_dedups_and_preserves_order() {
        let (topo, c, s, relays) = world();
        let p2 = PathSpec::indirect(c, s, relays[0]);
        let p3 = PathSpec::indirect(c, s, relays[1]);
        let mut sel = Canned(vec![p2, p2, p3]);
        assert_eq!(sel.best_k(&ctx(&topo, c, s, &relays), 1), vec![p2]);
        assert_eq!(sel.best_k(&ctx(&topo, c, s, &relays), 2), vec![p2, p3]);
        // Asking for more than exists returns what exists.
        assert_eq!(sel.best_k(&ctx(&topo, c, s, &relays), 9), vec![p2, p3]);
        assert!(sel.best_k(&ctx(&topo, c, s, &relays), 0).is_empty());
    }
}
