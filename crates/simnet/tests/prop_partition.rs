//! Property suite for the congestion-component partitioner.
//!
//! Three properties over seeded random problems:
//!
//! 1. **True decomposition** — the component structure really partitions
//!    the problem: every flow lands in exactly one component, every
//!    crossed link in exactly one, and no flow crosses a link outside
//!    its own component (components are genuinely independent).
//! 2. **Incremental = from-scratch** — after any interleaving of flow
//!    arrivals and departures, the incrementally-maintained
//!    [`FlowLinkPartition`] yields byte-for-byte the same canonical
//!    components as a partition rebuilt from the live membership.
//! 3. **Component solves compose** — solving each component
//!    independently (even in *reverse* component order) scatters into
//!    exactly `fairshare::reference_rates`, bitwise.
//! 4. **Leaf rule** — with departures of flows crossing at most one
//!    capacity link unlinked in place (no rebuild) and freed slots
//!    reused by later arrivals, the partition still equals a
//!    from-scratch rebuild, component by component and member by
//!    member.
//! 5. **Bounded under churn** — an engine that starts and completes
//!    10⁵ flows one after another keeps its flow table, slots and
//!    union–find at the size of its peak live population.

use ir_simnet::fairshare::{max_min_rates, reference_rates, AllocFlow};
use ir_simnet::partition::{Components, FlowLinkPartition, UnionFind};
use ir_simnet::prelude::*;
use ir_simnet::soa::ProblemSlab;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random allocation problem: link capacities (finite, zero, or ∞)
/// and flows crossing random link subsets under random caps.
fn arb_problem(seed: u64) -> (Vec<f64>, Vec<AllocFlow>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_links = rng.gen_range(1..12usize);
    let caps: Vec<f64> = (0..n_links)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => f64::INFINITY,
            1 => 0.0,
            _ => rng.gen_range(1e3..1e6),
        })
        .collect();
    let n_flows = rng.gen_range(0..16usize);
    let flows: Vec<AllocFlow> = (0..n_flows)
        .map(|_| {
            let k = rng.gen_range(0..=3.min(n_links));
            let mut links: Vec<usize> = (0..n_links).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n_links);
                links.swap(i, j);
            }
            links.truncate(k);
            links.sort_unstable();
            let cap = if rng.gen_bool(0.3) {
                f64::INFINITY
            } else {
                rng.gen_range(1e2..1e6)
            };
            AllocFlow { links, cap }
        })
        .collect();
    (caps, flows)
}

#[test]
fn components_are_a_true_decomposition() {
    for seed in 0..300u64 {
        let (caps, flows) = arb_problem(0xA0_0000 + seed);
        let slab = ProblemSlab::from_alloc(&caps, &flows);
        let nf = slab.flows();
        let nl = slab.link_cap.len();
        let mut uf = UnionFind::new();
        let mut comps = Components::default();
        comps.build_csr(nf, nl, &slab.flow_off, &slab.flow_links, &mut uf);

        // Every flow appears exactly once, inside its own component's
        // extent.
        assert_eq!(comps.comp_of_flow.len(), nf, "seed {seed}");
        let mut seen_flows = vec![0u32; nf];
        for c in 0..comps.count() {
            for &f in comps.comp_flows(c) {
                seen_flows[f as usize] += 1;
                assert_eq!(
                    comps.comp_of_flow[f as usize] as usize, c,
                    "seed {seed}: flow {f} listed outside its component"
                );
            }
        }
        assert!(
            seen_flows.iter().all(|&n| n == 1),
            "seed {seed}: a flow is missing or duplicated: {seen_flows:?}"
        );

        // Every crossed link appears exactly once; uncrossed links never.
        let mut link_comp = vec![u32::MAX; nl];
        for c in 0..comps.count() {
            for &l in comps.comp_links(c) {
                assert_eq!(
                    link_comp[l as usize],
                    u32::MAX,
                    "seed {seed}: link {l} in two components"
                );
                link_comp[l as usize] = c as u32;
            }
        }
        let mut crossed = vec![false; nl];
        for f in 0..nf {
            for &l in slab.links_of(f) {
                crossed[l as usize] = true;
            }
        }
        for l in 0..nl {
            assert_eq!(
                crossed[l],
                link_comp[l] != u32::MAX,
                "seed {seed}: link {l} membership disagrees with usage"
            );
        }

        // Independence: a flow only ever crosses links of its own
        // component.
        for f in 0..nf {
            for &l in slab.links_of(f) {
                assert_eq!(
                    link_comp[l as usize], comps.comp_of_flow[f],
                    "seed {seed}: flow {f} crosses a foreign link {l}"
                );
            }
        }
    }
}

#[test]
fn incremental_partition_matches_from_scratch_rebuild() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xB0_0000 + seed);
        let n_links = rng.gen_range(1..10usize);
        // Live membership: slot → capacity links of its route.
        let mut live: Vec<Option<Vec<u32>>> = Vec::new();
        let mut inc = FlowLinkPartition::new(n_links);

        for _ in 0..rng.gen_range(1..40u32) {
            let departures_possible = live.iter().any(Option::is_some);
            if !departures_possible || rng.gen_bool(0.6) {
                // Arrival on a fresh slot (engine slots are never
                // reused).
                let k = rng.gen_range(0..=3.min(n_links));
                let mut links: Vec<u32> = (0..n_links as u32).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n_links);
                    links.swap(i, j);
                }
                links.truncate(k);
                let slot = live.len() as u32;
                inc.on_flow_start(slot, links.iter().copied());
                live.push(Some(links));
            } else {
                let victims: Vec<usize> = (0..live.len()).filter(|&s| live[s].is_some()).collect();
                let s = victims[rng.gen_range(0..victims.len())];
                live[s] = None;
                inc.on_flow_end();
            }

            // The engine rebuilds lazily at the next query; mirror that.
            if inc.is_dirty() {
                inc.begin_rebuild();
                for (slot, links) in live.iter().enumerate() {
                    if let Some(links) = links {
                        inc.rebuild_flow(slot as u32, links.iter().copied());
                    }
                }
            }

            // From-scratch control: a brand-new partition over the same
            // live membership.
            let mut fresh = FlowLinkPartition::new(n_links);
            for (slot, links) in live.iter().enumerate() {
                if let Some(links) = links {
                    fresh.on_flow_start(slot as u32, links.iter().copied());
                }
            }

            let active: Vec<u32> = (0..live.len() as u32)
                .filter(|&s| live[s as usize].is_some())
                .collect();
            let prob_links: Vec<u32> = (0..n_links as u32).collect();
            let (mut a, mut b) = (Components::default(), Components::default());
            inc.components_into(&active, &prob_links, &mut a);
            fresh.components_into(&active, &prob_links, &mut b);
            assert_eq!(a.comp_of_flow, b.comp_of_flow, "seed {seed}");
            assert_eq!(a.flows, b.flows, "seed {seed}");
            assert_eq!(a.flow_starts, b.flow_starts, "seed {seed}");
            assert_eq!(a.links, b.links, "seed {seed}");
            assert_eq!(a.link_starts, b.link_starts, "seed {seed}");
        }
        // Arrivals must actually have taken the incremental path.
        assert!(inc.incremental_adds > 0, "seed {seed}: never incremental");
    }
}

#[test]
fn independent_component_solves_reproduce_reference_rates() {
    for seed in 0..300u64 {
        let (caps, flows) = arb_problem(0xC0_0000 + seed);
        let oracle = reference_rates(&caps, &flows);
        // The production path must agree with the oracle bitwise on the
        // same instances (the fairshare contract, re-checked here under
        // the property sweep's wider input distribution).
        let prod = max_min_rates(&caps, &flows);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&prod), bits(&oracle), "seed {seed}");

        // Now solve the components by hand, in REVERSE component order:
        // independence means order cannot matter.
        let slab = ProblemSlab::from_alloc(&caps, &flows);
        let nf = slab.flows();
        let nl = slab.link_cap.len();
        let mut uf = UnionFind::new();
        let mut comps = Components::default();
        comps.build_csr(nf, nl, &slab.flow_off, &slab.flow_links, &mut uf);

        let mut frozen = vec![false; nf];
        let mut residual = vec![0.0f64; nl];
        let mut active_on = vec![0u32; nl];
        let mut rate = vec![0.0f64; nf];
        for c in (0..comps.count()).rev() {
            ir_simnet::soa::solve_component(
                &slab,
                comps.comp_flows(c),
                comps.comp_links(c),
                &mut frozen,
                &mut residual,
                &mut active_on,
                &mut rate,
            );
        }
        assert_eq!(
            bits(&rate),
            bits(&oracle),
            "seed {seed}: component solves do not compose"
        );
    }
}

/// Canonical view of a partition over a live membership: its canonical
/// components, its component count, and — per component — the sorted
/// member elements its set lists carry.
fn canonical(
    p: &mut FlowLinkPartition,
    live: &[Option<Vec<u32>>],
    n_links: usize,
) -> (Components, usize, Vec<Vec<u32>>) {
    let active: Vec<u32> = (0..live.len() as u32)
        .filter(|&s| live[s as usize].is_some())
        .collect();
    let prob_links: Vec<u32> = (0..n_links as u32).collect();
    let mut comps = Components::default();
    p.components_into(&active, &prob_links, &mut comps);
    let mut members: Vec<Vec<u32>> = (0..comps.count())
        .map(|c| {
            let first = active[comps.comp_flows(c)[0] as usize];
            let root = p.find(p.flow_element(first));
            let mut m = Vec::new();
            p.members(root, |e| m.push(e));
            m.sort_unstable();
            m
        })
        .collect();
    members.sort();
    (comps, p.components(), members)
}

#[test]
fn leaf_departures_and_reused_slots_match_from_scratch_rebuild() {
    let mut leaf_departures = 0u64;
    let mut reuses = 0u64;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0xD0_0000 + seed);
        let n_links = rng.gen_range(1..10usize);
        // Live membership by slot; freed slots are reused last-in,
        // first-out, as the engine does.
        let mut live: Vec<Option<Vec<u32>>> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut inc = FlowLinkPartition::new(n_links);
        let rebuilds_before = inc.rebuilds;
        let mut non_leaf = 0u64;

        for _ in 0..rng.gen_range(1..60u32) {
            let departures_possible = live.iter().any(Option::is_some);
            if !departures_possible || rng.gen_bool(0.55) {
                // Mostly leaves (0 or 1 capacity link), some bridges.
                let k = match rng.gen_range(0..10u32) {
                    0..=1 => 0,
                    2..=6 => 1,
                    _ => rng.gen_range(2..=3.min(n_links).max(2)),
                }
                .min(n_links);
                let mut links: Vec<u32> = (0..n_links as u32).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n_links);
                    links.swap(i, j);
                }
                links.truncate(k);
                // Reuse a freed slot when there is one. In debug builds
                // the partition asserts that a reused slot's element is
                // a flow-free singleton no other element points at.
                let slot = match free.pop() {
                    Some(s) => {
                        reuses += 1;
                        s
                    }
                    None => {
                        live.push(None);
                        live.len() as u32 - 1
                    }
                };
                inc.on_flow_start(slot, links.iter().copied());
                live[slot as usize] = Some(links);
            } else {
                let victims: Vec<usize> = (0..live.len()).filter(|&s| live[s].is_some()).collect();
                let s = victims[rng.gen_range(0..victims.len())];
                let links = live[s].take().expect("victim is live");
                if links.len() <= 1 {
                    leaf_departures += 1;
                } else {
                    non_leaf += 1;
                }
                inc.on_flow_depart(s as u32, links.len());
                free.push(s as u32);
            }

            // The engine rebuilds lazily at the next query; mirror that.
            if inc.is_dirty() {
                inc.begin_rebuild();
                for (slot, links) in live.iter().enumerate() {
                    if let Some(links) = links {
                        inc.rebuild_flow(slot as u32, links.iter().copied());
                    }
                }
            }

            let mut fresh = FlowLinkPartition::new(n_links);
            for (slot, links) in live.iter().enumerate() {
                if let Some(links) = links {
                    fresh.on_flow_start(slot as u32, links.iter().copied());
                }
            }
            let (a, count_a, members_a) = canonical(&mut inc, &live, n_links);
            let (b, count_b, members_b) = canonical(&mut fresh, &live, n_links);
            assert_eq!(a.comp_of_flow, b.comp_of_flow, "seed {seed}");
            assert_eq!(a.flows, b.flows, "seed {seed}");
            assert_eq!(a.flow_starts, b.flow_starts, "seed {seed}");
            assert_eq!(a.links, b.links, "seed {seed}");
            assert_eq!(a.link_starts, b.link_starts, "seed {seed}");
            assert_eq!(count_a, a.count(), "seed {seed}: maintained count");
            assert_eq!(count_a, count_b, "seed {seed}");
            assert_eq!(members_a, members_b, "seed {seed}: member lists");
        }
        // Only bridge departures may have rebuilt.
        assert!(
            inc.rebuilds - rebuilds_before <= non_leaf,
            "seed {seed}: a leaf departure rebuilt"
        );
    }
    assert!(leaf_departures > 1_000, "{leaf_departures} leaf departures");
    assert!(reuses > 1_000, "{reuses} slot reuses");
}

#[test]
fn engine_state_stays_bounded_by_peak_live_flows_under_churn() {
    // Fan-in: two hosts behind per-flow access links share one
    // capacity uplink, plus a two-capacity-link route whose departures
    // are not leaves.
    let mut t = Topology::new();
    let o = t.add_node("o", NodeKind::Server);
    let tor = t.add_node("tor", NodeKind::Intermediate);
    let mid = t.add_node("mid", NodeKind::Intermediate);
    let up = t.add_link_shared(tor, o, SimDuration::from_millis(1), Sharing::Capacity);
    let mut routes = Vec::new();
    for h in 0..2 {
        let host = t.add_node(format!("h{h}"), NodeKind::Client);
        t.add_link_shared(host, tor, SimDuration::from_millis(1), Sharing::PerFlow);
        routes.push(t.route(&[host, tor, o]).unwrap());
    }
    t.add_link_shared(tor, mid, SimDuration::from_millis(1), Sharing::Capacity);
    t.add_link_shared(mid, o, SimDuration::from_millis(1), Sharing::Capacity);
    routes.push(t.route(&[tor, mid, o]).unwrap());
    let n_links = t.link_count();
    let mut net = Network::new(t, 1e6);
    net.set_link_process(up, Box::new(ConstantProcess::new(1e6)));

    // One flow at a time, then four at a time: the peak is 4.
    const FLOWS: u64 = 100_000;
    let mut started = 0u64;
    while started < FLOWS {
        let batch = if started < FLOWS / 2 { 1 } else { 4 };
        let ids: Vec<FlowId> = (0..batch)
            .map(|j| {
                let r = &routes[((started + j) % 3) as usize];
                net.start_flow(r.clone(), 1_000 + (started + j) % 5, Box::new(NoCap))
            })
            .collect();
        started += batch;
        for id in ids {
            net.run_flow(id, SimTime::MAX).expect("flow completes");
        }
    }
    let st = net.stats();
    assert_eq!(st.flows_started, FLOWS);
    assert_eq!(st.flows_completed, FLOWS);
    let fp = net.engine_footprint();
    assert!(fp.flow_slots <= 4, "{fp:?}");
    assert_eq!(fp.partition_elements, n_links + fp.flow_slots, "{fp:?}");
    assert!(fp.table_capacity <= 4, "{fp:?}");
    // Completion records stay available for every flow ever started.
    for k in [0, FLOWS / 2, FLOWS - 1] {
        assert!(net.completion(FlowId(k)).is_some());
    }
}
