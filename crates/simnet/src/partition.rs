//! Congestion-component partitioning of fair-share problems.
//!
//! Two flows can influence each other's max–min allocation only if they
//! are connected through a chain of shared **finite-capacity** links:
//! progressive filling moves capacity between flows exclusively across
//! links both sides cross. Links with infinite problem capacity
//! ([`crate::topology::Sharing::PerFlow`] links enter the solver as ∞;
//! see `Network::scratch_problem`) never saturate and never freeze
//! anybody, so they do not couple flows at all. The *congestion
//! components* of a problem are therefore the connected components of
//! the bipartite flow↔finite-link membership graph, and the solver may
//! treat every component as an independent sub-problem
//! ([`crate::soa`] holds the component-wise kernels).
//!
//! Everything here is deterministic by construction: components are
//! numbered by their smallest member flow (ascending), members are
//! listed ascending, and none of it depends on hash iteration order or
//! on how many worker threads later solve the components.

/// Union–find (disjoint-set forest) over `u32` elements with
/// path-halving finds. Unions attach the larger root under the smaller,
/// so representatives are the minimum element of each set — stable and
/// insertion-order-independent.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// An empty structure; call [`UnionFind::reset`] to size it.
    pub fn new() -> Self {
        UnionFind::default()
    }

    /// Re-initialises to `n` singleton elements, reusing the allocation.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when sized to zero elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Grows to at least `n` elements (new elements are singletons).
    pub fn ensure(&mut self, n: usize) {
        let from = self.parent.len();
        if n > from {
            self.parent.extend(from as u32..n as u32);
        }
    }

    /// Re-singletonises one element. Sound only for an element no other
    /// element points at, such as a departing flow's in
    /// [`FlowLinkPartition`].
    pub fn isolate(&mut self, x: u32) {
        self.ensure(x as usize + 1);
        self.parent[x as usize] = x;
    }

    /// Representative (minimum element) of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            // Path halving: point x at its grandparent.
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b`; returns true if they were
    /// distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }
}

/// The congestion components of one fair-share problem, in a dense
/// struct-of-arrays layout ready for the component-wise solver.
///
/// Components are ordered by their smallest member flow; flow and link
/// member lists are each ascending. Indices are in *problem space*:
/// flows `0..n_flows`, links `0..n_links` of whatever problem the
/// builder was handed (the `fairshare` wrappers use their dense finite
/// subset, the engine its in-use capacity slots).
#[derive(Debug, Clone, Default)]
pub struct Components {
    /// Flow members grouped by component (ascending within each).
    pub flows: Vec<u32>,
    /// Half-open component extents into `flows` (`len = count + 1`).
    pub flow_starts: Vec<u32>,
    /// Link members grouped by component (ascending within each). Links
    /// crossed by no flow belong to no component and are absent.
    pub links: Vec<u32>,
    /// Half-open component extents into `links` (`len = count + 1`).
    pub link_starts: Vec<u32>,
    /// Component of each flow.
    pub comp_of_flow: Vec<u32>,
    /// Root element → component id + 1 (0 = none). Scratch for the
    /// extraction passes, reused across builds.
    map: Vec<u32>,
    /// Cursor scratch for the counting sorts.
    cursor: Vec<u32>,
}

impl Components {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.flow_starts.len().saturating_sub(1)
    }

    /// Flow members of component `c`, ascending.
    pub fn comp_flows(&self, c: usize) -> &[u32] {
        &self.flows[self.flow_starts[c] as usize..self.flow_starts[c + 1] as usize]
    }

    /// Link members of component `c`, ascending.
    pub fn comp_links(&self, c: usize) -> &[u32] {
        &self.links[self.link_starts[c] as usize..self.link_starts[c + 1] as usize]
    }

    /// Size of the largest component (flows), 0 when empty.
    pub fn max_flows(&self) -> usize {
        (0..self.count())
            .map(|c| self.comp_flows(c).len())
            .max()
            .unwrap_or(0)
    }

    /// Builds the decomposition of a CSR problem: flow `f` crosses the
    /// links `flow_links[flow_off[f]..flow_off[f + 1]]`. `uf` is scratch
    /// (reset here). Element layout inside: links first (`0..n_links`),
    /// then flows (`n_links..n_links + n_flows`) — links first so their
    /// element ids are stable as flows are appended.
    pub fn build_csr(
        &mut self,
        n_flows: usize,
        n_links: usize,
        flow_off: &[u32],
        flow_links: &[u32],
        uf: &mut UnionFind,
    ) {
        debug_assert_eq!(flow_off.len(), n_flows + 1);
        uf.reset(n_links + n_flows);
        for f in 0..n_flows {
            let fe = (n_links + f) as u32;
            for &l in &flow_links[flow_off[f] as usize..flow_off[f + 1] as usize] {
                uf.union(fe, l);
            }
        }
        self.extract(n_flows, n_links, uf, |k| (n_links + k) as u32, |s| s as u32);
    }

    /// Shared extraction: given a populated union–find, produce the
    /// grouped member lists. `flow_elem`/`link_elem` map problem indices
    /// to union–find elements.
    fn extract(
        &mut self,
        n_flows: usize,
        n_links: usize,
        uf: &mut UnionFind,
        flow_elem: impl Fn(usize) -> u32,
        link_elem: impl Fn(usize) -> u32,
    ) {
        self.map.clear();
        self.map.resize(uf.len(), 0);
        // Pass 1: number components in order of first (i.e. smallest)
        // member flow.
        self.comp_of_flow.clear();
        let mut count = 0u32;
        for k in 0..n_flows {
            let r = uf.find(flow_elem(k)) as usize;
            if self.map[r] == 0 {
                count += 1;
                self.map[r] = count;
            }
            self.comp_of_flow.push(self.map[r] - 1);
        }
        // Pass 2: counting-sort flows into component groups (ascending
        // order is preserved because we scan flows ascending).
        self.flow_starts.clear();
        self.flow_starts.resize(count as usize + 1, 0);
        for &c in &self.comp_of_flow {
            self.flow_starts[c as usize + 1] += 1;
        }
        for c in 0..count as usize {
            self.flow_starts[c + 1] += self.flow_starts[c];
        }
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.flow_starts[..count as usize]);
        self.flows.clear();
        self.flows.resize(n_flows, 0);
        for (k, &c) in self.comp_of_flow.iter().enumerate() {
            self.flows[self.cursor[c as usize] as usize] = k as u32;
            self.cursor[c as usize] += 1;
        }
        // Pass 3: the same for links; a link whose root holds no flow is
        // crossed by no flow and is dropped.
        self.link_starts.clear();
        self.link_starts.resize(count as usize + 1, 0);
        let mut kept = 0u32;
        for s in 0..n_links {
            let r = uf.find(link_elem(s)) as usize;
            if self.map[r] != 0 {
                self.link_starts[self.map[r] as usize] += 1;
                kept += 1;
            }
        }
        for c in 0..count as usize {
            self.link_starts[c + 1] += self.link_starts[c];
        }
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.link_starts[..count as usize]);
        self.links.clear();
        self.links.resize(kept as usize, 0);
        for s in 0..n_links {
            let r = uf.find(link_elem(s)) as usize;
            let m = self.map[r];
            if m != 0 {
                let c = (m - 1) as usize;
                self.links[self.cursor[c] as usize] = s as u32;
                self.cursor[c] += 1;
            }
        }
    }
}

/// Incrementally-maintained union–find over the engine's flow↔link
/// membership (flow slots against **capacity-shared** link ids).
///
/// * Flow **arrival** is a pure union — O(α) per route link — so
///   arrival-heavy phases (a megaflow study starting 10⁶ transfers)
///   never rebuild.
/// * A departing **leaf** — a flow crossing at most one capacity link —
///   is unlinked in place ([`FlowLinkPartition::on_flow_depart`]): it
///   hangs off a single link, so its departure cannot split a
///   component.
/// * Any other departure cannot be expressed as a union; it marks the
///   structure dirty, and the next query rebuilds from the live
///   membership — lazily, so a burst of simultaneous departures costs
///   one rebuild.
///
/// Link elements are numbered below every flow element and unions hang
/// the larger root under the smaller, so every set holding a link is
/// rooted at a link and a flow element is never anybody's parent. That
/// is what makes unlinking a leaf — and reusing its slot for a later
/// arrival — exact: no other element points at it.
///
/// Every set also carries a circular member list and a live-flow count,
/// so the engine can enumerate just the components it must re-solve
/// ([`FlowLinkPartition::members`]) and count components
/// ([`FlowLinkPartition::components`]) without a pass over all flows.
///
/// The canonical component numbering produced by
/// [`FlowLinkPartition::components_into`] is a pure function of the live
/// membership, so an incrementally-maintained structure and a rebuilt
/// one yield identical components (the partitioner property suite pins
/// this).
#[derive(Debug, Clone)]
pub struct FlowLinkPartition {
    /// Links occupy elements `0..n_links`; flow slot `i` is element
    /// `n_links + i`.
    uf: UnionFind,
    /// Circular doubly-linked member list of each set: successor and
    /// predecessor element.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Live flows in each set (meaningful at roots).
    live: Vec<u32>,
    /// Sets holding at least one live flow: the congestion components.
    comps: usize,
    n_links: usize,
    dirty: bool,
    /// Rebuilds performed (telemetry).
    pub rebuilds: u64,
    /// Arrivals folded in incrementally (telemetry).
    pub incremental_adds: u64,
}

impl FlowLinkPartition {
    /// A clean partition over a topology with `n_links` links and no
    /// flows yet.
    pub fn new(n_links: usize) -> Self {
        let mut p = FlowLinkPartition {
            uf: UnionFind::new(),
            next: Vec::new(),
            prev: Vec::new(),
            live: Vec::new(),
            comps: 0,
            n_links,
            dirty: false,
            rebuilds: 0,
            incremental_adds: 0,
        };
        p.ensure(n_links);
        p
    }

    /// True when a departure has invalidated the structure and the next
    /// query will rebuild.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The union–find element of flow slot `slot`.
    pub fn flow_element(&self, slot: u32) -> u32 {
        self.n_links as u32 + slot
    }

    /// Union–find elements allocated so far: the links plus every flow
    /// slot ever handed in. Slots that are reused keep this bounded by
    /// the peak number of live flows.
    pub fn elements(&self) -> usize {
        self.uf.len()
    }

    /// Grows every per-element array to at least `n` elements (new ones
    /// are flow-free singletons).
    fn ensure(&mut self, n: usize) {
        let from = self.uf.len();
        if n > from {
            self.uf.ensure(n);
            self.next.extend(from as u32..n as u32);
            self.prev.extend(from as u32..n as u32);
            self.live.resize(n, 0);
        }
    }

    /// Merges the sets of `a` and `b`, splicing their member lists.
    fn join(&mut self, a: u32, b: u32) {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return;
        }
        self.uf.union(ra, rb);
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        if self.live[lo as usize] > 0 && self.live[hi as usize] > 0 {
            self.comps -= 1;
        }
        self.live[lo as usize] += self.live[hi as usize];
        let (na, nb) = (self.next[ra as usize], self.next[rb as usize]);
        self.next[ra as usize] = nb;
        self.prev[nb as usize] = ra;
        self.next[rb as usize] = na;
        self.prev[na as usize] = rb;
    }

    /// Adds flow `slot` as a new one-flow set, then unions it with
    /// `links`.
    fn add_flow(&mut self, slot: u32, links: impl Iterator<Item = u32>) {
        let fe = self.flow_element(slot);
        self.ensure(fe as usize + 1);
        let x = fe as usize;
        // A (re)used slot must be a flow-free singleton: the element of a
        // departed leaf was unlinked, and a rebuild resets every element.
        debug_assert!(
            self.uf.find(fe) == fe && self.next[x] == fe && self.live[x] == 0,
            "flow slot {slot} is still linked into a set"
        );
        self.live[x] = 1;
        self.comps += 1;
        for l in links {
            debug_assert!((l as usize) < self.n_links);
            self.join(fe, l);
        }
    }

    /// Folds an arriving flow in incrementally. `links` are the
    /// capacity-shared link ids of its route. While dirty it only makes
    /// sure the flow's element exists (the pending rebuild will see the
    /// flow in the live membership, if it is still live by then).
    pub fn on_flow_start(&mut self, slot: u32, links: impl Iterator<Item = u32>) {
        if self.dirty {
            self.ensure(self.flow_element(slot) as usize + 1);
            return;
        }
        self.add_flow(slot, links);
        self.incremental_adds += 1;
    }

    /// Notes a departing flow without saying which; the structure is
    /// dirty until rebuilt.
    pub fn on_flow_end(&mut self) {
        self.dirty = true;
    }

    /// Notes the departure of flow `slot`, which crossed
    /// `capacity_links` capacity-shared links. A leaf (at most one such
    /// link) is unlinked in place and its slot may be reused at once;
    /// any other departure marks the structure dirty, and the slot must
    /// not be reused before the rebuild. A no-op while dirty.
    pub fn on_flow_depart(&mut self, slot: u32, capacity_links: usize) {
        if self.dirty {
            return;
        }
        if capacity_links > 1 {
            self.dirty = true;
            return;
        }
        let fe = self.flow_element(slot);
        let x = fe as usize;
        let r = self.uf.find(fe) as usize;
        debug_assert!(self.live[r] > 0, "departing flow {slot} is not live");
        self.live[r] -= 1;
        if self.live[r] == 0 {
            self.comps -= 1;
        }
        let (p, n) = (self.prev[x], self.next[x]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
        self.next[x] = fe;
        self.prev[x] = fe;
        self.live[x] = 0;
        // Never a parent (see the type docs), so isolating it leaves
        // every other member's path to its root intact.
        self.uf.isolate(fe);
    }

    /// Starts a from-scratch rebuild: resets every element — links and
    /// all flow slots — to a flow-free singleton; live flows are re-added
    /// with [`FlowLinkPartition::rebuild_flow`].
    pub fn begin_rebuild(&mut self) {
        let n = self.uf.len();
        self.uf.reset(n);
        for x in 0..n {
            self.next[x] = x as u32;
            self.prev[x] = x as u32;
        }
        self.live.iter_mut().for_each(|c| *c = 0);
        self.comps = 0;
        self.dirty = false;
        self.rebuilds += 1;
    }

    /// Re-adds one live flow during a rebuild.
    pub fn rebuild_flow(&mut self, slot: u32, links: impl Iterator<Item = u32>) {
        self.add_flow(slot, links);
    }

    /// Number of congestion components: sets holding at least one live
    /// flow.
    ///
    /// # Panics
    ///
    /// Panics if called while dirty.
    pub fn components(&self) -> usize {
        assert!(!self.dirty, "partition queried while dirty");
        self.comps
    }

    /// Representative of element `e`'s set.
    pub fn find(&mut self, e: u32) -> u32 {
        self.uf.find(e)
    }

    /// Live flows in the set whose representative is `root`.
    pub fn live_flows(&self, root: u32) -> u32 {
        self.live[root as usize]
    }

    /// Calls `each` on every element of `root`'s set, in list order
    /// (links are the elements below `n_links`).
    pub fn members(&self, root: u32, mut each: impl FnMut(u32)) {
        let mut x = root;
        loop {
            each(x);
            x = self.next[x as usize];
            if x == root {
                break;
            }
        }
    }

    /// Extracts the components of the current active set, in *dense
    /// problem space*: flow `k` is `active_slots[k]`, link `s` is
    /// `prob_links[s]`. Must not be called dirty (the engine rebuilds
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if called while dirty.
    pub fn components_into(
        &mut self,
        active_slots: &[u32],
        prob_links: &[u32],
        out: &mut Components,
    ) {
        assert!(!self.dirty, "partition queried while dirty");
        let n_links = self.n_links;
        for &s in active_slots {
            self.ensure(n_links + s as usize + 1);
        }
        let uf = &mut self.uf;
        out.extract(
            active_slots.len(),
            prob_links.len(),
            uf,
            |k| n_links as u32 + active_slots[k],
            |s| prob_links[s],
        );
    }
}

/// Splits components `0..comps.count()` into at most `nworkers`
/// contiguous ranges of roughly equal total flows (`nf` is the
/// problem's flow count). Ranges cover every component exactly once, in
/// component order — the split is a pure function of the decomposition
/// and the worker count, independent of which thread later solves
/// which range.
pub fn split_component_ranges(
    comps: &Components,
    nf: usize,
    nworkers: usize,
) -> Vec<(usize, usize)> {
    let ncomp = comps.count();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    if ncomp == 0 {
        return ranges;
    }
    let target = nf.div_ceil(nworkers.max(1));
    let mut c0 = 0usize;
    let mut acc = 0usize;
    for c in 0..ncomp {
        acc += comps.comp_flows(c).len();
        if acc >= target || c + 1 == ncomp {
            ranges.push((c0, c + 1));
            c0 = c + 1;
            acc = 0;
        }
    }
    ranges
}

/// Deterministic scatter-merge of per-worker component solutions:
/// worker `w` solved the components of `ranges[w]` into its own
/// full-problem-size `worker_rates[w]` buffer; each component's flow
/// rates are copied back in **stable component order**, so the merged
/// `solution` is a pure function of the per-component results — not of
/// the order in which workers finished. Component flow sets are
/// disjoint, so every slot is written exactly once.
pub fn merge_component_rates(
    comps: &Components,
    ranges: &[(usize, usize)],
    worker_rates: &[&[f64]],
    solution: &mut [f64],
) {
    for (rates, &(r0, r1)) in worker_rates.iter().zip(ranges) {
        for c in r0..r1 {
            for &f in comps.comp_flows(c) {
                solution[f as usize] = rates[f as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(flows: &[&[u32]]) -> (Vec<u32>, Vec<u32>) {
        let mut off = vec![0u32];
        let mut links = Vec::new();
        for f in flows {
            links.extend_from_slice(f);
            off.push(links.len() as u32);
        }
        (off, links)
    }

    #[test]
    fn disjoint_flows_are_singletons() {
        let (off, links) = csr(&[&[0], &[1], &[]]);
        let mut uf = UnionFind::new();
        let mut c = Components::default();
        c.build_csr(3, 2, &off, &links, &mut uf);
        assert_eq!(c.count(), 3);
        assert_eq!(c.comp_flows(0), &[0]);
        assert_eq!(c.comp_links(0), &[0]);
        assert_eq!(c.comp_flows(2), &[2]);
        assert_eq!(c.comp_links(2), &[] as &[u32]);
    }

    #[test]
    fn shared_link_merges_flows() {
        let (off, links) = csr(&[&[0, 1], &[1, 2], &[3]]);
        let mut uf = UnionFind::new();
        let mut c = Components::default();
        c.build_csr(3, 4, &off, &links, &mut uf);
        assert_eq!(c.count(), 2);
        assert_eq!(c.comp_flows(0), &[0, 1]);
        assert_eq!(c.comp_links(0), &[0, 1, 2]);
        assert_eq!(c.comp_flows(1), &[2]);
        assert_eq!(c.comp_links(1), &[3]);
    }

    #[test]
    fn unreferenced_links_belong_to_no_component() {
        let (off, links) = csr(&[&[2]]);
        let mut uf = UnionFind::new();
        let mut c = Components::default();
        c.build_csr(1, 5, &off, &links, &mut uf);
        assert_eq!(c.count(), 1);
        assert_eq!(c.comp_links(0), &[2]);
    }

    #[test]
    fn component_order_follows_smallest_flow() {
        // Flow 0 alone on link 3; flows 1 & 2 share link 0. Components
        // must come out in flow order, not link order.
        let (off, links) = csr(&[&[3], &[0], &[0]]);
        let mut uf = UnionFind::new();
        let mut c = Components::default();
        c.build_csr(3, 4, &off, &links, &mut uf);
        assert_eq!(c.count(), 2);
        assert_eq!(c.comp_flows(0), &[0]);
        assert_eq!(c.comp_flows(1), &[1, 2]);
        assert_eq!(c.comp_of_flow, vec![0, 1, 1]);
    }

    #[test]
    fn incremental_arrivals_match_rebuild() {
        let mut inc = FlowLinkPartition::new(4);
        inc.on_flow_start(0, [0u32, 1].into_iter());
        inc.on_flow_start(1, [1u32].into_iter());
        inc.on_flow_start(2, [3u32].into_iter());

        let mut fresh = FlowLinkPartition::new(4);
        fresh.on_flow_end();
        fresh.begin_rebuild();
        fresh.rebuild_flow(0, [0u32, 1].into_iter());
        fresh.rebuild_flow(1, [1u32].into_iter());
        fresh.rebuild_flow(2, [3u32].into_iter());

        let active = [0u32, 1, 2];
        let prob = [0u32, 1, 3];
        let (mut a, mut b) = (Components::default(), Components::default());
        inc.components_into(&active, &prob, &mut a);
        fresh.components_into(&active, &prob, &mut b);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.flow_starts, b.flow_starts);
        assert_eq!(a.links, b.links);
        assert_eq!(a.link_starts, b.link_starts);
        assert_eq!(a.comp_of_flow, b.comp_of_flow);
    }

    #[test]
    #[should_panic(expected = "dirty")]
    fn dirty_query_panics() {
        let mut p = FlowLinkPartition::new(1);
        p.on_flow_end();
        let mut c = Components::default();
        p.components_into(&[], &[], &mut c);
    }
}
