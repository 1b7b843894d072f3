//! The engine's flat active-flow table.
//!
//! Every active flow is one row of a set of parallel arrays kept in
//! ascending flow-id order: progress, size, start time, its cap object
//! and cached cap values, the rate it was last allocated, and two CSR
//! link lists in global link-id space — the `Capacity` links the solver
//! sees and the `PerFlow` links folded into the flow's cap. A boundary
//! loop walks these arrays directly (and [`slice::chunks_mut`] splits
//! them for the sharded engine); finished and cancelled rows are
//! removed by one ordered compaction pass, [`FlowTable::remove`].

use crate::sim::RateCap;
use crate::time::SimTime;

/// Active flows as struct-of-arrays rows, ascending by flow id. Row
/// indices shift on every compaction; flow ids and partition slots do
/// not.
#[derive(Clone)]
pub(crate) struct FlowTable {
    /// Flow id of each row, strictly ascending.
    pub id: Vec<u64>,
    /// The row's partition slot (reused after the flow leaves).
    pub slot: Vec<u32>,
    /// Bytes transferred so far.
    pub done: Vec<f64>,
    /// Bytes to transfer.
    pub total: Vec<u64>,
    /// Start time.
    pub started: Vec<SimTime>,
    /// The flow's own rate ceiling.
    pub cap_fn: Vec<Box<dyn RateCap>>,
    /// The ceiling reported no further change: it is no longer queried
    /// and `own_cap` is its value for good.
    pub frozen: Vec<bool>,
    /// Last value `cap_fn` returned.
    pub own_cap: Vec<f64>,
    /// `own_cap` folded with the `PerFlow` link rates: the solver's
    /// flow cap (`NaN` until first folded).
    pub cap: Vec<f64>,
    /// Rate from the last solve of the row's component.
    pub rate: Vec<f64>,
    /// CSR offsets into `cap_links` (`len = rows + 1`).
    pub cap_off: Vec<u32>,
    /// `Capacity` links of each row, in route order.
    pub cap_links: Vec<u32>,
    /// CSR offsets into `fold_links` (`len = rows + 1`).
    pub fold_off: Vec<u32>,
    /// `PerFlow` links of each row, in route order.
    pub fold_links: Vec<u32>,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable {
            id: Vec::new(),
            slot: Vec::new(),
            done: Vec::new(),
            total: Vec::new(),
            started: Vec::new(),
            cap_fn: Vec::new(),
            frozen: Vec::new(),
            own_cap: Vec::new(),
            cap: Vec::new(),
            rate: Vec::new(),
            cap_off: vec![0],
            cap_links: Vec::new(),
            fold_off: vec![0],
            fold_links: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no flow is active.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Rows the table has room for without reallocating.
    pub fn capacity(&self) -> usize {
        self.id.capacity()
    }

    /// Appends a row; `id` must exceed every id already present.
    #[allow(clippy::too_many_arguments)] // one argument per column a new row needs
    pub fn push(
        &mut self,
        id: u64,
        slot: u32,
        total: u64,
        started: SimTime,
        cap_fn: Box<dyn RateCap>,
        cap_links: impl Iterator<Item = u32>,
        fold_links: impl Iterator<Item = u32>,
    ) {
        debug_assert!(self.id.last().is_none_or(|&last| last < id));
        self.id.push(id);
        self.slot.push(slot);
        self.done.push(0.0);
        self.total.push(total);
        self.started.push(started);
        self.cap_fn.push(cap_fn);
        self.frozen.push(false);
        self.own_cap.push(f64::NAN);
        self.cap.push(f64::NAN);
        self.rate.push(0.0);
        self.cap_links.extend(cap_links);
        self.cap_off.push(self.cap_links.len() as u32);
        self.fold_links.extend(fold_links);
        self.fold_off.push(self.fold_links.len() as u32);
    }

    /// `Capacity` links of row `k`.
    pub fn cap_links_of(&self, k: usize) -> &[u32] {
        &self.cap_links[self.cap_off[k] as usize..self.cap_off[k + 1] as usize]
    }

    /// `PerFlow` links of row `k`.
    pub fn fold_links_of(&self, k: usize) -> &[u32] {
        &self.fold_links[self.fold_off[k] as usize..self.fold_off[k + 1] as usize]
    }

    /// Row of active flow `id`, searching forward from row `from`
    /// (galloping: O(log distance), so ascending lookups of nearby ids
    /// cost O(1) each).
    pub fn seek(&self, from: usize, id: u64) -> usize {
        let ids = &self.id;
        let (mut lo, mut hi, mut step) = (from, from, 1usize);
        while hi < ids.len() && ids[hi] < id {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = hi.min(ids.len());
        let k = lo + ids[lo..hi].partition_point(|&x| x < id);
        debug_assert_eq!(ids.get(k), Some(&id), "flow {id} is not in the table");
        k
    }

    /// Removes the rows at the ascending positions `gone`, keeping the
    /// rest in order — one pass per column.
    pub fn remove(&mut self, gone: &[u32]) {
        debug_assert!(gone.windows(2).all(|w| w[0] < w[1]));
        if gone.is_empty() {
            return;
        }
        compact(&mut self.id, gone);
        compact(&mut self.slot, gone);
        compact(&mut self.done, gone);
        compact(&mut self.total, gone);
        compact(&mut self.started, gone);
        compact(&mut self.frozen, gone);
        compact(&mut self.own_cap, gone);
        compact(&mut self.cap, gone);
        compact(&mut self.rate, gone);
        // The cap objects are not `Copy`: swap the survivors down and
        // drop the removed ones off the tail.
        let fns = &mut self.cap_fn;
        let mut w = gone[0] as usize;
        for (from, to) in runs(gone, fns.len()) {
            for r in from..to {
                fns.swap(w, r);
                w += 1;
            }
        }
        fns.truncate(w);
        compact_csr(&mut self.cap_off, &mut self.cap_links, gone);
        compact_csr(&mut self.fold_off, &mut self.fold_links, gone);
    }
}

/// The runs of surviving rows between the ascending removed positions
/// `gone`, as half-open `(from, to)` ranges, for a column of `len` rows.
fn runs(gone: &[u32], len: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    gone.iter().enumerate().map(move |(i, &g)| {
        let to = gone.get(i + 1).map_or(len, |&n| n as usize);
        (g as usize + 1, to)
    })
}

/// Removes the ascending positions `gone` from `v`, moving each run of
/// survivors down in one copy.
fn compact<T: Copy>(v: &mut Vec<T>, gone: &[u32]) {
    let mut w = gone[0] as usize;
    for (from, to) in runs(gone, v.len()) {
        v.copy_within(from..to, w);
        w += to - from;
    }
    v.truncate(w);
}

/// Removes the ascending rows `gone` from a CSR pair, shifting the
/// survivors' link lists down and their offsets with them.
fn compact_csr(off: &mut Vec<u32>, links: &mut Vec<u32>, gone: &[u32]) {
    let rows = off.len() - 1;
    let mut wf = gone[0] as usize;
    let mut wl = off[wf] as usize;
    for (from, to) in runs(gone, rows) {
        let (l0, l1) = (off[from] as usize, off[to] as usize);
        links.copy_within(l0..l1, wl);
        let shift = (l0 - wl) as u32;
        // Writes land strictly below the entries still to be read.
        for k in from..to {
            off[wf + 1 + (k - from)] = off[k + 1] - shift;
        }
        wf += to - from;
        wl += l1 - l0;
    }
    off.truncate(wf + 1);
    links.truncate(wl);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NoCap;

    fn table(routes: &[(&[u32], &[u32])]) -> FlowTable {
        let mut t = FlowTable::new();
        for (i, (c, f)) in routes.iter().enumerate() {
            t.push(
                i as u64 * 10,
                i as u32,
                100 + i as u64,
                SimTime::ZERO,
                Box::new(NoCap),
                c.iter().copied(),
                f.iter().copied(),
            );
            t.done[i] = i as f64;
        }
        t
    }

    #[test]
    fn remove_keeps_survivors_in_order_with_their_links() {
        let mut t = table(&[
            (&[1], &[]),
            (&[2, 3], &[9]),
            (&[], &[8, 7]),
            (&[4], &[6]),
            (&[5, 5], &[]),
        ]);
        t.remove(&[1, 2, 4]);
        assert_eq!(t.id, vec![0, 30]);
        assert_eq!(t.slot, vec![0, 3]);
        assert_eq!(t.done, vec![0.0, 3.0]);
        assert_eq!(t.total, vec![100, 103]);
        assert_eq!(t.cap_fn.len(), 2);
        assert_eq!(t.cap_links_of(0), &[1]);
        assert_eq!(t.cap_links_of(1), &[4]);
        assert_eq!(t.fold_links_of(0), &[] as &[u32]);
        assert_eq!(t.fold_links_of(1), &[6]);
        assert_eq!(t.cap_off, vec![0, 1, 2]);
        assert_eq!(t.fold_links, vec![6]);
    }

    #[test]
    fn remove_everything_and_refill() {
        let mut t = table(&[(&[1], &[2]), (&[3], &[])]);
        t.remove(&[0, 1]);
        assert!(t.is_empty());
        assert_eq!(t.cap_off, vec![0]);
        assert!(t.cap_links.is_empty() && t.fold_links.is_empty());
        t.push(
            50,
            0,
            1,
            SimTime::ZERO,
            Box::new(NoCap),
            [7u32].into_iter(),
            [].into_iter(),
        );
        assert_eq!(t.cap_links_of(0), &[7]);
    }

    #[test]
    fn seek_finds_ids_from_any_earlier_row() {
        let empty: (&[u32], &[u32]) = (&[], &[]);
        let t = table(&[empty; 40]);
        for i in 0..40u64 {
            assert_eq!(t.seek(0, i * 10), i as usize);
            assert_eq!(t.seek(i as usize, i * 10), i as usize);
        }
        assert_eq!(t.seek(3, 390), 39);
    }
}
