//! `ir-stripe` — the socket-side chunk claim queue for multi-source
//! range striping.
//!
//! Simulated striped sessions run in `ir-core`'s one session runner
//! (`SessionMode::Striped`, scheduled by `ir_core::stripe`). This crate
//! keeps what the real-socket striped client (`ir-relay`'s
//! `download_striped`) shares between its per-path worker threads: a
//! [`ChunkQueue`] over `ir_core::stripe::partition`'s chunks, each
//! claimed with one atomic increment (model-checked under loom in
//! `tests/permutation.rs`).

use ir_core::stripe::ChunkRange;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A lock-free multi-claimer chunk queue: each worker thread claims the
/// next unclaimed chunk with one `fetch_add`, so every chunk is claimed
/// exactly once no matter how claims interleave.
#[derive(Debug)]
pub struct ChunkQueue {
    chunks: Vec<ChunkRange>,
    next: AtomicUsize,
}

impl ChunkQueue {
    /// A queue over a fixed chunk list.
    pub fn new(chunks: Vec<ChunkRange>) -> ChunkQueue {
        ChunkQueue {
            chunks,
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next unclaimed chunk, or `None` once all are taken.
    pub fn claim(&self) -> Option<ChunkRange> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.chunks.get(i).copied()
    }

    /// Total chunks (claimed or not).
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the queue was built over no chunks at all.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::stripe::partition;

    #[test]
    fn queue_claims_each_chunk_once_in_order() {
        let q = ChunkQueue::new(partition(0, 100, 4));
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        let ids: Vec<u32> = std::iter::from_fn(|| q.claim().map(|c| c.id)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(q.claim().is_none(), "exhausted queue stays exhausted");
    }
}
