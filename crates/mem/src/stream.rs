//! Stream buffers (Jouppi, ISCA 1990 — the same paper as the victim cache).
//!
//! A small set of FIFO buffers each tracking one sequential miss stream:
//! when a miss matches a buffer's head, the block is supplied from the
//! buffer (cheaply) and the buffer prefetches one block further ahead. A
//! miss matching no buffer reallocates the least-recently-used buffer to
//! start a new stream. This is the "hardware prefetching mechanisms" entry
//! of the paper's related-work list (§1.1), provided as a third assist for
//! extension experiments.

/// Stream-buffer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of independent stream buffers.
    pub buffers: usize,
    /// How many blocks ahead a stream may run (prefetch depth).
    pub depth: u8,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { buffers: 4, depth: 4 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Buffer {
    /// Next expected miss block (the buffer head).
    head: u64,
    /// Blocks currently buffered ahead of the head.
    ready: u8,
    /// LRU stamp.
    stamp: u64,
    valid: bool,
}

/// A set of sequential-stream prefetch buffers.
///
/// ```
/// use selcache_mem::{StreamBuffers, StreamConfig};
/// let mut s = StreamBuffers::new(StreamConfig::default());
/// assert_eq!(s.probe(100), None);      // cold: allocates a stream at 101
/// assert!(s.probe(101).is_some());     // sequential follow-up hits
/// assert!(s.probe(102).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct StreamBuffers {
    cfg: StreamConfig,
    buffers: Vec<Buffer>,
    stamp: u64,
    hits: u64,
}

impl StreamBuffers {
    /// Creates the buffers.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no buffers or zero depth.
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(cfg.buffers > 0, "need at least one stream buffer");
        assert!(cfg.depth > 0, "stream depth must be positive");
        StreamBuffers {
            cfg,
            buffers: vec![Buffer { head: 0, ready: 0, stamp: 0, valid: false }; cfg.buffers],
            stamp: 0,
            hits: 0,
        }
    }

    /// Handles an L1 miss for `block`. On a stream hit returns
    /// `Some(prefetch_issued)` — the block comes from the buffer, which
    /// advances and (when `prefetch_issued`) fetches one block further
    /// ahead, consuming downstream bandwidth. On `None` the miss proceeds
    /// to the L2 and the LRU buffer restarts at `block + 1`.
    pub fn probe(&mut self, block: u64) -> Option<bool> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(buf) =
            self.buffers.iter_mut().find(|b| b.valid && b.head == block && b.ready > 0)
        {
            buf.head += 1;
            buf.stamp = stamp;
            // Keep the stream `depth` blocks ahead: one new prefetch per
            // consumed block.
            self.hits += 1;
            return Some(true);
        }
        // Allocate the LRU buffer for a new stream starting after the miss.
        let lru = self
            .buffers
            .iter_mut()
            .min_by_key(|b| if b.valid { b.stamp } else { 0 })
            .expect("at least one buffer");
        lru.valid = true;
        lru.head = block + 1;
        lru.ready = self.cfg.depth;
        lru.stamp = stamp;
        None
    }

    /// Misses served by a stream buffer.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_hits_after_first_miss() {
        let mut s = StreamBuffers::new(StreamConfig::default());
        assert_eq!(s.probe(10), None);
        for b in 11..30 {
            assert!(s.probe(b).is_some(), "block {b} should stream");
        }
        assert_eq!(s.hits(), 19);
    }

    #[test]
    fn four_interleaved_streams_supported() {
        let mut s = StreamBuffers::new(StreamConfig::default());
        let bases = [100u64, 5000, 90_000, 42_000];
        for &b in &bases {
            assert_eq!(s.probe(b), None);
        }
        for k in 1..10u64 {
            for &b in &bases {
                assert!(s.probe(b + k).is_some(), "stream {b} step {k}");
            }
        }
    }

    #[test]
    fn fifth_stream_evicts_lru() {
        let mut s = StreamBuffers::new(StreamConfig::default());
        for &b in &[100u64, 200, 300, 400] {
            s.probe(b);
        }
        // Keep streams 200-400 warm, let 100 go stale.
        for k in 1..3u64 {
            for &b in &[200u64, 300, 400] {
                s.probe(b + k);
            }
        }
        s.probe(10_000); // new stream: evicts the stale one
        assert_eq!(s.probe(101), None, "evicted stream must not hit");
        assert!(s.probe(10_001).is_some(), "new stream must be live");
    }

    #[test]
    fn non_sequential_misses_never_hit() {
        let mut s = StreamBuffers::new(StreamConfig::default());
        let mut state = 7u64;
        let mut hits = 0;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if s.probe(state >> 30).is_some() {
                hits += 1;
            }
        }
        assert!(hits <= 2, "random misses should not stream: {hits}");
    }
}
