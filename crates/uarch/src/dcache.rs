//! A set-associative data cache with LRU replacement.

use crate::config::DCacheConfig;
use branch_predictors::SetAssoc;

/// Access statistics for the data cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DCacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl DCacheStats {
    /// Misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]`; zero when never accessed.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A write-allocate, LRU, set-associative data cache model.
///
/// # Example
///
/// ```
/// use hps_uarch::{DataCache, DCacheConfig};
///
/// let mut cache = DataCache::new(DCacheConfig::isca97());
/// assert!(!cache.access(0x1000));      // cold miss
/// assert!(cache.access(0x1008));       // same line: hit
/// ```
#[derive(Clone, Debug)]
pub struct DataCache {
    config: DCacheConfig,
    lines: SetAssoc<()>,
    stats: DCacheStats,
}

impl DataCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is malformed (see [`DCacheConfig::sets`]).
    pub fn new(config: DCacheConfig) -> Self {
        DataCache {
            config,
            lines: SetAssoc::new(config.sets(), config.assoc),
            stats: DCacheStats::default(),
        }
    }

    /// Accesses a byte address; returns whether it hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let sets = self.lines.sets();
        let (set, tag) = ((line as usize) & (sets - 1), line / sets as u64);
        let hit = self.lines.get_mut(set, tag).is_some();
        if !hit {
            self.lines.insert(set, tag, ());
        }
        self.stats.accesses += 1;
        self.stats.hits += hit as u64;
        hit
    }

    /// Access statistics.
    pub fn stats(&self) -> DCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DataCache {
        // 2 sets x 2 ways x 32-byte lines = 128 bytes.
        DataCache::new(DCacheConfig {
            size_bytes: 128,
            line_bytes: 32,
            assoc: 2,
            miss_penalty: 10,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x11F), "same 32-byte line");
        assert!(!c.access(0x120), "next line is a different set/line");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Lines 0x000, 0x080, 0x100 share set 0 (line_addr % 2 == 0).
        assert!(!c.access(0x000));
        assert!(!c.access(0x080));
        assert!(c.access(0x000)); // touch: 0x080 becomes LRU
        assert!(!c.access(0x100)); // evicts 0x080
        assert!(c.access(0x000));
        assert!(!c.access(0x080), "evicted line misses again");
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = small();
        c.access(0x0);
        c.access(0x0);
        c.access(0x40);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn strided_working_set_fits_16k() {
        let mut c = DataCache::new(DCacheConfig::isca97());
        // An 8 KB working set walked twice: second pass all hits.
        for pass in 0..2 {
            let mut hits = 0;
            for i in 0..256u64 {
                hits += c.access(0x1_0000 + i * 32) as u32;
            }
            if pass == 1 {
                assert_eq!(hits, 256);
            }
        }
    }
}
