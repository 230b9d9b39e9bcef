//! A set-associative, LRU tag array.

use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};

/// Tag value of a never-filled way. Line ids are byte addresses shifted
/// right by the line size, so no real line can reach `u64::MAX`.
const INVALID_TAG: u64 = u64::MAX;

/// One way of one set: the cached line id and its LRU timestamp. Packing
/// tag and stamp side by side keeps a whole 4-way set inside a single
/// host cache line, which matters because [`Cache::probe_fill`] is the
/// hottest function in the simulator.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    stamp: u64,
}

/// A set-associative cache modeled as a tag store (no data payloads — the
/// simulator only needs hit/miss behaviour and replacement state).
///
/// Indexed by *line id* (byte address >> log2(line size)); the caller picks
/// the granularity. Replacement is true LRU via per-way timestamps: invalid
/// ways keep stamp 0 while the tick counter starts at 1, so "lowest stamp,
/// first on ties" is exactly "first invalid way, else least recently used".
///
/// # Examples
///
/// ```
/// use dynapar_gpu::mem::Cache;
///
/// let mut c = Cache::new(2, 2); // 2 sets, 2 ways
/// assert!(!c.probe_fill(0)); // cold miss
/// assert!(c.probe_fill(0));  // now a hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    lines: Vec<Way>,
    tick: u64,
    accesses: u64,
    hits: u64,
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        Cache {
            sets,
            ways,
            lines: vec![
                Way {
                    tag: INVALID_TAG,
                    stamp: 0,
                };
                sets * ways
            ],
            tick: 0,
            accesses: 0,
            hits: 0,
        }
    }

    /// Builds a cache from byte sizes: `total_bytes / (line_bytes × ways)`
    /// sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn with_geometry(total_bytes: u32, line_bytes: u32, ways: u32) -> Self {
        assert!(
            total_bytes.is_multiple_of(line_bytes * ways),
            "size must be divisible by line_bytes * ways"
        );
        Cache::new((total_bytes / (line_bytes * ways)) as usize, ways as usize)
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        // Every real geometry has power-of-two sets; the branch predicts
        // perfectly and saves an integer division on the hot path.
        if self.sets.is_power_of_two() {
            (line & (self.sets as u64 - 1)) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// Probes for `line`; on a miss, fills it (evicting LRU). Returns
    /// whether the probe hit.
    ///
    /// Dispatches to a const-width probe for the associativities every
    /// real geometry uses (Table II: 4-way L1, 8-way L2) so the way scan
    /// fully unrolls with no bounds checks.
    pub fn probe_fill(&mut self, line: u64) -> bool {
        match self.ways {
            4 => self.probe_fill_n::<4>(line),
            8 => self.probe_fill_n::<8>(line),
            _ => self.probe_fill_dyn(line),
        }
    }

    #[inline]
    fn probe_fill_n<const W: usize>(&mut self, line: u64) -> bool {
        debug_assert_ne!(
            line, INVALID_TAG,
            "line id collides with the invalid sentinel"
        );
        self.tick += 1;
        self.accesses += 1;
        let base = self.set_of(line) * W;
        let set: &mut [Way; W] = (&mut self.lines[base..base + W])
            .try_into()
            .expect("set width");
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for (w, way) in set.iter_mut().enumerate() {
            if way.tag == line {
                way.stamp = self.tick;
                self.hits += 1;
                return true;
            }
            if way.stamp < victim_stamp {
                victim_stamp = way.stamp;
                victim = w;
            }
        }
        set[victim] = Way {
            tag: line,
            stamp: self.tick,
        };
        false
    }

    fn probe_fill_dyn(&mut self, line: u64) -> bool {
        debug_assert_ne!(
            line, INVALID_TAG,
            "line id collides with the invalid sentinel"
        );
        self.tick += 1;
        self.accesses += 1;
        let base = self.set_of(line) * self.ways;
        let set = &mut self.lines[base..base + self.ways];
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for (w, way) in set.iter_mut().enumerate() {
            if way.tag == line {
                way.stamp = self.tick;
                self.hits += 1;
                return true;
            }
            if way.stamp < victim_stamp {
                victim_stamp = way.stamp;
                victim = w;
            }
        }
        set[victim] = Way {
            tag: line,
            stamp: self.tick,
        };
        false
    }

    /// Probes without filling (used for diagnostics/tests).
    pub fn contains(&self, line: u64) -> bool {
        let base = self.set_of(line) * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .any(|w| w.tag == line)
    }

    /// Total probes so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hit rate in `[0, 1]`; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Number of lines the cache can hold.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Serializes the full tag-array state (geometry, LRU stamps,
    /// counters) for a snapshot.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_len(self.sets);
        w.put_len(self.ways);
        w.put_u64(self.tick);
        w.put_u64(self.accesses);
        w.put_u64(self.hits);
        for way in &self.lines {
            w.put_u64(way.tag);
            w.put_u64(way.stamp);
        }
    }

    /// Rebuilds a cache from [`encode_state`](Cache::encode_state) bytes.
    ///
    /// # Errors
    ///
    /// Rejects a zero-sized geometry, a geometry whose tag array does
    /// not fit in the remaining input (so a crafted header can neither
    /// overflow `sets × ways` nor ask for a huge allocation), and
    /// truncated input.
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<Self, SnapError> {
        let sets = r.get_len()?;
        let ways = r.get_len()?;
        if sets == 0 || ways == 0 {
            return Err(SnapError::Invalid("cache must have sets and ways"));
        }
        let tick = r.get_u64()?;
        let accesses = r.get_u64()?;
        let hits = r.get_u64()?;
        // Each way is two u64s on the wire.
        let n = sets
            .checked_mul(ways)
            .filter(|n| n.checked_mul(16).is_some_and(|b| b <= r.remaining()))
            .ok_or(SnapError::Invalid("cache geometry exceeds the input"))?;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            lines.push(Way {
                tag: r.get_u64()?,
                stamp: r.get_u64()?,
            });
        }
        Ok(Cache {
            sets,
            ways,
            lines,
            tick,
            accesses,
            hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(4, 2);
        assert!(!c.probe_fill(10));
        assert!(c.probe_fill(10));
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.hits(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(1, 2); // one set, two ways
        c.probe_fill(1);
        c.probe_fill(2);
        c.probe_fill(1); // touch 1 -> 2 becomes LRU
        c.probe_fill(3); // evicts 2
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn invalid_ways_fill_before_any_eviction() {
        let mut c = Cache::new(1, 4);
        c.probe_fill(1);
        c.probe_fill(2);
        c.probe_fill(3); // three cold misses must use the three empty ways
        assert!(c.contains(1) && c.contains(2) && c.contains(3));
        c.probe_fill(4); // last empty way, still no eviction
        assert!(c.contains(1) && c.contains(4));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = Cache::new(2, 1);
        c.probe_fill(0); // set 0
        c.probe_fill(1); // set 1
        assert!(c.contains(0));
        assert!(c.contains(1));
    }

    #[test]
    fn non_power_of_two_sets_still_index_correctly() {
        let mut c = Cache::new(3, 1);
        c.probe_fill(0); // set 0
        c.probe_fill(1); // set 1
        c.probe_fill(2); // set 2
        assert!(c.contains(0) && c.contains(1) && c.contains(2));
        c.probe_fill(3); // set 0 again: evicts line 0
        assert!(c.contains(3));
        assert!(!c.contains(0));
    }

    #[test]
    fn geometry_constructor_matches_table_ii_l1() {
        // 16KB, 128B lines, 4-way -> 32 sets -> 128 lines.
        let c = Cache::with_geometry(16 * 1024, 128, 4);
        assert_eq!(c.capacity_lines(), 128);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(4, 2); // 8 lines
                                      // Stream 16 distinct lines twice: second pass must still miss
                                      // (LRU with a circular working set 2x capacity keeps zero reuse).
        for pass in 0..2 {
            for l in 0..16u64 {
                let hit = c.probe_fill(l);
                if pass == 0 {
                    assert!(!hit);
                }
            }
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = Cache::new(4, 2);
        for l in 0..8u64 {
            c.probe_fill(l);
        }
        for l in 0..8u64 {
            assert!(c.probe_fill(l), "line {l} should hit");
        }
    }

    #[test]
    #[should_panic(expected = "cache must have sets and ways")]
    fn zero_geometry_rejected() {
        Cache::new(0, 1);
    }

    #[test]
    fn state_round_trips_through_snapshot_bytes() {
        let mut c = Cache::new(4, 2);
        for l in [1u64, 9, 1, 5, 13, 2] {
            c.probe_fill(l);
        }
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut back = Cache::decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.accesses(), c.accesses());
        assert_eq!(back.hits(), c.hits());
        assert_eq!(back.capacity_lines(), c.capacity_lines());
        // Continuing both must keep identical hit/miss (and LRU) behaviour.
        for l in [1u64, 9, 17, 5, 13, 21, 1] {
            assert_eq!(back.probe_fill(l), c.probe_fill(l), "line {l}");
        }
        assert_eq!(back.hits(), c.hits());
    }

    /// A cache header with the given geometry followed by `tail` bytes.
    fn crafted(sets: u64, ways: u64, tail: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(sets);
        w.put_u64(ways);
        for _ in 0..3 {
            w.put_u64(0); // tick, accesses, hits
        }
        let mut bytes = w.into_bytes();
        bytes.resize(bytes.len() + tail, 0);
        bytes
    }

    #[test]
    fn decode_rejects_a_geometry_larger_than_the_input() {
        // Both prefixes pass the reader's own length bound, but the tag
        // array they describe (64 × 64 ways × 16 bytes) does not fit in
        // what follows: a typed error, not a 64 KiB allocation followed
        // by a truncation.
        let bytes = crafted(64, 64, 4096);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            Cache::decode_state(&mut r).unwrap_err(),
            SnapError::Invalid("cache geometry exceeds the input")
        );
        // One way short of the exact fit fails the same way; the exact
        // fit decodes.
        let bytes = crafted(4, 2, 4 * 2 * 16 - 1);
        assert!(Cache::decode_state(&mut ByteReader::new(&bytes)).is_err());
        let bytes = crafted(4, 2, 4 * 2 * 16);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(Cache::decode_state(&mut r).unwrap().capacity_lines(), 8);
        r.finish().unwrap();
    }

    #[test]
    fn decode_rejects_oversized_and_zero_geometry_prefixes() {
        let bytes = crafted(u64::MAX, u64::MAX, 64);
        assert_eq!(
            Cache::decode_state(&mut ByteReader::new(&bytes)).unwrap_err(),
            SnapError::Invalid("length prefix")
        );
        let bytes = crafted(0, 4, 64);
        assert_eq!(
            Cache::decode_state(&mut ByteReader::new(&bytes)).unwrap_err(),
            SnapError::Invalid("cache must have sets and ways")
        );
    }
}
