//! Open-row DRAM channel model.

use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::Cycle;

use crate::snap::{get_opt_u64, put_opt_u64};

/// One DRAM channel (memory controller) with per-bank open-row tracking
/// and a service-interval bandwidth limit — a lightweight stand-in for the
/// FR-FCFS controllers of Table II.
///
/// A request to a bank whose row buffer already holds the target row pays
/// the row-hit latency; otherwise the precharge+activate row-miss latency.
/// Back-to-back requests to one channel are separated by at least the
/// service interval, which bounds per-channel bandwidth.
#[derive(Debug, Clone)]
pub struct DramChannel {
    banks: Vec<Option<u64>>, // open row per bank
    next_free: Cycle,
    row_hit_latency: u64,
    row_miss_latency: u64,
    service_interval: u64,
    lines_per_row: u64,
    accesses: u64,
    row_hits: u64,
}

impl DramChannel {
    /// Creates a channel with `banks` banks; `lines_per_row` cache lines
    /// share one DRAM row (row size / line size).
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `lines_per_row` is zero.
    pub fn new(
        banks: u32,
        lines_per_row: u64,
        row_hit_latency: u64,
        row_miss_latency: u64,
        service_interval: u64,
    ) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(lines_per_row > 0, "need at least one line per row");
        DramChannel {
            banks: vec![None; banks as usize],
            next_free: Cycle::ZERO,
            row_hit_latency,
            row_miss_latency,
            service_interval,
            lines_per_row,
            accesses: 0,
            row_hits: 0,
        }
    }

    /// Maps a line to its DRAM row, avoiding the division when the row
    /// holds a power-of-two number of lines (every real geometry does).
    #[inline]
    fn row_of(&self, line: u64) -> u64 {
        if self.lines_per_row.is_power_of_two() {
            line >> self.lines_per_row.trailing_zeros()
        } else {
            line / self.lines_per_row
        }
    }

    #[inline]
    fn bank_of(&self, row: u64) -> usize {
        let banks = self.banks.len() as u64;
        if banks.is_power_of_two() {
            (row & (banks - 1)) as usize
        } else {
            (row % banks) as usize
        }
    }

    /// Services a read of cache line `line` arriving at `arrive`; returns
    /// the completion time.
    pub fn access(&mut self, arrive: Cycle, line: u64) -> Cycle {
        let start = arrive.max(self.next_free);
        self.next_free = start + self.service_interval;
        self.accesses += 1;

        let row = self.row_of(line);
        let bank = self.bank_of(row);
        let latency = if self.banks[bank] == Some(row) {
            self.row_hits += 1;
            self.row_hit_latency
        } else {
            self.banks[bank] = Some(row);
            self.row_miss_latency
        };
        start + latency
    }

    /// Consumes bandwidth for a write without producing a completion time
    /// (stores do not stall warps).
    pub fn write(&mut self, arrive: Cycle, line: u64) {
        let start = arrive.max(self.next_free);
        self.next_free = start + self.service_interval;
        let row = self.row_of(line);
        let bank = self.bank_of(row);
        if self.banks[bank] != Some(row) {
            self.banks[bank] = Some(row);
        }
    }

    /// Total read requests serviced.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Fraction of reads that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Serializes the dynamic channel state (open rows, bandwidth
    /// frontier, counters); the timing parameters are rebuilt from the
    /// config at decode time.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_len(self.banks.len());
        for bank in &self.banks {
            put_opt_u64(w, *bank);
        }
        w.put_u64(self.next_free.as_u64());
        w.put_u64(self.accesses);
        w.put_u64(self.row_hits);
    }

    /// Restores [`encode_state`](DramChannel::encode_state) bytes into a
    /// config-constructed channel.
    ///
    /// # Errors
    ///
    /// Rejects a bank count that differs from this channel's geometry.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapError> {
        let n = r.get_len()?;
        if n != self.banks.len() {
            return Err(SnapError::Invalid("DRAM bank count differs from config"));
        }
        for bank in &mut self.banks {
            *bank = get_opt_u64(r)?;
        }
        self.next_free = Cycle(r.get_u64()?);
        self.accesses = r.get_u64()?;
        self.row_hits = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> DramChannel {
        DramChannel::new(4, 16, 100, 250, 4)
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut c = ch();
        let done = c.access(Cycle(0), 0);
        assert_eq!(done, Cycle(250));
        assert_eq!(c.accesses(), 1);
        assert_eq!(c.row_hit_rate(), 0.0);
    }

    #[test]
    fn same_row_hits_after_open() {
        let mut c = ch();
        c.access(Cycle(0), 0);
        let done = c.access(Cycle(1000), 1); // same row (lines 0..16)
        assert_eq!(done, Cycle(1000 + 100));
        assert!((c.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_row_same_bank_misses() {
        let mut c = ch();
        c.access(Cycle(0), 0); // row 0, bank 0
                               // Row 4 also maps to bank 0 (4 % 4 == 0) and closes row 0.
        let done = c.access(Cycle(1000), 4 * 16);
        assert_eq!(done, Cycle(1250));
        let done = c.access(Cycle(2000), 0); // row 0 again: miss
        assert_eq!(done, Cycle(2250));
    }

    #[test]
    fn bandwidth_serializes_back_to_back() {
        let mut c = ch();
        let d1 = c.access(Cycle(0), 0);
        let d2 = c.access(Cycle(0), 16); // different bank, same instant
                                         // Second must start 4 cycles later regardless of bank.
        assert!(d2 >= d1.saturating_sub(Cycle(250)) + Cycle(4 + 250));
        assert_eq!(d2, Cycle(4 + 250));
    }

    #[test]
    fn writes_consume_bandwidth() {
        let mut c = ch();
        c.write(Cycle(0), 0);
        let done = c.access(Cycle(0), 16);
        // The read had to wait for the write's service slot.
        assert_eq!(done, Cycle(4 + 250));
    }

    #[test]
    fn state_round_trips_through_snapshot_bytes() {
        let mut c = ch();
        c.access(Cycle(0), 0);
        c.access(Cycle(10), 1);
        c.write(Cycle(20), 64);
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = ch();
        let mut r = ByteReader::new(&bytes);
        back.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.accesses(), c.accesses());
        assert_eq!(back.row_hit_rate(), c.row_hit_rate());
        // Next accesses agree exactly (open rows + bandwidth frontier).
        for (t, l) in [(30u64, 2u64), (31, 4 * 16), (32, 0)] {
            assert_eq!(back.access(Cycle(t), l), c.access(Cycle(t), l));
        }
    }

    #[test]
    fn decode_rejects_wrong_bank_count() {
        let mut w = ByteWriter::new();
        ch().encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut other = DramChannel::new(8, 16, 100, 250, 4);
        let mut r = ByteReader::new(&bytes);
        assert!(other.decode_state(&mut r).is_err());
    }
}
