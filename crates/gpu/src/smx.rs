//! One streaming multiprocessor: resident CTAs, warp contexts, resource
//! accounting, and the warp issue scheduler.

use std::collections::VecDeque;

use dynapar_engine::metrics::MetricsRegistry;
use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::{Cycle, TimingWheel};

use crate::config::{GpuConfig, SchedulerKind};
use crate::ids::{KernelId, SmxId, StreamId};
use crate::kernel::ClassId;
use crate::mem::SmxL1;
use crate::snap::{
    decode_thread_work, encode_thread_work, get_cycle, get_opt_u32, put_cycle, put_opt_u32,
};
use crate::work::ThreadWork;

/// A resident warp's execution context.
#[derive(Debug)]
pub(crate) struct WarpRt {
    /// Slot of the owning CTA within the SMX.
    pub cta_slot: u32,
    /// Owning kernel.
    pub kernel: KernelId,
    /// The kernel's interned work class, mirrored here at install time so
    /// the round hot path resolves the class without touching `kernel`.
    pub class: ClassId,
    /// Work performed by dynamically-launched code?
    pub is_child_work: bool,
    /// Nesting depth of the owning kernel.
    pub depth: u8,
    /// First lane in the owning CTA's flat [`CtaRt::lanes`] buffer.
    ///
    /// Warps do not own their lane records: each CTA holds one
    /// contiguous (pooled) buffer and every warp views a
    /// `[lane_start, lane_start + lane_count)` slice of it, so creating
    /// a warp allocates nothing. Resolve the slice through
    /// [`Smx::warp_lanes`] / [`Smx::warp_lanes_mut`].
    pub lane_start: u32,
    /// Number of lanes in this warp's slice (≤ warp_size).
    pub lane_count: u32,
    /// Rounds (work items per lane) completed so far.
    pub rounds_done: u32,
    /// Rounds to execute (`max` items across lanes); valid once `started`.
    pub rounds_total: u32,
    /// Prologue executed (launch decisions made, `rounds_total` fixed)?
    pub started: bool,
    /// Child kernels launched by this warp (the `x` of `A·x + b`).
    pub launches: u32,
    /// Cycle the warp was created (for execution-time stats).
    pub start_cycle: Cycle,
    /// Global creation sequence — the scheduler's age key.
    ///
    /// The warp's work class and DP spec are *not* stored here: they are
    /// shared per kernel and read through `kernel` from the simulation's
    /// kernel table, so creating a warp never clones an `Arc`.
    pub age: u64,
    /// Completion times of in-flight memory rounds (bounded by the
    /// configured MLP depth): the warp stalls on the oldest when full and
    /// on all of them at its final round.
    pub outstanding_mem: VecDeque<Cycle>,
}

/// A resident CTA's bookkeeping.
#[derive(Debug)]
pub(crate) struct CtaRt {
    pub kernel: KernelId,
    pub cta_index: u32,
    pub live_warps: u32,
    pub start_cycle: Cycle,
    /// Flat per-lane work table for every warp of this CTA; warps index
    /// into it via `(lane_start, lane_count)`. The buffer is recycled
    /// through the simulation's lane pool when the CTA completes.
    pub lanes: Vec<ThreadWork>,
    /// Resources to release on completion.
    pub threads: u32,
    pub regs: u32,
    pub shmem: u32,
    pub is_child_work: bool,
    /// Stream shared by children of this CTA under
    /// [`StreamPolicy::PerParentCta`](crate::StreamPolicy::PerParentCta).
    pub cta_stream: Option<StreamId>,
}

/// One SMX: capacity limits, resident CTAs/warps, the issue scheduler,
/// and its private L1.
pub(crate) struct Smx {
    pub id: SmxId,
    max_threads: u32,
    max_ctas: u32,
    max_regs: u32,
    max_shmem: u32,
    max_warps: u32,
    pub used_threads: u32,
    pub used_regs: u32,
    pub used_shmem: u32,
    pub used_ctas: u32,
    ctas: Vec<Option<CtaRt>>,
    warps: Vec<Option<WarpRt>>,
    free_cta_slots: Vec<u32>,
    free_warp_slots: Vec<u32>,
    /// Warp slots ready to issue, as a bitmask (bit `s % 64` of word
    /// `s / 64`). The issue loop runs once per warp round, so selection
    /// must not walk `warps` chasing pointers: the mask plus the flat
    /// [`ages`](Self::ages) array keep both scheduling disciplines inside
    /// two small contiguous arrays.
    ready_mask: Vec<u64>,
    ready_count: u32,
    /// Per-slot warp age (creation sequence), mirrored out of `WarpRt` on
    /// install so GTO's oldest-first scan stays cache-resident.
    ages: Vec<u64>,
    last_issued: Option<u32>,
    rr_cursor: usize,
    scheduler: SchedulerKind,
    /// Near-horizon wakeup list: warp slots keyed by the cycle they become
    /// ready (or finish). Per-warp traffic never enters the global event
    /// queue — the simulation drains this wheel inline when the SMX's
    /// anchor event fires (see `Simulation::on_smx_work`).
    pub local: TimingWheel<u32>,
    /// Cycles with a pending global anchor (`Ev::SmxWork`) for this SMX.
    /// Kept strictly decreasing on insert (an anchor is only added below
    /// the current minimum), so it stays tiny; linear scans are fine.
    pub anchors: Vec<Cycle>,
    /// Lifetime count of CTAs that completed on this SMX.
    pub ctas_executed: u64,
    /// Lifetime count of warps installed on this SMX.
    pub warps_launched: u64,
    /// High-water mark of resident warps.
    pub peak_resident_warps: u32,
    /// Local wakeups drained by this SMX (summed into the report).
    pub events_local: u64,
    /// This SMX's private L1 tag + MSHR state; L2/DRAM live in the
    /// shared `MemSystem`.
    pub l1: SmxL1,
    /// Coalescing buffer: sequential addresses, then the merged lines.
    pub addr_buf: Vec<u64>,
    /// Merge target for the two-block coalescer; swaps with `addr_buf`.
    pub scratch_buf: Vec<u64>,
}

impl Smx {
    pub fn new(id: SmxId, cfg: &GpuConfig) -> Self {
        let max_warps = cfg.max_warps_per_smx();
        Smx {
            id,
            max_threads: cfg.max_threads_per_smx,
            max_ctas: cfg.max_ctas_per_smx,
            max_regs: cfg.regs_per_smx,
            max_shmem: cfg.shmem_per_smx,
            max_warps,
            used_threads: 0,
            used_regs: 0,
            used_shmem: 0,
            used_ctas: 0,
            ctas: (0..cfg.max_ctas_per_smx).map(|_| None).collect(),
            warps: (0..max_warps).map(|_| None).collect(),
            free_cta_slots: (0..cfg.max_ctas_per_smx).rev().collect(),
            free_warp_slots: (0..max_warps).rev().collect(),
            ready_mask: vec![0; max_warps.div_ceil(64) as usize],
            ready_count: 0,
            ages: vec![0; max_warps as usize],
            last_issued: None,
            rr_cursor: 0,
            scheduler: cfg.scheduler,
            local: TimingWheel::new(),
            anchors: Vec::new(),
            ctas_executed: 0,
            warps_launched: 0,
            peak_resident_warps: 0,
            events_local: 0,
            l1: SmxL1::new(&cfg.mem),
            addr_buf: Vec::with_capacity(128),
            scratch_buf: Vec::with_capacity(128),
        }
    }

    /// Can a CTA with these requirements be placed here right now?
    ///
    /// `warps_needed` guards the warp-context limit: a CTA of 2048/32 = 64
    /// warps cannot land on an SMX that has only 10 warp slots free even if
    /// threads/regs/shmem would fit.
    pub fn can_fit(&self, threads: u32, regs: u32, shmem: u32, warps_needed: u32) -> bool {
        self.used_ctas < self.max_ctas
            && self.used_threads + threads <= self.max_threads
            && self.used_regs + regs <= self.max_regs
            && self.used_shmem + shmem <= self.max_shmem
            && self.free_warp_slots.len() >= warps_needed as usize
    }

    /// Reserves resources and a CTA slot; returns the slot index.
    ///
    /// # Panics
    ///
    /// Panics if called without a prior successful [`can_fit`](Smx::can_fit).
    pub fn reserve_cta(&mut self, cta: CtaRt) -> u32 {
        assert!(
            self.can_fit(cta.threads, cta.regs, cta.shmem, 0),
            "reserve_cta without capacity"
        );
        self.used_threads += cta.threads;
        self.used_regs += cta.regs;
        self.used_shmem += cta.shmem;
        self.used_ctas += 1;
        let slot = self.free_cta_slots.pop().expect("CTA slot available");
        self.ctas[slot as usize] = Some(cta);
        slot
    }

    pub fn cta(&self, slot: u32) -> &CtaRt {
        self.ctas[slot as usize].as_ref().expect("live CTA")
    }

    pub fn cta_mut(&mut self, slot: u32) -> &mut CtaRt {
        self.ctas[slot as usize].as_mut().expect("live CTA")
    }

    /// Releases the CTA's resources and returns its record.
    pub fn release_cta(&mut self, slot: u32) -> CtaRt {
        let cta = self.ctas[slot as usize].take().expect("live CTA");
        self.used_threads -= cta.threads;
        self.used_regs -= cta.regs;
        self.used_shmem -= cta.shmem;
        self.used_ctas -= 1;
        self.free_cta_slots.push(slot);
        self.ctas_executed += 1;
        cta
    }

    /// Installs a warp; returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if no warp slot is free (callers must check via `can_fit`).
    pub fn add_warp(&mut self, warp: WarpRt) -> u32 {
        let slot = self.free_warp_slots.pop().expect("warp slot available");
        self.ages[slot as usize] = warp.age;
        self.warps[slot as usize] = Some(warp);
        self.warps_launched += 1;
        self.peak_resident_warps = self.peak_resident_warps.max(self.resident_warps());
        slot
    }

    pub fn warp(&self, slot: u32) -> &WarpRt {
        self.warps[slot as usize].as_ref().expect("live warp")
    }

    pub fn warp_mut(&mut self, slot: u32) -> &mut WarpRt {
        self.warps[slot as usize].as_mut().expect("live warp")
    }

    /// The warp's lane slice within its CTA's flat lane table.
    pub fn warp_lanes(&self, slot: u32) -> &[ThreadWork] {
        self.warp_and_lanes(slot).1
    }

    /// Mutable view of the warp's lane slice.
    pub fn warp_lanes_mut(&mut self, slot: u32) -> &mut [ThreadWork] {
        let w = self.warps[slot as usize].as_ref().expect("live warp");
        let (cta, lo, n) = (w.cta_slot, w.lane_start as usize, w.lane_count as usize);
        let c = self.ctas[cta as usize].as_mut().expect("live CTA");
        &mut c.lanes[lo..lo + n]
    }

    /// The warp together with its lane slice (one borrow of the SMX).
    pub fn warp_and_lanes(&self, slot: u32) -> (&WarpRt, &[ThreadWork]) {
        let w = self.warps[slot as usize].as_ref().expect("live warp");
        let (lo, n) = (w.lane_start as usize, w.lane_count as usize);
        let c = self.ctas[w.cta_slot as usize].as_ref().expect("live CTA");
        (w, &c.lanes[lo..lo + n])
    }

    /// Removes a finished warp and frees its slot.
    pub fn take_warp(&mut self, slot: u32) -> WarpRt {
        let w = self.warps[slot as usize].take().expect("live warp");
        self.free_warp_slots.push(slot);
        if self.last_issued == Some(slot) {
            self.last_issued = None;
        }
        w
    }

    /// Number of resident (live) warps.
    pub fn resident_warps(&self) -> u32 {
        self.max_warps - self.free_warp_slots.len() as u32
    }

    /// Marks a warp ready to issue.
    pub fn mark_ready(&mut self, slot: u32) {
        let (w, b) = (slot as usize / 64, slot % 64);
        debug_assert!(self.ready_mask[w] & (1 << b) == 0, "double-ready");
        self.ready_mask[w] |= 1 << b;
        self.ready_count += 1;
    }

    /// True when at least one warp awaits issue.
    pub fn has_ready(&self) -> bool {
        self.ready_count > 0
    }

    /// The registration half of the global anchor dedupe: records `at`
    /// iff no pending anchor covers it (every pending anchor fires at a
    /// later cycle) and returns whether it did — the caller then owes the
    /// matching global `SmxWork` event.
    pub fn try_anchor(&mut self, at: Cycle) -> bool {
        if self.anchors.iter().all(|&a| a > at) {
            self.anchors.push(at);
            true
        } else {
            false
        }
    }

    #[inline]
    fn is_ready(&self, slot: u32) -> bool {
        self.ready_mask[slot as usize / 64] & (1 << (slot % 64)) != 0
    }

    /// Picks the next warp to issue according to the scheduling discipline;
    /// removes it from the ready set.
    pub fn select_ready(&mut self) -> Option<u32> {
        if self.ready_count == 0 {
            return None;
        }
        let slot = match self.scheduler {
            SchedulerKind::Gto => {
                // Greedy: continue the last-issued warp if it is ready;
                // otherwise the oldest warp wins (ages are a global
                // creation sequence, so they never tie).
                match self.last_issued {
                    Some(last) if self.is_ready(last) => last,
                    _ => self.oldest_ready(),
                }
            }
            SchedulerKind::RoundRobin => {
                // Rotate across slots: priority order cursor+1, cursor+2,
                // …, cursor (wrapping), so the last-picked slot is
                // re-picked only when alone: the first ready slot at or
                // after cursor+1, else the first ready slot overall.
                let from = (self.rr_cursor as u32 + 1) % self.max_warps;
                self.first_ready_at_or_after(from)
                    .or_else(|| self.first_ready_at_or_after(0))
                    .expect("non-empty ready set")
            }
        };
        let (w, b) = (slot as usize / 64, slot % 64);
        self.ready_mask[w] &= !(1 << b);
        self.ready_count -= 1;
        self.last_issued = Some(slot);
        self.rr_cursor = slot as usize;
        Some(slot)
    }

    fn oldest_ready(&self) -> u32 {
        let mut best_slot = 0;
        let mut best_age = u64::MAX;
        for (wi, &word) in self.ready_mask.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let s = wi as u32 * 64 + w.trailing_zeros();
                let age = self.ages[s as usize];
                if age < best_age {
                    best_age = age;
                    best_slot = s;
                }
                w &= w - 1;
            }
        }
        best_slot
    }

    fn first_ready_at_or_after(&self, from: u32) -> Option<u32> {
        let mut wi = from as usize / 64;
        let masked = self.ready_mask.get(wi)? & (!0u64 << (from % 64));
        if masked != 0 {
            return Some(wi as u32 * 64 + masked.trailing_zeros());
        }
        wi += 1;
        while let Some(&word) = self.ready_mask.get(wi) {
            if word != 0 {
                return Some(wi as u32 * 64 + word.trailing_zeros());
            }
            wi += 1;
        }
        None
    }

    /// Contributes this SMX's per-core entries (`smx.<id>.*`) to the run
    /// artifact's registry; the simulation adds the cross-SMX aggregates.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        let i = self.id.index();
        reg.counter(&format!("smx.{i}.ctas_executed"), self.ctas_executed);
        reg.counter(&format!("smx.{i}.warps_launched"), self.warps_launched);
        reg.gauge(
            &format!("smx.{i}.peak_resident_warps"),
            self.peak_resident_warps as f64,
        );
    }

    /// Serializes every dynamic field of the SMX: resource accounting,
    /// resident CTAs/warps, free lists, the ready set, scheduler cursors,
    /// the local wakeup wheel, pending anchors, lifetime counters, the
    /// L1/MSHR state, and the local-event counter. Capacity limits and
    /// the scheduling discipline are rebuilt from the config; the
    /// coalescing buffers are empty between events and are not written. Takes `&mut self` only because the wheel walk does
    /// (observably unchanged — see `TimingWheel::snapshot_entries`).
    pub fn encode_state(&mut self, w: &mut ByteWriter) {
        w.put_u32(self.used_threads);
        w.put_u32(self.used_regs);
        w.put_u32(self.used_shmem);
        w.put_u32(self.used_ctas);
        w.put_len(self.ctas.len());
        for slot in &self.ctas {
            match slot {
                None => w.put_u8(0),
                Some(cta) => {
                    w.put_u8(1);
                    encode_cta(cta, w);
                }
            }
        }
        w.put_len(self.warps.len());
        for slot in &self.warps {
            match slot {
                None => w.put_u8(0),
                Some(warp) => {
                    w.put_u8(1);
                    encode_warp(warp, w);
                }
            }
        }
        w.put_len(self.free_cta_slots.len());
        for &s in &self.free_cta_slots {
            w.put_u32(s);
        }
        w.put_len(self.free_warp_slots.len());
        for &s in &self.free_warp_slots {
            w.put_u32(s);
        }
        w.put_len(self.ready_mask.len());
        for &word in &self.ready_mask {
            w.put_u64(word);
        }
        w.put_u32(self.ready_count);
        w.put_len(self.ages.len());
        for &age in &self.ages {
            w.put_u64(age);
        }
        put_opt_u32(w, self.last_issued);
        w.put_u64(self.rr_cursor as u64);
        w.put_u64(self.local.frontier());
        w.put_u64(self.local.total_pushed());
        let wakeups = self.local.snapshot_entries();
        w.put_len(wakeups.len());
        for (at, slot) in wakeups {
            w.put_u64(at);
            w.put_u32(slot);
        }
        w.put_len(self.anchors.len());
        for &a in &self.anchors {
            put_cycle(w, a);
        }
        w.put_u64(self.ctas_executed);
        w.put_u64(self.warps_launched);
        w.put_u32(self.peak_resident_warps);
        self.l1.encode_state(w);
        w.put_u64(self.events_local);
    }

    /// Restores [`encode_state`](Smx::encode_state) bytes into a
    /// config-constructed SMX.
    ///
    /// # Errors
    ///
    /// Rejects slot/mask geometries that differ from this SMX's
    /// configuration, and malformed input.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapError> {
        self.used_threads = r.get_u32()?;
        self.used_regs = r.get_u32()?;
        self.used_shmem = r.get_u32()?;
        self.used_ctas = r.get_u32()?;
        if r.get_len()? != self.ctas.len() {
            return Err(SnapError::Invalid("CTA slot count differs from config"));
        }
        for slot in &mut self.ctas {
            *slot = match r.get_u8()? {
                0 => None,
                1 => Some(decode_cta(r)?),
                tag => {
                    return Err(SnapError::BadTag {
                        what: "Option<CtaRt>",
                        tag,
                    })
                }
            };
        }
        if r.get_len()? != self.warps.len() {
            return Err(SnapError::Invalid("warp slot count differs from config"));
        }
        for slot in &mut self.warps {
            *slot = match r.get_u8()? {
                0 => None,
                1 => Some(decode_warp(r)?),
                tag => {
                    return Err(SnapError::BadTag {
                        what: "Option<WarpRt>",
                        tag,
                    })
                }
            };
        }
        let n = r.get_len()?;
        self.free_cta_slots.clear();
        for _ in 0..n {
            self.free_cta_slots.push(r.get_u32()?);
        }
        let n = r.get_len()?;
        self.free_warp_slots.clear();
        for _ in 0..n {
            self.free_warp_slots.push(r.get_u32()?);
        }
        if r.get_len()? != self.ready_mask.len() {
            return Err(SnapError::Invalid("ready-mask width differs from config"));
        }
        for word in &mut self.ready_mask {
            *word = r.get_u64()?;
        }
        self.ready_count = r.get_u32()?;
        if r.get_len()? != self.ages.len() {
            return Err(SnapError::Invalid("age table size differs from config"));
        }
        for age in &mut self.ages {
            *age = r.get_u64()?;
        }
        self.last_issued = get_opt_u32(r)?;
        self.rr_cursor = r.get_u64()? as usize;
        let frontier = r.get_u64()?;
        let pushed = r.get_u64()?;
        let n = r.get_len()?;
        let mut wakeups = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.get_u64()?;
            let slot = r.get_u32()?;
            if at < frontier {
                return Err(SnapError::Invalid("local wakeup before wheel frontier"));
            }
            wakeups.push((at, slot));
        }
        self.local = TimingWheel::restore_entries(frontier, pushed, wakeups);
        let n = r.get_len()?;
        self.anchors.clear();
        for _ in 0..n {
            self.anchors.push(get_cycle(r)?);
        }
        self.ctas_executed = r.get_u64()?;
        self.warps_launched = r.get_u64()?;
        self.peak_resident_warps = r.get_u32()?;
        self.l1 = SmxL1::decode_state(r)?;
        self.events_local = r.get_u64()?;
        Ok(())
    }

    /// Utilization components `(threads, regs, shmem)` as used/capacity.
    pub fn utilization(&self) -> (f64, f64, f64) {
        (
            self.used_threads as f64 / self.max_threads as f64,
            self.used_regs as f64 / self.max_regs as f64,
            self.used_shmem as f64 / self.max_shmem as f64,
        )
    }
}

fn encode_cta(cta: &CtaRt, w: &mut ByteWriter) {
    w.put_u32(cta.kernel.0);
    w.put_u32(cta.cta_index);
    w.put_u32(cta.live_warps);
    put_cycle(w, cta.start_cycle);
    w.put_len(cta.lanes.len());
    for lane in &cta.lanes {
        encode_thread_work(lane, w);
    }
    w.put_u32(cta.threads);
    w.put_u32(cta.regs);
    w.put_u32(cta.shmem);
    w.put_bool(cta.is_child_work);
    put_opt_u32(w, cta.cta_stream.map(|s| s.0));
}

fn decode_cta(r: &mut ByteReader<'_>) -> Result<CtaRt, SnapError> {
    let kernel = KernelId(r.get_u32()?);
    let cta_index = r.get_u32()?;
    let live_warps = r.get_u32()?;
    let start_cycle = get_cycle(r)?;
    let n = r.get_len()?;
    let mut lanes = Vec::with_capacity(n);
    for _ in 0..n {
        lanes.push(decode_thread_work(r)?);
    }
    Ok(CtaRt {
        kernel,
        cta_index,
        live_warps,
        start_cycle,
        lanes,
        threads: r.get_u32()?,
        regs: r.get_u32()?,
        shmem: r.get_u32()?,
        is_child_work: r.get_bool()?,
        cta_stream: get_opt_u32(r)?.map(StreamId),
    })
}

fn encode_warp(warp: &WarpRt, w: &mut ByteWriter) {
    w.put_u32(warp.cta_slot);
    w.put_u32(warp.kernel.0);
    w.put_u32(warp.class.0);
    w.put_bool(warp.is_child_work);
    w.put_u8(warp.depth);
    w.put_u32(warp.lane_start);
    w.put_u32(warp.lane_count);
    w.put_u32(warp.rounds_done);
    w.put_u32(warp.rounds_total);
    w.put_bool(warp.started);
    w.put_u32(warp.launches);
    put_cycle(w, warp.start_cycle);
    w.put_u64(warp.age);
    w.put_len(warp.outstanding_mem.len());
    for &done in &warp.outstanding_mem {
        put_cycle(w, done);
    }
}

fn decode_warp(r: &mut ByteReader<'_>) -> Result<WarpRt, SnapError> {
    let cta_slot = r.get_u32()?;
    let kernel = KernelId(r.get_u32()?);
    let class = ClassId(r.get_u32()?);
    let is_child_work = r.get_bool()?;
    let depth = r.get_u8()?;
    let lane_start = r.get_u32()?;
    let lane_count = r.get_u32()?;
    let rounds_done = r.get_u32()?;
    let rounds_total = r.get_u32()?;
    let started = r.get_bool()?;
    let launches = r.get_u32()?;
    let start_cycle = get_cycle(r)?;
    let age = r.get_u64()?;
    let n = r.get_len()?;
    let mut outstanding_mem = VecDeque::with_capacity(n);
    for _ in 0..n {
        outstanding_mem.push_back(get_cycle(r)?);
    }
    Ok(WarpRt {
        cta_slot,
        kernel,
        class,
        is_child_work,
        depth,
        lane_start,
        lane_count,
        rounds_done,
        rounds_total,
        started,
        launches,
        start_cycle,
        age,
        outstanding_mem,
    })
}

impl std::fmt::Debug for Smx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Smx")
            .field("id", &self.id)
            .field("used_ctas", &self.used_ctas)
            .field("used_threads", &self.used_threads)
            .field("resident_warps", &self.resident_warps())
            .field("ready", &self.ready_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smx() -> Smx {
        Smx::new(SmxId(0), &GpuConfig::test_small())
    }

    fn cta(threads: u32, regs: u32, shmem: u32) -> CtaRt {
        CtaRt {
            kernel: KernelId(0),
            cta_index: 0,
            live_warps: 0,
            start_cycle: Cycle::ZERO,
            lanes: Vec::new(),
            threads,
            regs,
            shmem,
            is_child_work: false,
            cta_stream: None,
        }
    }

    fn warp(age: u64) -> WarpRt {
        WarpRt {
            cta_slot: 0,
            kernel: KernelId(0),
            class: ClassId(0),
            is_child_work: false,
            depth: 0,
            lane_start: 0,
            lane_count: 1,
            rounds_done: 0,
            rounds_total: 0,
            started: false,
            launches: 0,
            start_cycle: Cycle::ZERO,
            age,
            outstanding_mem: VecDeque::new(),
        }
    }

    #[test]
    fn resource_accounting_roundtrip() {
        let mut s = smx();
        assert!(s.can_fit(256, 4096, 1024, 8));
        let slot = s.reserve_cta(cta(256, 4096, 1024));
        assert_eq!(s.used_threads, 256);
        assert_eq!(s.used_ctas, 1);
        s.release_cta(slot);
        assert_eq!(s.used_threads, 0);
        assert_eq!(s.used_ctas, 0);
        assert_eq!(s.used_regs, 0);
        assert_eq!(s.used_shmem, 0);
    }

    #[test]
    fn capacity_limits_enforced() {
        let mut s = smx(); // test_small: 512 threads, 4 CTAs, 16K regs, 16KB shmem
        assert!(!s.can_fit(513, 0, 0, 0));
        assert!(!s.can_fit(0, 16_385, 0, 0));
        assert!(!s.can_fit(0, 0, 16 * 1024 + 1, 0));
        for _ in 0..4 {
            s.reserve_cta(cta(1, 1, 1));
        }
        assert!(!s.can_fit(1, 1, 1, 0), "CTA-slot limit");
    }

    #[test]
    fn warp_slot_limit_guards_fit() {
        let mut s = smx(); // 512/32 = 16 warp slots
        for _ in 0..16 {
            s.add_warp(warp(0));
        }
        assert!(!s.can_fit(32, 32, 0, 1));
        assert_eq!(s.resident_warps(), 16);
    }

    #[test]
    fn gto_prefers_last_issued_then_oldest() {
        let mut s = smx();
        let a = s.add_warp(warp(10));
        let b = s.add_warp(warp(5)); // older
        s.mark_ready(a);
        s.mark_ready(b);
        // Nothing issued yet: oldest (b) first.
        assert_eq!(s.select_ready(), Some(b));
        s.mark_ready(b);
        // b was last issued and is ready again: greedy keeps b.
        assert_eq!(s.select_ready(), Some(b));
        // b not ready now: falls to a.
        assert_eq!(s.select_ready(), Some(a));
        assert_eq!(s.select_ready(), None);
    }

    #[test]
    fn round_robin_rotates() {
        let mut cfg = GpuConfig::test_small();
        cfg.scheduler = SchedulerKind::RoundRobin;
        let mut s = Smx::new(SmxId(0), &cfg);
        let a = s.add_warp(warp(1));
        let b = s.add_warp(warp(2));
        let c = s.add_warp(warp(3));
        s.mark_ready(a);
        s.mark_ready(b);
        s.mark_ready(c);
        let first = s.select_ready().expect("warp");
        s.mark_ready(first);
        let second = s.select_ready().expect("warp");
        assert_ne!(first, second, "RR must not re-pick the same warp");
    }

    #[test]
    fn take_warp_clears_greedy_hint() {
        let mut s = smx();
        let a = s.add_warp(warp(1));
        s.mark_ready(a);
        assert_eq!(s.select_ready(), Some(a));
        let w = s.take_warp(a);
        assert_eq!(w.age, 1);
        assert_eq!(s.resident_warps(), 0);
        // Freed slot is reusable.
        let b = s.add_warp(warp(2));
        s.mark_ready(b);
        assert_eq!(s.select_ready(), Some(b));
    }

    #[test]
    fn utilization_components() {
        let mut s = smx();
        s.reserve_cta(cta(256, 8192, 8 * 1024));
        let (t, r, m) = s.utilization();
        assert!((t - 0.5).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lifetime_counters_and_export() {
        use dynapar_engine::metrics::{MetricsLevel, MetricsRegistry};
        let mut s = smx();
        let slot = s.reserve_cta(cta(64, 64, 0));
        s.release_cta(slot);
        s.add_warp(warp(1));
        s.add_warp(warp(2));
        s.take_warp(0);
        assert_eq!(s.ctas_executed, 1);
        assert_eq!(s.warps_launched, 2);
        assert_eq!(s.peak_resident_warps, 2);
        let mut reg = MetricsRegistry::new(MetricsLevel::Full);
        s.export_metrics(&mut reg);
        let json = reg.to_json();
        assert_eq!(json.get("smx.0.ctas_executed").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("smx.0.warps_launched").unwrap().as_u64(), Some(2));
        assert_eq!(
            json.get("smx.0.peak_resident_warps").unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn state_round_trips_through_snapshot_bytes() {
        let mut s = smx();
        let mut c = cta(64, 64, 0);
        c.lanes = (1..=5).map(ThreadWork::with_items).collect();
        c.cta_stream = Some(StreamId(3));
        let cta_slot = s.reserve_cta(c);
        let mut w0 = warp(7);
        (w0.cta_slot, w0.lane_start, w0.lane_count) = (cta_slot, 0, 3);
        w0.started = true;
        w0.rounds_total = 5;
        w0.rounds_done = 2;
        w0.outstanding_mem.push_back(Cycle(120));
        w0.outstanding_mem.push_back(Cycle(400));
        let s0 = s.add_warp(w0);
        let mut w1 = warp(8);
        (w1.cta_slot, w1.lane_start, w1.lane_count) = (cta_slot, 3, 2);
        let s1 = s.add_warp(w1);
        s.mark_ready(s0);
        assert_eq!(s.select_ready(), Some(s0)); // sets last_issued
        s.mark_ready(s1);
        s.local.push(Cycle(10), s0);
        s.local.push(Cycle(12), s1);
        s.anchors.push(Cycle(10));

        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = smx();
        let mut r = ByteReader::new(&bytes);
        back.decode_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.used_threads, s.used_threads);
        assert_eq!(back.used_ctas, s.used_ctas);
        assert_eq!(back.resident_warps(), s.resident_warps());
        assert_eq!(back.anchors, s.anchors);
        assert_eq!(back.ctas_executed, s.ctas_executed);
        assert_eq!(back.warps_launched, s.warps_launched);
        assert_eq!(back.peak_resident_warps, s.peak_resident_warps);
        let wb = back.warp(s0);
        assert_eq!(wb.rounds_done, 2);
        assert_eq!(wb.outstanding_mem, s.warp(s0).outstanding_mem);
        assert_eq!(back.cta(cta_slot).cta_stream, Some(StreamId(3)));
        assert_eq!(
            back.cta(cta_slot)
                .lanes
                .iter()
                .map(|l| l.items)
                .collect::<Vec<_>>(),
            [1, 2, 3, 4, 5]
        );
        // Scheduler state survives: both pick the same next warp, and the
        // local wheels drain identically.
        assert_eq!(back.select_ready(), s.select_ready());
        assert_eq!(back.local.pop(), s.local.pop());
        assert_eq!(back.local.pop(), s.local.pop());
        assert_eq!(back.local.total_pushed(), s.local.total_pushed());
    }

    #[test]
    fn decode_rejects_mismatched_geometry() {
        let mut s = smx();
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut big_cfg = GpuConfig::test_small();
        big_cfg.max_ctas_per_smx *= 2;
        let mut other = Smx::new(SmxId(0), &big_cfg);
        let mut r = ByteReader::new(&bytes);
        assert!(other.decode_state(&mut r).is_err());
    }

    #[test]
    fn warp_lane_slices_view_the_cta_table() {
        let mut s = smx();
        let mut c = cta(64, 64, 0);
        c.lanes = (1..=5).map(ThreadWork::with_items).collect();
        let cta_slot = s.reserve_cta(c);
        let mut w0 = warp(0);
        (w0.cta_slot, w0.lane_start, w0.lane_count) = (cta_slot, 0, 3);
        let mut w1 = warp(1);
        (w1.cta_slot, w1.lane_start, w1.lane_count) = (cta_slot, 3, 2);
        let s0 = s.add_warp(w0);
        let s1 = s.add_warp(w1);
        let items = |l: &[ThreadWork]| l.iter().map(|t| t.items).collect::<Vec<_>>();
        assert_eq!(items(s.warp_lanes(s0)), [1, 2, 3]);
        assert_eq!(items(s.warp_lanes(s1)), [4, 5]);
        // Mutations through one warp's slice land in the shared table.
        s.warp_lanes_mut(s1)[0].items = 40;
        assert_eq!(s.cta(cta_slot).lanes[3].items, 40);
        let (w, lanes) = s.warp_and_lanes(s1);
        assert_eq!(w.lane_start, 3);
        assert_eq!(items(lanes), [40, 5]);
    }
}
