//! Per-kernel runtime state tracked by the simulator.

use std::sync::Arc;

use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::Cycle;

use crate::ids::{KernelId, SmxId, StreamId};
use crate::snap::{
    decode_class, decode_source, encode_class, encode_source, get_opt_cycle, get_opt_u32,
    put_opt_cycle, put_opt_u32,
};
use crate::work::{DpSpec, ThreadSource, WorkClass};

/// One CTA's worth of threads inside a DTBL aggregation kernel.
///
/// DTBL coalesces child CTAs from many logical launches onto one aggregated
/// kernel, so each CTA remembers which logical child (thread source) it
/// belongs to and its index within that child's grid.
#[derive(Debug, Clone)]
pub(crate) struct AggCta {
    /// The logical child's thread source (shared by its sibling CTAs).
    pub source: ThreadSource,
    /// CTA index within the logical child's own grid.
    pub local_cta: u32,
    /// Total threads in the logical child.
    pub child_threads: u32,
}

/// Where a kernel's CTAs find their threads.
#[derive(Debug, Clone)]
pub(crate) enum CtaDirectory {
    /// A normal kernel: one thread source covering the whole grid.
    Uniform {
        source: ThreadSource,
        total_threads: u32,
    },
    /// A DTBL aggregation kernel: per-CTA entries appended at launch time.
    Aggregated { entries: Vec<AggCta> },
}

/// The range of lane assignments for one CTA: a source plus the base
/// thread id and thread count within that source.
pub(crate) struct CtaThreads<'a> {
    pub source: &'a ThreadSource,
    pub base_tid: u32,
    pub count: u32,
}

/// Why a kernel exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelKind {
    /// Host-launched parent kernel.
    Host,
    /// Device-launched child kernel.
    Child,
    /// DTBL aggregation kernel (holds coalesced child CTAs).
    Aggregated,
}

/// Index of an interned [`WorkClass`] in the simulation's [`SpecTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassId(pub u32);

/// Index of an interned [`DpSpec`] in the simulation's [`SpecTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DpId(pub u32);

/// The launch-relevant fields of a [`DpSpec`], flattened into a `Copy`
/// value at interning time so the warp-start hot path — executed once per
/// warp, thousands of times per run — reads plain integers instead of
/// chasing and refcounting `Arc`s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DpParams {
    /// Back-reference into the table (for the interned child/agg names).
    pub id: DpId,
    /// Interned [`DpSpec::child_class`].
    pub class: ClassId,
    /// Interned [`DpSpec::nested`].
    pub nested: Option<DpId>,
    pub child_cta_threads: u32,
    pub child_items_per_thread: u32,
    pub child_regs_per_thread: u32,
    pub child_shmem_per_cta: u32,
    pub min_items: u32,
    pub default_threshold: u32,
}

impl DpParams {
    /// `(c_grid, total_child_threads)`; mirrors [`DpSpec::child_geometry`].
    pub fn child_geometry(&self, items: u32) -> (u32, u32) {
        let threads = items.div_ceil(self.child_items_per_thread);
        let ctas = threads.div_ceil(self.child_cta_threads);
        (ctas, threads)
    }

    /// Warps per child CTA; mirrors [`DpSpec::child_warps_per_cta`].
    pub fn child_warps_per_cta(&self, warp_size: u32) -> u32 {
        self.child_cta_threads.div_ceil(warp_size)
    }
}

#[derive(Debug, Clone)]
struct DpEntry {
    /// The interned spec; kept for pointer-identity dedup.
    spec: Arc<DpSpec>,
    params: DpParams,
    /// Child-kernel display name, allocated once at interning time (the
    /// old launch path built a fresh `Arc<str>` per child launch).
    child_name: Arc<str>,
    /// `"<child>-agg"` display name for the DTBL aggregation kernel.
    agg_name: Arc<str>,
}

/// Interning table for the work classes and DP specs a simulation's
/// kernels reference. Specs are registered once per host launch (by
/// pointer identity), after which every child launch copies plain ids
/// around instead of cloning `Arc`s on the hot path.
#[derive(Debug, Default)]
pub(crate) struct SpecTable {
    classes: Vec<Arc<WorkClass>>,
    dps: Vec<DpEntry>,
}

impl SpecTable {
    /// Number of interned work classes (snapshot-decode validation).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of interned DP specs (snapshot-decode validation).
    pub fn dp_count(&self) -> usize {
        self.dps.len()
    }

    /// Interns `class`, deduplicating by pointer identity (registration
    /// happens once per host launch, so a linear scan is fine).
    pub fn intern_class(&mut self, class: &Arc<WorkClass>) -> ClassId {
        if let Some(i) = self.classes.iter().position(|c| Arc::ptr_eq(c, class)) {
            return ClassId(i as u32);
        }
        self.classes.push(Arc::clone(class));
        ClassId(self.classes.len() as u32 - 1)
    }

    /// Interns `spec` and (recursively) its child class and nested spec.
    pub fn intern_dp(&mut self, spec: &Arc<DpSpec>) -> DpId {
        if let Some(i) = self.dps.iter().position(|d| Arc::ptr_eq(&d.spec, spec)) {
            return DpId(i as u32);
        }
        let class = self.intern_class(&spec.child_class);
        let nested = spec.nested.as_ref().map(|n| self.intern_dp(n));
        let id = DpId(self.dps.len() as u32);
        self.dps.push(DpEntry {
            spec: Arc::clone(spec),
            params: DpParams {
                id,
                class,
                nested,
                child_cta_threads: spec.child_cta_threads,
                child_items_per_thread: spec.child_items_per_thread,
                child_regs_per_thread: spec.child_regs_per_thread,
                child_shmem_per_cta: spec.child_shmem_per_cta,
                min_items: spec.min_items,
                default_threshold: spec.default_threshold,
            },
            child_name: spec.child_class.label.into(),
            agg_name: format!("{}-agg", spec.child_class.label).into(),
        });
        id
    }

    pub fn class(&self, id: ClassId) -> &WorkClass {
        &self.classes[id.0 as usize]
    }

    pub fn dp(&self, id: DpId) -> DpParams {
        self.dps[id.0 as usize].params
    }

    pub fn child_name(&self, id: DpId) -> &Arc<str> {
        &self.dps[id.0 as usize].child_name
    }

    pub fn agg_name(&self, id: DpId) -> &Arc<str> {
        &self.dps[id.0 as usize].agg_name
    }

    /// Serializes the interned classes and DP entries. Only the flattened
    /// [`DpParams`] (plus class bodies) are written: the `Arc<DpSpec>`
    /// graph is reconstructed structurally at decode time, which is
    /// sufficient because the kept `Arc`s exist solely for
    /// pointer-identity dedup and the table is frozen once a run starts.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_len(self.classes.len());
        for c in &self.classes {
            encode_class(c, w);
        }
        w.put_len(self.dps.len());
        for d in &self.dps {
            let p = &d.params;
            w.put_u32(p.class.0);
            put_opt_u32(w, p.nested.map(|n| n.0));
            w.put_u32(p.child_cta_threads);
            w.put_u32(p.child_items_per_thread);
            w.put_u32(p.child_regs_per_thread);
            w.put_u32(p.child_shmem_per_cta);
            w.put_u32(p.min_items);
            w.put_u32(p.default_threshold);
        }
    }

    /// Rebuilds a table from [`encode_state`](SpecTable::encode_state)
    /// bytes.
    ///
    /// # Errors
    ///
    /// Rejects class/nested references that point outside the table or
    /// forward (interning registers nested specs first, so a valid
    /// snapshot's nested ids always point backwards).
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            classes.push(Arc::new(decode_class(r)?));
        }
        let n = r.get_len()?;
        let mut dps: Vec<DpEntry> = Vec::with_capacity(n);
        for i in 0..n {
            let class = r.get_u32()? as usize;
            if class >= classes.len() {
                return Err(SnapError::Invalid("DP entry references unknown class"));
            }
            let nested = get_opt_u32(r)?;
            if let Some(nid) = nested {
                if nid as usize >= i {
                    return Err(SnapError::Invalid(
                        "DP entry references a forward nested id",
                    ));
                }
            }
            let params = DpParams {
                id: DpId(i as u32),
                class: ClassId(class as u32),
                nested: nested.map(DpId),
                child_cta_threads: r.get_u32()?,
                child_items_per_thread: r.get_u32()?,
                child_regs_per_thread: r.get_u32()?,
                child_shmem_per_cta: r.get_u32()?,
                min_items: r.get_u32()?,
                default_threshold: r.get_u32()?,
            };
            let spec = Arc::new(DpSpec {
                child_class: Arc::clone(&classes[class]),
                child_cta_threads: params.child_cta_threads,
                child_items_per_thread: params.child_items_per_thread,
                child_regs_per_thread: params.child_regs_per_thread,
                child_shmem_per_cta: params.child_shmem_per_cta,
                min_items: params.min_items,
                default_threshold: params.default_threshold,
                nested: nested.map(|nid| Arc::clone(&dps[nid as usize].spec)),
            });
            let label = classes[class].label;
            dps.push(DpEntry {
                spec,
                params,
                child_name: label.into(),
                agg_name: format!("{label}-agg").into(),
            });
        }
        Ok(SpecTable { classes, dps })
    }
}

/// Full runtime state of one kernel instance.
#[derive(Debug)]
pub(crate) struct KernelRt {
    pub id: KernelId,
    pub name: Arc<str>,
    pub kind: KernelKind,
    pub parent: Option<KernelId>,
    pub depth: u8,
    pub stream: StreamId,
    /// SMX that ran the launching parent warp (None for host kernels).
    pub origin_smx: Option<SmxId>,
    pub cta_threads: u32,
    pub regs_per_thread: u32,
    pub shmem_per_cta: u32,
    /// Work class, interned in the simulation's [`SpecTable`].
    pub class: ClassId,
    /// DP spec, interned in the simulation's [`SpecTable`].
    pub dp: Option<DpId>,
    pub dir: CtaDirectory,
    /// Total CTAs announced (grows over time for aggregation kernels).
    pub grid_ctas: u32,
    /// CTAs that have arrived at the GMU and may be dispatched.
    pub dispatchable_ctas: u32,
    /// CTAs dispatched so far.
    pub next_cta: u32,
    /// CTAs currently resident on SMXs.
    pub live_ctas: u32,
    /// Direct child kernels (incl. aggregation kernels) not yet fully done.
    pub live_children: u32,
    /// Aggregation kernels spawned on behalf of this kernel.
    pub agg_children: Vec<KernelId>,
    /// All own CTAs have completed.
    pub own_done: bool,
    /// Own CTAs and every descendant kernel have completed
    /// (`cudaDeviceSynchronize` semantics, §II-C).
    pub fully_done: bool,
    pub created_at: Cycle,
    pub arrived_at: Option<Cycle>,
    pub first_dispatch: Option<Cycle>,
    pub own_done_at: Option<Cycle>,
}

impl KernelRt {
    /// True if this kernel's threads belong to dynamically-launched work
    /// (used for the parent-vs-child accounting in the figures).
    pub fn is_child_work(&self) -> bool {
        matches!(self.kind, KernelKind::Child | KernelKind::Aggregated)
    }

    /// Lane assignments for CTA `cta`.
    ///
    /// # Panics
    ///
    /// Panics if `cta` is out of range of the announced grid.
    pub fn cta_threads(&self, cta: u32) -> CtaThreads<'_> {
        match &self.dir {
            CtaDirectory::Uniform {
                source,
                total_threads,
            } => {
                let base = cta * self.cta_threads;
                assert!(cta < self.grid_ctas, "CTA index out of range");
                let count = if base >= *total_threads {
                    0
                } else {
                    (*total_threads - base).min(self.cta_threads)
                };
                CtaThreads {
                    source,
                    base_tid: base,
                    count,
                }
            }
            CtaDirectory::Aggregated { entries } => {
                let e = &entries[cta as usize];
                let base = e.local_cta * self.cta_threads;
                let count = if base >= e.child_threads {
                    0
                } else {
                    (e.child_threads - base).min(self.cta_threads)
                };
                CtaThreads {
                    source: &e.source,
                    base_tid: base,
                    count,
                }
            }
        }
    }

    /// All announced CTAs dispatched and finished?
    pub fn own_work_drained(&self) -> bool {
        self.dispatchable_ctas == self.grid_ctas
            && self.next_cta == self.grid_ctas
            && self.live_ctas == 0
    }

    /// Serializes the kernel's full runtime state for a snapshot.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.id.0);
        w.put_str(&self.name);
        w.put_u8(match self.kind {
            KernelKind::Host => 0,
            KernelKind::Child => 1,
            KernelKind::Aggregated => 2,
        });
        put_opt_u32(w, self.parent.map(|k| k.0));
        w.put_u8(self.depth);
        w.put_u32(self.stream.0);
        put_opt_u32(w, self.origin_smx.map(|s| s.0 as u32));
        w.put_u32(self.cta_threads);
        w.put_u32(self.regs_per_thread);
        w.put_u32(self.shmem_per_cta);
        w.put_u32(self.class.0);
        put_opt_u32(w, self.dp.map(|d| d.0));
        match &self.dir {
            CtaDirectory::Uniform {
                source,
                total_threads,
            } => {
                w.put_u8(0);
                encode_source(source, w);
                w.put_u32(*total_threads);
            }
            CtaDirectory::Aggregated { entries } => {
                w.put_u8(1);
                w.put_len(entries.len());
                for e in entries {
                    encode_source(&e.source, w);
                    w.put_u32(e.local_cta);
                    w.put_u32(e.child_threads);
                }
            }
        }
        w.put_u32(self.grid_ctas);
        w.put_u32(self.dispatchable_ctas);
        w.put_u32(self.next_cta);
        w.put_u32(self.live_ctas);
        w.put_u32(self.live_children);
        w.put_len(self.agg_children.len());
        for &k in &self.agg_children {
            w.put_u32(k.0);
        }
        w.put_bool(self.own_done);
        w.put_bool(self.fully_done);
        w.put_u64(self.created_at.as_u64());
        put_opt_cycle(w, self.arrived_at);
        put_opt_cycle(w, self.first_dispatch);
        put_opt_cycle(w, self.own_done_at);
    }

    /// Rebuilds a kernel from [`encode_state`](KernelRt::encode_state)
    /// bytes.
    ///
    /// # Errors
    ///
    /// Rejects unknown kind/directory tags and malformed input.
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<Self, SnapError> {
        let id = KernelId(r.get_u32()?);
        let name: Arc<str> = r.get_str()?.into();
        let kind = match r.get_u8()? {
            0 => KernelKind::Host,
            1 => KernelKind::Child,
            2 => KernelKind::Aggregated,
            tag => {
                return Err(SnapError::BadTag {
                    what: "KernelKind",
                    tag,
                })
            }
        };
        let parent = get_opt_u32(r)?.map(KernelId);
        let depth = r.get_u8()?;
        let stream = StreamId(r.get_u32()?);
        let origin_smx = get_opt_u32(r)?.map(|s| SmxId(s as u8));
        let cta_threads = r.get_u32()?;
        let regs_per_thread = r.get_u32()?;
        let shmem_per_cta = r.get_u32()?;
        let class = ClassId(r.get_u32()?);
        let dp = get_opt_u32(r)?.map(DpId);
        let dir = match r.get_u8()? {
            0 => CtaDirectory::Uniform {
                source: decode_source(r)?,
                total_threads: r.get_u32()?,
            },
            1 => {
                let n = r.get_len()?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(AggCta {
                        source: decode_source(r)?,
                        local_cta: r.get_u32()?,
                        child_threads: r.get_u32()?,
                    });
                }
                CtaDirectory::Aggregated { entries }
            }
            tag => {
                return Err(SnapError::BadTag {
                    what: "CtaDirectory",
                    tag,
                })
            }
        };
        let grid_ctas = r.get_u32()?;
        let dispatchable_ctas = r.get_u32()?;
        let next_cta = r.get_u32()?;
        let live_ctas = r.get_u32()?;
        let live_children = r.get_u32()?;
        let n = r.get_len()?;
        let mut agg_children = Vec::with_capacity(n);
        for _ in 0..n {
            agg_children.push(KernelId(r.get_u32()?));
        }
        Ok(KernelRt {
            id,
            name,
            kind,
            parent,
            depth,
            stream,
            origin_smx,
            cta_threads,
            regs_per_thread,
            shmem_per_cta,
            class,
            dp,
            dir,
            grid_ctas,
            dispatchable_ctas,
            next_cta,
            live_ctas,
            live_children,
            agg_children,
            own_done: r.get_bool()?,
            fully_done: r.get_bool()?,
            created_at: Cycle(r.get_u64()?),
            arrived_at: get_opt_cycle(r)?,
            first_dispatch: get_opt_cycle(r)?,
            own_done_at: get_opt_cycle(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::ThreadWork;

    fn uniform_kernel(total_threads: u32, cta_threads: u32) -> KernelRt {
        KernelRt {
            id: KernelId(0),
            name: "t".into(),
            kind: KernelKind::Host,
            parent: None,
            depth: 0,
            stream: StreamId(0),
            origin_smx: None,
            cta_threads,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: ClassId(0),
            dp: None,
            dir: CtaDirectory::Uniform {
                source: ThreadSource::Derived {
                    origin: ThreadWork::with_items(total_threads),
                    items_per_thread: 1,
                },
                total_threads,
            },
            grid_ctas: total_threads.div_ceil(cta_threads),
            dispatchable_ctas: 0,
            next_cta: 0,
            live_ctas: 0,
            live_children: 0,
            agg_children: Vec::new(),
            own_done: false,
            fully_done: false,
            created_at: Cycle::ZERO,
            arrived_at: None,
            first_dispatch: None,
            own_done_at: None,
        }
    }

    #[test]
    fn uniform_cta_ranges() {
        let k = uniform_kernel(100, 64);
        let c0 = k.cta_threads(0);
        assert_eq!((c0.base_tid, c0.count), (0, 64));
        let c1 = k.cta_threads(1);
        assert_eq!((c1.base_tid, c1.count), (64, 36)); // tail CTA is partial
    }

    #[test]
    fn aggregated_cta_ranges() {
        let mk_source = |items: u32| ThreadSource::Derived {
            origin: ThreadWork::with_items(items),
            items_per_thread: 1,
        };
        let mut k = uniform_kernel(0, 32);
        k.kind = KernelKind::Aggregated;
        k.dir = CtaDirectory::Aggregated {
            entries: vec![
                AggCta {
                    source: mk_source(40),
                    local_cta: 0,
                    child_threads: 40,
                },
                AggCta {
                    source: mk_source(40),
                    local_cta: 1,
                    child_threads: 40,
                },
            ],
        };
        k.grid_ctas = 2;
        let c0 = k.cta_threads(0);
        assert_eq!((c0.base_tid, c0.count), (0, 32));
        let c1 = k.cta_threads(1);
        assert_eq!((c1.base_tid, c1.count), (32, 8));
        assert!(k.is_child_work());
    }

    #[test]
    fn spec_table_interns_by_identity() {
        let nested = Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("gc", 1)),
            child_cta_threads: 32,
            child_items_per_thread: 1,
            child_regs_per_thread: 8,
            child_shmem_per_cta: 0,
            min_items: 4,
            default_threshold: 8,
            nested: None,
        });
        let spec = Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("c", 1)),
            child_cta_threads: 64,
            child_items_per_thread: 2,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: 16,
            nested: Some(Arc::clone(&nested)),
        });
        let mut t = SpecTable::default();
        let id = t.intern_dp(&spec);
        assert_eq!(t.intern_dp(&spec), id, "same Arc interns to same id");
        let p = t.dp(id);
        assert_eq!(p.id, id);
        // The flattened params must agree with the spec they mirror.
        for items in [1, 63, 64, 127, 128, 1000] {
            assert_eq!(p.child_geometry(items), spec.child_geometry(items));
        }
        assert_eq!(p.child_warps_per_cta(32), spec.child_warps_per_cta(32));
        let n = t.dp(p.nested.expect("nested interned"));
        assert_eq!(n.min_items, 4);
        assert_eq!(
            t.intern_dp(&nested),
            p.nested.unwrap(),
            "nested spec dedups against its recursive registration"
        );
        assert_eq!(&**t.child_name(id), "c");
        assert_eq!(&**t.agg_name(id), "c-agg");
        assert_eq!(t.class(p.class).label, "c");
    }

    #[test]
    fn spec_table_round_trips_through_snapshot_bytes() {
        let nested = Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("gc", 1)),
            child_cta_threads: 32,
            child_items_per_thread: 1,
            child_regs_per_thread: 8,
            child_shmem_per_cta: 0,
            min_items: 4,
            default_threshold: 8,
            nested: None,
        });
        let spec = Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("c", 1)),
            child_cta_threads: 64,
            child_items_per_thread: 2,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: 16,
            nested: Some(Arc::clone(&nested)),
        });
        let mut t = SpecTable::default();
        let id = t.intern_dp(&spec);

        let mut w = ByteWriter::new();
        t.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = SpecTable::decode_state(&mut r).unwrap();
        r.finish().unwrap();

        let p = back.dp(id);
        assert_eq!(p.min_items, 8);
        assert_eq!(p.child_geometry(200), spec.child_geometry(200));
        let n = back.dp(p.nested.expect("nested survives"));
        assert_eq!(n.min_items, 4);
        assert_eq!(back.class(p.class), &*spec.child_class);
        assert_eq!(&**back.child_name(id), "c");
        assert_eq!(&**back.agg_name(id), "c-agg");
        // The rebuilt spec graph is structurally whole: nested entries
        // still reference a live Arc'd grandchild spec.
        assert_eq!(
            back.dps[id.0 as usize]
                .spec
                .nested
                .as_ref()
                .unwrap()
                .min_items,
            4
        );
    }

    #[test]
    fn spec_table_decode_rejects_dangling_refs() {
        let spec = Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("c", 1)),
            child_cta_threads: 64,
            child_items_per_thread: 1,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: 16,
            nested: None,
        });
        let mut t = SpecTable::default();
        t.intern_dp(&spec);
        let mut w = ByteWriter::new();
        t.encode_state(&mut w);
        let mut bytes = w.into_bytes();
        // The single DP entry is the trailing 29 bytes (class u32 +
        // nested tag + six u32 params); smash the class id's low byte to
        // an out-of-range value.
        let len = bytes.len();
        bytes[len - 29] = 0xEE;
        let mut r = ByteReader::new(&bytes);
        assert!(SpecTable::decode_state(&mut r).is_err());
    }

    #[test]
    fn kernel_rt_round_trips_through_snapshot_bytes() {
        let mut k = uniform_kernel(100, 64);
        k.kind = KernelKind::Child;
        k.parent = Some(KernelId(3));
        k.depth = 1;
        k.origin_smx = Some(SmxId(5));
        k.dp = Some(DpId(2));
        k.dispatchable_ctas = 2;
        k.next_cta = 1;
        k.live_ctas = 1;
        k.live_children = 2;
        k.agg_children = vec![KernelId(7), KernelId(9)];
        k.arrived_at = Some(Cycle(10));
        k.first_dispatch = Some(Cycle(20));

        let mut w = ByteWriter::new();
        k.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = KernelRt::decode_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.id, k.id);
        assert_eq!(&*back.name, &*k.name);
        assert_eq!(back.kind, k.kind);
        assert_eq!(back.parent, k.parent);
        assert_eq!(back.origin_smx, k.origin_smx);
        assert_eq!(back.dp, k.dp);
        assert_eq!(back.agg_children, k.agg_children);
        assert_eq!(back.arrived_at, k.arrived_at);
        assert_eq!(back.own_done_at, None);
        assert!(back.is_child_work());
        let (a, b) = (back.cta_threads(1), k.cta_threads(1));
        assert_eq!((a.base_tid, a.count), (b.base_tid, b.count));
        assert_eq!(back.own_work_drained(), k.own_work_drained());
    }

    #[test]
    fn aggregated_kernel_rt_round_trips() {
        let mk_source = |items: u32| ThreadSource::Derived {
            origin: ThreadWork::with_items(items),
            items_per_thread: 1,
        };
        let mut k = uniform_kernel(0, 32);
        k.kind = KernelKind::Aggregated;
        k.dir = CtaDirectory::Aggregated {
            entries: vec![
                AggCta {
                    source: mk_source(40),
                    local_cta: 0,
                    child_threads: 40,
                },
                AggCta {
                    source: mk_source(40),
                    local_cta: 1,
                    child_threads: 40,
                },
            ],
        };
        k.grid_ctas = 2;
        let mut w = ByteWriter::new();
        k.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = KernelRt::decode_state(&mut r).unwrap();
        r.finish().unwrap();
        let (a, b) = (back.cta_threads(1), k.cta_threads(1));
        assert_eq!((a.base_tid, a.count), (b.base_tid, b.count));
        assert_eq!(a.source.total_items(), b.source.total_items());
    }

    #[test]
    fn own_work_drained_conditions() {
        let mut k = uniform_kernel(64, 64);
        assert!(!k.own_work_drained()); // nothing arrived
        k.dispatchable_ctas = 1;
        assert!(!k.own_work_drained()); // not dispatched
        k.next_cta = 1;
        assert!(k.own_work_drained());
        k.live_ctas = 1;
        assert!(!k.own_work_drained()); // still running
    }
}
