//! The abstract work model executed by the simulator.
//!
//! Instead of interpreting PTX, the simulator executes *work-model
//! programs*: every thread owns a number of **work items** (loop
//! iterations — edges to traverse, tuples to match, candidate positions to
//! score), and every kernel has a [`WorkClass`] describing what one item
//! costs (pipeline cycles, sequential bytes consumed, random references
//! made). A warp executes `max(items across its 32 lanes)` *rounds*, which
//! reproduces SIMD divergence: the workload imbalance of the paper's Fig. 1
//! appears as warps whose heavy lane keeps the other 31 idle.
//!
//! Memory addresses are generated procedurally: each thread has a
//! sequential stream base (edge-list walk) and a hash seed for random
//! region references (neighbour/status lookups), so cache behaviour is
//! deterministic and replayable with no per-item storage.

use std::sync::Arc;

use dynapar_engine::hash_mix;

/// Static cost/access description shared by every thread of a kernel.
///
/// # Examples
///
/// ```
/// use dynapar_gpu::WorkClass;
///
/// let class = WorkClass {
///     label: "bfs-parent",
///     compute_per_item: 24,
///     init_cycles: 40,
///     seq_bytes_per_item: 8,
///     rand_refs_per_item: 1,
///     rand_region_base: 0x4000_0000,
///     rand_region_bytes: 1 << 20,
///     writes_per_item: 1,
/// };
/// assert_eq!(class.compute_per_item, 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkClass {
    /// Human-readable label for reports.
    pub label: &'static str,
    /// Pipeline cycles of compute per work item.
    pub compute_per_item: u32,
    /// One-time per-thread prologue cost (index math, condition checks).
    pub init_cycles: u32,
    /// Bytes consumed sequentially per item (0 = no streaming access).
    /// Consecutive items of one thread walk a contiguous region, which is
    /// what an edge-list or tuple-array scan looks like to the caches.
    pub seq_bytes_per_item: u32,
    /// Number of random (hashed) references per item — e.g. the
    /// `visited[neighbour]` lookup in BFS.
    pub rand_refs_per_item: u8,
    /// Base address of the randomly-accessed region.
    pub rand_region_base: u64,
    /// Size of the randomly-accessed region in bytes (0 disables).
    pub rand_region_bytes: u64,
    /// Stores per item; they consume memory bandwidth but do not stall the
    /// warp (GPU stores retire through the write queue).
    pub writes_per_item: u8,
}

impl WorkClass {
    /// A pure-compute class (no memory traffic) — useful in tests and for
    /// Mandelbrot-style kernels.
    pub fn compute_only(label: &'static str, compute_per_item: u32) -> Self {
        WorkClass {
            label,
            compute_per_item,
            init_cycles: 0,
            seq_bytes_per_item: 0,
            rand_refs_per_item: 0,
            rand_region_base: 0,
            rand_region_bytes: 0,
            writes_per_item: 0,
        }
    }

    /// Address of the `ref_idx`-th random reference for item `item` of a
    /// thread with seed `seed` (deterministic, well scrambled).
    #[inline]
    pub fn rand_addr(&self, seed: u64, item: u32, ref_idx: u8) -> u64 {
        debug_assert!(self.rand_region_bytes > 0);
        let h = hash_mix(seed ^ ((item as u64) << 8) ^ ref_idx as u64);
        // 4-byte aligned word within the region.
        self.rand_region_base + (h % self.rand_region_bytes) / 4 * 4
    }
}

/// Per-thread work assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadWork {
    /// Number of work items this thread executes (serially, one per round).
    pub items: u32,
    /// Base address of the thread's sequential access stream.
    pub seq_base: u64,
    /// Seed of the thread's random access stream.
    pub rand_seed: u64,
}

impl ThreadWork {
    /// A thread with `items` items and zeroed access streams.
    pub fn with_items(items: u32) -> Self {
        ThreadWork {
            items,
            seq_base: 0,
            rand_seed: 0,
        }
    }
}

/// Where a kernel's threads get their work assignments.
///
/// # Examples
///
/// ```
/// use dynapar_gpu::{ThreadSource, ThreadWork};
///
/// // 10 offloaded items, 3 per child thread -> 4 threads (3+3+3+1).
/// let src = ThreadSource::Derived {
///     origin: ThreadWork::with_items(10),
///     items_per_thread: 3,
/// };
/// assert_eq!(src.thread_count(), 4);
/// assert_eq!(src.thread(3, 0).items, 1);
/// ```
#[derive(Debug, Clone)]
pub enum ThreadSource {
    /// One explicit entry per thread — used for host-launched parent
    /// kernels whose per-thread workloads come from the input (e.g. vertex
    /// degrees). The slice is shared, never copied: cloning the source
    /// (kernel descriptions, aggregated CTAs) only bumps a refcount.
    Explicit(Arc<[ThreadWork]>),
    /// Threads derived procedurally from one origin assignment — used for
    /// child kernels: thread `t` handles items
    /// `[t·ipt, min((t+1)·ipt, origin.items))` of the offloaded work, and
    /// its sequential stream continues the parent thread's stream at the
    /// right offset.
    Derived {
        /// The offloaded work (total items + parent thread's streams).
        origin: ThreadWork,
        /// Items handled by each derived thread (≥ 1).
        items_per_thread: u32,
    },
}

impl ThreadSource {
    /// Total number of threads this source describes.
    ///
    /// # Panics
    ///
    /// Panics if a `Derived` source has `items_per_thread == 0`.
    pub fn thread_count(&self) -> u32 {
        match self {
            ThreadSource::Explicit(v) => v.len() as u32,
            ThreadSource::Derived {
                origin,
                items_per_thread,
            } => {
                assert!(*items_per_thread > 0, "items_per_thread must be positive");
                origin.items.div_ceil(*items_per_thread)
            }
        }
    }

    /// Work assignment of thread `tid`; `seq_stride` is the owning class's
    /// `seq_bytes_per_item` (needed to offset derived sequential streams).
    ///
    /// Returns a zero-item assignment for out-of-range `tid` (tail threads
    /// of the last CTA).
    pub fn thread(&self, tid: u32, seq_stride: u32) -> ThreadWork {
        match self {
            ThreadSource::Explicit(v) => v.get(tid as usize).copied().unwrap_or_default(),
            ThreadSource::Derived {
                origin,
                items_per_thread,
            } => {
                let start = tid as u64 * *items_per_thread as u64;
                if start >= origin.items as u64 {
                    return ThreadWork::default();
                }
                let items = (*items_per_thread as u64).min(origin.items as u64 - start) as u32;
                ThreadWork {
                    items,
                    seq_base: origin.seq_base + start * seq_stride as u64,
                    rand_seed: origin.rand_seed ^ hash_mix(tid as u64 + 1),
                }
            }
        }
    }

    /// Total work items across all threads.
    pub fn total_items(&self) -> u64 {
        match self {
            ThreadSource::Explicit(v) => v.iter().map(|t| t.items as u64).sum(),
            ThreadSource::Derived { origin, .. } => origin.items as u64,
        }
    }
}

/// Dynamic-parallelism specification attached to a kernel: how child
/// kernels look when one of this kernel's threads offloads its work.
///
/// Mirrors the responsibilities §II-B assigns to the parent thread:
/// `THRESHOLD` (here [`default_threshold`](DpSpec::default_threshold)),
/// `(c_grid, c_cta)` (derived from [`child_cta_threads`] and
/// [`child_items_per_thread`]), and the stream policy (a [`crate::GpuConfig`]
/// knob).
///
/// [`child_cta_threads`]: DpSpec::child_cta_threads
/// [`child_items_per_thread`]: DpSpec::child_items_per_thread
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dynapar_gpu::{DpSpec, WorkClass};
///
/// let spec = DpSpec {
///     child_class: Arc::new(WorkClass::compute_only("child", 20)),
///     child_cta_threads: 64,
///     child_items_per_thread: 1,
///     child_regs_per_thread: 16,
///     child_shmem_per_cta: 0,
///     min_items: 32,
///     default_threshold: 128,
///     nested: None,
/// };
/// // A 200-item workload becomes a 200-thread child in 4 CTAs of 64.
/// assert_eq!(spec.child_geometry(200), (4, 200));
/// ```
#[derive(Debug, Clone)]
pub struct DpSpec {
    /// Work class of the spawned child kernels.
    pub child_class: Arc<WorkClass>,
    /// `c_cta`: threads per child CTA.
    pub child_cta_threads: u32,
    /// Work items per child thread (1 = fully parallel child).
    pub child_items_per_thread: u32,
    /// Registers per child thread.
    pub child_regs_per_thread: u32,
    /// Shared memory per child CTA in bytes.
    pub child_shmem_per_cta: u32,
    /// Threads with fewer items than this never request a launch — a child
    /// this small could not even fill a warp (§III-A2's intra-warp
    /// inefficiency floor).
    pub min_items: u32,
    /// The application's own `THRESHOLD` (used by the Baseline-DP policy).
    pub default_threshold: u32,
    /// Children may themselves launch grandchildren (AMR's nested pattern).
    pub nested: Option<Arc<DpSpec>>,
}

impl DpSpec {
    /// `(c_grid, total_child_threads)` for offloading `items` items.
    pub fn child_geometry(&self, items: u32) -> (u32, u32) {
        let threads = items.div_ceil(self.child_items_per_thread);
        let ctas = threads.div_ceil(self.child_cta_threads);
        (ctas, threads)
    }

    /// Warps per child CTA.
    pub fn child_warps_per_cta(&self, warp_size: u32) -> u32 {
        self.child_cta_threads.div_ceil(warp_size)
    }
}

/// A kernel description: geometry, resources, work class and thread source.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dynapar_gpu::{KernelDesc, ThreadSource, ThreadWork, WorkClass};
///
/// let threads: Vec<ThreadWork> = (0..100).map(|_| ThreadWork::with_items(4)).collect();
/// let k = KernelDesc {
///     name: "demo".into(),
///     cta_threads: 64,
///     regs_per_thread: 32,
///     shmem_per_cta: 0,
///     class: Arc::new(WorkClass::compute_only("demo", 10)),
///     source: ThreadSource::Explicit(threads.into()),
///     dp: None,
/// };
/// assert_eq!(k.thread_count(), 100);
/// assert_eq!(k.grid_ctas(), 2); // ceil(100 / 64)
/// ```
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Kernel name for reports.
    pub name: Arc<str>,
    /// Threads per CTA.
    pub cta_threads: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Shared memory per CTA in bytes.
    pub shmem_per_cta: u32,
    /// Cost/access description for every thread.
    pub class: Arc<WorkClass>,
    /// Per-thread work assignments.
    pub source: ThreadSource,
    /// If set, threads of this kernel may offload to child kernels.
    pub dp: Option<Arc<DpSpec>>,
}

impl KernelDesc {
    /// Checks the description for structural problems, returning a
    /// human-readable complaint for the first one found.
    ///
    /// # Errors
    ///
    /// Returns `Err` for zero-sized CTAs, zero items-per-thread in a
    /// derived source or child spec, a work class whose random references
    /// point at an empty region, or a DP spec whose `min_items` is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.cta_threads == 0 {
            return Err("cta_threads must be positive".into());
        }
        let check_class = |c: &WorkClass| -> Result<(), String> {
            if c.rand_refs_per_item > 0 && c.rand_region_bytes == 0 {
                return Err(format!(
                    "class {:?} makes random references into an empty region",
                    c.label
                ));
            }
            Ok(())
        };
        check_class(&self.class)?;
        if let ThreadSource::Derived {
            items_per_thread, ..
        } = &self.source
        {
            if *items_per_thread == 0 {
                return Err("items_per_thread must be positive".into());
            }
        }
        let mut dp = self.dp.as_ref();
        while let Some(spec) = dp {
            if spec.child_cta_threads == 0 {
                return Err("child_cta_threads must be positive".into());
            }
            if spec.child_items_per_thread == 0 {
                return Err("child_items_per_thread must be positive".into());
            }
            check_class(&spec.child_class)?;
            dp = spec.nested.as_ref();
        }
        Ok(())
    }

    /// Total threads in the grid.
    pub fn thread_count(&self) -> u32 {
        self.source.thread_count()
    }

    /// Number of CTAs in the grid.
    ///
    /// # Panics
    ///
    /// Panics if `cta_threads == 0`.
    pub fn grid_ctas(&self) -> u32 {
        assert!(self.cta_threads > 0, "cta_threads must be positive");
        self.thread_count().div_ceil(self.cta_threads).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_with_stride(stride: u32) -> Arc<WorkClass> {
        let mut c = WorkClass::compute_only("t", 1);
        c.seq_bytes_per_item = stride;
        Arc::new(c)
    }

    #[test]
    fn explicit_source_lookup() {
        let v = vec![ThreadWork::with_items(3), ThreadWork::with_items(7)];
        let src = ThreadSource::Explicit(v.into());
        assert_eq!(src.thread_count(), 2);
        assert_eq!(src.thread(1, 4).items, 7);
        assert_eq!(src.thread(99, 4).items, 0); // out of range -> empty
        assert_eq!(src.total_items(), 10);
    }

    #[test]
    fn derived_source_partitions_items_exactly() {
        let origin = ThreadWork {
            items: 10,
            seq_base: 1000,
            rand_seed: 5,
        };
        let src = ThreadSource::Derived {
            origin,
            items_per_thread: 3,
        };
        assert_eq!(src.thread_count(), 4); // 3+3+3+1
        let stride = 8;
        let t0 = src.thread(0, stride);
        let t3 = src.thread(3, stride);
        assert_eq!(t0.items, 3);
        assert_eq!(t3.items, 1);
        assert_eq!(t0.seq_base, 1000);
        assert_eq!(src.thread(1, stride).seq_base, 1000 + 3 * 8);
        assert_eq!(src.thread(4, stride).items, 0);
        // Work conservation across derived threads.
        let total: u32 = (0..src.thread_count())
            .map(|t| src.thread(t, stride).items)
            .sum();
        assert_eq!(total as u64, src.total_items());
    }

    #[test]
    fn derived_threads_get_distinct_seeds() {
        let src = ThreadSource::Derived {
            origin: ThreadWork {
                items: 64,
                seq_base: 0,
                rand_seed: 42,
            },
            items_per_thread: 1,
        };
        let s0 = src.thread(0, 0).rand_seed;
        let s1 = src.thread(1, 0).rand_seed;
        assert_ne!(s0, s1);
    }

    #[test]
    fn dp_geometry() {
        let spec = DpSpec {
            child_class: class_with_stride(8),
            child_cta_threads: 64,
            child_items_per_thread: 1,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 32,
            default_threshold: 128,
            nested: None,
        };
        let (ctas, threads) = spec.child_geometry(200);
        assert_eq!(threads, 200);
        assert_eq!(ctas, 4); // ceil(200/64)
        assert_eq!(spec.child_warps_per_cta(32), 2);

        let spec2 = DpSpec {
            child_items_per_thread: 4,
            ..spec
        };
        let (ctas, threads) = spec2.child_geometry(200);
        assert_eq!(threads, 50);
        assert_eq!(ctas, 1);
    }

    #[test]
    fn rand_addr_is_in_region_and_aligned() {
        let mut c = WorkClass::compute_only("r", 1);
        c.rand_region_base = 0x1000;
        c.rand_region_bytes = 4096;
        for item in 0..100 {
            let a = c.rand_addr(77, item, 0);
            assert!((0x1000..0x1000 + 4096).contains(&a));
            assert_eq!(a % 4, 0);
        }
        // Different items map to different addresses (almost surely).
        assert_ne!(c.rand_addr(77, 0, 0), c.rand_addr(77, 1, 0));
    }

    #[test]
    fn kernel_desc_geometry() {
        let k = KernelDesc {
            name: "k".into(),
            cta_threads: 128,
            regs_per_thread: 32,
            shmem_per_cta: 0,
            class: class_with_stride(0),
            source: ThreadSource::Derived {
                origin: ThreadWork::with_items(1000),
                items_per_thread: 1,
            },
            dp: None,
        };
        assert_eq!(k.thread_count(), 1000);
        assert_eq!(k.grid_ctas(), 8);
    }

    #[test]
    fn empty_kernel_still_has_one_cta() {
        let k = KernelDesc {
            name: "empty".into(),
            cta_threads: 64,
            regs_per_thread: 1,
            shmem_per_cta: 0,
            class: class_with_stride(0),
            source: ThreadSource::Explicit(Arc::from(Vec::new())),
            dp: None,
        };
        assert_eq!(k.grid_ctas(), 1);
    }
}

#[cfg(test)]
mod validate_tests {
    use super::*;

    fn valid_desc() -> KernelDesc {
        KernelDesc {
            name: "v".into(),
            cta_threads: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("v", 4)),
            source: ThreadSource::Derived {
                origin: ThreadWork::with_items(128),
                items_per_thread: 2,
            },
            dp: None,
        }
    }

    #[test]
    fn valid_descriptions_pass() {
        valid_desc().validate().expect("valid");
    }

    #[test]
    fn zero_cta_rejected() {
        let mut d = valid_desc();
        d.cta_threads = 0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn zero_items_per_thread_rejected() {
        let mut d = valid_desc();
        d.source = ThreadSource::Derived {
            origin: ThreadWork::with_items(10),
            items_per_thread: 0,
        };
        assert!(d.validate().is_err());
    }

    #[test]
    fn random_refs_into_empty_region_rejected() {
        let mut d = valid_desc();
        let mut class = WorkClass::compute_only("bad", 4);
        class.rand_refs_per_item = 1; // but region is 0 bytes
        d.class = Arc::new(class);
        let err = d.validate().expect_err("must fail");
        assert!(err.contains("empty region"));
    }

    #[test]
    fn nested_specs_are_checked_recursively() {
        let bad_nested = Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("gc", 4)),
            child_cta_threads: 0, // invalid, two levels down
            child_items_per_thread: 1,
            child_regs_per_thread: 8,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: 8,
            nested: None,
        });
        let mut d = valid_desc();
        d.dp = Some(Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("c", 4)),
            child_cta_threads: 32,
            child_items_per_thread: 1,
            child_regs_per_thread: 8,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: 8,
            nested: Some(bad_nested),
        }));
        assert!(d.validate().is_err());
    }
}
