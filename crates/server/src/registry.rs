//! The daemon's resumable job registry: per-job state, config-hash
//! memoization, in-flight coalescing, and lifetime statistics.
//!
//! The registry is the single source of truth the worker pool and every
//! client connection share. Its invariants:
//!
//! * **Memoization** — once a job with canonical hash `h` completes,
//!   its artifact is cached under `h`; any later submit with the same
//!   hash is answered from the cache without re-simulating (sound
//!   because artifacts are a pure function of the canonical config —
//!   the identity [`CanonicalConfig`](dynapar_gpu::CanonicalConfig)
//!   captures, pinned by the determinism suite).
//! * **Coalescing** — while a job with hash `h` is queued or running,
//!   further submits of `h` do not enqueue duplicate work; they become
//!   *followers* that complete (or fail) together with the primary.
//! * **FIFO fairness** — primaries execute in submission order
//!   regardless of which client connection submitted them (the worker
//!   queue underneath is FIFO).
//! * **Panic isolation** — a worker that panics mid-simulation fails
//!   only its own job; the registry records the failure and the daemon
//!   keeps serving (the queue's workers survive unwinds).

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dynapar_engine::json::Json;
use dynapar_engine::log::Logger;
use dynapar_gpu::RunArtifact;

/// Cap on each job's pending watch-sample ring; a stalled watcher drops
/// the oldest samples instead of growing without bound.
const SAMPLE_RING_CAP: usize = 4096;

/// Life-cycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker (or for its coalesced primary).
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; the artifact is available.
    Done,
    /// The simulation errored or panicked.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// Canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// A point-in-time snapshot of one job, as reported to clients.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id (unique per daemon lifetime, FIFO-ordered).
    pub id: u64,
    /// Current state.
    pub state: JobState,
    /// Canonical config hash.
    pub hash: u64,
    /// Whether the result came from the memo cache (or a coalesced
    /// primary) instead of a dedicated simulation.
    pub cached: bool,
    /// Latest simulated cycle the run has reached (0 until running).
    pub progress_cycles: u64,
    /// Failure message, when `state` is `Failed`.
    pub error: Option<String>,
    /// The artifact, when `state` is `Done`.
    pub artifact: Option<Arc<RunArtifact>>,
}

/// Lifetime counters, reported by the `stats` request. Doubles as the
/// observable proof of memoization: a memo hit bumps `memo_hits`
/// without bumping `executed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Jobs accepted (including cached and coalesced ones).
    pub submitted: u64,
    /// Jobs that ran a simulation to completion.
    pub executed: u64,
    /// Submits answered straight from the memo cache.
    pub memo_hits: u64,
    /// Submits coalesced onto an in-flight identical job.
    pub coalesced: u64,
    /// Jobs that failed (error or panic).
    pub failed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Sweep points answered by forking a shared warm-up snapshot
    /// instead of simulating their ramp from cycle zero.
    pub forked: u64,
}

/// Shared ring of pending watch samples for one job. The simulation's
/// watch hook pushes; the `watch` streamer drains. Bounded: beyond
/// [`SAMPLE_RING_CAP`] pending samples the oldest are dropped.
#[derive(Clone, Default)]
pub struct SampleRing(Arc<Mutex<VecDeque<Json>>>);

impl SampleRing {
    /// Appends one sample, evicting the oldest at capacity.
    pub fn push(&self, sample: Json) {
        let mut g = self.0.lock().expect("sample ring poisoned");
        if g.len() == SAMPLE_RING_CAP {
            g.pop_front();
        }
        g.push_back(sample);
    }

    /// Takes every pending sample, oldest first.
    pub fn drain(&self) -> Vec<Json> {
        let mut g = self.0.lock().expect("sample ring poisoned");
        g.drain(..).collect()
    }
}

/// Observation handles a worker gets when it starts a job: progress
/// counter, cancellation flag, and the watch-sample ring.
pub struct JobHandles {
    /// Latest simulated cycle, stored by the run's watch hook.
    pub progress: Arc<AtomicU64>,
    /// Raised by `cancel` requests; the run unwinds at its next check.
    pub cancel: Arc<AtomicBool>,
    /// Ring the run's watch hook feeds for `watch` streaming.
    pub samples: SampleRing,
}

struct Job {
    state: JobState,
    hash: u64,
    cached: bool,
    error: Option<String>,
    artifact: Option<Arc<RunArtifact>>,
    progress: Arc<AtomicU64>,
    cancel: Arc<AtomicBool>,
    samples: SampleRing,
    /// Host-time admission instant, for queue-wait / end-to-end
    /// latency telemetry (never read by simulations — determinism is
    /// untouched).
    queued_at: Instant,
    /// Host-time worker pickup instant, once running.
    started_at: Option<Instant>,
}

#[derive(Default)]
struct Inner {
    jobs: HashMap<u64, Job>,
    memo: HashMap<u64, Arc<RunArtifact>>,
    /// hash → primary job id, while that primary is queued/running.
    inflight: HashMap<u64, u64>,
    next_id: u64,
    stats: RegistryStats,
    store_lru: StoreLru,
}

/// Disk-budget accounting for the artifact store: per-entry file sizes
/// plus a monotone last-use stamp, so persisted bytes can be capped by
/// evicting the least-recently-used entries first.
#[derive(Default)]
struct StoreLru {
    clock: u64,
    /// Total persisted bytes currently accounted for.
    total: u64,
    /// hash → (file size in bytes, last-use stamp).
    entries: HashMap<u64, (u64, u64)>,
}

impl StoreLru {
    /// Records (or refreshes) one persisted entry of `size` bytes.
    fn record(&mut self, hash: u64, size: u64) {
        self.clock += 1;
        if let Some((old, _)) = self.entries.insert(hash, (size, self.clock)) {
            self.total -= old;
        }
        self.total += size;
    }

    /// Marks an entry as just-used (memo hit), if it is persisted.
    fn touch(&mut self, hash: u64) {
        if let Some(entry) = self.entries.get_mut(&hash) {
            self.clock += 1;
            entry.1 = self.clock;
        }
    }

    /// The least-recently-used entry, as `(hash, size)`.
    fn lru(&self) -> Option<(u64, u64)> {
        self.entries
            .iter()
            .min_by_key(|&(_, &(_, stamp))| stamp)
            .map(|(&hash, &(size, _))| (hash, size))
    }

    /// Drops an entry from the accounting (not from disk).
    fn remove(&mut self, hash: u64) {
        if let Some((size, _)) = self.entries.remove(&hash) {
            self.total -= size;
        }
    }
}

/// What [`Registry::submit`] decided to do with a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// New work: the caller must enqueue job `id` on the worker queue.
    Execute {
        /// The job id to enqueue.
        id: u64,
    },
    /// Answered from the memo cache; the job is already `Done`.
    Cached {
        /// The (already terminal) job id.
        id: u64,
    },
    /// Coalesced onto an in-flight identical job; completes with it.
    Coalesced {
        /// The follower job id.
        id: u64,
        /// The primary it rides on.
        primary: u64,
    },
}

impl Admission {
    /// The submitted job's id, whatever the admission path.
    pub fn id(&self) -> u64 {
        match *self {
            Admission::Execute { id }
            | Admission::Cached { id }
            | Admission::Coalesced { id, .. } => id,
        }
    }

    /// Whether the submit was answered without new simulation work.
    pub fn cached(&self) -> bool {
        !matches!(self, Admission::Execute { .. })
    }
}

/// The shared job table (see the module docs for invariants).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// When set, completed artifacts are persisted to this directory
    /// (`<hash:016x>.json`) and reloaded into the memo cache on
    /// construction, so the cache survives daemon restarts.
    store: Option<PathBuf>,
    /// Byte budget for the persisted store. When the total size of
    /// persisted artifacts exceeds this, least-recently-used entries
    /// are deleted from disk (the in-memory memo keeps them for this
    /// process; after a restart their configs simply re-execute).
    store_max_bytes: Option<u64>,
    /// Structured sink for store lifecycle events (preload, persist
    /// failures, evictions). Disabled by default; the daemon threads
    /// its `--log-file` logger through.
    log: Logger,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry backed by an on-disk artifact store. Creates `dir` if
    /// missing and preloads every previously persisted artifact into
    /// the memo cache, so a restarted daemon answers repeat submits
    /// from cache without re-simulating.
    pub fn with_store(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_store_capped(dir, None)
    }

    /// An empty registry whose lifecycle events go to `log` (the
    /// daemon's `--log-file` sink).
    pub fn with_logger(log: Logger) -> Self {
        Registry {
            log,
            ..Registry::default()
        }
    }

    /// [`with_store`](Registry::with_store) plus an optional byte cap
    /// on the persisted store (`dynapar serve --store-max-bytes N`).
    /// Preload keeps the newest files that fit the cap and deletes the
    /// rest unread; after each new artifact, least-recently-used
    /// entries are deleted from disk until the store fits.
    pub fn with_store_capped(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<Self> {
        Self::with_store_capped_logged(dir, max_bytes, Logger::disabled())
    }

    /// [`with_store_capped`](Registry::with_store_capped) with a
    /// structured logger attached before preload runs, so store
    /// preload/corruption/eviction events land in the daemon log.
    pub fn with_store_capped_logged(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
        log: Logger,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let registry = Registry {
            store: Some(dir),
            store_max_bytes: max_bytes,
            log,
            ..Registry::default()
        };
        registry.preload()?;
        Ok(registry)
    }

    /// Scans the store directory and fills the memo cache from the
    /// well-formed `<hash:016x>.json` artifacts that fit the byte cap.
    /// Files are admitted newest first while they fit; the rest are
    /// deleted unread, so an evicted config re-executes instead of being
    /// answered from a memo entry whose file is gone. Unparseable files
    /// are skipped with a warning — a corrupt entry must not take the
    /// daemon down. Returns the number loaded.
    fn preload(&self) -> std::io::Result<usize> {
        let Some(dir) = &self.store else { return Ok(0) };
        let mut found: Vec<(u64, PathBuf, u64, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().and_then(|e| e.to_str()) != Some("json") || stem.len() != 16 {
                continue;
            }
            let Ok(hash) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            let meta = entry.metadata()?;
            let mtime = meta
                .modified()
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((hash, path, meta.len(), mtime));
        }
        // Newest files first: they are the ones the budget keeps.
        found.sort_by_key(|&(_, _, _, mtime)| std::cmp::Reverse(mtime));
        let budget = self.store_max_bytes.unwrap_or(u64::MAX);
        let mut kept_bytes = 0u64;
        let kept = found
            .iter()
            .take_while(|&&(_, _, size, _)| {
                kept_bytes += size;
                kept_bytes <= budget
            })
            .count();
        for (hash, path, size, _) in found.drain(kept..) {
            self.remove_store_file(hash, &path, size);
        }
        // Oldest files are recorded first, so the restarted daemon's LRU
        // order matches the previous run's write order.
        let mut loaded = 0;
        for (hash, path, size, _) in found.into_iter().rev() {
            let artifact = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| RunArtifact::parse(&text).map_err(|e| e.to_string()));
            match artifact {
                Ok(artifact) => {
                    let mut g = self.inner.lock().expect("registry poisoned");
                    g.memo.insert(hash, Arc::new(artifact));
                    g.store_lru.record(hash, size);
                    loaded += 1;
                }
                Err(err) => {
                    eprintln!(
                        "dynapar-server: skipping corrupt store entry {}: {err}",
                        path.display()
                    );
                    self.log.warn(
                        "store_corrupt_entry",
                        [
                            ("path", Json::str(path.display().to_string())),
                            ("error", Json::str(err)),
                        ],
                    );
                }
            }
        }
        let bytes = self.store_bytes();
        self.log.info(
            "store_preload",
            [
                ("loaded", Json::U64(loaded as u64)),
                ("bytes", Json::U64(bytes)),
            ],
        );
        Ok(loaded)
    }

    /// Persists one completed artifact to the store (write-temp-then-
    /// rename, so a crash never leaves a half-written entry under the
    /// canonical name). Persistence failure degrades to an in-memory
    /// cache entry — it must not fail the job.
    fn persist(&self, hash: u64, artifact: &RunArtifact) {
        let Some(dir) = &self.store else { return };
        let tmp = dir.join(format!(".{hash:016x}.json.tmp"));
        let path = dir.join(format!("{hash:016x}.json"));
        let text = format!("{artifact}\n");
        let size = text.len() as u64;
        let written = std::fs::write(&tmp, &text).and_then(|()| std::fs::rename(&tmp, &path));
        match written {
            Ok(()) => {
                self.inner
                    .lock()
                    .expect("registry poisoned")
                    .store_lru
                    .record(hash, size);
                self.evict_over_budget();
            }
            Err(err) => {
                eprintln!("dynapar-server: failed to persist artifact {hash:016x}: {err}");
                self.log.warn(
                    "store_persist_failed",
                    [
                        ("hash", Json::str(format!("{hash:016x}"))),
                        ("error", Json::str(err.to_string())),
                    ],
                );
            }
        }
    }

    /// Deletes least-recently-used persisted entries until the store
    /// fits `--store-max-bytes`. The cap is a disk budget: the
    /// in-memory memo keeps evicted artifacts for this process, but
    /// after a restart an evicted config re-executes from scratch.
    fn evict_over_budget(&self) {
        let (Some(dir), Some(max)) = (&self.store, self.store_max_bytes) else {
            return;
        };
        loop {
            let (hash, size) = {
                let mut g = self.inner.lock().expect("registry poisoned");
                if g.store_lru.total <= max {
                    return;
                }
                let Some((hash, size)) = g.store_lru.lru() else {
                    return;
                };
                g.store_lru.remove(hash);
                (hash, size)
            };
            self.remove_store_file(hash, &dir.join(format!("{hash:016x}.json")), size);
        }
    }

    /// Deletes one evicted store file, logging the outcome.
    fn remove_store_file(&self, hash: u64, path: &std::path::Path, size: u64) {
        if let Err(err) = std::fs::remove_file(path) {
            eprintln!(
                "dynapar-server: failed to evict store entry {}: {err}",
                path.display()
            );
            self.log.warn(
                "store_evict_failed",
                [
                    ("hash", Json::str(format!("{hash:016x}"))),
                    ("error", Json::str(err.to_string())),
                ],
            );
        } else {
            eprintln!(
                "dynapar-server: evicted store entry {hash:016x} ({size} bytes, over --store-max-bytes)"
            );
            self.log.info(
                "store_evict",
                [
                    ("hash", Json::str(format!("{hash:016x}"))),
                    ("bytes", Json::U64(size)),
                ],
            );
        }
    }

    /// Admits one job with canonical hash `hash`. Decides between the
    /// three admission paths (execute / memo hit / coalesce); the
    /// caller enqueues worker-side execution only for
    /// [`Admission::Execute`].
    pub fn submit(&self, hash: u64) -> Admission {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.stats.submitted += 1;
        let id = g.next_id;
        g.next_id += 1;
        let mut job = Job {
            state: JobState::Queued,
            hash,
            cached: false,
            error: None,
            artifact: None,
            progress: Arc::new(AtomicU64::new(0)),
            cancel: Arc::new(AtomicBool::new(false)),
            samples: SampleRing::default(),
            queued_at: Instant::now(),
            started_at: None,
        };
        let admission = if let Some(artifact) = g.memo.get(&hash).cloned() {
            g.stats.memo_hits += 1;
            g.store_lru.touch(hash);
            job.state = JobState::Done;
            job.cached = true;
            job.artifact = Some(artifact);
            Admission::Cached { id }
        } else if let Some(&primary) = g.inflight.get(&hash) {
            g.stats.coalesced += 1;
            job.cached = true;
            Admission::Coalesced { id, primary }
        } else {
            g.inflight.insert(hash, id);
            Admission::Execute { id }
        };
        g.jobs.insert(id, job);
        drop(g);
        self.cv.notify_all();
        admission
    }

    /// Transitions a queued primary to `Running` and hands back its
    /// observation handles. Returns `None` if the job was cancelled
    /// while queued — the worker must skip it.
    pub fn start(&self, id: u64) -> Option<JobHandles> {
        let mut g = self.inner.lock().expect("registry poisoned");
        let job = g.jobs.get_mut(&id)?;
        if job.state != JobState::Queued {
            return None;
        }
        job.state = JobState::Running;
        job.started_at = Some(Instant::now());
        let handles = JobHandles {
            progress: job.progress.clone(),
            cancel: job.cancel.clone(),
            samples: job.samples.clone(),
        };
        drop(g);
        self.cv.notify_all();
        Some(handles)
    }

    /// Takes every pending watch sample for job `id`, oldest first
    /// (empty for unknown ids).
    pub fn drain_samples(&self, id: u64) -> Vec<Json> {
        let ring = {
            let g = self.inner.lock().expect("registry poisoned");
            match g.jobs.get(&id) {
                Some(job) => job.samples.clone(),
                None => return Vec::new(),
            }
        };
        ring.drain()
    }

    /// Records that one sweep point was answered by forking a shared
    /// warm-up snapshot.
    pub fn note_forked(&self) {
        self.inner.lock().expect("registry poisoned").stats.forked += 1;
    }

    /// Records a completed simulation: memoizes the artifact and
    /// completes the primary *and every follower* coalesced onto it.
    pub fn complete(&self, id: u64, artifact: RunArtifact) {
        let artifact = Arc::new(artifact);
        let hash = {
            let g = self.inner.lock().expect("registry poisoned");
            match g.jobs.get(&id) {
                Some(j) => j.hash,
                None => return,
            }
        };
        // Persist before publishing: once a waiter observes `Done`, the
        // store entry (if any) is already in place.
        self.persist(hash, &artifact);
        let mut g = self.inner.lock().expect("registry poisoned");
        g.stats.executed += 1;
        g.memo.insert(hash, artifact.clone());
        if g.inflight.get(&hash) == Some(&id) {
            g.inflight.remove(&hash);
        }
        for job in g.jobs.values_mut() {
            if job.hash == hash && !job.state.is_terminal() {
                job.state = JobState::Done;
                job.artifact = Some(artifact.clone());
            }
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Records a failed simulation. Followers fail with the primary:
    /// they represent the same run, and re-running a config that just
    /// failed deterministically would fail the same way.
    pub fn fail(&self, id: u64, error: String) {
        let mut g = self.inner.lock().expect("registry poisoned");
        let inner = &mut *g;
        let hash = match inner.jobs.get(&id) {
            Some(j) => j.hash,
            None => return,
        };
        if inner.inflight.get(&hash) == Some(&id) {
            inner.inflight.remove(&hash);
        }
        for job in inner.jobs.values_mut() {
            if job.hash == hash && !job.state.is_terminal() {
                job.state = JobState::Failed;
                job.error = Some(error.clone());
                inner.stats.failed += 1;
            }
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Requests cancellation. A queued job (or follower) is cancelled
    /// immediately; a running job has its cancel flag raised and
    /// unwinds at its next launch decision. Returns the state after the
    /// request, or `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut g = self.inner.lock().expect("registry poisoned");
        let inner = &mut *g;
        let (state, hash) = {
            let job = inner.jobs.get(&id)?;
            (job.state, job.hash)
        };
        let state = match state {
            JobState::Queued => {
                // A cancelled primary takes its coalesced followers with
                // it: they are the same run, and nothing else will ever
                // complete them.
                let was_primary = inner.inflight.get(&hash) == Some(&id);
                if was_primary {
                    inner.inflight.remove(&hash);
                }
                for (jid, job) in inner.jobs.iter_mut() {
                    let member = *jid == id || (was_primary && job.hash == hash);
                    if member && !job.state.is_terminal() {
                        job.state = JobState::Cancelled;
                        inner.stats.cancelled += 1;
                    }
                }
                JobState::Cancelled
            }
            JobState::Running => {
                inner.jobs[&id].cancel.store(true, Ordering::Relaxed);
                JobState::Running
            }
            terminal => terminal,
        };
        drop(g);
        self.cv.notify_all();
        Some(state)
    }

    /// Marks a job cancelled after its worker unwound on the cancel
    /// sentinel (the running→cancelled transition).
    pub fn finish_cancelled(&self, id: u64) {
        let mut g = self.inner.lock().expect("registry poisoned");
        let inner = &mut *g;
        let hash = match inner.jobs.get(&id) {
            Some(j) => j.hash,
            None => return,
        };
        if inner.inflight.get(&hash) == Some(&id) {
            inner.inflight.remove(&hash);
        }
        for job in inner.jobs.values_mut() {
            if job.hash == hash && !job.state.is_terminal() {
                job.state = JobState::Cancelled;
                inner.stats.cancelled += 1;
            }
        }
        drop(g);
        self.cv.notify_all();
    }

    /// A point-in-time snapshot of one job.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let g = self.inner.lock().expect("registry poisoned");
        g.jobs.get(&id).map(|job| JobSnapshot {
            id,
            state: job.state,
            hash: job.hash,
            cached: job.cached,
            progress_cycles: job.progress.load(Ordering::Relaxed),
            error: job.error.clone(),
            artifact: job.artifact.clone(),
        })
    }

    /// Blocks until job `id` reaches a terminal state, then returns its
    /// snapshot. Returns `None` for an unknown id.
    pub fn wait_terminal(&self, id: u64) -> Option<JobSnapshot> {
        let mut g = self.inner.lock().expect("registry poisoned");
        loop {
            match g.jobs.get(&id) {
                None => return None,
                Some(job) if job.state.is_terminal() => {
                    return Some(JobSnapshot {
                        id,
                        state: job.state,
                        hash: job.hash,
                        cached: job.cached,
                        progress_cycles: job.progress.load(Ordering::Relaxed),
                        error: job.error.clone(),
                        artifact: job.artifact.clone(),
                    });
                }
                Some(_) => g = self.cv.wait(g).expect("registry poisoned"),
            }
        }
    }

    /// Like [`wait_terminal`](Registry::wait_terminal) but wakes at
    /// least every `tick` to let the caller stream progress (the
    /// `watch` request) or notice daemon shutdown. Returns the current
    /// snapshot each wake-up.
    pub fn wait_tick(&self, id: u64, tick: std::time::Duration) -> Option<JobSnapshot> {
        let g = self.inner.lock().expect("registry poisoned");
        let job = g.jobs.get(&id)?;
        if !job.state.is_terminal() {
            let (g2, _timeout) = self
                .cv
                .wait_timeout(g, tick)
                .expect("registry poisoned");
            drop(g2);
        } else {
            drop(g);
        }
        self.snapshot(id)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RegistryStats {
        self.inner.lock().expect("registry poisoned").stats
    }

    /// Host microseconds job `id` waited between admission and worker
    /// pickup. `None` for unknown or not-yet-started jobs.
    pub fn queue_wait_us(&self, id: u64) -> Option<u64> {
        let g = self.inner.lock().expect("registry poisoned");
        let job = g.jobs.get(&id)?;
        let started = job.started_at?;
        Some(started.duration_since(job.queued_at).as_micros() as u64)
    }

    /// Host microseconds since job `id` was admitted (end-to-end
    /// latency when read at the terminal transition). `None` for
    /// unknown ids.
    pub fn age_us(&self, id: u64) -> Option<u64> {
        let g = self.inner.lock().expect("registry poisoned");
        let job = g.jobs.get(&id)?;
        Some(job.queued_at.elapsed().as_micros() as u64)
    }

    /// Distinct configs currently queued or running (the in-flight
    /// coalescing table's size) — a live gauge for `metrics`/`stats`.
    pub fn inflight_now(&self) -> usize {
        self.inner.lock().expect("registry poisoned").inflight.len()
    }

    /// Bytes currently persisted in the artifact store (0 without a
    /// store) — a live gauge for `metrics`/`stats`.
    pub fn store_bytes(&self) -> u64 {
        self.inner.lock().expect("registry poisoned").store_lru.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_artifact() -> RunArtifact {
        // The smallest document RunArtifact::parse accepts — a real run
        // is overkill for registry state-machine tests.
        RunArtifact::parse(concat!(
            r#"{"schema":"dynapar.run_artifact/v1","metrics_level":"summary","#,
            r#""config":{},"report":{"controller":"Flat","total_cycles":1,"kernels":0},"#,
            r#""metrics":{},"ccqs_samples":[]}"#,
        ))
        .expect("valid minimal artifact")
    }

    #[test]
    fn memo_hit_after_complete() {
        let r = Registry::new();
        let a = r.submit(42);
        assert_eq!(a, Admission::Execute { id: 0 });
        r.start(0).expect("queued");
        r.complete(0, fake_artifact());
        let b = r.submit(42);
        assert!(matches!(b, Admission::Cached { .. }));
        let snap = r.snapshot(b.id()).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(snap.cached);
        assert!(snap.artifact.is_some());
        let s = r.stats();
        assert_eq!((s.submitted, s.executed, s.memo_hits), (2, 1, 1));
    }

    #[test]
    fn inflight_submits_coalesce_and_complete_together() {
        let r = Registry::new();
        let a = r.submit(7);
        let b = r.submit(7);
        assert!(matches!(b, Admission::Coalesced { primary: 0, .. }));
        r.start(a.id()).expect("queued");
        r.complete(a.id(), fake_artifact());
        let snap = r.snapshot(b.id()).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(snap.cached, "follower counts as cached");
        assert_eq!(r.stats().coalesced, 1);
        assert_eq!(r.stats().executed, 1, "only the primary simulated");
    }

    #[test]
    fn failure_fails_followers_and_clears_inflight() {
        let r = Registry::new();
        let a = r.submit(9);
        let b = r.submit(9);
        r.start(a.id()).expect("queued");
        r.fail(a.id(), "boom".into());
        for id in [a.id(), b.id()] {
            let snap = r.snapshot(id).unwrap();
            assert_eq!(snap.state, JobState::Failed);
            assert_eq!(snap.error.as_deref(), Some("boom"));
        }
        // The hash is free again: a new submit executes fresh.
        assert!(matches!(r.submit(9), Admission::Execute { .. }));
    }

    #[test]
    fn cancel_queued_is_immediate_and_skipped_by_workers() {
        let r = Registry::new();
        let a = r.submit(1);
        assert_eq!(r.cancel(a.id()), Some(JobState::Cancelled));
        assert!(r.start(a.id()).is_none(), "worker must skip");
        assert_eq!(r.stats().cancelled, 1);
        assert!(r.cancel(999).is_none(), "unknown id");
    }

    #[test]
    fn cancel_running_raises_flag_then_finishes() {
        let r = Registry::new();
        let a = r.submit(2);
        let handles = r.start(a.id()).expect("queued");
        assert_eq!(r.cancel(a.id()), Some(JobState::Running));
        assert!(handles.cancel.load(Ordering::Relaxed), "flag raised");
        r.finish_cancelled(a.id());
        assert_eq!(r.snapshot(a.id()).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn sample_ring_drains_in_order_and_bounds_memory() {
        let r = Registry::new();
        let a = r.submit(3);
        let handles = r.start(a.id()).expect("queued");
        for i in 0..(SAMPLE_RING_CAP + 5) {
            handles.samples.push(Json::U64(i as u64));
        }
        let drained = r.drain_samples(a.id());
        assert_eq!(drained.len(), SAMPLE_RING_CAP, "oldest evicted at cap");
        assert_eq!(drained[0], Json::U64(5), "drop-oldest order");
        assert!(r.drain_samples(a.id()).is_empty(), "drain empties the ring");
        assert!(r.drain_samples(999).is_empty(), "unknown id is empty");
    }

    #[test]
    fn store_persists_and_preloads_across_registries() {
        let dir = std::env::temp_dir().join(format!(
            "dynapar-registry-store-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let r = Registry::with_store(&dir).expect("store dir");
            let a = r.submit(0xabcd);
            r.start(a.id()).expect("queued");
            r.complete(a.id(), fake_artifact());
        }
        let path = dir.join(format!("{:016x}.json", 0xabcd_u64));
        assert!(path.exists(), "artifact persisted under its hash");
        // Corrupt entries are skipped, valid ones preloaded.
        std::fs::write(dir.join("0000000000000001.json"), "not json").unwrap();
        let r2 = Registry::with_store(&dir).expect("store dir");
        let b = r2.submit(0xabcd);
        assert!(matches!(b, Admission::Cached { .. }), "preloaded memo hit");
        assert_eq!(r2.stats().memo_hits, 1);
        assert!(
            matches!(r2.submit(1), Admission::Execute { .. }),
            "corrupt entry not preloaded"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_cap_evicts_lru_entries_and_they_reexecute() {
        let dir = std::env::temp_dir().join(format!("dynapar-registry-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Measure how large one persisted fake artifact is, so the cap
        // below budgets an exact number of entries.
        let entry_size = {
            let r = Registry::with_store(&dir).expect("store dir");
            let a = r.submit(1);
            r.start(a.id()).expect("queued");
            r.complete(a.id(), fake_artifact());
            std::fs::metadata(dir.join(format!("{:016x}.json", 1u64)))
                .expect("persisted")
                .len()
        };
        let _ = std::fs::remove_dir_all(&dir);

        // Budget for exactly three entries.
        let r = Registry::with_store_capped(&dir, Some(3 * entry_size)).expect("store dir");
        for hash in [1u64, 2, 3] {
            let a = r.submit(hash);
            r.start(a.id()).expect("queued");
            r.complete(a.id(), fake_artifact());
        }
        // A memo hit refreshes hash 1, leaving hash 2 least recently used.
        assert!(matches!(r.submit(1), Admission::Cached { .. }));
        let a = r.submit(4);
        r.start(a.id()).expect("queued");
        r.complete(a.id(), fake_artifact());
        let exists = |hash: u64| dir.join(format!("{hash:016x}.json")).exists();
        assert!(exists(1), "recently touched entry survives");
        assert!(!exists(2), "least-recently-used entry evicted");
        assert!(exists(3) && exists(4), "newer entries survive");

        // A restarted daemon re-executes the evicted config cleanly
        // and still answers surviving entries from the preloaded cache.
        let r2 = Registry::with_store_capped(&dir, Some(3 * entry_size)).expect("store dir");
        assert!(
            matches!(r2.submit(2), Admission::Execute { .. }),
            "evicted entry re-executes"
        );
        assert!(matches!(r2.submit(1), Admission::Cached { .. }));
        drop(r2);

        // Restarting under a tighter cap trims the preloaded store too,
        // and the entries it deletes are not answered from memory.
        let r3 = Registry::with_store_capped(&dir, Some(entry_size)).expect("store dir");
        let (kept, evicted): (Vec<u64>, Vec<u64>) =
            [1u64, 3, 4].into_iter().partition(|&h| exists(h));
        assert_eq!(kept.len(), 1, "preload enforces the cap");
        for hash in evicted {
            assert!(
                matches!(r3.submit(hash), Admission::Execute { .. }),
                "entry {hash} evicted at preload must re-execute"
            );
        }
        assert!(matches!(r3.submit(kept[0]), Admission::Cached { .. }));
        drop(r3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forked_counter_tracks_notes() {
        let r = Registry::new();
        assert_eq!(r.stats().forked, 0);
        r.note_forked();
        r.note_forked();
        assert_eq!(r.stats().forked, 2);
    }

    #[test]
    fn timing_and_gauges_track_lifecycle() {
        let r = Registry::new();
        let a = r.submit(11);
        assert_eq!(r.inflight_now(), 1, "one config in flight");
        assert!(r.queue_wait_us(a.id()).is_none(), "not started yet");
        assert!(r.age_us(a.id()).is_some());
        r.start(a.id()).expect("queued");
        assert!(r.queue_wait_us(a.id()).is_some(), "started jobs report wait");
        r.complete(a.id(), fake_artifact());
        assert_eq!(r.inflight_now(), 0, "completion clears in-flight");
        assert_eq!(r.store_bytes(), 0, "no store configured");
        assert!(r.queue_wait_us(999).is_none(), "unknown id");
        assert!(r.age_us(999).is_none(), "unknown id");
    }

    #[test]
    fn wait_terminal_returns_final_snapshot() {
        let r = Arc::new(Registry::new());
        let a = r.submit(5);
        let r2 = r.clone();
        let id = a.id();
        let h = std::thread::spawn(move || {
            r2.start(id).expect("queued");
            r2.complete(id, fake_artifact());
        });
        let snap = r.wait_terminal(id).expect("known");
        assert_eq!(snap.state, JobState::Done);
        h.join().unwrap();
    }
}
