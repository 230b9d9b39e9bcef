//! Daemon-level Perfetto trace export (`dynapar serve --trace-out F`).
//!
//! Collects job-lifecycle moments while the daemon runs and renders
//! them as a Chrome Trace Event Format document with the exact event
//! shapes of [`dynapar_gpu::perfetto`] (shared `meta`/`complete`/
//! `instant` constructors), so a server session opens in
//! `ui.perfetto.dev` next to a simulation timeline:
//!
//! * one track per job under a *Jobs* process; the outer `"ph":"X"`
//!   span `job N` covers queued→terminal, with nested `queued`
//!   (queued→started) and `running` (started→terminal) child spans —
//!   the same outer-span + nested-phase convention the simulator uses
//!   for kernels;
//! * fork-sweep branches additionally nest a `fork_branch` child span
//!   inside their `running` interval and carry `forked: true` args;
//! * memo hits and coalesced submits are `"ph":"i"` instants on the
//!   admitted job's track.
//!
//! Timestamps are microseconds of host time since the collector was
//! created (Perfetto's native `ts` unit — where the simulator maps one
//! cycle to one microsecond, the daemon maps one real microsecond).
//! Collection is bounded-cost per event and entirely off the
//! simulation path; the document is rendered once, at daemon exit.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dynapar_engine::json::Json;
use dynapar_gpu::perfetto::{complete, instant, meta};

/// The `pid` grouping job tracks (the only process in a daemon trace).
const PID_JOBS: u64 = 1;

#[derive(Default, Clone)]
struct JobSpan {
    class: String,
    queued: u64,
    started: Option<u64>,
    ended: Option<u64>,
    state: Option<&'static str>,
    forked: bool,
}

#[derive(Default)]
struct TraceInner {
    jobs: BTreeMap<u64, JobSpan>,
    /// `(job id, name, ts, args)` — rendered after every span, in
    /// recording order.
    instants: Vec<(u64, &'static str, u64, Json)>,
}

/// The daemon's trace collector. Shared across connection handlers and
/// workers; every recording method is cheap and lock-bounded.
pub struct DaemonTrace {
    started: Instant,
    inner: Mutex<TraceInner>,
}

impl Default for DaemonTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl DaemonTrace {
    /// A fresh collector; trace time zero is now.
    pub fn new() -> Self {
        DaemonTrace {
            started: Instant::now(),
            inner: Mutex::new(TraceInner::default()),
        }
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// A job was admitted for execution (`class` is its policy label).
    pub fn job_queued(&self, id: u64, class: &str) {
        let now = self.now_us();
        let mut g = self.inner.lock().expect("trace poisoned");
        g.jobs.insert(
            id,
            JobSpan {
                class: class.to_string(),
                queued: now,
                ..JobSpan::default()
            },
        );
    }

    /// A worker picked the job up.
    pub fn job_started(&self, id: u64) {
        let now = self.now_us();
        let mut g = self.inner.lock().expect("trace poisoned");
        if let Some(job) = g.jobs.get_mut(&id) {
            job.started = Some(now);
        }
    }

    /// The job reached a terminal state (`done` / `failed` /
    /// `cancelled`).
    pub fn job_ended(&self, id: u64, state: &'static str) {
        let now = self.now_us();
        let mut g = self.inner.lock().expect("trace poisoned");
        if let Some(job) = g.jobs.get_mut(&id) {
            job.ended = Some(now);
            job.state = Some(state);
        }
    }

    /// Marks the job as a fork-sweep branch (answered from a shared
    /// warm-up snapshot rather than a cold ramp).
    pub fn job_forked(&self, id: u64) {
        let mut g = self.inner.lock().expect("trace poisoned");
        if let Some(job) = g.jobs.get_mut(&id) {
            job.forked = true;
        }
    }

    /// A submit answered straight from the memo cache.
    pub fn memo_hit(&self, id: u64, hash: u64) {
        let now = self.now_us();
        let mut g = self.inner.lock().expect("trace poisoned");
        g.instants.push((
            id,
            "memo_hit",
            now,
            Json::obj([("hash", Json::str(format!("{hash:016x}")))]),
        ));
    }

    /// A submit coalesced onto an in-flight identical job.
    pub fn coalesced(&self, id: u64, primary: u64) {
        let now = self.now_us();
        let mut g = self.inner.lock().expect("trace poisoned");
        g.instants.push((
            id,
            "coalesced",
            now,
            Json::obj([("primary", Json::U64(primary))]),
        ));
    }

    /// Renders the collected session as a complete Trace Event Format
    /// document (`{"traceEvents":[…],"displayTimeUnit":"ms"}`).
    ///
    /// Deterministic given the recorded moments: metadata first, job
    /// spans in id order (outer span, then `queued`, `running`, and
    /// `fork_branch` children), then instants in recording order. Jobs
    /// still running when the trace is rendered extend to the latest
    /// recorded timestamp.
    pub fn to_json(&self) -> Json {
        let g = self.inner.lock().expect("trace poisoned");
        let mut end = 0u64;
        for job in g.jobs.values() {
            end = end.max(job.queued);
            end = end.max(job.started.unwrap_or(0));
            end = end.max(job.ended.unwrap_or(0));
        }
        for &(_, _, ts, _) in &g.instants {
            end = end.max(ts);
        }

        let mut events: Vec<Json> = Vec::new();
        events.push(meta(PID_JOBS, None, "process_name", "Jobs"));
        for (&id, span) in &g.jobs {
            events.push(meta(
                PID_JOBS,
                Some(id),
                "thread_name",
                &format!("job {id} ({})", span.class),
            ));
        }
        for (&id, span) in &g.jobs {
            let until = span.ended.unwrap_or(end);
            let mut args = vec![
                ("class", Json::str(span.class.clone())),
                ("state", Json::str(span.state.unwrap_or("running"))),
            ];
            if span.forked {
                args.push(("forked", Json::Bool(true)));
            }
            events.push(complete(
                PID_JOBS,
                id,
                &format!("job {id}"),
                span.queued,
                until.saturating_sub(span.queued),
                Json::obj(args),
            ));
            if let Some(started) = span.started {
                events.push(complete(
                    PID_JOBS,
                    id,
                    "queued",
                    span.queued,
                    started.saturating_sub(span.queued),
                    Json::obj([("note", Json::str("waiting for a worker"))]),
                ));
                events.push(complete(
                    PID_JOBS,
                    id,
                    "running",
                    started,
                    until.saturating_sub(started),
                    Json::obj::<&str>([]),
                ));
                if span.forked {
                    events.push(complete(
                        PID_JOBS,
                        id,
                        "fork_branch",
                        started,
                        until.saturating_sub(started),
                        Json::obj([("note", Json::str("resumed from a shared warm-up snapshot"))]),
                    ));
                }
            }
        }
        for (id, name, ts, args) in &g.instants {
            events.push(instant(PID_JOBS, *id, name, *ts, args.clone()));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_of(doc: &Json) -> &[Json] {
        doc.get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array")
    }

    fn find<'a>(events: &'a [Json], ph: &str, name: &str) -> Option<&'a Json> {
        events.iter().find(|e| {
            e.get("ph").and_then(Json::as_str) == Some(ph)
                && e.get("name").and_then(Json::as_str) == Some(name)
        })
    }

    #[test]
    fn lifecycle_renders_nested_spans() {
        let t = DaemonTrace::new();
        t.job_queued(0, "spawn");
        t.job_started(0);
        t.job_ended(0, "done");
        let doc = t.to_json();
        let events = events_of(&doc);
        let outer = find(events, "X", "job 0").expect("outer span");
        assert_eq!(
            outer.get("args").unwrap().get("state").unwrap().as_str(),
            Some("done")
        );
        assert_eq!(
            outer.get("args").unwrap().get("class").unwrap().as_str(),
            Some("spawn")
        );
        assert!(find(events, "X", "queued").is_some(), "queued child span");
        assert!(find(events, "X", "running").is_some(), "running child span");
        assert!(find(events, "M", "thread_name").is_some(), "track metadata");
        // Child spans nest inside the outer span's interval.
        let ts = |e: &Json| e.get("ts").unwrap().as_u64().unwrap();
        let dur = |e: &Json| e.get("dur").unwrap().as_u64().unwrap();
        let running = find(events, "X", "running").unwrap();
        assert!(ts(running) >= ts(outer));
        assert!(ts(running) + dur(running) <= ts(outer) + dur(outer));
    }

    #[test]
    fn memo_hits_and_coalesced_are_instants() {
        let t = DaemonTrace::new();
        t.job_queued(0, "flat");
        t.memo_hit(1, 0xabcd);
        t.coalesced(2, 0);
        let doc = t.to_json();
        let events = events_of(&doc);
        let hit = find(events, "i", "memo_hit").expect("memo hit instant");
        assert_eq!(
            hit.get("args").unwrap().get("hash").unwrap().as_str(),
            Some("000000000000abcd")
        );
        let co = find(events, "i", "coalesced").expect("coalesced instant");
        assert_eq!(
            co.get("args").unwrap().get("primary").unwrap().as_u64(),
            Some(0)
        );
    }

    #[test]
    fn forked_branches_get_child_spans() {
        let t = DaemonTrace::new();
        t.job_queued(3, "dtbl");
        t.job_started(3);
        t.job_forked(3);
        t.job_ended(3, "done");
        let doc = t.to_json();
        let events = events_of(&doc);
        let branch = find(events, "X", "fork_branch").expect("fork child span");
        let running = find(events, "X", "running").unwrap();
        assert_eq!(branch.get("ts").unwrap(), running.get("ts").unwrap());
        let outer = find(events, "X", "job 3").unwrap();
        assert_eq!(
            outer.get("args").unwrap().get("forked").unwrap(),
            &Json::Bool(true)
        );
    }

    #[test]
    fn unfinished_jobs_extend_to_latest_timestamp() {
        let t = DaemonTrace::new();
        t.job_queued(0, "spawn");
        t.job_started(0);
        // No end recorded; the span must still render with state
        // "running" and parse back cleanly.
        let doc = t.to_json();
        let events = events_of(&doc);
        let outer = find(events, "X", "job 0").expect("span");
        assert_eq!(
            outer.get("args").unwrap().get("state").unwrap().as_str(),
            Some("running")
        );
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rendering_is_deterministic_for_fixed_moments() {
        let t = DaemonTrace::new();
        t.job_queued(1, "spawn");
        t.job_started(1);
        t.job_ended(1, "done");
        t.memo_hit(2, 7);
        assert_eq!(t.to_json().to_string(), t.to_json().to_string());
    }
}
