//! Chrome/Perfetto `trace_event` timeline export.
//!
//! Converts the bounded [`Trace`] log into the Trace Event Format JSON
//! consumed by `ui.perfetto.dev` and `chrome://tracing`. Kernel
//! lifecycles render as one track ("thread") per kernel under a
//! *Kernels* process: a `"ph":"X"` complete span from creation to
//! completion, with a nested `queued` span covering the launch-overhead
//! plus GMU-residency interval (creation to arrival) and a `"ph":"i"`
//! instant per launch decision on the deciding parent's track. CTA
//! dispatches render as instants on one track per SMX under an *SMXs*
//! process. One simulated cycle maps to one microsecond of trace time
//! (the format's `ts`/`dur` unit), so cycle deltas read directly off
//! the timeline ruler.
//!
//! The export is a pure function of the trace, so a byte-deterministic
//! trace yields a byte-deterministic timeline.

use std::collections::BTreeMap;

use dynapar_engine::json::Json;

use crate::trace::{Trace, TraceEvent};

/// The `pid` grouping kernel-lifecycle tracks.
const PID_KERNELS: u64 = 1;
/// The `pid` grouping per-SMX dispatch tracks.
const PID_SMXS: u64 = 2;

/// A `"ph":"M"` metadata record naming a process (`tid: None`) or a
/// track. Public so other trace producers (the server daemon's
/// `--trace-out`) emit byte-identical metadata shapes.
pub fn meta(pid: u64, tid: Option<u64>, kind: &str, name: &str) -> Json {
    let mut members = vec![
        ("name", Json::str(kind)),
        ("ph", Json::str("M")),
        ("pid", Json::U64(pid)),
    ];
    if let Some(tid) = tid {
        members.push(("tid", Json::U64(tid)));
    }
    members.push(("args", Json::obj([("name", Json::str(name))])));
    Json::obj(members)
}

/// A `"ph":"X"` complete span of `dur` trace-time units starting at `ts`.
pub fn complete(pid: u64, tid: u64, name: &str, ts: u64, dur: u64, args: Json) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("X")),
        ("ts", Json::U64(ts)),
        ("dur", Json::U64(dur)),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("args", args),
    ])
}

/// A thread-scoped `"ph":"i"` instant marker at `ts`.
pub fn instant(pid: u64, tid: u64, name: &str, ts: u64, args: Json) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("ts", Json::U64(ts)),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("args", args),
    ])
}

#[derive(Default)]
struct KernelSpan {
    created: Option<u64>,
    arrived: Option<u64>,
    completed: Option<u64>,
    parent: Option<u64>,
}

/// Renders `trace` as a complete Trace Event Format document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
///
/// Event order is deterministic: metadata first (processes, then
/// tracks in id order), kernel spans in kernel-id order, then every
/// instant in original simulation order. Kernels still running when
/// the trace ends get a span extended to the last traced timestamp.
pub fn timeline_json(trace: &Trace) -> Json {
    let mut kernels: BTreeMap<u64, KernelSpan> = BTreeMap::new();
    let mut smxs: BTreeMap<u64, ()> = BTreeMap::new();
    let mut end: u64 = 0;
    for ev in trace.events() {
        end = end.max(ev.at().as_u64());
        match *ev {
            TraceEvent::KernelCreated { at, kernel, parent } => {
                let k = kernels.entry(kernel.0 as u64).or_default();
                k.created = Some(at.as_u64());
                k.parent = parent.map(|p| p.0 as u64);
            }
            TraceEvent::KernelArrived { at, kernel } => {
                kernels.entry(kernel.0 as u64).or_default().arrived = Some(at.as_u64());
            }
            TraceEvent::KernelCompleted { at, kernel } => {
                kernels.entry(kernel.0 as u64).or_default().completed = Some(at.as_u64());
            }
            TraceEvent::CtaDispatched { smx, .. } => {
                smxs.insert(smx.0 as u64, ());
            }
            TraceEvent::Decision { parent, .. } => {
                kernels.entry(parent.0 as u64).or_default();
            }
        }
    }

    let mut events: Vec<Json> = Vec::new();
    events.push(meta(PID_KERNELS, None, "process_name", "Kernels"));
    events.push(meta(PID_SMXS, None, "process_name", "SMXs"));
    for &id in kernels.keys() {
        events.push(meta(
            PID_KERNELS,
            Some(id),
            "thread_name",
            &format!("kernel {id}"),
        ));
    }
    for &id in smxs.keys() {
        events.push(meta(
            PID_SMXS,
            Some(id),
            "thread_name",
            &format!("SMX {id}"),
        ));
    }

    for (&id, span) in &kernels {
        let Some(created) = span.created else {
            // Known only through decisions it made (its own creation was
            // dropped from the bounded log) — no lifecycle span to draw.
            continue;
        };
        let until = span.completed.unwrap_or(end);
        let mut args = vec![("completed", Json::Bool(span.completed.is_some()))];
        if let Some(p) = span.parent {
            args.push(("parent", Json::U64(p)));
        }
        events.push(complete(
            PID_KERNELS,
            id,
            &format!("kernel {id}"),
            created,
            until.saturating_sub(created),
            Json::obj(args),
        ));
        if let Some(arrived) = span.arrived {
            events.push(complete(
                PID_KERNELS,
                id,
                "queued",
                created,
                arrived.saturating_sub(created),
                Json::obj([("note", Json::str("launch overhead + GMU residency"))]),
            ));
        }
    }

    for ev in trace.events() {
        match *ev {
            TraceEvent::Decision {
                at,
                parent,
                items,
                decision,
            } => events.push(instant(
                PID_KERNELS,
                parent.0 as u64,
                &format!("decision:{decision:?}"),
                at.as_u64(),
                Json::obj([("items", Json::U64(items as u64))]),
            )),
            TraceEvent::CtaDispatched {
                at,
                kernel,
                cta,
                smx,
            } => events.push(instant(
                PID_SMXS,
                smx.0 as u64,
                "cta_dispatched",
                at.as_u64(),
                Json::obj([
                    ("kernel", Json::U64(kernel.0 as u64)),
                    ("cta", Json::U64(cta as u64)),
                ]),
            )),
            _ => {}
        }
    }

    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::LaunchDecision;
    use crate::ids::{KernelId, SmxId};
    use dynapar_engine::Cycle;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(64);
        t.record(TraceEvent::KernelCreated {
            at: Cycle(10),
            kernel: KernelId(0),
            parent: None,
        });
        t.record(TraceEvent::KernelArrived {
            at: Cycle(12),
            kernel: KernelId(0),
        });
        t.record(TraceEvent::Decision {
            at: Cycle(40),
            parent: KernelId(0),
            items: 256,
            decision: LaunchDecision::Kernel,
        });
        t.record(TraceEvent::KernelCreated {
            at: Cycle(40),
            kernel: KernelId(1),
            parent: Some(KernelId(0)),
        });
        t.record(TraceEvent::KernelArrived {
            at: Cycle(90),
            kernel: KernelId(1),
        });
        t.record(TraceEvent::CtaDispatched {
            at: Cycle(95),
            kernel: KernelId(1),
            cta: 0,
            smx: SmxId(3),
        });
        t.record(TraceEvent::KernelCompleted {
            at: Cycle(200),
            kernel: KernelId(1),
        });
        t.record(TraceEvent::KernelCompleted {
            at: Cycle(220),
            kernel: KernelId(0),
        });
        t
    }

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
    fn kernel_lifecycle_becomes_complete_spans() {
        let doc = timeline_json(&sample_trace());
        let events = events_of(&doc);
        let k0 = find(events, "X", "kernel 0").expect("kernel 0 span");
        assert_eq!(k0.get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(k0.get("dur").unwrap().as_u64(), Some(210));
        assert_eq!(
            k0.get("args").unwrap().get("completed").unwrap(),
            &Json::Bool(true)
        );
        let k1 = find(events, "X", "kernel 1").expect("kernel 1 span");
        assert_eq!(k1.get("ts").unwrap().as_u64(), Some(40));
        assert_eq!(k1.get("dur").unwrap().as_u64(), Some(160));
        assert_eq!(
            k1.get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(0)
        );
        // Two queued sub-spans, one per arrived kernel.
        let queued: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("queued"))
            .collect();
        assert_eq!(queued.len(), 2);
        assert_eq!(queued[1].get("dur").unwrap().as_u64(), Some(50));
    }

    #[test]
    fn instants_and_metadata_present() {
        let doc = timeline_json(&sample_trace());
        let events = events_of(&doc);
        let d = find(events, "i", "decision:Kernel").expect("decision instant");
        assert_eq!(d.get("ts").unwrap().as_u64(), Some(40));
        let c = find(events, "i", "cta_dispatched").expect("dispatch instant");
        assert_eq!(c.get("tid").unwrap().as_u64(), Some(3));
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        for expected in ["Kernels", "SMXs", "kernel 0", "kernel 1", "SMX 3"] {
            assert!(
                names.contains(&expected),
                "missing metadata name {expected}"
            );
        }
    }

    #[test]
    fn unfinished_kernel_extends_to_trace_end() {
        let mut t = Trace::new(8);
        t.record(TraceEvent::KernelCreated {
            at: Cycle(5),
            kernel: KernelId(7),
            parent: None,
        });
        t.record(TraceEvent::CtaDispatched {
            at: Cycle(50),
            kernel: KernelId(7),
            cta: 0,
            smx: SmxId(0),
        });
        let doc = timeline_json(&t);
        let events = events_of(&doc);
        let span = find(events, "X", "kernel 7").expect("span");
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(45));
        assert_eq!(
            span.get("args").unwrap().get("completed").unwrap(),
            &Json::Bool(false)
        );
    }

    #[test]
    fn output_parses_back_as_json() {
        let doc = timeline_json(&sample_trace());
        let text = doc.pretty();
        let back = Json::parse(&text).expect("valid JSON");
        assert_eq!(back, doc);
        assert!(!events_of(&back).is_empty());
    }
}
