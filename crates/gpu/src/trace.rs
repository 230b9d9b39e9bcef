//! Structured execution tracing.
//!
//! When enabled via [`SimulationBuilder::trace`](crate::SimulationBuilder::trace),
//! the simulator records a bounded log of launch decisions and
//! kernel/CTA lifecycle events — the raw material for debugging policy
//! behaviour (e.g. watching SPAWN's decisions flip as the CCQS backlog
//! grows) or for building custom timelines beyond the standard report.

use std::fmt;

use dynapar_engine::json::Json;
use dynapar_engine::Cycle;

use crate::controller::LaunchDecision;
use crate::ids::{KernelId, SmxId};

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A launch site consulted the controller.
    Decision {
        /// When the decision was made.
        at: Cycle,
        /// The requesting parent kernel.
        parent: KernelId,
        /// Workload of the requesting thread.
        items: u32,
        /// The controller's verdict.
        decision: LaunchDecision,
    },
    /// A kernel was created (host launch or approved child).
    KernelCreated {
        /// Creation time.
        at: Cycle,
        /// The new kernel.
        kernel: KernelId,
        /// Its parent, if device-launched.
        parent: Option<KernelId>,
    },
    /// A kernel arrived in the GMU pending pool.
    KernelArrived {
        /// Arrival time (creation + launch overhead).
        at: Cycle,
        /// The kernel.
        kernel: KernelId,
    },
    /// A CTA was dispatched to an SMX.
    CtaDispatched {
        /// Dispatch time.
        at: Cycle,
        /// Owning kernel.
        kernel: KernelId,
        /// CTA index within the kernel.
        cta: u32,
        /// Destination SMX.
        smx: SmxId,
    },
    /// A kernel's own CTAs all completed.
    KernelCompleted {
        /// Completion time.
        at: Cycle,
        /// The kernel.
        kernel: KernelId,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> Cycle {
        match *self {
            TraceEvent::Decision { at, .. }
            | TraceEvent::KernelCreated { at, .. }
            | TraceEvent::KernelArrived { at, .. }
            | TraceEvent::CtaDispatched { at, .. }
            | TraceEvent::KernelCompleted { at, .. } => at,
        }
    }

    /// Renders the event as a JSON object tagged by `kind`.
    pub fn to_json(&self) -> Json {
        match *self {
            TraceEvent::Decision {
                at,
                parent,
                items,
                decision,
            } => Json::obj([
                ("kind", Json::str("decision")),
                ("at", Json::U64(at.as_u64())),
                ("parent", Json::U64(parent.0 as u64)),
                ("items", Json::U64(items as u64)),
                ("decision", Json::str(format!("{decision:?}"))),
            ]),
            TraceEvent::KernelCreated { at, kernel, parent } => Json::obj([
                ("kind", Json::str("kernel_created")),
                ("at", Json::U64(at.as_u64())),
                ("kernel", Json::U64(kernel.0 as u64)),
                (
                    "parent",
                    parent.map_or(Json::Null, |p| Json::U64(p.0 as u64)),
                ),
            ]),
            TraceEvent::KernelArrived { at, kernel } => Json::obj([
                ("kind", Json::str("kernel_arrived")),
                ("at", Json::U64(at.as_u64())),
                ("kernel", Json::U64(kernel.0 as u64)),
            ]),
            TraceEvent::CtaDispatched {
                at,
                kernel,
                cta,
                smx,
            } => Json::obj([
                ("kind", Json::str("cta_dispatched")),
                ("at", Json::U64(at.as_u64())),
                ("kernel", Json::U64(kernel.0 as u64)),
                ("cta", Json::U64(cta as u64)),
                ("smx", Json::U64(smx.0 as u64)),
            ]),
            TraceEvent::KernelCompleted { at, kernel } => Json::obj([
                ("kind", Json::str("kernel_completed")),
                ("at", Json::U64(at.as_u64())),
                ("kernel", Json::U64(kernel.0 as u64)),
            ]),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Decision {
                at,
                parent,
                items,
                decision,
            } => write!(
                f,
                "{at} decision parent={parent} items={items} -> {decision:?}"
            ),
            TraceEvent::KernelCreated { at, kernel, parent } => match parent {
                Some(p) => write!(f, "{at} create {kernel} parent={p}"),
                None => write!(f, "{at} create {kernel} (host)"),
            },
            TraceEvent::KernelArrived { at, kernel } => {
                write!(f, "{at} arrive {kernel}")
            }
            TraceEvent::CtaDispatched {
                at,
                kernel,
                cta,
                smx,
            } => write!(f, "{at} dispatch {kernel}.cta{cta} -> {smx}"),
            TraceEvent::KernelCompleted { at, kernel } => {
                write!(f, "{at} complete {kernel}")
            }
        }
    }
}

/// A bounded event log. Once `capacity` events are recorded, further
/// events are counted but dropped (the bound keeps long runs from
/// exhausting memory; the drop count is reported).
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// All recorded events, in simulation order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events dropped after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterator over the launch decisions only.
    pub fn decisions(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decision { .. }))
    }

    /// Renders the trace as a JSON object: capacity, drop count, and the
    /// recorded events in simulation order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("capacity", Json::U64(self.capacity as u64)),
            ("dropped", Json::U64(self.dropped)),
            (
                "events",
                Json::Arr(self.events.iter().map(TraceEvent::to_json).collect()),
            ),
        ])
    }

    /// Events concerning one kernel (created/arrived/dispatched/completed).
    pub fn kernel_events(&self, kernel: KernelId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| match **e {
                TraceEvent::KernelCreated { kernel: k, .. }
                | TraceEvent::KernelArrived { kernel: k, .. }
                | TraceEvent::CtaDispatched { kernel: k, .. }
                | TraceEvent::KernelCompleted { kernel: k, .. } => k == kernel,
                TraceEvent::Decision { .. } => false,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let mut t = Trace::new(2);
        for i in 0..5 {
            t.record(TraceEvent::KernelArrived {
                at: Cycle(i),
                kernel: KernelId(i as u32),
            });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn kernel_events_filter() {
        let mut t = Trace::new(16);
        t.record(TraceEvent::KernelCreated {
            at: Cycle(1),
            kernel: KernelId(1),
            parent: None,
        });
        t.record(TraceEvent::KernelCreated {
            at: Cycle(2),
            kernel: KernelId(2),
            parent: Some(KernelId(1)),
        });
        t.record(TraceEvent::KernelCompleted {
            at: Cycle(9),
            kernel: KernelId(1),
        });
        assert_eq!(t.kernel_events(KernelId(1)).len(), 2);
        assert_eq!(t.kernel_events(KernelId(2)).len(), 1);
        assert_eq!(t.decisions().count(), 0);
    }

    #[test]
    fn display_is_informative() {
        let e = TraceEvent::Decision {
            at: Cycle(5),
            parent: KernelId(0),
            items: 42,
            decision: LaunchDecision::Kernel,
        };
        let s = e.to_string();
        assert!(s.contains("items=42"));
        assert!(s.contains("Kernel"));
        assert_eq!(e.at(), Cycle(5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Trace::new(0);
    }

    #[test]
    fn json_export_round_trips() {
        let mut t = Trace::new(8);
        t.record(TraceEvent::Decision {
            at: Cycle(5),
            parent: KernelId(0),
            items: 42,
            decision: LaunchDecision::Kernel,
        });
        t.record(TraceEvent::KernelCreated {
            at: Cycle(6),
            kernel: KernelId(1),
            parent: Some(KernelId(0)),
        });
        t.record(TraceEvent::CtaDispatched {
            at: Cycle(9),
            kernel: KernelId(1),
            cta: 0,
            smx: SmxId(3),
        });
        let json = t.to_json();
        let text = json.to_string();
        let back = Json::parse(&text).expect("valid JSON");
        assert_eq!(back, json);
        let events = back.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("decision"));
        assert_eq!(events[0].get("decision").unwrap().as_str(), Some("Kernel"));
        assert_eq!(events[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(events[2].get("smx").unwrap().as_u64(), Some(3));
        assert_eq!(back.get("dropped").unwrap().as_u64(), Some(0));
    }
}
