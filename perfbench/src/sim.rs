//! `sim-memory` and `sim-launch`: suite simulations run one at a time on
//! the sequential backend, each writing its `full` artifact to disk
//! exactly as `dynapar run --emit-json` does.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use dynapar_core::PolicySpec;
use dynapar_gpu::{GpuConfig, MetricsLevel, SimReport, Simulation};
use dynapar_workloads::{suite, Benchmark, Scale};

use crate::span::Tracer;
use crate::stats::{digest, median};
use crate::Tally;

/// `(benchmark, policy)` pairs of one pass, in run order.
type OpList = &'static [(&'static str, &'static str)];

/// JOIN and SSSP over graph500 under `flat`: 7–25 L1 accesses per
/// simulated event and no child kernels, so the memory model does most
/// of the loop's work and the launch path none.
const MEMORY_OPS: OpList = &[
    ("JOIN-uniform", "flat"),
    ("JOIN-gaussian", "flat"),
    ("SSSP-graph500", "flat"),
];

/// `sim-memory` runs at `Small` scale. The memory-heavy loop's host time
/// drifts with contention for a shared last-level cache, and a
/// paper-scale pass (about 5 s) gave only five samples per op in a run,
/// too few to steady its per-op median. A `Small` pass takes about 1.3 s,
/// its working set still outgrows a core's L2, and it makes about as
/// many memory accesses per event.
const MEMORY_SCALE: Scale = Scale::Small;

/// Mandel (no memory accesses at all) under both launch policies, plus
/// AMR, whose 7.7 MB artifact makes report building and rendering a
/// fifth of its op.
const LAUNCH_OPS: OpList = &[
    ("Mandel", "baseline"),
    ("Mandel", "spawn"),
    ("AMR", "baseline"),
];

/// `(events_processed, total_cycles)` recorded at
/// `suite::DEFAULT_SEED` on the sequential backend, at each workload's
/// scale. Any other seed is checked by repeat equality only.
const RECORDED: &[(&str, &str, u64, u64)] = &[
    ("JOIN-uniform", "flat", 330_837, 2_625_779),
    ("JOIN-gaussian", "flat", 372_163, 1_283_927),
    ("SSSP-graph500", "flat", 109_757, 95_450),
    ("Mandel", "baseline", 1_559_887, 65_796),
    ("Mandel", "spawn", 1_567_486, 73_080),
    ("AMR", "baseline", 527_041, 2_958_487),
];

/// The op list of a simulation workload and the scale of its inputs.
pub fn ops(workload: &str) -> Option<(OpList, Scale)> {
    match workload {
        "sim-memory" => Some((MEMORY_OPS, MEMORY_SCALE)),
        "sim-launch" => Some((LAUNCH_OPS, Scale::Paper)),
        _ => None,
    }
}

/// What one op must reproduce on every pass.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    counts: Counts,
    bytes: usize,
    digest: u64,
}

/// The simulated statistics of one op, read from its report. They are
/// deterministic, so they serve as output checks and exact layer
/// counts, never as scores.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    events: u64,
    events_global: u64,
    events_local: u64,
    cycles: u64,
    l1: u64,
    l2: u64,
    dram: u64,
    mshr_stalls: u64,
    child_kernels: u64,
    max_pending: u64,
    launch_requests: u64,
    inlined_requests: u64,
}

impl Counts {
    fn of(r: &SimReport) -> Counts {
        Counts {
            events: r.events_processed,
            events_global: r.events_global,
            events_local: r.events_local,
            cycles: r.total_cycles,
            l1: r.mem.l1_accesses,
            l2: r.mem.l2_accesses,
            dram: r.mem.dram_accesses,
            mshr_stalls: r.mem.mshr_stalls,
            child_kernels: r.child_kernels_launched,
            max_pending: u64::from(r.max_pending_kernels),
            launch_requests: r.launch_requests,
            inlined_requests: r.inlined_requests,
        }
    }
}

pub struct SimState {
    cfg: GpuConfig,
    seed: u64,
    ops: OpList,
    benches: BTreeMap<&'static str, Benchmark>,
    out_dir: PathBuf,
    /// Each op's first-pass outcome, the reference for later passes.
    first: Vec<Option<Outcome>>,
    /// Estimate/actual ratios of the CCQS predictions of spawn ops.
    ccqs_ratios: Vec<f64>,
}

/// Synthesises every input of the op list — the set-up `setup_s` times.
pub fn setup(ops: OpList, scale: Scale, seed: u64, out_dir: PathBuf, tr: &mut Tracer) -> SimState {
    let mut benches = BTreeMap::new();
    for &(name, _) in ops {
        if !benches.contains_key(name) {
            let b = tr.span("workloads.synth", |_| {
                suite::by_name(name, scale, seed).expect("op lists name suite benchmarks")
            });
            benches.insert(name, b);
        }
    }
    SimState {
        cfg: GpuConfig::kepler_k20m(),
        seed,
        ops,
        benches,
        out_dir,
        first: vec![None; ops.len()],
        ccqs_ratios: Vec::new(),
    }
}

/// Runs every op of the list once.
pub fn pass(st: &mut SimState, pass: u64, tr: &mut Tracer, tally: &mut Tally) {
    let mut pass_s = 0.0;
    for (i, &(name, policy)) in st.ops.iter().enumerate() {
        let bench = &st.benches[name];
        let spec = PolicySpec::parse(policy).expect("op lists name known policies");
        let path = st.out_dir.join(format!("{name}-{policy}.json"));
        let started = Instant::now();
        let first = st.first[i].is_none();
        let (counts, ccqs, text) = tr.op(|tr| {
            let sim = tr.span("gpu.build", |_| {
                let ctrl = spec.controller(&st.cfg, bench.default_threshold(), MetricsLevel::Full);
                let mut sim = Simulation::builder(st.cfg.clone())
                    .controller(ctrl)
                    .metrics(MetricsLevel::Full)
                    .build();
                sim.launch_host(bench.kernel());
                sim
            });
            // `Simulation::run` is the loop followed by report and
            // artifact building; the report's `wall_ms` is the loop.
            let t0 = Instant::now();
            let out = sim.run();
            let t1 = Instant::now();
            let loop_end =
                (t0 + std::time::Duration::from_secs_f64(out.report.wall_ms / 1e3)).min(t1);
            tr.record("gpu.loop", t0, loop_end);
            tr.record("artifact.report", loop_end, t1);
            let artifact = out
                .artifact
                .as_ref()
                .expect("metrics full yields an artifact");
            let text = tr.span("artifact.render", |_| format!("{artifact}\n"));
            tr.span("artifact.write", |_| std::fs::write(&path, &text))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            let counts = Counts::of(&out.report);
            let ccqs = (first && spec == PolicySpec::Spawn).then(|| artifact.ccqs_samples());
            // `dynapar run` frees the outcome before it exits, so the
            // op includes it.
            tr.span("gpu.teardown", |_| drop(out));
            (counts, ccqs, text)
        });
        let secs = started.elapsed().as_secs_f64();
        tally.sim_op_done(i, secs);
        pass_s += secs;

        let got = Outcome {
            counts,
            bytes: text.len(),
            digest: digest(text.as_bytes()),
        };
        let label = format!("{name}/{policy} pass {pass}");
        match &st.first[i] {
            None => {
                if st.seed == suite::DEFAULT_SEED {
                    check_recorded(name, policy, &got.counts, &label, tally);
                }
                st.ccqs_ratios.extend(ccqs.iter().flatten().filter_map(|s| {
                    s.actual
                        .filter(|&a| a > 0)
                        .map(|a| s.estimate as f64 / a as f64)
                }));
                st.first[i] = Some(got);
            }
            Some(first) if *first != got => tally.fail(format!(
                "{label}: outcome differs from the first pass ({} vs {} bytes, events {} vs {})",
                got.bytes, first.bytes, got.counts.events, first.counts.events
            )),
            Some(_) => {}
        }
    }
    tally.sweep_ms.push(pass_s * 1e3);
}

fn check_recorded(name: &str, policy: &str, c: &Counts, label: &str, tally: &mut Tally) {
    let want = RECORDED
        .iter()
        .find(|r| r.0 == name && r.1 == policy)
        .map(|r| (r.2, r.3));
    if want != Some((c.events, c.cycles)) {
        tally.fail(format!(
            "{label}: events/cycles {}/{} differ from the recorded {want:?}",
            c.events, c.cycles
        ));
    }
}

/// Exact per-pass counts of the simulated layers, summed over the ops.
pub fn layer_counts(st: &SimState, m: &mut BTreeMap<&'static str, f64>) {
    let mut sum = Counts::default();
    let mut bytes = 0;
    for o in st.first.iter().flatten() {
        let c = &o.counts;
        sum.events += c.events;
        sum.events_global += c.events_global;
        sum.events_local += c.events_local;
        sum.cycles += c.cycles;
        sum.l1 += c.l1;
        sum.l2 += c.l2;
        sum.dram += c.dram;
        sum.mshr_stalls += c.mshr_stalls;
        sum.child_kernels += c.child_kernels;
        sum.max_pending = sum.max_pending.max(c.max_pending);
        sum.launch_requests += c.launch_requests;
        sum.inlined_requests += c.inlined_requests;
        bytes += o.bytes;
    }
    let f = |v: u64| v as f64;
    m.insert("gpu.events", f(sum.events));
    m.insert("gpu.events_global", f(sum.events_global));
    m.insert("gpu.events_local", f(sum.events_local));
    m.insert("gpu.sim_cycles", f(sum.cycles));
    m.insert("mem.l1_accesses", f(sum.l1));
    m.insert("mem.l2_accesses", f(sum.l2));
    m.insert("mem.dram_accesses", f(sum.dram));
    m.insert("mem.mshr_stalls", f(sum.mshr_stalls));
    m.insert("mem.accesses_per_event", f(sum.l1) / f(sum.events.max(1)));
    m.insert("gmu.child_kernels", f(sum.child_kernels));
    m.insert("gmu.max_pending_kernels", f(sum.max_pending));
    m.insert("core.launch_requests", f(sum.launch_requests));
    m.insert("core.inlined_requests", f(sum.inlined_requests));
    m.insert("core.ccqs_est_over_actual_p50", median(&st.ccqs_ratios));
    m.insert("artifact.bytes", bytes as f64);
}

/// Total simulated events of one pass (for the per-event loop time).
pub fn events_per_pass(st: &SimState) -> u64 {
    st.first.iter().flatten().map(|o| o.counts.events).sum()
}
