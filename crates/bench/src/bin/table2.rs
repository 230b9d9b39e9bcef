//! Table II: the simulated GPU configuration.

use dynapar_bench::Options;

fn main() {
    let cfg = Options::from_args().unwrap_or_else(|e| e.exit()).config();
    println!("# Table II — GPU configuration (Tesla K20m-like)");
    println!("SMXs                      : {}", cfg.smx_count);
    println!("warp size                 : {}", cfg.warp_size);
    println!("max threads / SMX         : {}", cfg.max_threads_per_smx);
    println!("max warps / SMX           : {}", cfg.max_warps_per_smx());
    println!("max CTAs / SMX            : {}", cfg.max_ctas_per_smx);
    println!("registers / SMX           : {}", cfg.regs_per_smx);
    println!(
        "shared memory / SMX       : {} KB",
        cfg.shmem_per_smx / 1024
    );
    println!(
        "issue width               : {} (dual warp scheduler)",
        cfg.issue_width
    );
    println!("warp scheduler            : {:?}", cfg.scheduler);
    println!("loop MLP depth            : {}", cfg.mlp_depth);
    println!("hardware work queues      : {}", cfg.num_hwqs);
    println!("max concurrent CTAs       : {}", cfg.max_concurrent_ctas());
    println!("pending kernel pool       : {}", cfg.pending_pool_cap);
    println!("stream policy             : {:?}", cfg.stream_policy);
    println!(
        "launch overhead           : {}*x + {} cycles (x = launches per warp)",
        cfg.launch.a, cfg.launch.b
    );
    println!(
        "device API call           : {} cycles",
        cfg.launch.api_call_cycles
    );
    println!(
        "HWQ turnaround            : {} cycles",
        cfg.launch.hwq_turnaround_cycles
    );
    println!(
        "DTBL per-CTA push         : {} cycles",
        cfg.launch.dtbl_per_cta_cycles
    );
    let m = &cfg.mem;
    println!(
        "L1D / SMX                 : {} KB, {}-way, {} B lines, {}cy hit",
        m.l1_bytes / 1024,
        m.l1_ways,
        m.line_bytes,
        m.l1_hit_latency
    );
    println!(
        "L2                        : {} x {} KB partitions, {}-way, {}cy hit",
        m.l2_partitions,
        m.l2_partition_bytes / 1024,
        m.l2_ways,
        m.l2_hit_latency
    );
    println!("interconnect              : {}cy each way", m.xbar_latency);
    println!(
        "DRAM                      : {} MCs, {} banks/ch, row hit/miss {}/{}cy",
        m.memory_controllers,
        m.dram_banks_per_channel,
        m.dram_row_hit_latency,
        m.dram_row_miss_latency
    );
}
