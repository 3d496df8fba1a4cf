//! Reproduction driver: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! repro --all             # config, Table 1, figures, ablations, plan sweep, speedup matrix
//! repro --figure 5        # one figure (2, 5, 6, 7, 8, 9, 10, 11, 12) and its winner map
//! repro --table 1         # Table 1
//! repro --ablation        # ablations A–F
//! repro --config          # print the simulator configuration (Table 2 stand-in)
//! repro --breakdown       # per-collection write/read attribution for one SegS run
//! repro --plan            # plan-level concordance sweep (planner over Fig. 12), DoP 1
//! repro --parallel        # speedup matrix; writes the BENCH_parallel.json summary
//! repro --wall-gap-smoke  # GJ/HJ/ExMS wall-vs-critical-path gap (host-tolerant floor)
//! repro --profile         # span-tree profile (DoP 1 vs 4); writes BENCH_profile.json
//! repro --skew            # Zipf-star adaptive-vs-static sweep (counters, cut, τ)
//! WL_SCALE=quick repro --all   # WL_SCALE: quick, default (unset) or paper
//! WL_THREADS=4 repro ...       # degree of parallelism for every scenario
//! ```
//!
//! Table 1, the figures, the ablations, the plan sweep and the skew
//! stars are rendered as text by the library, and
//! `tests/golden/paper_figures.out` pins that text.

use wl_bench::{ablation, figures, parallel, plan, profile, skew, Scale};

fn print_config() {
    let cfg = pmem_sim::DeviceConfig::paper_default();
    println!("=== Simulator configuration (stands in for the paper's Table 2) ===");
    println!("read latency      {} ns per cacheline", cfg.latency.read_ns);
    println!(
        "write latency     {} ns per cacheline",
        cfg.latency.write_ns
    );
    println!("lambda (w/r)      {}", cfg.latency.lambda());
    println!("cacheline         {} bytes", pmem_sim::CACHELINE);
    println!("collection block  {} bytes", cfg.block_size);
    println!("PMFS call cost    {} ns", cfg.pmfs_call_ns);
    println!("RAM-disk call cost {} ns", cfg.ramdisk_call_ns);
}

fn breakdown_demo(scale: &wl_bench::Scale) {
    use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
    use write_limited::sort::{segment_sort, SortContext};

    let dev = PmDevice::paper_default();
    dev.metrics().enable_breakdown();
    let input = PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "input",
        wisconsin::sort_input(scale.sort_n / 2, wisconsin::KeyOrder::Random, 42),
    );
    let pool = BufferPool::fraction_of(input.bytes(), 0.05);
    let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let out = segment_sort(&input, 0.5, &ctx, "sorted-output").expect("valid");
    println!(
        "=== Per-collection I/O of SegS 50% on {} records (cachelines) ===",
        out.len()
    );
    println!("{:<20} {:>12} {:>12}", "collection", "writes", "reads");
    for (name, stats) in dev.metrics().breakdown() {
        println!("{name:<20} {:>12} {:>12}", stats.cl_writes, stats.cl_reads);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env();
    let threads = write_limited::parallel::resolve_threads(None);
    eprintln!(
        "scale: sort_n={}, join |T|={}, fanout={}, threads={threads}",
        scale.sort_n, scale.join_t, scale.join_fanout,
    );

    match args.first().map(String::as_str) {
        Some("--all") | None => {
            print_config();
            print!("{}", wl_bench::evaluation(&scale, threads));
            parallel::parallel_speedup_cells(&scale, &[1, 2, 4, 8]);
        }
        Some("--figure") => {
            let n: u32 = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .expect("usage: repro --figure <n>");
            match figures::figure(n, &scale, threads) {
                Some(text) => print!("{text}"),
                None => eprintln!("no figure {n} in the paper's evaluation"),
            }
        }
        Some("--table") => print!("{}", figures::table1(&scale, threads)),
        Some("--ablation") => print!("{}", ablation::ablations(&scale, threads)),
        Some("--plan") => print!("{}", plan::plan_concordance(&scale)),
        Some("--parallel") => parallel::parallel_speedup(&scale, &[1, 2, 4, 8]),
        Some("--wall-gap-smoke") => parallel::wall_gap_smoke(&scale),
        Some("--profile") => profile::profile_to_file(&scale),
        Some("--skew") => print!("{}", skew::skew(&scale)),
        Some("--config") => print_config(),
        Some("--breakdown") => breakdown_demo(&scale),
        Some(other) => {
            eprintln!(
                "unknown flag {other}; see \
                 --all/--figure/--table/--ablation/--plan/--parallel/\
                 --wall-gap-smoke/--profile/--skew/--config/--breakdown"
            );
        }
    }
}
