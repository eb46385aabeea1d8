//! Fig. 10(c): multi-core scaling — throughput of the end-to-end pipeline
//! as worker threads grow, patients partitioned across workers.
//!
//! The LifeStream arm runs on the sharded multi-patient runtime
//! (`cluster_harness::sharded`): long-lived shard workers with pooled,
//! recycled executors, so the curve measures the service's steady state
//! rather than a compile-per-patient loop.
//!
//! Paper (32-core m5a.8xlarge): LifeStream scales to 32 threads; Trill
//! OOMs beyond 12; NumLib saturates around 24 threads at 44% below
//! LifeStream's peak.

use lifestream::engine::{NumLibEngine, TrillEngine};
use lifestream_bench::multicore::{run_baseline, run_lifestream, PatientWorkload, ScalePoint};
use lifestream_bench::{knobs, scaled_minutes, Table};

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let minutes = scaled_minutes(10);
    let patients = (cores * 4).max(16);
    println!(
        "Fig. 10(c) — multi-core scaling ({patients} patients x {minutes} min, {cores} cores)\n"
    );
    let workload = PatientWorkload::synthesize(patients, minutes, 77);
    println!(
        "total events: {:.1}M\n",
        workload.total_events() as f64 / 1e6
    );

    // Machine memory budget, shared by the workers (paper machine: 128 GB;
    // we scale to the workload so Trill's failure point is visible).
    let budget = knobs().mem_budget;

    let mut threads = vec![1usize, 2, 4];
    let mut n = 8;
    while n <= cores * 2 {
        threads.push(n);
        n *= 2;
    }

    let mut t = Table::new(&["threads", "LifeStream Mev/s", "Trill Mev/s", "NumLib Mev/s"]);
    for &th in &threads {
        let ls = run_lifestream(&workload, th, budget);
        let tr = run_baseline(&TrillEngine, &workload, th, budget);
        let nl = run_baseline(&NumLibEngine, &workload, th, budget);
        let cell = |p: &ScalePoint| {
            if p.oom {
                "OOM".to_string()
            } else {
                format!("{:.2}", p.mev_per_s)
            }
        };
        t.row(&[th.to_string(), cell(&ls), cell(&tr), cell(&nl)]);
    }
    println!("{}", t.render());
    println!("paper: LS scales to 32 threads; Trill OOM >12; NumLib saturates ~24");
    println!("note : thread counts beyond this host's {cores} cores oversubscribe");
}
