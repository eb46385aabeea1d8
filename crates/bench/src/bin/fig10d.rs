//! Fig. 10(d): multi-machine scaling — aggregate throughput up to 16
//! machines, extrapolated from the measured single-machine peak via the
//! cluster model (substitution documented in DESIGN.md).
//!
//! Paper: LifeStream 473.66 M ev/s on 16 machines — 8.38× Trill's peak
//! and 1.73× NumLib's.

use lifestream::engine::{NumLibEngine, TrillEngine};
use lifestream_bench::machines::ClusterModel;
use lifestream_bench::multicore::{run_baseline, run_lifestream, PatientWorkload, ScalePoint};
use lifestream_bench::{scaled_minutes, Table};

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let minutes = scaled_minutes(5);
    let patients = (cores * 4).max(16);
    println!("Fig. 10(d) — multi-machine scaling (modelled from measured single-machine peaks)\n");
    let workload = PatientWorkload::synthesize(patients, minutes, 99);
    let budget: usize = 512 << 20;

    // Measure each engine's single-machine peak at its best thread count
    // (the paper uses 12 / 24 / 32 for Trill / NumLib / LifeStream).
    let peak = |arm: &dyn Fn(usize) -> ScalePoint| -> f64 {
        let mut best = 0.0f64;
        for th in [1, 2, 4, cores.min(8), cores] {
            let p = arm(th);
            if !p.oom {
                best = best.max(p.mev_per_s);
            }
        }
        best
    };
    let ls_peak = peak(&|th| run_lifestream(&workload, th, budget));
    let tr_peak = peak(&|th| run_baseline(&TrillEngine, &workload, th, budget));
    let nl_peak = peak(&|th| run_baseline(&NumLibEngine, &workload, th, budget));
    println!(
        "single-machine peaks (Mev/s): lifestream {ls_peak:.2}, trill {tr_peak:.2}, numlib {nl_peak:.2}\n"
    );

    let model = ClusterModel::default();
    let mut t = Table::new(&[
        "machines",
        "LifeStream Mev/s",
        "Trill Mev/s",
        "NumLib Mev/s",
    ]);
    for n in [1usize, 2, 4, 8, 12, 16] {
        t.row(&[
            n.to_string(),
            format!("{:.1}", model.extrapolate(ls_peak, n).mev_per_s),
            format!("{:.1}", model.extrapolate(tr_peak, n).mev_per_s),
            format!("{:.1}", model.extrapolate(nl_peak, n).mev_per_s),
        ]);
    }
    println!("{}", t.render());
    let f = model.extrapolate(ls_peak, 16);
    println!(
        "16-machine LifeStream: {:.1} Mev/s ({:.2}x Trill, {:.2}x NumLib)",
        f.mev_per_s,
        f.mev_per_s / model.extrapolate(tr_peak, 16).mev_per_s,
        f.mev_per_s / model.extrapolate(nl_peak, 16).mev_per_s
    );
    println!("paper: 473.66 Mev/s on 16 machines, 8.38x Trill, 1.73x NumLib");
}
