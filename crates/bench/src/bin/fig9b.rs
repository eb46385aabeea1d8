//! Fig. 9(b): operation benchmarks — execution time of Trill, NumLib,
//! and LifeStream on the Table 3 operations over a 500 Hz ECG signal.
//!
//! Paper (seconds, 126 M events): Normalize 41.3/10.7/8.0,
//! PassFilter 76.0/8.9/15.2, FillConst 55.2/6.8/9.6,
//! FillMean 145.0/7.6/13.6, Resample 183.1/8.4/16.3
//! (Trill/NumLib/LifeStream).

use lifestream::engine::{LifeStreamEngine, NumLibEngine, TrillEngine};
use lifestream_bench::*;

fn main() {
    let minutes = scaled_minutes(100);
    println!("Fig. 9(b) — operation benchmarks ({minutes} min ECG @ 500 Hz)\n");
    let data = ecg_500hz(minutes, 3);
    println!("events: {}\n", data.present_events());

    let mut t = Table::new(&[
        "operation",
        "Trill (s)",
        "NumLib (s)",
        "LifeStream (s)",
        "LS vs Trill",
        "LS vs NumLib",
    ]);
    for op in Operation::all() {
        let w = op.workload(data.shape().period());
        let (_, tr) = time(|| run(&TrillEngine, &w, &[&data], minute_rounds()));
        let (_, nl) = time(|| run(&NumLibEngine, &w, &[&data], minute_rounds()));
        let (_, ls) = time(|| run(&LifeStreamEngine, &w, &[&data], minute_rounds()));
        t.row(&[
            op.name().into(),
            format!("{tr:.2}"),
            format!("{nl:.2}"),
            format!("{ls:.2}"),
            format!("{:.2}x", tr / ls),
            format!("{:.2}x", nl / ls),
        ]);
    }
    println!("{}", t.render());
    println!("paper: LifeStream 5–11.2x faster than Trill; within ~50% of NumLib");
    println!("       (1.35x faster on Normalize; ~2x slower on the fills)");
}
