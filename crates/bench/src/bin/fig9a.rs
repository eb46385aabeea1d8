//! Fig. 9(a): primitive micro-benchmarks — execution time of Trill vs.
//! LifeStream on Select, Where, Aggregate, Chop, ClipJoin, Join over the
//! synthetic 1000 Hz dataset.
//!
//! Paper (seconds, 1000 min @ 1000 Hz): Select 1.12/1.29,
//! Where 4.36/4.58, Aggregate 4.04/1.85, Chop 3.94/1.98,
//! ClipJoin 11.77/2.20, Join 20.15/3.03 (Trill/LifeStream).

use lifestream::engine::{LifeStreamEngine, TrillEngine};
use lifestream_bench::*;

fn main() {
    let minutes = scaled_minutes(100);
    println!("Fig. 9(a) — primitive micro-benchmarks ({minutes} min @ 1000 Hz)\n");
    let data = synthetic_1khz(minutes, 1);
    let side_join = synthetic_500hz(minutes, 2);

    let mut t = Table::new(&["primitive", "Trill (s)", "LifeStream (s)", "speedup"]);
    for p in Primitive::all() {
        let w = p.workload();
        let inputs = &[&data, &side_join][..w.arity()];
        let (_, tr) = time(|| run(&TrillEngine, &w, inputs, minute_rounds()));
        let (_, ls) = time(|| run(&LifeStreamEngine, &w, inputs, minute_rounds()));
        t.row(&[
            p.name().into(),
            format!("{tr:.2}"),
            format!("{ls:.2}"),
            format!("{:.2}x", tr / ls),
        ]);
    }
    println!("{}", t.render());
    println!("paper speedups: Select ~0.9x, Where ~0.95x, Aggregate 2.17x,");
    println!("                Chop 1.98x, ClipJoin 5.34x, Join 6.65x");
}
