//! Fig. 2: distribution of ECG and ABP data collected from one monitor
//! over six months — rendered as an ASCII day-by-day coverage map from
//! the synthetic gap model.

use lifestream_signal::gaps::{daily_coverage, GapModel};

const DAY: i64 = 86_400_000;

fn shade(f: f64) -> char {
    match f {
        f if f <= 0.01 => ' ',
        f if f < 0.25 => '.',
        f if f < 0.5 => ':',
        f if f < 0.75 => '+',
        _ => '#',
    }
}

fn main() {
    // The coverage map has a fixed size, but a malformed bench knob must
    // still stop this bin like every other one.
    lifestream_bench::knobs();
    let months = 6usize;
    let span = months as i64 * 30 * DAY;
    let ecg = GapModel::icu_default().generate(span, 2019);
    let abp = GapModel::icu_default().generate(span, 2020);

    println!("Fig. 2 — day-by-day data coverage over {months} months (synthetic gap model)");
    println!("legend: '#'>=75%  '+'>=50%  ':'>=25%  '.'<25%  ' ' none\n");
    for (name, map) in [("ECG 500 Hz", &ecg), ("ABP 125 Hz", &abp)] {
        println!("{name}");
        let cov = daily_coverage(map, span, DAY);
        for m in 0..months {
            let row: String = (0..30).map(|d| shade(cov[m * 30 + d])).collect();
            println!("  month {} |{}|", m + 1, row);
        }
        let total = map.coverage_fraction(0, span);
        println!("  overall coverage: {:.1}%\n", total * 100.0);
    }
    let inter = ecg.intersect(&abp);
    println!(
        "mutual overlap: {:.1}% of the span ({:.1}% of ECG coverage)",
        inter.covered_ticks() as f64 / span as f64 * 100.0,
        inter.covered_ticks() as f64 / ecg.covered_ticks() as f64 * 100.0
    );
    println!("\npaper: bursty multi-hour outages, whole days missing, partial mutual overlap");
}
