//! The fault-tolerant cluster fabric, end to end on loopback TCP.
//!
//! Two scenarios, both asserted against a fault-free in-process
//! reference run of the same feed:
//!
//! 1. **Chaos** — both machines sit behind a deterministic
//!    fault-injection proxy ([`chaos::ChaosProxy`]) that severs the
//!    connection at seed-chosen frame boundaries. The client's
//!    reconnect-with-resume protocol replays its un-acked window and the
//!    server dedups it, so the output is byte-identical to the
//!    fault-free run even though the TCP sessions died mid-stream, and
//!    each machine that had to reconnect reports `Degraded`.
//! 2. **Hard kill** — one of two machines is killed outright mid-feed.
//!    The router fails its patients over to the survivor from bounded
//!    client-side replay tails; every patient stays live, output at or
//!    above the failover frontier is byte-identical to the reference,
//!    and the health surface records exactly one machine down and zero
//!    patients lost.
//!
//! The assertions make this example double as CI's fault-injection
//! smoke. When `LS_JSON_OUT` is set, the run's health counters are also
//! written there as JSON so CI can archive them as an artifact.
//!
//! Run with `cargo run --release --example cluster_failover`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use lifestream::cluster::machines::MachineState;
use lifestream::cluster::net::chaos::{ChaosProxy, FaultPlan};
use lifestream::cluster::net::{ClusterHealth, ClusterIngest, RemoteConfig, ShardServer};
use lifestream::cluster::sharded::{Ingest, IngestConfig, LiveIngest, PipelineFactory};
use lifestream::core::exec::OutputCollector;
use lifestream::core::prelude::*;

const ROUND: Tick = 1_000;
const PERIOD: Tick = 2;
const SAMPLES: i64 = 4_000;
const PATIENTS: [u64; 4] = [3, 8, 21, 34];
const POLL_EVERY: i64 = ROUND / PERIOD;

/// A margin-bearing pipeline so reconnect and failover both have real
/// kernel state (aggregate ring) and a real history margin to rebuild.
fn factory() -> PipelineFactory {
    Arc::new(|| {
        let q = Query::new();
        q.source("sig", StreamShape::new(0, PERIOD))
            .select(1, |i, o| o[0] = i[0] * 0.25 + 1.0)?
            .aggregate(AggKind::Mean, 50 * PERIOD, 5 * PERIOD)?
            .sink();
        q.compile()
    })
}

/// One patient's monitor waveform.
fn wave(k: i64, p: u64) -> f32 {
    (((k * 37 + p as i64 * 101) % 997) as f32) / 7.0
}

/// Feed `[from, to)` through an ingest front end, polling as it goes.
fn feed(ingest: &dyn Ingest, from: i64, to: i64) {
    for k in from..to {
        for &p in &PATIENTS {
            ingest.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % POLL_EVERY == 0 {
            ingest.poll();
        }
    }
}

fn fingerprint(out: &OutputCollector) -> (usize, u64) {
    (out.len(), out.checksum())
}

/// The rows of a collector at or above `from` — what a failover is
/// required to preserve.
fn suffix_of(out: &OutputCollector, from: Tick) -> OutputCollector {
    out.clipped(from, Tick::MAX)
}

/// Fault-free reference: the same feed through an in-process ingest.
fn reference() -> Vec<OutputCollector> {
    let local = LiveIngest::with_config(factory(), IngestConfig::new(2, ROUND).batch(128));
    for &p in &PATIENTS {
        local.admit(p).expect("admit");
    }
    feed(&local, 0, SAMPLES);
    let out = PATIENTS
        .iter()
        .map(|&p| local.finish(p).expect("finish"))
        .collect();
    local.shutdown();
    out
}

fn main() {
    let reference_out = reference();
    let expect: Vec<(usize, u64)> = reference_out.iter().map(fingerprint).collect();

    // ---------------------------------------------------------------
    // 1. Chaos: both machines behind a severing proxy. The sessions
    //    die repeatedly; the output must not notice.
    // ---------------------------------------------------------------
    let server_a = ShardServer::bind(factory(), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind machine A");
    let server_b = ShardServer::bind(factory(), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind machine B");
    let proxy_a =
        ChaosProxy::spawn(server_a.local_addr(), FaultPlan::sever(0xFA11, 3, 40)).expect("proxy A");
    let proxy_b =
        ChaosProxy::spawn(server_b.local_addr(), FaultPlan::sever(0x5EED, 3, 40)).expect("proxy B");
    let cluster = ClusterIngest::connect(
        &[proxy_a.local_addr(), proxy_b.local_addr()],
        RemoteConfig::default()
            .batch(64)
            .window(8)
            .retries(10)
            .backoff(Duration::from_millis(2), Duration::from_millis(20)),
    )
    .expect("connect through chaos");

    for &p in &PATIENTS {
        cluster.admit(p).expect("admit");
    }
    feed(&cluster, 0, SAMPLES);
    let over_chaos: Vec<(usize, u64)> = PATIENTS
        .iter()
        .map(|&p| fingerprint(&cluster.finish(p).expect("finish")))
        .collect();
    let chaos_health = cluster.health();
    let chaos_injected = proxy_a.faults_injected() + proxy_b.faults_injected();
    cluster.shutdown();
    proxy_a.shutdown();
    proxy_b.shutdown();
    server_a.shutdown();
    server_b.shutdown();

    assert_eq!(
        over_chaos, expect,
        "severed-and-resumed output diverged from the fault-free run"
    );
    assert!(chaos_injected > 0, "the chaos schedule must actually fire");
    assert!(
        chaos_health.reconnects > 0,
        "a sever must force at least one resume"
    );
    assert_eq!(chaos_health.patients_lost, 0);
    // A machine that has had to reconnect reads `Degraded` (still
    // routable, but one to watch); every other machine reads `Up`.
    for m in &chaos_health.machines {
        let reconnected = m.remote.reconnects > 0;
        match m.state {
            MachineState::Degraded => assert!(reconnected, "{m:?}"),
            _ => assert!(m.state == MachineState::Up && !reconnected, "{m:?}"),
        }
    }
    println!(
        "chaos: {} faults injected, {} reconnects, {} frames replayed — \
         output byte-identical to the fault-free run",
        chaos_injected, chaos_health.reconnects, chaos_health.frames_replayed
    );

    // ---------------------------------------------------------------
    // 2. Hard kill: machine A dies mid-feed. Its patients must land on
    //    machine B with the suffix of their output intact.
    // ---------------------------------------------------------------
    let server_a = ShardServer::bind(factory(), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind machine A");
    let server_b = ShardServer::bind(factory(), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind machine B");
    let cluster = ClusterIngest::connect(
        &[server_a.local_addr(), server_b.local_addr()],
        RemoteConfig::default()
            .batch(64)
            .window(8)
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(5)),
    )
    .expect("connect cluster");

    for &p in &PATIENTS {
        cluster.admit(p).expect("admit");
    }
    let on_a: Vec<u64> = PATIENTS
        .iter()
        .copied()
        .filter(|&p| cluster.machine_of(p) == 0)
        .collect();
    assert!(
        !on_a.is_empty() && on_a.len() < PATIENTS.len(),
        "both machines must own someone for the kill to mean anything"
    );

    let cut = SAMPLES / 2;
    feed(&cluster, 0, cut);
    cluster.poll();
    cluster.barrier().expect("barrier");
    let frontier = ((cut * PERIOD) / ROUND) * ROUND;

    server_a.kill();
    println!(
        "killed machine A at t={} (failover frontier {frontier}); patients {:?} must fail over",
        cut * PERIOD,
        on_a
    );
    feed(&cluster, cut, SAMPLES);

    for (i, &p) in PATIENTS.iter().enumerate() {
        let out = cluster.finish(p).expect("patient lost in failover");
        if on_a.contains(&p) {
            let want = suffix_of(&reference_out[i], frontier);
            assert_eq!(
                fingerprint(&out),
                fingerprint(&want),
                "patient {p} suffix diverged after failover"
            );
            println!(
                "  patient {p:>2}: failed over, {} rows ≥ frontier identical",
                out.len()
            );
        } else {
            assert_eq!(
                fingerprint(&out),
                expect[i],
                "patient {p} on the survivor must be untouched"
            );
            println!("  patient {p:>2}: untouched, full byte-identity");
        }
    }

    let kill_health = cluster.health();
    assert_eq!(kill_health.machines[0].state, MachineState::Down);
    assert_ne!(kill_health.machines[1].state, MachineState::Down);
    assert!(kill_health.failovers >= 1);
    assert_eq!(kill_health.patients_failed_over, on_a.len() as u64);
    assert_eq!(kill_health.patients_lost, 0);
    println!(
        "hard kill: {} failover(s), {} patient(s) re-admitted on the survivor, {} lost",
        kill_health.failovers, kill_health.patients_failed_over, kill_health.patients_lost
    );

    cluster.shutdown();
    server_b.shutdown();

    // ---------------------------------------------------------------
    // Health counters as a CI artifact.
    // ---------------------------------------------------------------
    let json = render_json(&chaos_health, chaos_injected, &kill_health);
    println!("\n{json}");
    if let Ok(path) = std::env::var("LS_JSON_OUT") {
        std::fs::write(&path, &json).expect("write JSON output");
        println!("wrote {path}");
    }
    println!("fault-tolerant fabric verified: chaos-transparent and kill-survivable. done.");
}

fn render_json(chaos: &ClusterHealth, chaos_injected: u64, kill: &ClusterHealth) -> String {
    let states = |h: &ClusterHealth| -> String {
        let mut s = String::from("[");
        for (i, m) in h.machines.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{:?}\"", m.state);
        }
        s.push(']');
        s
    };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"example\": \"cluster_failover\",");
    let _ = writeln!(json, "  \"patients\": {},", PATIENTS.len());
    let _ = writeln!(json, "  \"samples_per_patient\": {SAMPLES},");
    let _ = writeln!(json, "  \"chaos\": {{");
    let _ = writeln!(json, "    \"faults_injected\": {chaos_injected},");
    let _ = writeln!(json, "    \"reconnects\": {},", chaos.reconnects);
    let _ = writeln!(json, "    \"frames_replayed\": {},", chaos.frames_replayed);
    let _ = writeln!(json, "    \"machine_states\": {},", states(chaos));
    let _ = writeln!(json, "    \"patients_lost\": {}", chaos.patients_lost);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"hard_kill\": {{");
    let _ = writeln!(json, "    \"failovers\": {},", kill.failovers);
    let _ = writeln!(
        json,
        "    \"patients_failed_over\": {},",
        kill.patients_failed_over
    );
    let _ = writeln!(json, "    \"patients_lost\": {},", kill.patients_lost);
    let _ = writeln!(json, "    \"machine_states\": {}", states(kill));
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    json
}
