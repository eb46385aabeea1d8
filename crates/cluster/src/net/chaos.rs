//! Deterministic fault injection for the cluster transport.
//!
//! [`ChaosProxy`] is an in-process TCP proxy that sits between a
//! [`RemoteIngest`](super::RemoteIngest) client and a
//! [`ShardServer`](super::ShardServer), forwarding the length-prefixed
//! frame stream while injecting exactly one fault per connection at a
//! seed-chosen *frame boundary*:
//!
//! - [`Fault::Sever`] — both sides of the pair are shut down, so the
//!   client sees a reset/EOF and redials (through the proxy again).
//! - [`Fault::BlackHole`] — client frames are silently swallowed from
//!   that boundary on; the client's read timeout eventually classifies
//!   the stall as a lost connection and it redials.
//! - [`Fault::Delay`] — forwarding pauses for the given number of
//!   milliseconds, then resumes; no reconnect needed unless the
//!   client's read timeout fires first.
//!
//! Faults are drawn from a [`FaultPlan`] with a `splitmix64` stream
//! keyed by `(seed, connection index)`, and connections are accepted
//! serially per client, so a given seed always produces the same fault
//! schedule — the property the fault-equivalence battery relies on to
//! assert that *any* schedule yields output byte-identical to the
//! fault-free run.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use super::wire::{read_frame, write_frame};
use crate::sharded::{splitmix64, GOLDEN_GAMMA};

/// One injectable connection fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Shut down both sockets of the pair at the frame boundary.
    Sever,
    /// Pause forwarding for this many milliseconds, then resume.
    Delay(u64),
    /// Swallow every client frame from the boundary on, acking nothing.
    BlackHole,
}

/// A deterministic fault schedule: which faults may fire and inside
/// which client-frame window each connection's single fault lands.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the per-connection `splitmix64` draws.
    pub seed: u64,
    /// Earliest client frame index (0-based) a fault may follow.
    pub min_frame: u64,
    /// Fault frame indices are drawn in `[min_frame, max_frame)`.
    pub max_frame: u64,
    /// Fault palette drawn from uniformly; empty means fault-free
    /// (pure pass-through) forwarding.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan that severs every connection somewhere in the window.
    pub fn sever(seed: u64, min_frame: u64, max_frame: u64) -> Self {
        Self {
            seed,
            min_frame,
            max_frame,
            faults: vec![Fault::Sever],
        }
    }

    /// A pass-through plan that never injects anything.
    pub fn none() -> Self {
        Self {
            seed: 0,
            min_frame: 0,
            max_frame: 1,
            faults: Vec::new(),
        }
    }

    fn draw(&self, conn_index: u64) -> Option<(u64, Fault)> {
        if self.faults.is_empty() {
            return None;
        }
        // The first two outputs of the splitmix64 stream whose state
        // starts at `x`.
        let x = self
            .seed
            .wrapping_mul(GOLDEN_GAMMA)
            .wrapping_add(conn_index.wrapping_add(1));
        let span = self.max_frame.saturating_sub(self.min_frame).max(1);
        let at = self.min_frame + splitmix64(x) % span;
        let pick = splitmix64(x.wrapping_add(GOLDEN_GAMMA)) % self.faults.len() as u64;
        let fault = self.faults[pick as usize];
        Some((at, fault))
    }
}

/// An in-process fault-injecting TCP proxy (see the module docs).
///
/// Accepts any number of consecutive connections — each reconnect from
/// a resuming client gets its own fault draw — and forwards to a fixed
/// upstream address. [`shutdown`](Self::shutdown) severs everything and
/// joins the worker threads.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    faults_injected: Arc<AtomicU64>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts proxying to `upstream`.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let faults_injected = Arc::new(AtomicU64::new(0));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let stop = Arc::clone(&stop);
            let hits = Arc::clone(&faults_injected);
            let conns = Arc::clone(&conns);
            let pumps = Arc::clone(&pumps);
            thread::spawn(move || {
                for (index, client) in (0u64..).zip(listener.incoming()) {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { break };
                    // A redial supersedes the previous connection: sever
                    // whatever is still pumping so exactly one pair is
                    // live, like a real peer whose old socket is gone.
                    sever_all(&conns);
                    let Ok(server) = TcpStream::connect(upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    let clones = [client.try_clone(), server.try_clone()];
                    conns
                        .lock()
                        .expect("chaos conns")
                        .extend(clones.into_iter().flatten());
                    let fault = plan.draw(index);
                    let from = client.try_clone().expect("clone client");
                    let to = server.try_clone().expect("clone server");
                    let pump_hits = Arc::clone(&hits);
                    let c2s = thread::spawn(move || pump_frames(from, to, fault, &pump_hits));
                    let s2c = thread::spawn(move || pump_raw(server, client));
                    pumps.lock().expect("chaos pumps").extend([c2s, s2c]);
                }
            })
        };

        Ok(Self {
            addr,
            stop,
            faults_injected,
            conns,
            accept: Some(accept),
            pumps,
        })
    }

    /// The proxy's listen address — dial this instead of the upstream.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Faults actually fired so far (a connection that ends before its
    /// drawn frame index never fires its fault).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::SeqCst)
    }

    /// Severs every live pair, stops accepting, and joins the workers.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        sever_all(&self.conns);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let pumps = std::mem::take(&mut *self.pumps.lock().expect("chaos pumps"));
        for h in pumps {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_all();
        }
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .field("faults_injected", &self.faults_injected())
            .finish()
    }
}

/// Shuts down every held socket (both directions) and forgets it.
fn sever_all(conns: &Mutex<Vec<TcpStream>>) {
    for c in conns.lock().expect("chaos conns").drain(..) {
        let _ = c.shutdown(Shutdown::Both);
    }
}

/// Client-to-server pump: forwards whole frames so the fault lands on a
/// frame boundary, never mid-frame on the *upstream* side (mid-frame
/// loss toward the client is exercised by severing the other pump).
fn pump_frames(
    mut from: TcpStream,
    mut to: TcpStream,
    fault: Option<(u64, Fault)>,
    hits: &AtomicU64,
) {
    let mut frame_index = 0u64;
    let mut swallow = false;
    let mut frame = Vec::new();
    while let Ok(Some(payload)) = read_frame(&mut from) {
        if let Some((at, f)) = fault {
            if frame_index == at {
                hits.fetch_add(1, Ordering::SeqCst);
                match f {
                    Fault::Sever => {
                        let _ = from.shutdown(Shutdown::Both);
                        let _ = to.shutdown(Shutdown::Both);
                        return;
                    }
                    Fault::Delay(ms) => thread::sleep(Duration::from_millis(ms)),
                    Fault::BlackHole => swallow = true,
                }
            }
        }
        frame_index += 1;
        if swallow {
            continue;
        }
        // One write of prefix + payload, so the upstream byte stream
        // keeps the client's frame shape.
        frame.clear();
        if write_frame(&mut frame, &payload).is_err() || to.write_all(&frame).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Server-to-client pump: a raw byte copy — replies need no frame
/// awareness because faults are only scheduled on client frames.
fn pump_raw(mut from: TcpStream, mut to: TcpStream) {
    let _ = io::copy(&mut from, &mut to);
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
