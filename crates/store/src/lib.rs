//! Tiered history store: durable segments under a bounded live suffix.
//!
//! # Why a storage tier
//!
//! The live data plane keeps each patient's buffer *bounded*: once a round
//! is processed, [`LiveSession`](lifestream_core::live::LiveSession)
//! retires everything below `frontier - history_margin`. That bound is what
//! makes million-patient ingest possible — but without this crate the
//! retired prefix is simply dropped, so a live patient's past is
//! unrecoverable and a dead machine's history dies with it. The paper's
//! deployment story (§2: retrospective development, seamless live
//! deployment) wants the opposite: any prepared pipeline should be able to
//! run over any patient's *full* history while ingest continues.
//!
//! # Architecture: three tiers
//!
//! ```text
//!            push()                    retire_below()            flush()
//!  monitors ───────► live suffix ───────────────────► write buffer ────► segments
//!                    (in-memory,       RetiredSpan     (bounded,          (append-only,
//!                     O(round+margin))                  StoreConfig::      immutable,
//!                                                       flush_batch)      checksummed)
//!
//!  retrospective query:  HistoryReader::stitch(segments ∪ write buffer ∪ live suffix)
//!                        ──► SignalData ──► any compiled Executor
//! ```
//!
//! 1. **Live suffix** — the session's own compacting buffer, unchanged.
//!    It answers the *present*.
//! 2. **Recent tier** — [`SegmentStore`]'s in-memory write buffer. A
//!    [`RetireSink`] built by
//!    [`SharedStore::sink_for`] intercepts every compacted span; spans
//!    accumulate until [`StoreConfig::flush_batch`] samples are pending,
//!    then flush to a segment in one atomic write. `flush_batch = 0`
//!    flushes on every retirement (maximum durability, one file per
//!    compaction).
//! 3. **Segment tier** — immutable files in [`StoreConfig::dir`]
//!    ([`segment`] documents the golden-locked format). Readers validate
//!    checksums and never observe torn writes (tmp + rename).
//!
//! # The retrospective query surface
//!
//! [`HistoryReader`] runs the tiers in reverse: it stitches every durable
//! span (plus, optionally, a live
//! [`SessionSnapshot`](lifestream_core::live::SessionSnapshot) exported
//! from the running session) back into dense
//! [`SignalData`](lifestream_core::source::SignalData) — byte-identical input to what
//! a cold batch run over the original feed would have seen, so any
//! existing executor can answer a retrospective query mid-ingest.
//!
//! [`HistoryQuery`] is the one query description on top of that
//! machinery, shared by every front end (in-process, wire, cluster):
//!
//! ```text
//! HistoryQuery::new()
//!     .range(t0, t1)          // run over [t0, t1) instead of the full feed
//!     .patients([7, 9, 11])   // a cohort, each patient's history its own run
//!     .pipeline(compiled)     // any fluent-API pipeline, not just the live one
//! ```
//!
//! The same fluent [`Query`](lifestream_core::stream::Query) builder that
//! describes a live pipeline is the *only* logical-plan layer here too:
//! compile once, hand the [`CompiledQuery`](lifestream_core::query::CompiledQuery)
//! to [`HistoryQuery::pipeline`], and execution reconstructs inputs,
//! replays, and clips — there is no second retrospective dialect.
//!
//! # The read path: one scan per query
//!
//! Every read of the segment tier — a one-patient full history, a narrow
//! range, an eight-patient cohort, a cluster failover rebuilding a dead
//! machine's sessions — is one [`SharedStore::scan`] per pass of at most
//! [`SCAN_PASS_PATIENTS`] patients; [`HistoryReader`] only stitches the
//! records a scan returned. Failover scans from the lowest base its
//! client-side mirrors retain, since anything below it is retired:
//!
//! * **One listing, one pruning pass.** The directory is listed once.
//!   Every flushed segment advertises its tick coverage in its name
//!   (`seg-<writer>-<seq>-<min>-<max>.lss`), so the same pass over the
//!   names answers which files overlap the query's window and what the
//!   earliest retained tick is (the retention floor the range is
//!   validated against). Files written before the index existed simply
//!   count as overlapping.
//! * **Each overlapping file opened once, for all the pass's patients.**
//!   [`StoreStats::segments_skipped`] counts files a pass left unopened,
//!   [`StoreStats::segments_opened`] / [`StoreStats::bytes_read`] what it
//!   read — per pass, not per patient: a cohort of eight over a window
//!   of fifty files opens fifty files, not four hundred.
//!   [`CohortReport::scan_stats`] carries the same three numbers for one
//!   query.
//! * **Everything opened is checksummed; only what is wanted is
//!   materialised.** Every record of an opened file is CRC-checked and
//!   structurally validated, so a corrupt record fails the query whether
//!   or not the query wanted it. Sample and range vectors are allocated
//!   only for records of a wanted patient whose coverage overlaps the
//!   window ([`segment`] documents the decoder).
//! * **The lock covers the listing, not the reads.** A [`SharedStore`]
//!   is locked while the directory is listed and the matching unflushed
//!   spans are copied out of the write buffer — and released before the
//!   first file is opened. A scan of tens of milliseconds therefore
//!   stalls no shard's retire sink and no other scan. The price is that
//!   a listed file can be gone by the time it is opened (a compaction
//!   replaced it, retention expired it): the scan then restarts once
//!   from a fresh listing, and a second disappearance is an error.
//! * **Lineage-exact margins.** Operators look back (and, for forward
//!   windows, ahead) of the requested range; execution widens the read
//!   window by each source's
//!   [`history_margins`](lifestream_core::exec::Executor::history_margins)
//!   / [`future_margins`](lifestream_core::exec::Executor::future_margins)
//!   so the clipped output is byte-identical to the full-history run —
//!   pruning is an optimization, never a semantics change.
//! * **Compaction.** [`SegmentStore::compact`] merges many small
//!   segments into one, shrinking the file population that pruning and
//!   stitching walk. Reads before and after compaction are
//!   byte-identical (spans are immutable; overlaps are idempotent).
//!
//! # Durability and retention bounds
//!
//! * History below the compaction horizon survives process death **once
//!   flushed**: the loss window is exactly the unflushed write buffer, at
//!   most `flush_batch` samples per store. With `flush_batch = 0` the
//!   window is empty and a hard kill loses nothing below the horizon
//!   (the suffix above it is the cluster mirror's job).
//! * [`StoreConfig::retention`] bounds disk: on flush, segment files whose
//!   every span ends more than `retention` ticks below the newest spilled
//!   tick are deleted whole. Retention is a *coverage* promise — queries
//!   reach back exactly `retention` ticks from the spill frontier, older
//!   history is gone by design (a range wholly below the earliest
//!   retained tick is a typed [`HistoryError::BelowRetention`], not an
//!   empty result). `None` keeps everything.
//! * Multiple writers (e.g. two shard servers after a failover) may share
//!   one directory: file names embed a per-writer nonce, and overlapping
//!   spans re-spilled across a handoff carry identical samples, so
//!   stitching is idempotent — this is also what makes compaction safe to
//!   interrupt at any point.

#![warn(missing_docs)]
// The crates reachable from a socket or the disk never `unwrap`: a
// failure there is an error value, not a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// The store's one `unsafe` block, the call into the checksum kernel after
// CPU feature detection (`segment`), says why it is sound; every other
// library crate of the workspace forbids `unsafe` outright.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod query;
pub mod reader;
pub mod segment;

pub use query::{
    CohortReport, HistoryError, HistoryQuery, LiveOverlay, PipelineSpec, QueryFactory,
    SCAN_PASS_PATIENTS,
};
pub use reader::HistoryReader;
pub use segment::{SegmentRecord, SEGMENT_MAGIC, SEGMENT_VERSION};

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use lifestream_core::live::{RetireSink, RetiredSpan};
use lifestream_core::time::Tick;

/// Configuration for a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Present samples buffered in the recent tier before an automatic
    /// flush; `0` flushes on every spilled span.
    pub flush_batch: usize,
    /// Keep only segments whose spans end within this many ticks of the
    /// newest spilled tick; `None` keeps all history.
    pub retention: Option<Tick>,
}

impl StoreConfig {
    /// Config with a 4096-sample flush batch and unbounded retention.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            flush_batch: 4096,
            retention: None,
        }
    }

    /// Sets the flush batch (`0` = flush every spill).
    pub fn flush_batch(mut self, samples: usize) -> Self {
        self.flush_batch = samples;
        self
    }

    /// Sets the retention bound in ticks.
    pub fn retention(mut self, ticks: Tick) -> Self {
        self.retention = Some(ticks);
        self
    }
}

/// Counters describing a store's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Spans handed to the store by retire sinks.
    pub spilled_spans: u64,
    /// Present samples across those spans.
    pub spilled_samples: u64,
    /// Segment files written.
    pub segments_written: u64,
    /// Segment files deleted by retention pruning.
    pub segments_pruned: u64,
    /// Segment files scans skipped without opening, thanks to the
    /// file-name range index — once per [`SharedStore::scan`] pass,
    /// however many patients the pass served.
    pub segments_skipped: u64,
    /// Segment files scans opened, read and checksummed (same unit).
    pub segments_opened: u64,
    /// Bytes of segment file those opens read.
    pub bytes_read: u64,
    /// Segment files merged away by [`SegmentStore::compact`].
    pub segments_compacted: u64,
    /// Flushes performed (each writes at most one segment).
    pub flushes: u64,
    /// I/O failures (flush or prune); the failing spans stay buffered.
    pub io_errors: u64,
}

/// What one or more [`SharedStore::scan`] passes cost. A cohort query
/// sums its passes into [`CohortReport::scan_stats`]; the store sums every
/// pass into the [`StoreStats`] fields of the same names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Segment files opened, read and checksummed.
    pub segments_opened: u64,
    /// Segment files skipped unopened by the file-name range index.
    pub segments_skipped: u64,
    /// Bytes of segment file read.
    pub bytes_read: u64,
}

impl std::ops::AddAssign for ScanStats {
    fn add_assign(&mut self, rhs: Self) {
        self.segments_opened += rhs.segments_opened;
        self.segments_skipped += rhs.segments_skipped;
        self.bytes_read += rhs.bytes_read;
    }
}

/// The result of one [`SharedStore::scan`] pass.
#[derive(Debug, Default)]
pub struct Scan {
    /// One entry per patient asked for, in that order: its spans
    /// overlapping the window, oldest file first, unflushed spans last.
    pub records: Vec<Vec<SegmentRecord>>,
    /// The earliest tick any retained span covers — the whole store's,
    /// not the window's: the retention floor a range is validated against.
    pub earliest: Option<Tick>,
    /// What the pass cost.
    pub stats: ScanStats,
}

/// The half of a scan that needs the store: the directory listing pruned
/// by the name index, and the matching unflushed spans. Everything after
/// — opening, reading, checksumming, decoding — is [`ScanPlan::read`] and
/// touches only the file system, so a [`SharedStore`] runs it unlocked.
struct ScanPlan {
    patients: Vec<u64>,
    window: (Tick, Tick),
    /// Overlapping (or unindexed) files, oldest first.
    open: Vec<PathBuf>,
    /// Holds the plan's findings — skipped files, the earliest tick the
    /// names and the write buffer show, the unflushed spans per patient —
    /// and is completed by the read.
    scan: Scan,
}

fn see(earliest: &mut Option<Tick>, start: Tick) {
    *earliest = Some(earliest.map_or(start, |e| e.min(start)));
}

/// Where `patient` stands in a pass's patient list (a cohort may name a
/// patient twice; each mention gets the spans).
fn slots_of(patients: &[u64], patient: u64) -> impl Iterator<Item = usize> + '_ {
    (0..patients.len()).filter(move |&i| patients[i] == patient)
}

impl ScanPlan {
    fn read(self) -> io::Result<Scan> {
        let Self {
            patients,
            window: (t0, t1),
            open,
            mut scan,
        } = self;
        let pending = std::mem::replace(&mut scan.records, vec![Vec::new(); patients.len()]);
        let mut buf = Vec::new();
        for path in &open {
            segment::scan_segment_file(path, &mut buf, |view| {
                see(&mut scan.earliest, view.start_tick());
                if view.overlaps(t0, t1) {
                    for slot in slots_of(&patients, view.patient) {
                        scan.records[slot].push(view.to_record());
                    }
                }
            })?;
            scan.stats.segments_opened += 1;
            scan.stats.bytes_read += buf.len() as u64;
        }
        for (spans, unflushed) in scan.records.iter_mut().zip(pending) {
            spans.extend(unflushed);
        }
        Ok(scan)
    }
}

/// Runs a scan from a plan source, once more from a fresh plan when a
/// listed file is gone by the time it is opened: a concurrent compaction
/// or retention pass (this store's or another writer's in the directory)
/// replaced or expired it, and the new listing names whatever holds its
/// spans now. A second disappearance is the caller's error.
fn scan_relisting(plan: impl Fn() -> io::Result<ScanPlan>) -> io::Result<Scan> {
    match plan()?.read() {
        Err(e) if e.kind() == io::ErrorKind::NotFound => plan()?.read(),
        done => done,
    }
}

/// The durable tier: a bounded write buffer over append-only segments.
///
/// Not thread-safe by itself — wrap in [`SharedStore`] to share across
/// ingest shards.
#[derive(Debug)]
pub struct SegmentStore {
    cfg: StoreConfig,
    /// Per-writer nonce embedded in file names so concurrent writers
    /// (shard servers sharing a directory) never collide.
    writer: u64,
    next_seq: u64,
    pending: Vec<SegmentRecord>,
    pending_samples: usize,
    /// Newest tick ever spilled — the frontier retention prunes against.
    max_end: Tick,
    stats: StoreStats,
    last_error: Option<String>,
}

static WRITER_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Builds a segment file name carrying the range index: per-writer nonce,
/// per-writer sequence, then the records' combined `[min, max)` tick
/// coverage as fixed-width hex (i64 bit patterns, so negative ticks
/// round-trip). The range trails the sequence, keeping lexicographic
/// order == write order per writer, which a scan's oldest-file-first
/// records and so stitching (later spans win) rely on.
fn segment_name(writer: u64, seq: u64, records: &[SegmentRecord]) -> String {
    let lo = records
        .iter()
        .map(SegmentRecord::start_tick)
        .min()
        .unwrap_or(0);
    let hi = records
        .iter()
        .map(SegmentRecord::end_tick)
        .max()
        .unwrap_or(0);
    format!(
        "seg-{:016x}-{:08}-{:016x}-{:016x}.lss",
        writer, seq, lo as u64, hi as u64
    )
}

/// Recovers the `[min, max)` tick coverage a segment file advertises in
/// its name. `None` for pre-index names (`seg-<writer>-<seq>.lss`) or
/// anything else unrecognized — those files must be opened to learn what
/// they cover, so an unparseable name degrades to a read, never to a
/// wrong skip.
fn parse_segment_range(path: &std::path::Path) -> Option<(Tick, Tick)> {
    let stem = path.file_stem()?.to_str()?;
    let mut parts = stem.split('-');
    if parts.next()? != "seg" {
        return None;
    }
    let _writer = u64::from_str_radix(parts.next()?, 16).ok()?;
    let _seq: u64 = parts.next()?.parse().ok()?;
    let lo = u64::from_str_radix(parts.next()?, 16).ok()? as Tick;
    let hi = u64::from_str_radix(parts.next()?, 16).ok()? as Tick;
    if parts.next().is_some() || hi < lo {
        return None;
    }
    Some((lo, hi))
}

/// The most grid slots one spilled record holds. A record's payload is 48
/// fixed bytes, 4 bytes a value and 16 a presence range, and a piece of
/// `n` slots has at most `n` non-empty ranges, so `n` slots take at most
/// `48 + 20 n` bytes: within [`segment::MAX_RECORD`] at this bound.
const MAX_RECORD_SLOTS: usize = (segment::MAX_RECORD - 48) / 20;

/// `span` as `patient`'s records: one record when it fits in
/// [`MAX_RECORD_SLOTS`], else one a piece of that many slots, each with
/// the presence ranges clipped to its slots. A piece with no present
/// sample is dropped.
fn span_records(patient: u64, span: RetiredSpan) -> Vec<SegmentRecord> {
    let record = |base_slot, values, ranges| SegmentRecord {
        patient,
        source: span.source as u32,
        shape: span.shape,
        base_slot,
        values,
        ranges,
    };
    if span.values.len() <= MAX_RECORD_SLOTS {
        return vec![record(span.base_slot, span.values, span.ranges)];
    }
    let (offset, period) = (span.shape.offset(), span.shape.period());
    let mut records = Vec::new();
    for (k, values) in span.values.chunks(MAX_RECORD_SLOTS).enumerate() {
        let base_slot = span.base_slot + (k * MAX_RECORD_SLOTS) as u64;
        let lo = offset + base_slot as Tick * period;
        let hi = lo + values.len() as Tick * period;
        let ranges: Vec<_> = (span.ranges.iter())
            .filter_map(|&(s, e)| (s.max(lo) < e.min(hi)).then_some((s.max(lo), e.min(hi))))
            .collect();
        if !ranges.is_empty() {
            records.push(record(base_slot, values.to_vec(), ranges));
        }
    }
    records
}

fn writer_nonce() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let count = WRITER_COUNTER.fetch_add(1, Ordering::Relaxed);
    nanos ^ ((std::process::id() as u64) << 32) ^ count.rotate_left(17)
}

impl SegmentStore {
    /// Opens (creating if needed) a store over `cfg.dir`.
    ///
    /// # Errors
    /// Fails when the directory cannot be created.
    pub fn open(cfg: StoreConfig) -> io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        Ok(Self {
            cfg,
            writer: writer_nonce(),
            next_seq: 0,
            pending: Vec::new(),
            pending_samples: 0,
            max_end: Tick::MIN,
            stats: StoreStats::default(),
            last_error: None,
        })
    }

    /// Buffers one retired span; flushes automatically once
    /// [`StoreConfig::flush_batch`] present samples are pending. Flush
    /// failures are recorded ([`Self::last_error`], `io_errors`) rather
    /// than propagated — retire sinks have no error channel — and the
    /// spans stay buffered for the next attempt.
    ///
    /// A span of more than `MAX_RECORD_SLOTS` (about 3.36 M) slots is
    /// stored as several records, cut at slot boundaries, so that no
    /// record outgrows what the reader accepts ([`segment::MAX_RECORD`]).
    pub fn spill(&mut self, patient: u64, span: RetiredSpan) {
        self.stats.spilled_spans += 1;
        for record in span_records(patient, span) {
            let samples = record.present_samples();
            self.stats.spilled_samples += samples as u64;
            self.max_end = self.max_end.max(record.end_tick());
            self.pending.push(record);
            self.pending_samples += samples;
        }
        if self.pending_samples >= self.cfg.flush_batch.max(1) || self.cfg.flush_batch == 0 {
            if let Err(e) = self.flush() {
                self.stats.io_errors += 1;
                self.last_error = Some(e.to_string());
            }
        }
    }

    /// Writes all pending spans to one new segment, then applies the
    /// retention bound. No-op when nothing is pending.
    ///
    /// # Errors
    /// The pending buffer is left intact when the write fails.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let name = segment_name(self.writer, self.next_seq, &self.pending);
        segment::write_segment(&self.cfg.dir.join(name), &self.pending)?;
        self.next_seq += 1;
        self.pending.clear();
        self.pending_samples = 0;
        self.stats.segments_written += 1;
        self.stats.flushes += 1;
        self.prune();
        Ok(())
    }

    /// Deletes segment files wholly older than the retention window.
    fn prune(&mut self) {
        let Some(retention) = self.cfg.retention else {
            return;
        };
        if self.max_end == Tick::MIN {
            return;
        }
        let cutoff = self.max_end.saturating_sub(retention);
        for path in match self.segment_paths() {
            Ok(p) => p,
            Err(e) => {
                self.stats.io_errors += 1;
                self.last_error = Some(e.to_string());
                return;
            }
        } {
            // The file-name range index answers "wholly expired?" without
            // opening the file; pre-index names fall back to a full read.
            let dead = match parse_segment_range(&path) {
                Some((_, hi)) => hi <= cutoff,
                None => match segment::read_segment(&path) {
                    Ok(records) => records.iter().all(|r| r.end_tick() <= cutoff),
                    Err(_) => false, // never prune what we cannot read
                },
            };
            if dead {
                match fs::remove_file(&path) {
                    Ok(()) => self.stats.segments_pruned += 1,
                    Err(e) => {
                        self.stats.io_errors += 1;
                        self.last_error = Some(e.to_string());
                    }
                }
            }
        }
    }

    /// The directory's segment files in name order. Names are sorted as
    /// byte strings before they are joined into paths: ordering whole
    /// paths compares them component by component, which cost more than
    /// the rest of a narrow query's listing together.
    fn segment_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut names: Vec<_> = fs::read_dir(&self.cfg.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .filter(|n| {
                std::path::Path::new(n)
                    .extension()
                    .is_some_and(|x| x == "lss")
            })
            .collect();
        names.sort_unstable();
        Ok(names.iter().map(|n| self.cfg.dir.join(n)).collect())
    }

    fn plan_scan(&self, patients: &[u64], t0: Tick, t1: Tick) -> io::Result<ScanPlan> {
        let mut plan = ScanPlan {
            patients: patients.to_vec(),
            window: (t0, t1),
            open: Vec::new(),
            scan: Scan {
                records: vec![Vec::new(); patients.len()],
                ..Scan::default()
            },
        };
        for path in self.segment_paths()? {
            // A pre-index name says nothing: the file must be opened to
            // learn what it covers, never wrongly skipped.
            if let Some((lo, hi)) = parse_segment_range(&path) {
                see(&mut plan.scan.earliest, lo);
                if hi <= t0 || lo >= t1 {
                    plan.scan.stats.segments_skipped += 1;
                    continue;
                }
            }
            plan.open.push(path);
        }
        for r in &self.pending {
            see(&mut plan.scan.earliest, r.start_tick());
            if r.overlaps(t0, t1) {
                for slot in slots_of(patients, r.patient) {
                    plan.scan.records[slot].push(r.clone());
                }
            }
        }
        Ok(plan)
    }

    fn count_scan(&mut self, scan: ScanStats) {
        self.stats.segments_opened += scan.segments_opened;
        self.stats.segments_skipped += scan.segments_skipped;
        self.stats.bytes_read += scan.bytes_read;
    }

    /// Merges every durable segment file into one, returning how many
    /// files were merged away (0 when there was nothing to merge). Spans
    /// are immutable and overlapping re-spills idempotent, so reads
    /// before and after compaction are byte-identical; the merged file
    /// carries the combined range index, so a fragmented store regains
    /// cheap pruning. All originals are read and the replacement fully
    /// written (tmp + fsync + rename) before any original is deleted —
    /// a crash mid-compaction leaves duplicates, never losses.
    ///
    /// # Errors
    /// An unreadable segment aborts the pass with nothing deleted.
    pub fn compact(&mut self) -> io::Result<usize> {
        let paths = self.segment_paths()?;
        if paths.len() < 2 {
            return Ok(0);
        }
        let mut merged = Vec::new();
        for path in &paths {
            merged.extend(segment::read_segment(path)?);
        }
        let name = segment_name(self.writer, self.next_seq, &merged);
        segment::write_segment(&self.cfg.dir.join(name), &merged)?;
        self.next_seq += 1;
        self.stats.segments_written += 1;
        for path in &paths {
            match fs::remove_file(path) {
                Ok(()) => self.stats.segments_compacted += 1,
                // A concurrent writer's retention pass got there first.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    self.stats.segments_compacted += 1;
                }
                Err(e) => {
                    self.stats.io_errors += 1;
                    self.last_error = Some(e.to_string());
                }
            }
        }
        Ok(paths.len())
    }

    /// Activity counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Present samples currently buffered (the at-risk loss window).
    pub fn pending_samples(&self) -> usize {
        self.pending_samples
    }

    /// Most recent recorded I/O failure, if any.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// The store's directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.cfg.dir
    }
}

/// Cloneable, thread-safe handle over a [`SegmentStore`] — what ingest
/// shards and query paths share.
#[derive(Debug, Clone)]
pub struct SharedStore(Arc<Mutex<SegmentStore>>);

impl SharedStore {
    /// Opens a store and wraps it for sharing.
    ///
    /// # Errors
    /// Fails when the directory cannot be created.
    pub fn open(cfg: StoreConfig) -> io::Result<Self> {
        Ok(Self(Arc::new(Mutex::new(SegmentStore::open(cfg)?))))
    }

    /// Builds a retire sink that spills `patient`'s compacted spans into
    /// this store — attach with
    /// [`LiveSession::set_retire_sink`](lifestream_core::live::LiveSession::set_retire_sink).
    pub fn sink_for(&self, patient: u64) -> RetireSink {
        let handle = self.clone();
        Box::new(move |span: RetiredSpan| handle.0.lock().expect("store lock").spill(patient, span))
    }

    /// Runs `f` with the store locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut SegmentStore) -> R) -> R {
        f(&mut self.0.lock().expect("store lock"))
    }

    /// Flushes the write buffer. See [`SegmentStore::flush`].
    ///
    /// # Errors
    /// Propagates the underlying write failure.
    pub fn flush(&self) -> io::Result<()> {
        self.with(SegmentStore::flush)
    }

    /// The one read of the segment tier: every durable + pending span of
    /// each of `patients` whose coverage overlaps `[t0, t1)`, from one
    /// directory listing and one pass over the files. The file-name range
    /// index skips non-overlapping files *without opening them*; every
    /// other file is opened once, every record in it checksummed, and its
    /// spans demultiplexed to the patients that want them — only those are
    /// materialised. Pass `(Tick::MIN, Tick::MAX)` for an unpruned read.
    ///
    /// The store is locked for the directory listing and the write-buffer
    /// snapshot only; files are opened, read, checksummed and decoded
    /// with the lock released, so a long scan stalls neither the shards'
    /// retire sinks nor other scans. Callers bound `patients`
    /// ([`SCAN_PASS_PATIENTS`]): a pass holds all of its patients' spans
    /// at once.
    ///
    /// # Errors
    /// Propagates read failures; a corrupt record in an opened file —
    /// wanted or not — fails the whole scan rather than silently dropping
    /// history. A listed file that disappears (concurrent compaction or
    /// retention) restarts the scan once from a new listing.
    pub fn scan(&self, patients: &[u64], t0: Tick, t1: Tick) -> io::Result<Scan> {
        let scan = scan_relisting(|| self.with(|s| s.plan_scan(patients, t0, t1)))?;
        self.with(|s| s.count_scan(scan.stats));
        Ok(scan)
    }

    /// Every durable + pending span for `patient` overlapping `[t0, t1)`.
    ///
    /// # Errors
    /// As [`scan`](Self::scan).
    pub fn records_for_range(
        &self,
        patient: u64,
        t0: Tick,
        t1: Tick,
    ) -> io::Result<Vec<SegmentRecord>> {
        Ok(self.scan(&[patient], t0, t1)?.records.remove(0))
    }

    /// Merges all durable segments into one. See [`SegmentStore::compact`].
    ///
    /// # Errors
    /// Propagates read/write failures; nothing is deleted on error.
    pub fn compact(&self) -> io::Result<usize> {
        self.with(|s| s.compact())
    }

    /// Activity counters so far.
    pub fn stats(&self) -> StoreStats {
        self.with(|s| s.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream_core::time::StreamShape;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lss-store-{tag}-{}", writer_nonce()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn open(cfg: StoreConfig) -> SharedStore {
        SharedStore::open(cfg).unwrap()
    }

    fn span(base_slot: u64, values: Vec<f32>, ranges: Vec<(Tick, Tick)>) -> RetiredSpan {
        RetiredSpan {
            source: 0,
            shape: StreamShape::new(0, 1),
            base_slot,
            values,
            ranges,
        }
    }

    fn spill(store: &SharedStore, patient: u64, span: RetiredSpan) {
        store.with(|s| s.spill(patient, span));
    }

    /// Every durable + pending span of `patient`: an unpruned scan.
    fn all(store: &SharedStore, patient: u64) -> Vec<SegmentRecord> {
        store
            .records_for_range(patient, Tick::MIN, Tick::MAX)
            .unwrap()
    }

    /// The retention floor a scan reports.
    fn earliest(store: &SharedStore) -> Option<Tick> {
        store.scan(&[], Tick::MIN, Tick::MAX).unwrap().earliest
    }

    fn paths(store: &SharedStore) -> Vec<PathBuf> {
        store.with(|s| s.segment_paths()).unwrap()
    }

    #[test]
    fn spill_flush_reopen() {
        let dir = tmp_dir("reopen");
        let store = open(StoreConfig::new(&dir).flush_batch(0));
        spill(&store, 1, span(0, vec![1.0, 2.0], vec![(0, 2)]));
        spill(&store, 2, span(0, vec![9.0], vec![(0, 1)]));
        assert_eq!(store.stats().segments_written, 2);
        drop(store);
        // A fresh store (new writer nonce) sees the durable spans.
        let store = open(StoreConfig::new(&dir));
        let got = all(&store, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].values, vec![1.0, 2.0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_flush_and_pending_visibility() {
        let dir = tmp_dir("batch");
        let store = open(StoreConfig::new(&dir).flush_batch(100));
        spill(&store, 1, span(0, vec![1.0; 10], vec![(0, 10)]));
        assert_eq!(store.stats().segments_written, 0, "below the batch");
        // Queries still see the pending span.
        assert_eq!(all(&store, 1).len(), 1);
        spill(&store, 1, span(10, vec![2.0; 95], vec![(10, 105)]));
        assert_eq!(store.stats().segments_written, 1, "batch crossed");
        assert_eq!(store.with(|s| s.pending_samples()), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_prunes_old_segments() {
        let dir = tmp_dir("retain");
        let store = open(StoreConfig::new(&dir).flush_batch(0).retention(100));
        spill(&store, 1, span(0, vec![1.0; 50], vec![(0, 50)]));
        spill(&store, 1, span(50, vec![2.0; 50], vec![(50, 100)]));
        // Frontier 100: nothing is >100 ticks old yet.
        assert_eq!(store.stats().segments_pruned, 0);
        spill(&store, 1, span(200, vec![3.0; 50], vec![(200, 250)]));
        // Frontier 250, cutoff 150: both early segments are wholly older.
        assert_eq!(store.stats().segments_pruned, 2);
        let got = all(&store, 1);
        assert_eq!(got.len(), 1);
        assert!(got.iter().all(|r| r.end_tick() > 150));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn range_reads_skip_nonoverlapping_files_by_name() {
        let dir = tmp_dir("range");
        let store = open(StoreConfig::new(&dir).flush_batch(0));
        spill(&store, 1, span(0, vec![1.0; 50], vec![(0, 50)]));
        spill(&store, 1, span(50, vec![2.0; 50], vec![(50, 100)]));
        spill(&store, 1, span(100, vec![3.0; 50], vec![(100, 150)]));
        let got = store.records_for_range(1, 60, 90).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].values, vec![2.0; 50]);
        assert_eq!(store.stats().segments_skipped, 2, "two files never opened");
        // A full-range read skips nothing and sees everything.
        let all = store.records_for_range(1, Tick::MIN, Tick::MAX).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(store.stats().segments_skipped, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_file_names_fall_back_to_reads() {
        let dir = tmp_dir("legacy");
        let store = open(StoreConfig::new(&dir).flush_batch(0));
        spill(&store, 1, span(0, vec![1.0; 10], vec![(0, 10)]));
        // Strip the range suffix off the file, as a pre-index writer
        // would have named it.
        let path = paths(&store).remove(0);
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let legacy: String = stem.split('-').take(3).collect::<Vec<_>>().join("-");
        fs::rename(&path, dir.join(format!("{legacy}.lss"))).unwrap();
        // Out-of-range query: the file cannot be skipped (no index), but
        // span-level filtering still excludes its records.
        let got = store.records_for_range(1, 500, 600).unwrap();
        assert!(got.is_empty());
        assert_eq!(store.stats().segments_skipped, 0);
        // And its coverage is still discoverable the slow way.
        assert_eq!(earliest(&store), Some(0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn earliest_tick_tracks_retention() {
        let dir = tmp_dir("earliest");
        let store = open(StoreConfig::new(&dir).flush_batch(0).retention(100));
        assert_eq!(earliest(&store), None);
        spill(&store, 1, span(0, vec![1.0; 50], vec![(0, 50)]));
        assert_eq!(earliest(&store), Some(0));
        spill(&store, 1, span(200, vec![3.0; 50], vec![(200, 250)]));
        // The first segment is wholly below the cutoff and was pruned.
        assert_eq!(store.stats().segments_pruned, 1);
        assert_eq!(earliest(&store), Some(200));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_files_and_preserves_records() {
        let dir = tmp_dir("compact");
        let store = open(StoreConfig::new(&dir).flush_batch(0));
        for i in 0..5u64 {
            let t = i as Tick * 10;
            spill(
                &store,
                1,
                span(i * 10, vec![i as f32; 10], vec![(t, t + 10)]),
            );
        }
        let before = all(&store, 1);
        assert_eq!(paths(&store).len(), 5);
        assert_eq!(store.compact().unwrap(), 5);
        assert_eq!(paths(&store).len(), 1);
        assert_eq!(store.stats().segments_compacted, 5);
        assert_eq!(all(&store, 1), before, "byte-identical");
        // The merged file carries the combined range index.
        let merged = paths(&store).remove(0);
        assert_eq!(parse_segment_range(&merged), Some((0, 50)));
        // Nothing left to merge.
        assert_eq!(store.compact().unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A span whose one record would pass the reader's cap (here the
    /// values alone fill `MAX_RECORD`) is stored in pieces: it stitches
    /// back to the span, and the patient that shares its file stays
    /// readable, before and after a compaction reads that file.
    #[test]
    fn a_span_longer_than_one_record_reads_back_whole() {
        let dir = tmp_dir("long");
        let store = open(StoreConfig::new(&dir).flush_batch(usize::MAX));
        let n = segment::MAX_RECORD / 4;
        let cut = MAX_RECORD_SLOTS as Tick;
        // Presence crosses the first cut, leaves the third piece empty and
        // runs to the span's end.
        let ranges = vec![(0, 1000), (cut - 5, cut + 5), (3 * cut + 7, n as Tick)];
        let present: Tick = ranges.iter().map(|&(s, e)| e - s).sum();
        let values = (0..n).map(|slot| slot as f32).collect();
        spill(&store, 1, span(0, values, ranges.clone()));
        spill(&store, 2, span(0, vec![9.0; 4], vec![(0, 4)]));
        store.flush().unwrap();
        assert_eq!(paths(&store).len(), 1, "both patients share one file");
        assert_eq!(store.stats().spilled_samples, present as u64 + 4);
        let check = |store: &SharedStore| {
            let shape = [StreamShape::new(0, 1)];
            let records = all(store, 1);
            assert_eq!(records.len(), 5, "six pieces, one with no presence");
            let got = HistoryReader::from_records(records)
                .stitch(1, &shape, None)
                .unwrap()
                .remove(0);
            assert_eq!(got.presence().ranges(), ranges.as_slice());
            assert_eq!(got.present_events(), present as usize);
            assert!(got.present_samples().all(|(_, t, v)| v == t as f32));
            assert_eq!(all(store, 2)[0].values, vec![9.0; 4]);
        };
        check(&store);
        spill(&store, 2, span(4, vec![8.0; 4], vec![(4, 8)]));
        store.flush().unwrap();
        assert_eq!(store.compact().unwrap(), 2);
        check(&store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_do_not_collide() {
        let dir = tmp_dir("multi");
        let a = open(StoreConfig::new(&dir).flush_batch(0));
        let b = open(StoreConfig::new(&dir).flush_batch(0));
        let mut sink_a = a.sink_for(1);
        let mut sink_b = b.sink_for(1);
        sink_a(span(0, vec![1.0], vec![(0, 1)]));
        sink_b(span(1, vec![2.0], vec![(1, 2)]));
        let got = all(&a, 1);
        assert_eq!(got.len(), 2, "both writers' segments visible");
        fs::remove_dir_all(&dir).unwrap();
    }
}
