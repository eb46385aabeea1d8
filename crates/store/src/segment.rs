//! The on-disk segment format.
//!
//! A segment is an append-only, immutable file holding one or more
//! *records*, each a retired `(patient, source, time-range)` sample span.
//! Everything is length-prefixed little-endian, hostile-input-guarded,
//! and locked by golden-byte fixtures (`tests/golden.rs`) — the format is
//! a compatibility surface, not an implementation detail. The bytes are
//! written and read by [`lifestream_core::codec`], the codec the cluster
//! wire shares (DESIGN.md, "the one-codec rule"): a record's
//! `n_values … n_ranges …` tail is its span body. The magic, version,
//! length prefix, checksum and the period and range checks are this
//! module's.
//!
//! ```text
//! file    := magic "LSSG" | version u8 (=1) | record*
//! record  := len u32 | payload[len]           -- len covers the payload
//! payload := patient u64
//!            source  u32
//!            offset  i64 | period i64         -- the stream grid (shape)
//!            base_slot u64                    -- grid slot of values[0]
//!            n_values u32 | f32 × n_values    -- IEEE-754 bit patterns
//!            n_ranges u32 | (i64, i64) × n_ranges -- presence [start, end)
//!            crc u32                          -- CRC-32/IEEE of payload[..len-4]
//! ```
//!
//! Records are self-describing (they carry their own shape), so a reader
//! needs no external schema, and the dense-values + presence-ranges layout
//! is exactly [`SignalData`](lifestream_core::SignalData)'s convention —
//! stitching segments back into an executor-ready dataset is a copy, not
//! a transformation.
//!
//! # Reading: one streaming decoder
//!
//! [`scan_segment`] is the only decoder. It walks a segment image record
//! by record and hands each to a visitor as a [`RecordView`]:
//!
//! * **Checksummed and validated — every record.** The CRC over the whole
//!   payload, the fixed header, both element counts against the bytes
//!   actually present, and every presence range are checked before the
//!   visitor sees the record, wanted or not. A file is either wholly valid
//!   or rejected; a corrupt record the query would have filtered out still
//!   fails the read.
//! * **Materialised — only on request.** A view borrows the image. Its
//!   patient, source, shape and tick coverage are already parsed (that is
//!   what a filter needs); [`RecordView::to_record`] is what allocates and
//!   bulk-converts the samples. A query over one patient of sixteen
//!   sharing a file pays the checksum for all sixteen and the allocation
//!   for one.
//!
//! [`parse_segment`] / [`read_segment`] are that decoder with a visitor
//! that keeps everything.
//!
//! The checksum is CRC-32/IEEE computed sixteen bytes a step from
//! compile-time tables (slicing-by-16): the bit-at-a-time form is a chain
//! of eight dependent shift/xor steps per byte and held both segment
//! encode and decode under 200 MB/s.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use lifestream_core::codec::{put_i64, put_span, put_u32, put_u64, CodecError, Reader, Span};
use lifestream_core::time::{StreamShape, Tick};

/// File magic: first four bytes of every segment.
pub const SEGMENT_MAGIC: [u8; 4] = *b"LSSG";
/// Current (and only) format version.
pub const SEGMENT_VERSION: u8 = 1;
/// Hard cap on a single record's payload — a hostile length prefix cannot
/// make the reader allocate more than this.
pub const MAX_RECORD: usize = 64 * 1024 * 1024;

/// One retired sample span as stored in a segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRecord {
    /// Owning patient.
    pub patient: u64,
    /// Source index within the patient's pipeline.
    pub source: u32,
    /// The source's grid shape (offset, period).
    pub shape: StreamShape,
    /// Grid-slot index of `values[0]` on the stream grid.
    pub base_slot: u64,
    /// Dense sample span (absent slots hold garbage masked by `ranges`).
    pub values: Vec<f32>,
    /// Presence ranges, `[start, end)` tick pairs on the grid.
    pub ranges: Vec<(Tick, Tick)>,
}

impl SegmentRecord {
    /// Number of present samples in the span.
    pub fn present_samples(&self) -> usize {
        self.ranges
            .iter()
            .map(|&(s, e)| ((e - s) / self.shape.period()) as usize)
            .sum()
    }

    /// Largest presence end tick, or the grid offset when empty.
    pub fn end_tick(&self) -> Tick {
        self.ranges
            .iter()
            .map(|&(_, e)| e)
            .max()
            .unwrap_or(self.shape.offset())
    }

    /// Smallest presence start tick, or the grid offset when empty.
    /// Together with [`end_tick`](Self::end_tick) this is the span's
    /// coverage interval — what the store's file-name range index and
    /// time-range pruning are built from.
    pub fn start_tick(&self) -> Tick {
        self.ranges
            .iter()
            .map(|&(s, _)| s)
            .min()
            .unwrap_or(self.shape.offset())
    }

    /// True when the span's coverage overlaps `[t0, t1)`.
    pub fn overlaps(&self, t0: Tick, t1: Tick) -> bool {
        self.start_tick() < t1 && self.end_tick() > t0
    }
}

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic byte table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes, so sixteen independent table reads advance the state
/// sixteen bytes.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32/IEEE (reflected, poly `0xEDB88320`) — the same checksum zlib and
/// Ethernet use; hand-rolled because the build environment is offline.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        // The running state folds into the first four bytes; byte `i` of
        // the block then has `15 - i` bytes after it.
        let mut next = 0;
        for (i, &byte) in block.iter().enumerate() {
            let state = if i < 4 { (crc >> (8 * i)) as u8 } else { 0 };
            next ^= t[15 - i][(byte ^ state) as usize];
        }
        crc = next;
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one record as its length-prefixed on-disk form.
pub fn encode_record(r: &SegmentRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(52 + r.values.len() * 4 + r.ranges.len() * 16);
    put_u32(&mut out, 0); // the length, patched below
    put_u64(&mut out, r.patient);
    put_u32(&mut out, r.source);
    put_i64(&mut out, r.shape.offset());
    put_i64(&mut out, r.shape.period());
    put_u64(&mut out, r.base_slot);
    put_span(&mut out, &r.values, &r.ranges);
    let crc = crc32(&out[4..]);
    put_u32(&mut out, crc);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// The segment reader's message for a codec failure inside a record
/// payload; callers and tests match on these words.
fn record_error(e: CodecError) -> String {
    match e {
        CodecError::TooLarge(n) => format!("segment record claims {n} elements but is too short"),
        CodecError::Trailing(_) => "segment record has trailing bytes".into(),
        CodecError::Truncated | CodecError::Utf8 => "segment record truncated".into(),
    }
}

/// One record of a segment image: checksummed and structurally validated,
/// its samples and ranges still borrowed from the image. The fields a
/// filter needs are parsed; [`to_record`](Self::to_record) materialises
/// the rest.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Owning patient.
    pub patient: u64,
    /// Source index within the patient's pipeline.
    pub source: u32,
    /// The source's grid shape (offset, period).
    pub shape: StreamShape,
    /// Grid-slot index of the first stored value.
    pub base_slot: u64,
    /// `[start, end)` coverage — [`SegmentRecord::start_tick`] /
    /// [`SegmentRecord::end_tick`] of the materialised record.
    coverage: (Tick, Tick),
    /// Values and presence ranges, every range validated non-empty.
    span: Span<'a>,
}

impl<'a> RecordView<'a> {
    /// Checks and parses one record payload (the bytes after the length
    /// prefix): trailing CRC first, then header, counts and ranges.
    fn parse(payload: &'a [u8]) -> Result<Self, String> {
        if payload.len() < 4 {
            return Err("segment record shorter than its checksum".into());
        }
        let (body, crc_bytes) = payload.split_at(payload.len() - 4);
        let want = u32::from_le_bytes(crc_bytes.try_into().expect("split at len - 4"));
        let got = crc32(body);
        if want != got {
            return Err(format!(
                "segment record checksum mismatch (stored {want:#010x}, computed {got:#010x})"
            ));
        }
        let mut r = Reader::new(body);
        let (patient, source, offset, period) =
            (|| Ok::<_, CodecError>((r.u64()?, r.u32()?, r.i64()?, r.i64()?)))()
                .map_err(record_error)?;
        if period <= 0 {
            return Err(format!("segment record has non-positive period {period}"));
        }
        let (base_slot, span) =
            (|| Ok::<_, CodecError>((r.u64()?, r.span()?)))().map_err(record_error)?;
        let mut coverage = (Tick::MAX, Tick::MIN);
        for (s, e) in span.ranges() {
            if e <= s {
                return Err(format!(
                    "segment record has empty presence range [{s}, {e})"
                ));
            }
            coverage = (coverage.0.min(s), coverage.1.max(e));
        }
        if span.ranges().len() == 0 {
            coverage = (offset, offset);
        }
        r.finish().map_err(record_error)?;
        Ok(Self {
            patient,
            source,
            shape: StreamShape::new(offset, period),
            base_slot,
            coverage,
            span,
        })
    }

    /// True when the record's coverage overlaps `[t0, t1)` — the same
    /// answer as [`SegmentRecord::overlaps`] on the materialised record.
    pub fn overlaps(&self, t0: Tick, t1: Tick) -> bool {
        self.coverage.0 < t1 && self.coverage.1 > t0
    }

    /// Smallest presence start tick, or the grid offset when empty.
    pub fn start_tick(&self) -> Tick {
        self.coverage.0
    }

    /// Allocates the owned record: samples bulk-converted, ranges copied.
    pub fn to_record(&self) -> SegmentRecord {
        SegmentRecord {
            patient: self.patient,
            source: self.source,
            shape: self.shape,
            base_slot: self.base_slot,
            values: self.span.values().collect(),
            ranges: self.span.ranges().collect(),
        }
    }
}

/// Decodes one record payload (the bytes after the length prefix),
/// verifying the trailing CRC.
pub fn decode_record(payload: &[u8]) -> Result<SegmentRecord, String> {
    RecordView::parse(payload).map(|view| view.to_record())
}

/// Writes a complete segment file atomically: encode to a `.tmp` sibling,
/// fsync, then rename into place. Readers never observe a torn segment.
pub fn write_segment(path: &Path, records: &[SegmentRecord]) -> io::Result<()> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SEGMENT_MAGIC);
    bytes.push(SEGMENT_VERSION);
    for r in records {
        bytes.extend_from_slice(&encode_record(r));
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Reads and fully validates a segment file, keeping every record.
///
/// # Errors
/// Any structural problem — bad magic, unknown version, truncated or
/// oversized record, checksum mismatch — is an `InvalidData` error; a
/// segment is either wholly valid or rejected.
pub fn read_segment(path: &Path) -> io::Result<Vec<SegmentRecord>> {
    let mut records = Vec::new();
    scan_segment_file(path, &mut Vec::new(), |view| records.push(view.to_record()))?;
    Ok(records)
}

/// Reads a segment file into `buf` (cleared first, so one buffer can
/// serve a whole directory) and walks it with [`scan_segment`]; errors as
/// [`read_segment`].
pub(crate) fn scan_segment_file(
    path: &Path,
    buf: &mut Vec<u8>,
    visit: impl FnMut(RecordView<'_>),
) -> io::Result<()> {
    buf.clear();
    fs::File::open(path)?.read_to_end(buf)?;
    scan_segment(buf, visit).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Parses a whole segment image, keeping every record.
pub fn parse_segment(bytes: &[u8]) -> Result<Vec<SegmentRecord>, String> {
    let mut records = Vec::new();
    scan_segment(bytes, |view| records.push(view.to_record()))?;
    Ok(records)
}

/// Walks a segment image, handing every record — checksummed and
/// validated, not yet materialised — to `visit` in file order. The first
/// invalid record stops the walk with an error; whatever `visit` gathered
/// before that belongs to a rejected file.
pub fn scan_segment<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(RecordView<'a>),
) -> Result<(), String> {
    if bytes.len() < 5 {
        return Err("segment shorter than its header".into());
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return Err("bad segment magic".into());
    }
    if bytes[4] != SEGMENT_VERSION {
        return Err(format!("unsupported segment version {}", bytes[4]));
    }
    let mut r = Reader::new(&bytes[5..]);
    while r.remaining() > 0 {
        let len = r
            .u32()
            .map_err(|_| "trailing bytes where a record length was expected")?
            as usize;
        if len > MAX_RECORD {
            return Err(format!(
                "record length {len} exceeds the {MAX_RECORD}-byte cap"
            ));
        }
        let payload = r.take(len).map_err(|_| "segment ends mid-record")?;
        visit(RecordView::parse(payload)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Every length around the 16-byte block (no blocks, one, several,
    /// every remainder) at every start offset within a word.
    #[test]
    fn table_crc_equals_bitwise_at_every_short_length_and_alignment() {
        let bytes: Vec<u8> = (0..80u32).map(|i| (i * 151 + 43) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    proptest! {
        #[test]
        fn table_crc_equals_bitwise_on_random_buffers(
            words in prop::collection::vec(0u64..=u64::MAX, 0..2048),
            start in 0usize..8,
            cut in 0usize..8,
        ) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let end = bytes.len().saturating_sub(cut).max(start.min(bytes.len()));
            let data = &bytes[start.min(bytes.len())..end];
            prop_assert_eq!(crc32(data), crc32_bitwise(data));
        }
    }

    fn sample_record() -> SegmentRecord {
        SegmentRecord {
            patient: 7,
            source: 1,
            shape: StreamShape::new(0, 2),
            base_slot: 5,
            values: vec![1.5, -2.0, 0.0, 3.25],
            ranges: vec![(10, 14), (16, 18)],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = sample_record();
        let bytes = encode_record(&r);
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4);
        assert_eq!(decode_record(&bytes[4..]).unwrap(), r);
    }

    #[test]
    fn checksum_detects_corruption() {
        let bytes = encode_record(&sample_record());
        for flip in [4usize, 12, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x01;
            let err = decode_record(&bad[4..]).unwrap_err();
            assert!(err.contains("checksum"), "flip at {flip}: {err}");
        }
    }

    #[test]
    fn hostile_counts_are_rejected() {
        // Forge the value count (payload offset 36), then the range count
        // (after the four values), to something huge, and re-seal the CRC
        // so only the count guard — which runs before anything is
        // allocated for the elements — can object.
        for n_off in [4 + 36, 4 + 36 + 4 + 4 * 4] {
            let mut bytes = encode_record(&sample_record());
            bytes[n_off..n_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let body_end = bytes.len() - 4;
            let crc = crc32(&bytes[4..body_end]);
            bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
            let err = decode_record(&bytes[4..]).unwrap_err();
            assert!(err.contains("too short"), "count at {n_off}: {err}");
        }
    }

    #[test]
    fn file_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("lss-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lss");
        let records = vec![sample_record(), {
            let mut r = sample_record();
            r.patient = 9;
            r
        }];
        write_segment(&path, &records).unwrap();
        assert_eq!(read_segment(&path).unwrap(), records);
        // Truncate mid-record: reader rejects the whole file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_segment(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
