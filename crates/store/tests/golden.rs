//! Golden-byte fixtures for the segment file format.
//!
//! The segment format is a durability surface: bytes written today must
//! decode forever. These fixtures hard-code the exact encoding of a known
//! record and a known file image; any codec change that re-arranges bytes
//! breaks them loudly instead of silently orphaning old stores.

use lifestream_core::time::{StreamShape, Tick};
use lifestream_store::segment::{
    crc32, encode_record, parse_segment, scan_segment, SegmentRecord, MAX_RECORD,
};
use lifestream_store::{SharedStore, StoreConfig, SEGMENT_MAGIC, SEGMENT_VERSION};
use proptest::prelude::*;

fn golden_record() -> SegmentRecord {
    SegmentRecord {
        patient: 1,
        source: 0,
        shape: StreamShape::new(0, 2),
        base_slot: 0,
        values: vec![1.0, 2.5],
        ranges: vec![(0, 4)],
    }
}

/// `golden_record()`'s exact on-disk form: u32 length prefix, then
/// patient/source/offset/period/base_slot, the two sample bit patterns,
/// one presence range, and the CRC-32 seal — all little-endian.
const GOLDEN_RECORD: [u8; 76] = [
    0x48, 0x00, 0x00, 0x00, // len = 72
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // patient = 1
    0x00, 0x00, 0x00, 0x00, // source = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // offset = 0
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // period = 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // base_slot = 0
    0x02, 0x00, 0x00, 0x00, // n_values = 2
    0x00, 0x00, 0x80, 0x3f, // 1.0f32
    0x00, 0x00, 0x20, 0x40, // 2.5f32
    0x01, 0x00, 0x00, 0x00, // n_ranges = 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // range start = 0
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // range end = 4
    0x06, 0x06, 0xb8, 0xf3, // crc32 = 0xf3b80606
];

#[test]
fn record_encoding_is_locked() {
    assert_eq!(encode_record(&golden_record()), GOLDEN_RECORD.to_vec());
}

#[test]
fn file_image_is_locked_and_parses() {
    let mut image = Vec::new();
    image.extend_from_slice(&SEGMENT_MAGIC);
    image.push(SEGMENT_VERSION);
    image.extend_from_slice(&GOLDEN_RECORD);
    assert_eq!(&image[..5], b"LSSG\x01");
    let records = parse_segment(&image).unwrap();
    assert_eq!(records, vec![golden_record()]);
}

#[test]
fn crc32_is_ieee() {
    // The classic check value: CRC-32/IEEE of "123456789".
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn hostile_images_are_rejected() {
    let good = golden_image();
    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(parse_segment(&bad).unwrap_err().contains("magic"));
    // Unknown version.
    let mut bad = good.clone();
    bad[4] = 99;
    assert!(parse_segment(&bad).unwrap_err().contains("version"));
    // Oversized length prefix.
    let mut bad = good.clone();
    bad[5..9].copy_from_slice(&((MAX_RECORD as u32) + 1).to_le_bytes());
    assert!(parse_segment(&bad).unwrap_err().contains("cap"));
    // Flipped payload byte: checksum catches it.
    let mut bad = good.clone();
    bad[20] ^= 0x40;
    assert!(parse_segment(&bad).unwrap_err().contains("checksum"));
    // Truncation mid-record.
    assert!(parse_segment(&good[..good.len() - 2]).is_err());
}

fn golden_image() -> Vec<u8> {
    let mut v = Vec::new();
    v.extend_from_slice(&SEGMENT_MAGIC);
    v.push(SEGMENT_VERSION);
    v.extend_from_slice(&GOLDEN_RECORD);
    v
}

/// The streaming decoder with the filter a query for some *other*
/// patient applies: nothing in these images is wanted, so nothing is
/// materialised — and every verdict must still equal `parse_segment`'s.
fn filtered_scan(bytes: &[u8]) -> Result<usize, String> {
    let mut kept = 0;
    scan_segment(bytes, |view| {
        if view.patient == u64::MAX && view.overlaps(i64::MIN, i64::MAX) {
            kept += view.to_record().values.len();
        }
    })?;
    Ok(kept)
}

/// Every single-byte corruption and every truncation of the golden image
/// is rejected by the decoder, wanted record or not. (Cutting back to the
/// bare 5-byte header leaves a valid, empty segment.)
#[test]
fn every_mutation_and_truncation_of_the_golden_image_is_rejected() {
    let good = golden_image();
    assert_eq!(filtered_scan(&good), Ok(0));
    for at in 0..good.len() {
        for xor in 1..=255u8 {
            let mut bad = good.clone();
            bad[at] ^= xor;
            assert!(
                parse_segment(&bad).is_err(),
                "byte {at} ^ {xor:#04x} parsed"
            );
            assert!(
                filtered_scan(&bad).is_err(),
                "byte {at} ^ {xor:#04x} scanned"
            );
        }
    }
    for len in (0..good.len()).filter(|&len| len != 5) {
        assert!(parse_segment(&good[..len]).is_err(), "cut to {len} parsed");
        assert!(filtered_scan(&good[..len]).is_err(), "cut to {len} scanned");
    }
    assert_eq!(parse_segment(&good[..5]), Ok(Vec::new()));
}

/// The unwanted-records-are-checksummed guarantee, on disk: a flipped bit
/// in the `patient` field of patient 1's record fails a scan that only
/// wants patient 2 — the corrupt record is never "filtered out" first.
#[test]
fn corrupt_unwanted_record_fails_the_filtered_store_scan() {
    let dir = std::env::temp_dir().join(format!("lss-golden-scan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("seg-0000000000000001-00000000-0000000000000000-0000000000000004.lss");
    let store = SharedStore::open(StoreConfig::new(&dir)).unwrap();

    std::fs::write(&file, golden_image()).unwrap();
    assert_eq!(store.scan(&[2], 0, 4).unwrap().records, vec![Vec::new()]);
    assert_eq!(
        store.records_for_range(1, Tick::MIN, Tick::MAX).unwrap(),
        vec![golden_record()]
    );

    let mut bad = golden_image();
    bad[5 + 4] ^= 0x02; // patient 1 -> 3, seal untouched
    std::fs::write(&file, bad).unwrap();
    let err = store.scan(&[2], 0, 4).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "err: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Arbitrary bytes — bare, and behind a valid header so the record
    /// walker is what meets them — never panic the decoder, and the
    /// filtered scan's verdict is `parse_segment`'s.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u32..256, 0..300),
        behind_header in any::<bool>(),
    ) {
        let mut image = if behind_header { golden_image()[..5].to_vec() } else { Vec::new() };
        image.extend(bytes.iter().map(|&b| b as u8));
        let parsed = parse_segment(&image);
        prop_assert_eq!(filtered_scan(&image).err(), parsed.as_ref().err().cloned());
        // Short of a 2^-32 checksum accident, noise is never a record.
        prop_assert!(parsed.is_err() || image.len() == 5);
    }

    /// A multi-record image with one byte changed anywhere is rejected
    /// whole, whichever record the change lands in.
    #[test]
    fn one_changed_byte_rejects_a_multi_record_image(
        lens in prop::collection::vec(0usize..40, 1..6),
        at in 0usize..10_000,
        xor in 1u32..256,
    ) {
        let mut image = golden_image()[..5].to_vec();
        for (i, &n) in lens.iter().enumerate() {
            image.extend(encode_record(&SegmentRecord {
                patient: i as u64,
                source: 0,
                shape: StreamShape::new(0, 2),
                base_slot: 0,
                values: (0..n).map(|k| k as f32).collect(),
                ranges: if n == 0 { vec![] } else { vec![(0, 2 * n as i64)] },
            }));
        }
        prop_assert_eq!(parse_segment(&image).unwrap().len(), lens.len());
        let at = at % image.len();
        image[at] ^= xor as u8;
        prop_assert!(parse_segment(&image).is_err(), "byte {} parsed", at);
        prop_assert!(filtered_scan(&image).is_err(), "byte {} scanned", at);
    }
}
