//! Wire-format contract tests.
//!
//! Three layers of protection against format drift and hostile peers:
//!
//! * **Round-trip properties** — arbitrary command/reply values survive
//!   `encode → decode → encode` with bit-identical bytes (floats travel
//!   as bit patterns, so NaN payloads and negative zero are preserved).
//! * **Golden-byte fixtures** — the v2 layout of every opcode is written
//!   out by hand. Any codec change that moves a byte fails here first,
//!   instead of on a live peer speaking yesterday's build.
//! * **Hostile bytes** — every cut and every single-byte flip of every
//!   golden payload, and arbitrary bytes behind a valid header, decode or
//!   are refused with a typed [`WireError`]; none panics.

use cluster_harness::net::wire::{
    decode_cmd, decode_reply, encode_cmd, encode_reply, read_frame, retryable_io, write_frame,
    WireCmd, WireError, WireReply, MAX_FRAME, WIRE_VERSION,
};
use cluster_harness::sharded::{PatientHandoff, Sample, SessionMeta, SourceMeta};
use lifestream_core::exec::OutputCollector;
use lifestream_core::live::{SessionSnapshot, SourceSuffix};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

fn reencode_cmd(bytes: &[u8]) -> Vec<u8> {
    let (seq, cmd) = decode_cmd(bytes).expect("golden decode");
    encode_cmd(seq, &cmd)
}

fn reencode_reply(bytes: &[u8]) -> Vec<u8> {
    encode_reply(&decode_reply(bytes).expect("golden decode"))
}

/// Raw generator output for one source suffix: `(base_slot, watermark)`,
/// value bit patterns, `(range start, range length)` pairs.
type RawSource = ((u64, i64), Vec<u32>, Vec<(i64, u64)>);

fn handoff_from(
    next_round: i64,
    raw_sources: &[RawSource],
    rows: &[(i64, i64, u32)],
    errors: Vec<String>,
) -> PatientHandoff {
    let sources = raw_sources
        .iter()
        .map(|((base_slot, watermark), vals, ranges)| SourceSuffix {
            base_slot: *base_slot,
            watermark: *watermark,
            values: vals.iter().map(|&b| f32::from_bits(b)).collect(),
            ranges: ranges
                .iter()
                .map(|&(a, len)| (a, a.saturating_add(len as i64)))
                .collect(),
        })
        .collect();
    let mut output = OutputCollector::new(1);
    for &(t, d, v) in rows {
        output.push(t, d, &[f32::from_bits(v)]);
    }
    PatientHandoff {
        snapshot: SessionSnapshot {
            next_round,
            sources,
        },
        output,
        errors,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn commands_roundtrip_bit_exactly(
        seq in 0u64..=u64::MAX - 1,
        patient in 0u64..=u64::MAX - 1,
        raw in prop::collection::vec(((0u64..1 << 48, 0usize..64), (-(1i64 << 40)..1 << 40, 0u32..=u32::MAX - 1)), 0..200),
        opcode in prop::sample::select(vec!["admit", "batch", "poll", "finish", "export", "hello", "history"]),
    ) {
        let samples: Vec<Sample> = raw
            .iter()
            .map(|&((p, s), (t, bits))| (p, s, t, f32::from_bits(bits)))
            .collect();
        let cmd = match opcode {
            "admit" => WireCmd::Admit { patient },
            "batch" => WireCmd::Batch(samples),
            "poll" => WireCmd::Poll,
            "finish" => WireCmd::Finish { patient },
            "export" => WireCmd::Export { patient },
            "history" => WireCmd::HistoryQuery {
                patient,
                t0: (seq as i64).rotate_left(13),
                t1: (patient as i64).rotate_left(29),
                warmup: (seq % 7) as i64 * 100,
                pipeline: (patient % 5) as u32,
            },
            _ => WireCmd::Hello {
                session: patient.rotate_left(17),
                epoch: seq % 1000,
                last_acked_seq: seq,
            },
        };
        let bytes = encode_cmd(seq, &cmd);
        prop_assert_eq!(bytes[0], WIRE_VERSION);
        prop_assert_eq!(reencode_cmd(&bytes), bytes.clone());
        // The seq travels with every command.
        let (got_seq, _) = decode_cmd(&bytes).unwrap();
        prop_assert_eq!(got_seq, seq);
    }

    #[test]
    fn import_and_handoff_roundtrip_bit_exactly(
        seq in 0u64..1 << 50,
        patient in 0u64..1 << 50,
        next_round in (0i64..1 << 30),
        raw_sources in prop::collection::vec(
            ((0u64..1 << 32, -(1i64 << 32)..1 << 32),
             prop::collection::vec(0u32..=u32::MAX - 1, 0..300),
             prop::collection::vec((-(1i64 << 32)..1 << 32, 0u64..1 << 16), 0..8)),
            0..4,
        ),
        rows in prop::collection::vec((-(1i64 << 32)..1 << 32, 0i64..1 << 16, 0u32..=u32::MAX - 1), 0..100),
        errors in prop::collection::vec(prop::sample::select(vec![
            String::new(),
            "plain".to_string(),
            "unicode: åß∂ƒ — 丸".to_string(),
            "newline\nand\ttab".to_string(),
        ]), 0..4),
    ) {
        let state = handoff_from(next_round, &raw_sources, &rows, errors);
        let cmd = WireCmd::Import { patient, state: Box::new(state) };
        let bytes = encode_cmd(seq, &cmd);
        prop_assert_eq!(reencode_cmd(&bytes), bytes.clone());

        // The same handoff body must also survive as an Export reply.
        let (_, WireCmd::Import { state, .. }) = decode_cmd(&bytes).unwrap() else {
            panic!("import decoded as something else");
        };
        let reply_bytes = encode_reply(&WireReply::Handoff(state));
        prop_assert_eq!(reencode_reply(&reply_bytes), reply_bytes);
    }

    #[test]
    fn replies_roundtrip_bit_exactly(
        seq in 0u64..1 << 40,
        samples in 0u64..1 << 40,
        dropped in 0u64..1 << 40,
        msg in prop::sample::select(vec![String::new(), "engine error; joined".to_string()]),
        rows in prop::collection::vec((-(1i64 << 32)..1 << 32, 0i64..1 << 16, 0u32..=u32::MAX - 1), 0..200),
        arity in 1usize..4,
        round in 1i64..1 << 30,
        metas in prop::collection::vec((0i64..1 << 30, 1i64..1 << 20, 0i64..1 << 20), 0..6),
        kind in prop::sample::select(vec!["ok", "err", "ack", "output", "resume", "admitted"]),
    ) {
        let reply = match kind {
            "ok" => WireReply::Ok,
            "err" => WireReply::Err(msg),
            "ack" => WireReply::Ack { seq, cum_samples: samples, cum_dropped: dropped },
            "resume" => WireReply::Resume {
                last_applied_seq: seq,
                cum_samples: samples,
                cum_dropped: dropped,
            },
            "admitted" => WireReply::Admitted {
                meta: SessionMeta {
                    round,
                    arity,
                    sources: metas
                        .iter()
                        .map(|&(offset, period, margin)| SourceMeta { offset, period, margin })
                        .collect(),
                },
            },
            _ => {
                let mut c = OutputCollector::new(arity);
                for &(t, d, bits) in &rows {
                    let vals: Vec<f32> = (0..arity)
                        .map(|f| f32::from_bits(bits.rotate_left(f as u32)))
                        .collect();
                    c.push(t, d, &vals);
                }
                WireReply::Output(c)
            }
        };
        let bytes = encode_reply(&reply);
        prop_assert_eq!(bytes[0], WIRE_VERSION);
        prop_assert_eq!(reencode_reply(&bytes), bytes);
    }
}

// ---------------------------------------------------------------------
// Golden bytes: the v2 layout, written out by hand
// ---------------------------------------------------------------------

#[test]
fn golden_admit_v2() {
    let bytes = encode_cmd(
        0x1122_3344_5566_7788,
        &WireCmd::Admit {
            patient: 0x0102_0304_0506_0708,
        },
    );
    assert_eq!(
        bytes,
        [
            0x02, // version
            0x01, // opcode Admit
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // seq u64 LE
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // patient u64 LE
        ]
    );
}

#[test]
fn golden_batch_v2() {
    // One sample: patient 1, source 2, t 3, v 1.5 (bits 0x3FC00000).
    let bytes = encode_cmd(9, &WireCmd::Batch(vec![(1, 2, 3, 1.5)]));
    assert_eq!(
        bytes,
        [
            0x02, // version
            0x02, // opcode Batch
            0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq u64 LE
            0x01, 0x00, 0x00, 0x00, // count u32 LE
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // patient u64 LE
            0x02, 0x00, 0x00, 0x00, // source u32 LE
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // t i64 LE
            0x00, 0x00, 0xC0, 0x3F, // 1.5f32 bits LE
        ]
    );
}

#[test]
fn golden_poll_finish_export_v2() {
    assert_eq!(
        encode_cmd(2, &WireCmd::Poll),
        [0x02, 0x03, 0x02, 0, 0, 0, 0, 0, 0, 0]
    );
    assert_eq!(
        encode_cmd(3, &WireCmd::Finish { patient: 7 }),
        [0x02, 0x04, 0x03, 0, 0, 0, 0, 0, 0, 0, 0x07, 0, 0, 0, 0, 0, 0, 0]
    );
    assert_eq!(
        encode_cmd(4, &WireCmd::Export { patient: 7 }),
        [0x02, 0x05, 0x04, 0, 0, 0, 0, 0, 0, 0, 0x07, 0, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn golden_history_query_v2() {
    // Range [100, 300), warmup 40, registry pipeline 2.
    let bytes = encode_cmd(
        5,
        &WireCmd::HistoryQuery {
            patient: 7,
            t0: 100,
            t1: 300,
            warmup: 40,
            pipeline: 2,
        },
    );
    assert_eq!(
        bytes,
        [
            0x02, 0x08, // version, opcode HistoryQuery
            0x05, 0, 0, 0, 0, 0, 0, 0, // seq u64 LE
            0x07, 0, 0, 0, 0, 0, 0, 0, // patient u64 LE
            0x64, 0, 0, 0, 0, 0, 0, 0, // t0 i64 LE (100)
            0x2C, 0x01, 0, 0, 0, 0, 0, 0, // t1 i64 LE (300)
            0x28, 0, 0, 0, 0, 0, 0, 0, // warmup i64 LE (40)
            0x02, 0x00, 0x00, 0x00, // pipeline u32 LE
        ]
    );
    // The full-range sentinel travels as i64::MIN / i64::MAX.
    let full = encode_cmd(
        6,
        &WireCmd::HistoryQuery {
            patient: 7,
            t0: i64::MIN,
            t1: i64::MAX,
            warmup: 0,
            pipeline: 0,
        },
    );
    assert_eq!(&full[18..26], &[0, 0, 0, 0, 0, 0, 0, 0x80]); // t0 = MIN
    assert_eq!(
        &full[26..34],
        &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F] // t1 = MAX
    );
    assert_eq!(reencode_cmd(&bytes), bytes);
}

#[test]
fn golden_hello_v2() {
    // Hello travels as seq 0: it opens the session, it is not in it.
    let bytes = encode_cmd(
        0,
        &WireCmd::Hello {
            session: 0xAABB,
            epoch: 3,
            last_acked_seq: 17,
        },
    );
    assert_eq!(
        bytes,
        [
            0x02, // version
            0x07, // opcode Hello
            0x00, 0, 0, 0, 0, 0, 0, 0, // seq u64 LE (always 0)
            0xBB, 0xAA, 0, 0, 0, 0, 0, 0, // session u64 LE
            0x03, 0, 0, 0, 0, 0, 0, 0, // epoch u64 LE
            0x11, 0, 0, 0, 0, 0, 0, 0, // last_acked_seq u64 LE
        ]
    );
}

#[test]
fn golden_replies_v2() {
    assert_eq!(encode_reply(&WireReply::Ok), [0x02, 0x81]);
    assert_eq!(
        encode_reply(&WireReply::Err("no".into())),
        [0x02, 0x82, 0x02, 0x00, 0x00, 0x00, b'n', b'o']
    );
    assert_eq!(
        encode_reply(&WireReply::Ack {
            seq: 9,
            cum_samples: 5,
            cum_dropped: 2
        }),
        [
            0x02, 0x83, //
            0x09, 0, 0, 0, 0, 0, 0, 0, // seq u64 LE
            0x05, 0, 0, 0, 0, 0, 0, 0, // cum_samples u64 LE
            0x02, 0, 0, 0, 0, 0, 0, 0, // cum_dropped u64 LE
        ]
    );
    // Output: arity 1, one event (t 7, duration 2, value 2.5).
    let mut c = OutputCollector::new(1);
    c.push(7, 2, &[2.5]);
    assert_eq!(
        encode_reply(&WireReply::Output(c)),
        [
            0x02, 0x84, //
            0x01, 0x00, 0x00, 0x00, // arity u32 LE
            0x01, 0x00, 0x00, 0x00, // len u32 LE
            0x07, 0, 0, 0, 0, 0, 0, 0, // time i64 LE
            0x02, 0, 0, 0, 0, 0, 0, 0, // duration i64 LE
            0x00, 0x00, 0x20, 0x40, // 2.5f32 bits LE
        ]
    );
    assert_eq!(
        encode_reply(&WireReply::Resume {
            last_applied_seq: 12,
            cum_samples: 300,
            cum_dropped: 1,
        }),
        [
            0x02, 0x86, //
            0x0C, 0, 0, 0, 0, 0, 0, 0, // last_applied_seq u64 LE
            0x2C, 0x01, 0, 0, 0, 0, 0, 0, // cum_samples u64 LE (300)
            0x01, 0, 0, 0, 0, 0, 0, 0, // cum_dropped u64 LE
        ]
    );
    assert_eq!(
        encode_reply(&WireReply::Admitted {
            meta: SessionMeta {
                round: 100,
                arity: 1,
                sources: vec![SourceMeta {
                    offset: 0,
                    period: 2,
                    margin: 40,
                }],
            },
        }),
        [
            0x02, 0x87, //
            0x64, 0, 0, 0, 0, 0, 0, 0, // round i64 LE (100)
            0x01, 0x00, 0x00, 0x00, // arity u32 LE
            0x01, 0x00, 0x00, 0x00, // source count u32 LE
            0x00, 0, 0, 0, 0, 0, 0, 0, // offset i64 LE
            0x02, 0, 0, 0, 0, 0, 0, 0, // period i64 LE
            0x28, 0, 0, 0, 0, 0, 0, 0, // margin i64 LE (40)
        ]
    );
}

/// A collector filled by `absorb` — runs, two fields, a gap and a change
/// of duration inside a presence run — goes on the wire as the flat v2
/// layout (every time, every duration, then each field's column), and
/// comes back with the same runs.
#[test]
fn absorbed_collector_keeps_the_flat_v2_layout() {
    use lifestream_core::fwindow::FWindow;
    use lifestream_core::time::StreamShape;

    let mut w = FWindow::new(StreamShape::new(0, 2), 20, 2);
    let mut c = OutputCollector::new(2);
    let mut flat: Vec<(i64, i64, [f32; 2])> = Vec::new();
    for round in 0..3i64 {
        w.slide_to(round * 20);
        for i in (0..10usize).filter(|&i| round != 1 || i != 4) {
            let d = if round == 2 && i >= 6 { 1 } else { 2 };
            let row = [(round * 10) as f32 + i as f32, -0.5 * i as f32];
            w.write(i, &row, d);
            flat.push((round * 20 + 2 * i as i64, d, row));
        }
        c.absorb(&w);
    }
    assert_eq!(
        c.runs().len(),
        3,
        "split at the gap and at the duration change"
    );

    let mut want = vec![WIRE_VERSION, 0x84];
    want.extend_from_slice(&2u32.to_le_bytes());
    want.extend_from_slice(&(flat.len() as u32).to_le_bytes());
    want.extend(flat.iter().flat_map(|e| e.0.to_le_bytes()));
    want.extend(flat.iter().flat_map(|e| e.1.to_le_bytes()));
    for f in 0..2 {
        want.extend(flat.iter().flat_map(|e| e.2[f].to_bits().to_le_bytes()));
    }
    let bytes = encode_reply(&WireReply::Output(c.clone()));
    assert_eq!(bytes, want);
    match decode_reply(&bytes).expect("decode") {
        WireReply::Output(back) => {
            assert_eq!(back.runs(), c.runs());
            assert_eq!((back.len(), back.checksum()), (c.len(), c.checksum()));
        }
        other => panic!("expected Output, got {other:?}"),
    }
    assert_eq!(reencode_reply(&bytes), bytes);
}

#[test]
fn golden_import_v2() {
    // next_round 100; one source (base_slot 5, watermark 110, one value
    // -1.0, one range [10, 110)); empty collector of arity 1; one error
    // "x".
    let state = handoff_from(
        100,
        &[((5, 110), vec![0xBF80_0000], vec![(10, 100)])],
        &[],
        vec!["x".into()],
    );
    let bytes = encode_cmd(
        6,
        &WireCmd::Import {
            patient: 9,
            state: Box::new(state),
        },
    );
    assert_eq!(
        bytes,
        [
            0x02, 0x06, // version, opcode Import
            0x06, 0, 0, 0, 0, 0, 0, 0, // seq u64 LE
            0x09, 0, 0, 0, 0, 0, 0, 0, // patient u64 LE
            0x64, 0, 0, 0, 0, 0, 0, 0, // next_round i64 LE (100)
            0x01, 0x00, 0x00, 0x00, // source count u32 LE
            0x05, 0, 0, 0, 0, 0, 0, 0, // base_slot u64 LE
            0x6E, 0, 0, 0, 0, 0, 0, 0, // watermark i64 LE (110)
            0x01, 0x00, 0x00, 0x00, // value count u32 LE
            0x00, 0x00, 0x80, 0xBF, // -1.0f32 bits LE
            0x01, 0x00, 0x00, 0x00, // range count u32 LE
            0x0A, 0, 0, 0, 0, 0, 0, 0, // range start i64 LE (10)
            0x6E, 0, 0, 0, 0, 0, 0, 0, // range end i64 LE (110)
            0x01, 0x00, 0x00, 0x00, // collector arity u32 LE
            0x00, 0x00, 0x00, 0x00, // collector len u32 LE
            0x01, 0x00, 0x00, 0x00, // error count u32 LE
            0x01, 0x00, 0x00, 0x00, b'x', // error str
        ]
    );
    // And the golden bytes decode back to the same structure.
    assert_eq!(reencode_cmd(&bytes), bytes);
}

// ---------------------------------------------------------------------
// Malformed payloads fail loudly, never panic
// ---------------------------------------------------------------------

#[test]
fn rejects_wrong_version_unknown_opcode_truncation_trailing() {
    assert_eq!(
        decode_cmd(&[0x09, 0x03]).unwrap_err(),
        WireError::Version(9)
    );
    assert_eq!(
        decode_cmd(&[0x01, 0x03]).unwrap_err(),
        WireError::Version(1),
        "v1 frames are refused, not half-understood"
    );
    assert_eq!(
        decode_cmd(&[0x02, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err(),
        WireError::Opcode(0x7F)
    );
    assert_eq!(
        decode_reply(&[0x02, 0x01]).unwrap_err(),
        WireError::Opcode(0x01),
        "command opcodes are not reply opcodes"
    );
    assert_eq!(
        decode_cmd(&[0x02, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0x07]).unwrap_err(),
        WireError::Truncated
    );
    assert_eq!(decode_cmd(&[]).unwrap_err(), WireError::Truncated);
    let mut admit = encode_cmd(1, &WireCmd::Admit { patient: 1 });
    admit.push(0xAA);
    assert_eq!(decode_cmd(&admit).unwrap_err(), WireError::Trailing(1));
    // A declared count far beyond the frame cap is refused before any
    // allocation, not trusted.
    let mut batch = vec![0x02, 0x02, 0, 0, 0, 0, 0, 0, 0, 0];
    batch.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_cmd(&batch).unwrap_err(),
        WireError::TooLarge(u32::MAX as usize)
    );
    // Invalid UTF-8 in an error string.
    let err = [0x02, 0x82, 0x02, 0x00, 0x00, 0x00, 0xFF, 0xFE];
    assert_eq!(decode_reply(&err).unwrap_err(), WireError::Utf8);
}

#[test]
fn hostile_counts_are_refused_before_any_allocation() {
    // A tiny Output reply declaring a gigantic arity with len 0: arity
    // columns occupy zero payload bytes, so only the explicit cap can
    // stop this from allocating arity-many vectors.
    let mut bomb = vec![0x02, 0x84];
    bomb.extend_from_slice(&0x0400_0000u32.to_le_bytes()); // arity = 67M
    bomb.extend_from_slice(&0u32.to_le_bytes()); // len = 0
    assert_eq!(
        decode_reply(&bomb).unwrap_err(),
        WireError::TooLarge(0x0400_0000)
    );
    // The engine's real arities (≤ 8) sit far below the cap.
    let empty = encode_reply(&WireReply::Output(OutputCollector::new(8)));
    assert_eq!(reencode_reply(&empty), empty);

    // A handoff declaring more sources than its frame could possibly
    // hold is refused by the remaining-bytes rule, not trusted into a
    // giant Vec::with_capacity.
    let mut handoff = vec![0x02, 0x85];
    handoff.extend_from_slice(&0i64.to_le_bytes()); // next_round
    handoff.extend_from_slice(&0x00FF_FFFFu32.to_le_bytes()); // nsources
    assert_eq!(
        decode_reply(&handoff).unwrap_err(),
        WireError::TooLarge(0x00FF_FFFF)
    );
    // Same rule for an Admitted reply's source-meta count.
    let mut admitted = vec![0x02, 0x87];
    admitted.extend_from_slice(&100i64.to_le_bytes()); // round
    admitted.extend_from_slice(&1u32.to_le_bytes()); // arity
    admitted.extend_from_slice(&0x00FF_FFFFu32.to_le_bytes()); // nsources
    assert_eq!(
        decode_reply(&admitted).unwrap_err(),
        WireError::TooLarge(0x00FF_FFFF)
    );
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

#[test]
fn frames_roundtrip_and_eof_is_clean_only_at_boundaries() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &[1, 2, 3]).unwrap();
    write_frame(&mut buf, &[]).unwrap();
    write_frame(&mut buf, &[9; 1000]).unwrap();
    let mut r = &buf[..];
    assert_eq!(read_frame(&mut r).unwrap(), Some(vec![1, 2, 3]));
    assert_eq!(read_frame(&mut r).unwrap(), Some(vec![]));
    assert_eq!(read_frame(&mut r).unwrap(), Some(vec![9; 1000]));
    assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");

    // A hostile length prefix is refused before allocating.
    let mut bomb = Vec::new();
    bomb.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
    let mut r = &bomb[..];
    assert_eq!(
        read_frame(&mut r).unwrap_err().kind(),
        std::io::ErrorKind::InvalidData
    );
}

#[test]
fn mid_frame_eof_is_connection_lost_and_retryable() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &[1, 2, 3]).unwrap();

    // EOF inside the length prefix.
    let mut r = &buf[..2];
    let err = read_frame(&mut r).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    let wire_err = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<WireError>())
        .expect("wraps a WireError");
    assert_eq!(*wire_err, WireError::ConnectionLost);
    assert!(wire_err.is_retryable());
    assert!(retryable_io(&err), "a severed peer is worth a redial");

    // EOF inside the payload.
    let mut r = &buf[..5];
    let err = read_frame(&mut r).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(retryable_io(&err));

    // Structural errors are NOT retryable: redialing cannot fix them.
    assert!(!WireError::Version(9).is_retryable());
    assert!(!WireError::TooLarge(1 << 30).is_retryable());
    assert!(!WireError::Trailing(4).is_retryable());
    let fatal = std::io::Error::new(std::io::ErrorKind::InvalidData, WireError::Version(9));
    assert!(!retryable_io(&fatal));
    // Plain kinds: resets and timeouts retry, data corruption does not.
    assert!(retryable_io(&std::io::Error::from(
        std::io::ErrorKind::ConnectionReset
    )));
    assert!(retryable_io(&std::io::Error::from(
        std::io::ErrorKind::WouldBlock
    )));
    assert!(!retryable_io(&std::io::Error::from(
        std::io::ErrorKind::InvalidData
    )));
}

// ---------------------------------------------------------------------
// Hostile bytes: cut, flipped and arbitrary payloads
// ---------------------------------------------------------------------

/// Every golden payload above, rebuilt from the same values (each fixture
/// test pins these encodings byte for byte): commands, then replies.
fn golden_payloads() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let raw_source = ((5, 110), vec![0xBF80_0000], vec![(10, 100)]);
    let state = Box::new(handoff_from(100, &[raw_source], &[], vec!["x".into()]));
    let admit = WireCmd::Admit {
        patient: 0x0102_0304_0506_0708,
    };
    let import = WireCmd::Import {
        patient: 9,
        state: state.clone(),
    };
    let history = WireCmd::HistoryQuery {
        patient: 7,
        t0: 100,
        t1: 300,
        warmup: 40,
        pipeline: 2,
    };
    let hello = WireCmd::Hello {
        session: 0xAABB,
        epoch: 3,
        last_acked_seq: 17,
    };
    let cmds = vec![
        encode_cmd(0x1122_3344_5566_7788, &admit),
        encode_cmd(9, &WireCmd::Batch(vec![(1, 2, 3, 1.5)])),
        encode_cmd(2, &WireCmd::Poll),
        encode_cmd(3, &WireCmd::Finish { patient: 7 }),
        encode_cmd(4, &WireCmd::Export { patient: 7 }),
        encode_cmd(5, &history),
        encode_cmd(0, &hello),
        encode_cmd(6, &import),
    ];
    let mut c = OutputCollector::new(1);
    c.push(7, 2, &[2.5]);
    let meta = SessionMeta {
        round: 100,
        arity: 1,
        sources: vec![SourceMeta {
            offset: 0,
            period: 2,
            margin: 40,
        }],
    };
    let replies = [
        WireReply::Ok,
        WireReply::Err("no".into()),
        WireReply::Ack {
            seq: 9,
            cum_samples: 5,
            cum_dropped: 2,
        },
        WireReply::Output(c),
        WireReply::Handoff(state),
        WireReply::Resume {
            last_applied_seq: 12,
            cum_samples: 300,
            cum_dropped: 1,
        },
        WireReply::Admitted { meta },
    ];
    (cmds, replies.iter().map(encode_reply).collect())
}

/// A decode of hostile bytes returned (it did not panic), and an error,
/// if any, is a structural one: only a socket can lose a connection.
fn typed<T>(decoded: Result<T, WireError>) -> bool {
    decoded.map_or_else(|e| !e.is_retryable(), |_| true)
}

/// Every strict prefix of a good payload is refused; every single-byte
/// flip of it decodes or is refused with a typed error.
fn cut_and_flip<T>(payload: &[u8], decode: fn(&[u8]) -> Result<T, WireError>) {
    assert!(decode(payload).is_ok());
    for len in 0..payload.len() {
        assert!(
            decode(&payload[..len]).is_err(),
            "{payload:02x?} cut to {len}"
        );
    }
    let mut bad = payload.to_vec();
    for at in 0..payload.len() {
        for xor in 1..=255u8 {
            bad[at] ^= xor;
            assert!(typed(decode(&bad)), "{payload:02x?} byte {at} ^ {xor:#04x}");
            bad[at] ^= xor;
        }
    }
}

#[test]
fn every_cut_and_flip_of_a_golden_payload_is_refused_or_typed() {
    let (cmds, replies) = golden_payloads();
    for p in &cmds {
        cut_and_flip(p, decode_cmd);
    }
    for p in &replies {
        cut_and_flip(p, decode_reply);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        raw in prop::collection::vec(0u32..256, 0..256),
        cmd_op in 1u32..9,
        reply_op in 0x81u32..0x88,
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let behind = |op: u32| [&[WIRE_VERSION, op as u8][..], &bytes].concat();
        prop_assert!(typed(decode_cmd(&bytes)) && typed(decode_cmd(&behind(cmd_op))));
        prop_assert!(typed(decode_reply(&bytes)) && typed(decode_reply(&behind(reply_op))));
    }
}
