//! Torn-tail and corruption properties of the record codec and the
//! recovery path: random record streams, truncated at every byte offset
//! and peppered with byte flips, must decode to exactly the valid
//! prefix — reporting where it ends, never panicking, never inventing
//! records. A log file is longer than its log (the shard writes into a
//! zero-filled region prepared ahead of its cursor), so the same must
//! hold with zeros or stale frames behind the cut, and mounting must
//! put the cursor at the end of the log, not of the file.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;

use optiql_index_api::model::ModelIndex;
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::Router;
use optiql_wal::record::{self, FrameCursor, Record, FRAME_HEADER};
use optiql_wal::{DurableIndex, FsyncPolicy, RecoveryReport, Wal, WalConfig};

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(lsn, key, value)| Record::Set {
            lsn,
            key,
            value
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(lsn, key)| Record::Del { lsn, key }),
        any::<u64>().prop_map(|start_lsn| Record::CkptBegin { start_lsn }),
        (any::<u64>(), any::<u64>()).prop_map(|(key, value)| Record::CkptEntry { key, value }),
        any::<u64>().prop_map(|entries| Record::CkptEnd { entries }),
    ]
}

/// Encode `recs` back to back; returns (buffer, frame boundaries
/// including 0 and the final length).
fn encode_stream(recs: &[Record]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut bounds = vec![0usize];
    for r in recs {
        r.encode_frame(&mut buf);
        bounds.push(buf.len());
    }
    (buf, bounds)
}

/// Decode as much of `buf` as possible; returns the records and the
/// offset where decoding stopped (== buf.len() on a clean end).
fn decode_prefix(buf: &[u8]) -> (Vec<Record>, u64) {
    let mut cur = FrameCursor::new(buf);
    let mut out = Vec::new();
    loop {
        match cur.next_frame() {
            Ok(Some(r)) => out.push(r),
            Ok(None) => return (out, cur.offset()),
            Err(torn) => {
                assert_eq!(torn.offset, cur.offset(), "torn offset matches cursor");
                return (out, torn.offset);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_record_type_round_trips(recs in prop::collection::vec(record_strategy(), 1..24)) {
        let (buf, _) = encode_stream(&recs);
        let (got, end) = decode_prefix(&buf);
        prop_assert_eq!(&got, &recs);
        prop_assert_eq!(end, buf.len() as u64);
    }

    #[test]
    fn truncation_at_every_offset_yields_the_whole_frame_prefix(
        recs in prop::collection::vec(record_strategy(), 1..12),
    ) {
        let (buf, bounds) = encode_stream(&recs);
        for cut in 0..=buf.len() {
            let (got, end) = decode_prefix(&buf[..cut]);
            // Exactly the frames that fit wholly below the cut decode;
            // the reported stop offset is that frame boundary.
            let whole = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(got.len(), whole, "cut at {}", cut);
            prop_assert_eq!(end as usize, bounds[whole], "cut at {}", cut);
            prop_assert_eq!(&got[..], &recs[..whole], "cut at {}", cut);
        }
    }

    #[test]
    fn byte_flips_never_panic_and_never_corrupt_earlier_frames(
        recs in prop::collection::vec(record_strategy(), 1..12),
        flip_pos in any::<u64>(),
        flip_mask in 1..=255u8,
    ) {
        let (mut buf, bounds) = encode_stream(&recs);
        let pos = (flip_pos % buf.len() as u64) as usize;
        buf[pos] ^= flip_mask;
        let (got, end) = decode_prefix(&buf);
        // Frames wholly before the flipped byte are untouched bytes and
        // must decode identically.
        let intact = bounds.iter().filter(|&&b| b <= pos).count() - 1;
        prop_assert!(got.len() >= intact, "flip at {} lost intact frames", pos);
        prop_assert_eq!(&got[..intact], &recs[..intact], "flip at {}", pos);
        prop_assert!(end <= buf.len() as u64);
        // No decoded stream can be longer than what was written: a flip
        // can only merge/destroy frames, never mint extras.
        prop_assert!(got.len() <= recs.len(), "flip at {} minted records", pos);
    }
}

/// Build a single-shard wal with a deterministic op history; returns
/// the wal dir and the shard-0 log bytes.
fn build_log(tag: &str, seed: u64, ops: usize) -> (std::path::PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!(
        "optiql-wal-torn-{tag}-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let wal = Arc::new(
            Wal::open(WalConfig {
                policy: FsyncPolicy::None,
                ..WalConfig::new(&dir)
            })
            .unwrap(),
        );
        let ix = DurableIndex::new(ModelIndex::new(), wal);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..ops {
            let r = next();
            let k = r % 64;
            match (r >> 8) % 4 {
                0 | 1 => {
                    ix.insert(k, next());
                }
                2 => {
                    ix.update(k, next());
                }
                _ => {
                    ix.remove(k);
                }
            }
        }
    }
    let bytes = std::fs::read(dir.join("shard-0.log")).unwrap();
    (dir, bytes)
}

/// Replay a raw log image into a map (the oracle recovery must match).
fn oracle_of(buf: &[u8]) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    let mut cur = FrameCursor::new(buf);
    while let Ok(Some(rec)) = cur.next_frame() {
        match rec {
            Record::Set { key, value, .. } => {
                m.insert(key, value);
            }
            Record::Del { key, .. } => {
                m.remove(&key);
            }
            _ => {}
        }
    }
    m
}

fn open(dir: &std::path::Path) -> Wal {
    Wal::open(WalConfig {
        policy: FsyncPolicy::None,
        ..WalConfig::new(dir)
    })
    .expect("open never fails on torn input")
}

fn recovered_state(wal: &Wal) -> (BTreeMap<u64, u64>, RecoveryReport) {
    let fresh = ModelIndex::new();
    let rep = wal.recover_into(&fresh).expect("recover");
    (
        fresh.range(Bound::Unbounded, Bound::Unbounded).collect(),
        rep,
    )
}

#[test]
fn recovery_of_a_log_cut_at_any_offset_matches_the_valid_prefix_whatever_follows() {
    let (dir, full) = build_log("cut", 0x7E57, 400);
    let log_path = dir.join("shard-0.log");
    // What a crash can leave behind the cut: nothing (a log that grew by
    // its appends), the rest of a prepared region, or — should a region
    // ever be reused — well-formed frames of an earlier life. The first
    // frame of this very log carries LSN 1, which continues no prefix.
    let first_frame_end = {
        let mut cur = FrameCursor::new(&full);
        cur.next_frame().unwrap().unwrap();
        cur.offset() as usize
    };
    let stale = [&full[..first_frame_end], &[0u8; 100]].concat();
    let tails: [(&str, &[u8]); 3] = [("nothing", &[]), ("zeros", &[0u8; 4096]), ("stale", &stale)];
    // Every offset is too slow end-to-end (each runs a full Wal::open,
    // which prepares a chunk of log); sweep a coarse stride plus every
    // offset in the torn last frames.
    let mut cuts: Vec<usize> = (0..full.len()).step_by(193).collect();
    cuts.extend(full.len().saturating_sub(64)..=full.len());
    for (cut, (kind, tail)) in cuts.iter().flat_map(|&c| tails.iter().map(move |t| (c, t))) {
        if cut < first_frame_end && *kind == "stale" {
            continue; // behind an empty prefix, LSN 1 is the log
        }
        std::fs::write(&log_path, [&full[..cut], tail].concat()).unwrap();
        let wal = open(&dir);
        let (got, rep) = recovered_state(&wal);
        assert_eq!(
            got,
            oracle_of(&full[..cut]),
            "cut at {cut} + {kind}: recovered state diverges"
        );
        // The mount report points at the end of the valid prefix, and
        // calls the tail torn exactly when it is more than zeros: here,
        // a cut inside a frame, or the stale frames.
        let m = &wal.mount_report()[0];
        assert!(m.log_bytes <= cut as u64);
        assert_eq!(
            m.torn.is_some(),
            m.log_bytes < cut as u64 || *kind == "stale",
            "cut at {cut} + {kind}: torn must mean more than zeros followed"
        );
        assert_eq!(rep.shards[0].torn, None, "open already cut it off");
        // And a clean close leaves the prefix, nothing else.
        wal.close().unwrap();
        assert_eq!(
            std::fs::read(&log_path).unwrap(),
            &full[..m.log_bytes as usize]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shard-0 log as a crash would leave it: every record appended,
/// nothing trimmed. (`forget` keeps `Drop` — a clean close — from
/// running; the handles leak until the test process exits.)
fn crashed_log(tag: &str, records: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("optiql-wal-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Arc::new(Wal::open(WalConfig::new(&dir)).unwrap());
    let ix = DurableIndex::new(ModelIndex::new(), Arc::clone(&wal));
    for k in 0..records {
        ix.insert(k, k + 1);
    }
    ix.commit();
    std::mem::forget((ix, wal));
    dir
}

#[test]
fn mount_after_a_crash_appends_at_the_end_of_the_log_not_of_the_file() {
    let dir = crashed_log("crash", 100);
    let log_path = dir.join("shard-0.log");
    let file_len = std::fs::metadata(&log_path).unwrap().len();
    assert_eq!(file_len, optiql_wal::shard::EXTEND_CHUNK);
    {
        let wal = Arc::new(Wal::open(WalConfig::new(&dir)).unwrap());
        let m = &wal.mount_report()[0];
        assert_eq!((m.last_lsn, m.log_bytes), (100, 100 * 35));
        assert_eq!(m.torn, None, "a zero tail is a clean end");
        // The region the crashed process prepared is still good.
        assert_eq!(wal.stats().extends, 0);
        let ix = DurableIndex::new(ModelIndex::new(), Arc::clone(&wal));
        wal.recover_into(ix.inner()).unwrap();
        for k in 100..150u64 {
            ix.insert(k, k + 1);
        }
        ix.remove(0);
        ix.commit();
        assert_eq!(std::fs::metadata(&log_path).unwrap().len(), file_len);
    }
    let wal = open(&dir);
    let (got, rep) = recovered_state(&wal);
    assert_eq!(rep.applied(), 151);
    assert_eq!(rep.shards[0].last_lsn, 151);
    assert_eq!(got, (1..150u64).map(|k| (k, k + 1)).collect());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_partial_frame_in_the_prepared_region_is_torn_and_scrubbed() {
    let dir = crashed_log("partial", 10);
    let log_path = dir.join("shard-0.log");
    // A crash mid-append: the head of frame 11 reached the disk.
    let mut frame = Vec::new();
    record::frame_set(&mut frame, 11, 10, 11);
    {
        use std::os::unix::fs::FileExt;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&log_path)
            .unwrap();
        f.write_all_at(&frame[..20], 10 * 35).unwrap();
    }
    let wal = open(&dir);
    let m = &wal.mount_report()[0];
    assert_eq!((m.last_lsn, m.log_bytes), (10, 10 * 35));
    assert!(m.torn.is_some(), "a partial frame is not a clean end");
    let (got, _) = recovered_state(&wal);
    assert_eq!(got, (0..10u64).map(|k| (k, k + 1)).collect());
    // The next append overwrites where the partial frame was.
    wal.shard(0).append_with(|txn| txn.set(10, 11));
    let (got, rep) = recovered_state(&wal);
    assert_eq!(rep.shards[0].torn, None);
    assert_eq!(got, (0..11u64).map(|k| (k, k + 1)).collect());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_close_leaves_exactly_the_bytes_counted() {
    let dir = std::env::temp_dir().join(format!("optiql-wal-torn-close-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Arc::new(
        Wal::open(WalConfig {
            router: Router::new(2, 0),
            ..WalConfig::new(&dir)
        })
        .unwrap(),
    );
    let on_disk = || -> u64 {
        (0..2)
            .map(|i| std::fs::metadata(wal.shard(i).path()).unwrap().len())
            .sum()
    };
    let ix = DurableIndex::new(ModelIndex::new(), Arc::clone(&wal));
    ix.multi_insert(&(0..500u64).map(|k| (k, k)).collect::<Vec<_>>());
    ix.commit();
    let s = wal.stats();
    assert_eq!(
        (s.extends, s.extend_failures),
        (2, 0),
        "one per shard, at mount"
    );
    assert_eq!(s.prealloc_bytes, on_disk());
    wal.close().unwrap();
    assert_eq!(on_disk(), s.bytes);
    // Closed is not sealed: an append prepares a new region, and the
    // next close trims that one too.
    ix.insert(500, 500);
    assert!(on_disk() > wal.stats().bytes);
    wal.close().unwrap();
    assert_eq!(on_disk(), wal.stats().bytes);
    assert_eq!(recovered_state(&wal).1.applied(), 501);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark's restart invariant with the appends coming from four
/// threads at once: what the wal counted is what its two logs hold,
/// record for record and byte for byte.
#[test]
fn concurrent_appends_are_counted_exactly_as_logged() {
    let dir = std::env::temp_dir().join(format!("optiql-wal-torn-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Arc::new(
        Wal::open(WalConfig {
            router: Router::new(2, 0),
            policy: FsyncPolicy::None,
            ..WalConfig::new(&dir)
        })
        .unwrap(),
    );
    let ix = DurableIndex::new(ModelIndex::new(), Arc::clone(&wal));
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (ix, start) = (&ix, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..2_000u64 {
                    let k = i * 4 + t;
                    match i % 4 {
                        0 => drop(ix.multi_insert(&[(k, k), (k + 4, k)])),
                        1 => drop(ix.remove(k - 4)),
                        _ => drop(ix.insert(k, i)),
                    }
                }
            });
        }
    });
    wal.close().unwrap();
    let counted = wal.stats();
    let (mut records, mut bytes) = (0, 0);
    for i in 0..2 {
        let log = std::fs::read(wal.shard(i).path()).unwrap();
        let (recs, valid) = decode_prefix(&log);
        assert_eq!(valid, log.len() as u64, "shard {i} has a tail");
        records += recs.len() as u64;
        bytes += valid;
    }
    // Per thread and round of four: two SETs, one DEL that hits, two SETs.
    assert_eq!(records, 4 * 500 * 5);
    assert_eq!((counted.records, counted.bytes), (records, bytes));
    assert_eq!(counted.fsyncs, 0, "policy none");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_falls_back_to_full_log_replay() {
    let (dir, full) = build_log("ckpt", 0xBADC_0DE5, 300);
    // Write a checkpoint, then corrupt one byte of it.
    {
        let wal = Wal::open(WalConfig {
            policy: FsyncPolicy::None,
            ..WalConfig::new(&dir)
        })
        .unwrap();
        let staging = ModelIndex::new();
        wal.recover_into(&staging).unwrap();
        let ck = wal.checkpoint(&staging).unwrap();
        assert!(ck.entries() > 0, "checkpoint should have content");
    }
    let ckpt_path = dir.join("shard-0.ckpt");
    let mut ckpt = std::fs::read(&ckpt_path).unwrap();
    let mid = FRAME_HEADER + 1 + (ckpt.len() - FRAME_HEADER - 2) / 2;
    ckpt[mid] ^= 0x20;
    std::fs::write(&ckpt_path, &ckpt).unwrap();

    let wal = open(&dir);
    let fresh = ModelIndex::new();
    let rep = wal.recover_into(&fresh).expect("recover");
    assert!(
        rep.any_checkpoint_invalid(),
        "corrupt checkpoint must be flagged"
    );
    assert_eq!(rep.shards[0].checkpoint_entries, 0);
    assert_eq!(rep.shards[0].checkpoint_start_lsn, 1, "full replay");
    let got: BTreeMap<u64, u64> = fresh.range(Bound::Unbounded, Bound::Unbounded).collect();
    assert_eq!(got, oracle_of(&full), "fallback replay diverges");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_header_only_logs_recover_to_nothing() {
    let dir = std::env::temp_dir().join(format!("optiql-wal-torn-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A log of pure garbage shorter than one header.
    std::fs::write(dir.join("shard-0.log"), [0xFFu8; 5]).unwrap();
    let wal = Wal::open(WalConfig {
        policy: FsyncPolicy::None,
        ..WalConfig::new(&dir)
    })
    .unwrap();
    assert!(wal.mount_report()[0].torn.is_some());
    let fresh = ModelIndex::new();
    let rep = wal.recover_into(&fresh).unwrap();
    assert_eq!(rep.applied(), 0);
    assert!(fresh.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seal_frame_then_flip_any_header_byte_is_detected_or_truncates() {
    // Header flips (len/crc words) must never yield a *different*
    // record: either the frame is rejected or (flipping a len byte to a
    // larger value) the stream ends early.
    let mut buf = Vec::new();
    record::frame_set(&mut buf, 42, 7, 4242);
    let original = {
        let (recs, _) = decode_prefix(&buf);
        recs
    };
    for i in 0..FRAME_HEADER {
        for mask in [0x01u8, 0x10, 0x80] {
            let mut evil = buf.clone();
            evil[i] ^= mask;
            let (got, _) = decode_prefix(&evil);
            assert!(
                got.is_empty() || got == original,
                "header flip at {i} produced a forged record"
            );
        }
    }
}
