//! The bytes on disk: a key is `klen:u16le = 8` followed by its 8
//! big-endian bytes, and recovery holds a directory to exactly that.
//!
//! A frame whose CRC is valid but whose key is another length is a
//! malformed body, like any other: the log ends in front of it (a torn
//! tail, cut off at mount), and a checkpoint holding one is rejected in
//! favour of the full log. Such a frame must never be decoded into a key
//! (a short one cannot be; a long one would lose its tail bytes).
//!
//! And a directory written before keys became `u64`-only still recovers:
//! `tests/fixtures/parent-wal` is one, kept byte for byte.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};

use optiql_btree::BTreeOptiQL;
use optiql_index_api::model::ModelIndex;
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::Router;
use optiql_wal::crc::crc32;
use optiql_wal::{Wal, WalConfig};

const TAG_SET: u8 = 0x01;
const TAG_DEL: u8 = 0x02;
const TAG_CKPT_BEGIN: u8 = 0x10;
const TAG_CKPT_ENTRY: u8 = 0x11;
const TAG_CKPT_END: u8 = 0x12;

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("optiql-wal-disk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Frame `payload` by hand (`len:u32le | crc:u32le | payload`), so the
/// test can write bodies the encoder never would.
fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A redo body (`tag | lsn | klen | key [| value]`) with raw key bytes.
fn redo(out: &mut Vec<u8>, tag: u8, lsn: u64, key: &[u8], value: u64) {
    let mut p = vec![tag];
    p.extend_from_slice(&lsn.to_le_bytes());
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(key);
    if tag == TAG_SET {
        p.extend_from_slice(&value.to_le_bytes());
    }
    frame(out, &p);
}

fn recover(dir: &Path) -> (Wal, ModelIndex, optiql_wal::RecoveryReport) {
    let wal = Wal::open(WalConfig::new(dir)).expect("open never fails on torn input");
    let fresh = ModelIndex::new();
    let rep = wal.recover_into(&fresh).expect("recover");
    (wal, fresh, rep)
}

#[test]
fn a_redo_record_whose_key_is_not_eight_bytes_ends_the_log() {
    for (tag, klen) in [(TAG_SET, 3), (TAG_SET, 12), (TAG_DEL, 3), (TAG_DEL, 12)] {
        let dir = tempdir(&format!("klen-{tag}-{klen}"));
        let mut log = Vec::new();
        redo(&mut log, TAG_SET, 1, &1u64.to_be_bytes(), 10);
        redo(&mut log, TAG_SET, 2, &2u64.to_be_bytes(), 20);
        let valid = log.len() as u64;
        // Key bytes whose first 8 spell key 1: a decoder that kept them
        // would overwrite or remove it.
        let bad: Vec<u8> = 1u64
            .to_be_bytes()
            .iter()
            .copied()
            .cycle()
            .take(klen)
            .collect();
        redo(&mut log, tag, 3, &bad, 30);
        redo(&mut log, TAG_SET, 4, &4u64.to_be_bytes(), 40);
        std::fs::write(dir.join("shard-0.log"), &log).unwrap();

        let (wal, fresh, rep) = recover(&dir);
        let case = format!("tag {tag:#04x}, {klen}-byte key");
        let m = &wal.mount_report()[0];
        assert!(m.torn.is_some(), "{case}: the frame must end the log");
        assert_eq!((m.last_lsn, m.log_bytes), (2, valid), "{case}");
        assert_eq!(rep.applied(), 2, "{case}");
        assert_eq!(fresh.lookup(1), Some(10), "{case}");
        assert_eq!(fresh.lookup(2), Some(20), "{case}");
        assert_eq!(fresh.lookup(4), None, "{case}: nothing behind the cut");
        assert_eq!(fresh.len(), 2, "{case}");
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_checkpoint_entry_whose_key_is_not_eight_bytes_rejects_the_checkpoint() {
    let dir = tempdir("ckpt-klen");
    let mut log = Vec::new();
    for k in 1..=4u64 {
        redo(&mut log, TAG_SET, k, &k.to_be_bytes(), k * 10);
    }
    std::fs::write(dir.join("shard-0.log"), &log).unwrap();
    // A checkpoint covering LSNs 1..=2 whose second entry has a 5-byte
    // key: every frame's CRC holds and the footer count matches.
    let mut ckpt = Vec::new();
    let mut begin = vec![TAG_CKPT_BEGIN];
    begin.extend_from_slice(&3u64.to_le_bytes());
    frame(&mut ckpt, &begin);
    for key in [&1u64.to_be_bytes()[..], &[0, 0, 0, 0, 2][..]] {
        let mut p = vec![TAG_CKPT_ENTRY];
        p.extend_from_slice(&(key.len() as u16).to_le_bytes());
        p.extend_from_slice(key);
        p.extend_from_slice(&99u64.to_le_bytes());
        frame(&mut ckpt, &p);
    }
    let mut end = vec![TAG_CKPT_END];
    end.extend_from_slice(&2u64.to_le_bytes());
    frame(&mut ckpt, &end);
    std::fs::write(dir.join("shard-0.ckpt"), &ckpt).unwrap();

    let (_wal, fresh, rep) = recover(&dir);
    assert!(
        rep.any_checkpoint_invalid(),
        "the checkpoint must be rejected"
    );
    assert_eq!(rep.shards[0].checkpoint_entries, 0);
    assert_eq!(rep.shards[0].replayed, 4, "full log replay");
    for k in 1..=4u64 {
        assert_eq!(fresh.lookup(k), Some(k * 10), "key {k} from the log");
    }
    assert_eq!(fresh.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tests/fixtures/parent-wal` was written by the build that still had
/// byte-string keys (the key type was a generic parameter of the index,
/// the log and the codec), by this program:
///
/// ```ignore
/// let wal = Arc::new(
///     Wal::open(WalConfig {
///         router: Router::new(2, 4),
///         ..WalConfig::new(&dir)
///     })
///     .unwrap(),
/// );
/// let ix: DurableIndex<BTreeOptiQL> = DurableIndex::new(BTreeOptiQL::new(), Arc::clone(&wal));
/// for k in 0..600u64 {
///     ix.insert(k * 7, k);
/// }
/// for k in (0..600u64).step_by(5) {
///     ix.remove(k * 7);
/// }
/// ix.checkpoint().unwrap();
/// for k in 300..900u64 {
///     ix.insert(k * 7, k + 1_000_000);
/// }
/// ix.commit();
/// wal.close().unwrap();
/// ```
///
/// Recovered here — from a copy, since mounting prepares log ahead of the
/// cursor — it must hold exactly the keys that program implies, with
/// each shard's checkpoint and log tail counted where they belong.
#[test]
fn a_wal_dir_written_before_keys_were_u64_only_still_recovers() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent-wal");
    let dir = tempdir("parent-wal");
    for f in [
        "GEOMETRY",
        "shard-0.log",
        "shard-1.log",
        "shard-0.ckpt",
        "shard-1.ckpt",
    ] {
        std::fs::copy(src.join(f), dir.join(f)).unwrap();
    }
    let router = Router::new(2, 4);

    // The model the program implies, and where each record landed.
    let mut model = BTreeMap::new();
    let (mut before, mut at_ckpt, mut after) = ([0u64; 2], [0u64; 2], [0u64; 2]);
    for k in 0..600u64 {
        model.insert(k * 7, k);
        before[router.route(k * 7)] += 1;
    }
    for k in (0..600u64).step_by(5) {
        model.remove(&(k * 7));
        before[router.route(k * 7)] += 1;
    }
    for &k in model.keys() {
        at_ckpt[router.route(k)] += 1;
    }
    for k in 300..900u64 {
        model.insert(k * 7, k + 1_000_000);
        after[router.route(k * 7)] += 1;
    }
    assert!(
        before.iter().all(|&n| n > 0),
        "the fixture must use both logs"
    );

    let wal = Wal::open(WalConfig {
        router,
        ..WalConfig::new(&dir)
    })
    .expect("the fixture's geometry is this router's");
    let fresh: BTreeOptiQL = BTreeOptiQL::new();
    let rep = wal.recover_into(&fresh).expect("recover");
    for (i, (m, s)) in wal.mount_report().iter().zip(&rep.shards).enumerate() {
        assert_eq!(m.torn, None, "shard {i}: a closed log has no tail");
        assert_eq!(m.last_lsn, before[i] + after[i], "shard {i}");
        assert!(!s.checkpoint_invalid, "shard {i}");
        assert_eq!(s.checkpoint_entries, at_ckpt[i], "shard {i}");
        assert_eq!(s.checkpoint_start_lsn, before[i] + 1, "shard {i}");
        assert_eq!(s.skipped, before[i], "shard {i}");
        assert_eq!(s.replayed, after[i], "shard {i}");
    }
    let got: BTreeMap<u64, u64> = fresh.range(Bound::Unbounded, Bound::Unbounded).collect();
    assert_eq!(got, model);
    assert_eq!(fresh.check_invariants(), model.len());
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
