//! A wal directory remembers the router it was written under.
//!
//! Per-shard "log order = apply order" only recovers the index if every
//! key is replayed from the log it was written to. Reopened under fewer
//! shards, the upper logs are never read (acknowledged writes vanish);
//! under more shards, or another block size, one key's records sit in
//! two logs that replay in parallel (a stale value can win). So
//! [`Wal::open`] refuses — before it creates, truncates or replays
//! anything — and opens normally under the geometry recorded in the
//! directory's `GEOMETRY` file.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use optiql_index_api::model::ModelIndex;
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::Router;
use optiql_wal::{DurableIndex, Wal, WalConfig};

const KEYS: u64 = 1_000;

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("optiql-wal-geometry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &Path, router: Router) -> std::io::Result<Wal> {
    Wal::open(WalConfig {
        router,
        ..WalConfig::new(dir)
    })
}

/// `KEYS` acknowledged SETs (key `k` → `k + 1`) through a fresh wal.
fn write_under(dir: &Path, router: Router) {
    let wal = Arc::new(open(dir, router).expect("fresh directory"));
    let ix = DurableIndex::new(ModelIndex::new(), Arc::clone(&wal));
    for k in 0..KEYS {
        assert_eq!(ix.insert(k, k + 1), None);
    }
    ix.commit();
    assert!(
        (0..wal.shard_count()).all(|i| wal.shard(i).appended_lsn() > 0),
        "the keys must spread over every log, or a lost log loses nothing"
    );
}

/// Every file of the directory with its content.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(e.path()).expect("read file"))
        })
        .collect()
}

/// `open` must fail as a bad argument, say which directory and which two
/// geometries, and leave every byte of the directory alone.
fn assert_refused(dir: &Path, router: Router, written: &str) {
    let before = snapshot(dir);
    let err = match open(dir, router) {
        Ok(_) => panic!("{router:?} opened a directory written with {written}"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    let msg = err.to_string();
    let started = format!(
        "started with shards={} block_bits={}",
        router.shards(),
        router.block_bits()
    );
    for part in [dir.to_str().unwrap(), written, &started] {
        assert!(msg.contains(part), "{msg:?} does not name {part:?}");
    }
    assert!(
        snapshot(dir) == before,
        "a refused open changed the directory"
    );
}

/// Open, replay into a fresh index, and require exactly the written keys.
fn assert_recovers_everything(dir: &Path, router: Router) -> Wal {
    let wal = open(dir, router).expect("the recorded geometry opens");
    let fresh = ModelIndex::new();
    wal.recover_into(&fresh).expect("recover");
    assert_eq!(fresh.len(), KEYS as usize);
    for k in 0..KEYS {
        assert_eq!(fresh.lookup(k), Some(k + 1), "key {k}");
    }
    wal
}

#[test]
fn another_shard_count_or_block_size_is_refused() {
    let dir = tempdir("refuse");
    write_under(&dir, Router::new(4, 0));
    // A torn tail an accepted open would cut off: a refused one must not.
    std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("shard-3.log"))
        .and_then(|mut f| f.write_all(&[0xAB; 21]))
        .expect("append garbage");

    let written = "log written with shards=4 block_bits=0";
    assert_refused(&dir, Router::new(2, 0), written);
    assert_refused(&dir, Router::new(8, 0), written);
    assert_refused(&dir, Router::new(1, 0), written);
    assert_refused(&dir, Router::new(4, 2), written);

    let wal = assert_recovers_everything(&dir, Router::new(4, 0));
    assert!(
        wal.mount_report()[3].torn.is_some(),
        "the accepted open is the one that cuts the tail"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_directory_older_than_the_geometry_file_is_held_to_its_logs() {
    let dir = tempdir("adopt");
    write_under(&dir, Router::new(4, 0));
    std::fs::remove_file(dir.join("GEOMETRY")).expect("written at first open");

    let written = "log written with shards=4 and no GEOMETRY file";
    assert_refused(&dir, Router::new(2, 0), written);
    assert_refused(&dir, Router::new(8, 0), written);

    drop(assert_recovers_everything(&dir, Router::new(4, 0)));
    // Adopted means recorded: from here on the file answers.
    assert_refused(
        &dir,
        Router::new(2, 0),
        "log written with shards=4 block_bits=0",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_log_has_no_block_size_to_disagree_about() {
    let dir = tempdir("single");
    write_under(&dir, Router::new(1, 16));
    drop(assert_recovers_everything(&dir, Router::new(1, 0)));
    assert_refused(
        &dir,
        Router::new(2, 16),
        "log written with shards=1 block_bits=16",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
