//! A steady-state burst is executed where it is decoded, so it is staged
//! nowhere: no payload copy per frame, no request queue, no per-burst
//! run vectors, no pin set. What is left is what the index hands back —
//! one result `Vec` per `multi_*` call — and, for a SCAN, one part
//! buffer the server refills for every SCAN_PART and the `Vec` the
//! client decodes each part into. Counted with a
//! `#[global_allocator]` over the whole process (server threads, the
//! client and this test's loop), which is why this is its own test
//! binary with a single test: the counter is process-wide.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use optiql_server::proto::SCAN_PART_MAX;
use optiql_server::{start, BackendKind, Client, Request, Response, ServerConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes that a call happened. `realloc` and `alloc_zeroed` keep their
// default bodies, which go through `alloc`, so growth is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const PRELOAD: u64 = 10_000;
const WARM_UP: u64 = 50;
const BURSTS: u64 = 200;

/// Heap allocations per burst, process-wide, over `BURSTS` closed-loop
/// round trips of `burst` (one reply frame per request, a SCAN's parts
/// before its SCAN_END) after `WARM_UP` of them have sized every buffer
/// on the path.
fn allocations_per_burst(c: &mut Client, burst: &[Request]) -> f64 {
    let mut counted = 0;
    for i in 0..WARM_UP + BURSTS {
        if i == WARM_UP {
            counted = ALLOCS.load(Ordering::Relaxed);
        }
        c.send(burst).unwrap();
        for _ in burst {
            loop {
                match c.recv().unwrap() {
                    Some(Response::ScanPart(_)) => {}
                    reply => {
                        assert!(!matches!(reply, None | Some(Response::Error(_))));
                        break;
                    }
                }
            }
        }
    }
    (ALLOCS.load(Ordering::Relaxed) - counted) as f64 / BURSTS as f64
}

#[test]
fn a_steady_state_burst_allocates_only_what_the_index_returns() {
    let h = start(&ServerConfig {
        backend: BackendKind::Btree,
        workers: 1,
        preload: PRELOAD,
        ..ServerConfig::default()
    })
    .expect("server start");
    let mut c = common::connect(h.addr());

    // 32 GETs: one run, one `multi_lookup`, one result vector.
    let gets: Vec<Request> = (0..32).map(|i| Request::Get { key: i * 97 }).collect();
    let per_get_burst = allocations_per_burst(&mut c, &gets);

    // G G S D × 8: eight two-key GET runs (a result vector each), eight
    // scalar SETs of preloaded keys and eight scalar DELs of absent keys
    // — nothing that grows or shrinks the tree.
    let mixed: Vec<Request> = (0..8u64)
        .flat_map(|i| {
            [
                Request::Get { key: i },
                Request::Get { key: i + 100 },
                Request::Set {
                    key: i + 200,
                    value: i,
                },
                Request::Del {
                    key: PRELOAD + 1 + i,
                },
            ]
        })
        .collect();
    let per_mixed_burst = allocations_per_burst(&mut c, &mixed);

    // One 1 024-entry SCAN: eight SCAN_PART frames, a decoded `Vec` each
    // on the client, one part buffer and the range's chunk buffer on the
    // server. A part buffer handed to each frame regrew 4 → 128 for
    // every part (53 allocations).
    let scan = [Request::Scan {
        start: 0,
        count: 1024,
    }];
    let per_scan = allocations_per_burst(&mut c, &scan);
    let parts = (1024 / SCAN_PART_MAX) as f64;

    h.shutdown();
    println!(
        "allocations per burst: 32 GETs {per_get_burst}, mixed {per_mixed_burst}, \
         1 024-entry SCAN {per_scan}"
    );
    assert!(per_get_burst <= 2.0, "32-GET burst: {per_get_burst}");
    assert!(per_mixed_burst <= 16.0, "mixed burst: {per_mixed_burst}");
    assert!(per_scan <= parts + 4.0, "1 024-entry SCAN: {per_scan}");
}
