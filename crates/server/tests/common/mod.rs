//! What the loopback tests and the subprocess tests share: a connected
//! [`Client`] that cannot hang the suite, and the scripted pass over
//! every data opcode.

// Each test binary compiles its own copy and none uses every helper.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::time::Duration;

use optiql_server::{Client, Request, Response};

/// Connect with a read timeout, so a server that stops answering fails
/// the test instead of hanging it.
pub fn connect(addr: SocketAddr) -> Client {
    let c = Client::connect(addr).expect("connect");
    let timeout = Some(Duration::from_secs(60));
    c.stream().set_read_timeout(timeout).expect("set timeout");
    c
}

/// One request, one response; panics on an I/O error or a closed
/// connection.
pub fn call(c: &mut Client, req: Request) -> Response {
    c.call(&req).expect("response")
}

/// GET `key`; panics on anything but a VALUE frame.
pub fn get(c: &mut Client, key: u64) -> Option<u64> {
    match call(c, Request::Get { key }) {
        Response::Value(v) => v,
        other => panic!("GET {key} answered {other:?}"),
    }
}

/// Drain one whole SCAN reply: parts until SCAN_END, asserting every
/// part respects the frame bound and keys ascend across the stream.
pub fn recv_scan(c: &mut Client) -> (Vec<(u64, u64)>, u32) {
    let mut entries: Vec<(u64, u64)> = Vec::new();
    loop {
        match c.recv().unwrap().expect("scan stream ended early") {
            Response::ScanPart(part) => {
                assert!(
                    part.len() <= optiql_server::proto::SCAN_PART_MAX,
                    "oversized part: {}",
                    part.len()
                );
                assert!(!part.is_empty(), "server must not emit empty parts");
                entries.extend(part);
            }
            Response::ScanEnd { total } => {
                for w in entries.windows(2) {
                    assert!(w[0].0 < w[1].0, "scan stream must ascend");
                }
                return (entries, total);
            }
            other => panic!("expected SCAN_PART/SCAN_END, got {other:?}"),
        }
    }
}

/// Scripted pass over every data opcode against a preloaded server
/// (preload: key k → k + 1 for k in 0..n). Leaves the index as it found
/// it.
pub fn exercise_all_ops(addr: SocketAddr, preload: u64) {
    let c = &mut connect(addr);
    let set = |c: &mut Client, key, value| call(c, Request::Set { key, value });
    let del = |c: &mut Client, key| call(c, Request::Del { key });
    let count = |c: &mut Client, start, count| {
        c.send(&[Request::Scan { start, count }]).expect("send");
        recv_scan(c).1
    };

    let fresh = preload + 9;
    assert_eq!(get(c, 3), Some(4));
    assert_eq!(get(c, fresh), None);
    assert_eq!(set(c, fresh, 77), Response::Old(None));
    assert_eq!(set(c, fresh, 78), Response::Old(Some(77)));
    let keys = vec![0, fresh, preload + 100, 1];
    assert_eq!(
        call(c, Request::MGet { keys }),
        Response::MValues(vec![Some(1), Some(78), None, Some(2)])
    );
    assert_eq!(count(c, 0, 5), 5);
    assert_eq!(del(c, fresh), Response::Old(Some(78)));
    assert_eq!(get(c, fresh), None);

    // The top of the key space, far above any preload: eight fresh keys,
    // and a SCAN that runs out of keys before it runs out of count.
    let top = u64::MAX - 1024;
    for i in 0..8 {
        assert_eq!(set(c, top + i, 100 + i), Response::Old(None));
    }
    assert_eq!(count(c, top, 1000), 8);
    for i in 0..8 {
        assert_eq!(del(c, top + i), Response::Old(Some(100 + i)));
    }
}
