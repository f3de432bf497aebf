//! Property tests for the wire codec: any sequence of frames, encoded
//! and then fed to the [`FrameDecoder`] in arbitrary chunkings (whole
//! stream, byte-by-byte, random splits), decodes back to exactly the
//! frames that went in. The decoder is the piece both the server and
//! the load generator trust; this suite is why they can.

use optiql_server::proto::{
    FrameDecoder, ProtoError, Request, Response, MAX_FRAME, MAX_SCAN, SCAN_PART_MAX,
};
use proptest::prelude::*;

fn any_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u64>().prop_map(|key| Request::Get { key }),
        (any::<u64>(), any::<u64>()).prop_map(|(key, value)| Request::Set { key, value }),
        any::<u64>().prop_map(|key| Request::Del { key }),
        prop::collection::vec(any::<u64>(), 0..40).prop_map(|keys| Request::MGet { keys }),
        Just(Request::Shutdown),
        (any::<u64>(), 0..=MAX_SCAN).prop_map(|(start, count)| Request::Scan { start, count }),
    ]
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some),]
}

fn any_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        opt_u64().prop_map(Response::Value),
        opt_u64().prop_map(Response::Old),
        prop::collection::vec(opt_u64(), 0..40).prop_map(Response::MValues),
        Just(Response::Ok),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..SCAN_PART_MAX + 1)
            .prop_map(Response::ScanPart),
        any::<u32>().prop_map(|total| Response::ScanEnd { total }),
        // Messages exercise multi-byte UTF-8 and JSON-hostile characters.
        (0usize..4).prop_map(|i| {
            let msgs = ["", "bad frame", "péché → λ", "line\nbreak \"quoted\""];
            Response::Error(msgs[i].to_string())
        }),
    ]
}

/// Feed `wire` to a fresh decoder in chunks whose sizes cycle through
/// `chunks` (empty → one big chunk), draining typed frames after every
/// feed, and return everything decoded.
fn decode_chunked<T>(
    wire: &[u8],
    chunks: &[usize],
    mut next: impl FnMut(&mut FrameDecoder) -> Result<Option<T>, ProtoError>,
) -> Vec<T> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < wire.len() {
        let step = if chunks.is_empty() {
            wire.len()
        } else {
            chunks[i % chunks.len()].max(1)
        };
        i += 1;
        let end = (at + step).min(wire.len());
        dec.feed(&wire[at..end]);
        at = end;
        while let Some(frame) = next(&mut dec).expect("valid stream must decode") {
            out.push(frame);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn requests_round_trip_any_chunking(
        reqs in prop::collection::vec(any_request(), 1..24),
        chunks in prop::collection::vec(1usize..29, 0..12),
    ) {
        let mut wire = Vec::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        prop_assert!(wire.len() <= reqs.len() * MAX_FRAME);
        let got = decode_chunked(&wire, &chunks, FrameDecoder::next_request);
        prop_assert_eq!(got, reqs);
    }

    #[test]
    fn requests_round_trip_byte_by_byte(reqs in prop::collection::vec(any_request(), 1..12)) {
        let mut wire = Vec::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        let got = decode_chunked(&wire, &[1], FrameDecoder::next_request);
        prop_assert_eq!(got, reqs);
    }

    #[test]
    fn responses_round_trip_any_chunking(
        resps in prop::collection::vec(any_response(), 1..24),
        chunks in prop::collection::vec(1usize..29, 0..12),
    ) {
        let mut wire = Vec::new();
        for r in &resps {
            r.encode(&mut wire);
        }
        let got = decode_chunked(&wire, &chunks, FrameDecoder::next_response);
        prop_assert_eq!(got, resps);
    }

    #[test]
    fn responses_round_trip_byte_by_byte(resps in prop::collection::vec(any_response(), 1..12)) {
        let mut wire = Vec::new();
        for r in &resps {
            r.encode(&mut wire);
        }
        let got = decode_chunked(&wire, &[1], FrameDecoder::next_response);
        prop_assert_eq!(got, resps);
    }

    #[test]
    fn single_request_payload_round_trips(req in any_request()) {
        // Payload-level symmetry, independent of framing: encode, strip
        // the length prefix, decode.
        let mut wire = Vec::new();
        req.encode(&mut wire);
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(wire.len(), 4 + len);
        prop_assert_eq!(Request::decode(&wire[4..]), Ok(req));
    }

    #[test]
    fn garbage_never_panics_the_decoder(
        junk in prop::collection::vec(any::<u8>(), 0..257),
        chunks in prop::collection::vec(1usize..17, 0..8),
    ) {
        // Arbitrary bytes may decode (by coincidence), return Ok(None),
        // or error — but must never panic, and after the first error the
        // decoder must stay poisoned.
        let mut dec = FrameDecoder::new();
        let mut at = 0;
        let mut i = 0;
        let mut failed = false;
        while at < junk.len() {
            let step = if chunks.is_empty() {
                junk.len()
            } else {
                chunks[i % chunks.len()]
            };
            i += 1;
            let end = (at + step).min(junk.len());
            dec.feed(&junk[at..end]);
            at = end;
            loop {
                match dec.next_request() {
                    Ok(Some(_)) => prop_assert!(!failed, "frame decoded after poison"),
                    Ok(None) => break,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            prop_assert!(dec.next_request().is_err(), "poison must be sticky");
        }
    }
}
