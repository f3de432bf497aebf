//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame — request or response — is a 4-byte little-endian payload
//! length followed by the payload; the payload's first byte is the
//! opcode, the rest is the fixed-layout body (all integers little
//! endian). There is no CRC: TCP already checksums, and the fixed
//! framing means a malformed frame is detected structurally (unknown
//! opcode, body length mismatch, oversized frame) and answered with
//! [`Response::Error`] before the connection is closed.
//!
//! ```text
//! request  := len:u32 | opcode:u8 | body
//!   GET        0x01 | key:u64
//!   SET        0x02 | key:u64 | value:u64
//!   DEL        0x03 | key:u64
//!   MGET       0x04 | count:u32 | key:u64 × count
//!   SHUTDOWN   0x06 | (empty)
//!   SCAN       0x07 | start:u64 | count:u32
//!
//! response := len:u32 | opcode:u8 | body
//!   VALUE      0x81 | found:u8 | value:u64          (GET)
//!   OLD        0x82 | had:u8 | old:u64              (SET, DEL)
//!   MVALUES    0x84 | count:u32 | (found:u8 | value:u64) × count
//!   OK         0x86 | (empty)                       (SHUTDOWN ack)
//!   SCAN_PART  0x87 | count:u32 | (key:u64 | value:u64) × count   (SCAN)
//!   SCAN_END   0x88 | total:u32                     (SCAN terminator)
//!   ERR        0xEE | utf-8 message (rest of frame)
//! ```
//!
//! ## Streaming SCAN
//!
//! A SCAN asks for up to `count` entries with key ≥ `start`, in
//! ascending key order. The reply is a *stream*: zero or more SCAN_PART
//! frames — each carrying at most [`SCAN_PART_MAX`] entries — followed
//! by exactly one SCAN_END whose `total` equals the summed part counts.
//! Bounding the parts is what makes the opcode safe to pipeline: the
//! server encodes from the index's lazy `range` iterator part by part,
//! so a 64Ki-entry scan never materializes in one allocation on either
//! side, and a client can abandon a stream knowing the next frame
//! boundary is at most one part away. Parts of one SCAN are contiguous
//! and in order on the connection (workers execute a connection's
//! requests serially), so continuation needs no sequence numbers.
//!
//! The codec is symmetric: [`FrameDecoder`] incrementally reassembles
//! frames from arbitrary byte chunks (partial reads, frames split across
//! reads, many frames per read), so the server and the load-generator
//! client share one implementation — and one proptest suite.

use std::fmt;

/// Frames larger than this are rejected before buffering the body: a
/// 4 MiB length prefix on this protocol can only be garbage (the largest
/// legal frame is an MGET of [`MAX_MGET`] keys).
pub const MAX_FRAME: usize = 4 + 8 * MAX_MGET as usize + 16;

/// Upper bound on keys per MGET request, so one frame cannot make the
/// server allocate unboundedly.
pub const MAX_MGET: u32 = 64 * 1024;

/// Upper bound on entries one SCAN may request. A SCAN's reply streams
/// in [`SCAN_PART_MAX`]-entry frames, so this bounds the time one frame
/// can keep a worker (and every other connection it serves) busy, not
/// any single allocation.
pub const MAX_SCAN: u32 = 64 * 1024;

/// Most entries one SCAN_PART frame may carry (2 KiB of payload): the
/// response-side frame bound that keeps a scan stream pipelinable.
pub const SCAN_PART_MAX: usize = 128;

/// Request opcodes (the `0x0*` space).
pub mod op {
    /// Point lookup.
    pub const GET: u8 = 0x01;
    /// Insert-or-overwrite.
    pub const SET: u8 = 0x02;
    /// Remove.
    pub const DEL: u8 = 0x03;
    /// Batched point lookups.
    pub const MGET: u8 = 0x04;
    /// Ask the server to shut down cleanly (acked with OK).
    pub const SHUTDOWN: u8 = 0x06;
    /// Stream up to count entries with key ≥ start (SCAN_PART × n,
    /// then SCAN_END).
    pub const SCAN: u8 = 0x07;
}

/// Response opcodes (the `0x8*` space, plus ERR).
pub mod resp {
    /// GET result.
    pub const VALUE: u8 = 0x81;
    /// SET / DEL result (previous value).
    pub const OLD: u8 = 0x82;
    /// MGET results.
    pub const MVALUES: u8 = 0x84;
    /// Success without payload.
    pub const OK: u8 = 0x86;
    /// One bounded chunk of a SCAN stream (≤ [`super::SCAN_PART_MAX`]
    /// entries, ascending keys).
    pub const SCAN_PART: u8 = 0x87;
    /// End of a SCAN stream; carries the total entry count.
    pub const SCAN_END: u8 = 0x88;
    /// Protocol or server error; the sender closes the connection after
    /// emitting it for a protocol violation.
    pub const ERR: u8 = 0xEE;
}

/// One decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Insert-or-overwrite.
    Set {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Remove a key.
    Del {
        /// Key to remove.
        key: u64,
    },
    /// Batched point lookups (order-preserving).
    MGet {
        /// Keys to look up, in response order.
        keys: Vec<u64>,
    },
    /// Clean server shutdown.
    Shutdown,
    /// Stream up to `count` entries with key ≥ `start` as bounded
    /// SCAN_PART frames plus a SCAN_END terminator.
    Scan {
        /// Inclusive lower bound.
        start: u64,
        /// Entry cap (≤ [`MAX_SCAN`]).
        count: u32,
    },
}

/// One decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// GET result: `None` when the key was absent.
    Value(Option<u64>),
    /// SET / DEL result: the previous value, if any.
    Old(Option<u64>),
    /// MGET results, positionally matching the request's keys.
    MValues(Vec<Option<u64>>),
    /// Success without payload.
    Ok,
    /// One bounded chunk of a SCAN stream: ≤ [`SCAN_PART_MAX`]
    /// `(key, value)` entries in ascending key order.
    ScanPart(Vec<(u64, u64)>),
    /// SCAN stream terminator carrying the total entries streamed.
    ScanEnd {
        /// Entries streamed across this scan's SCAN_PART frames.
        total: u32,
    },
    /// Protocol or server error. The sender closes the connection after
    /// emitting this for a protocol violation.
    Error(String),
}

/// Why a frame could not be decoded. All variants are fatal for the
/// connection that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Zero-length payload (no opcode byte).
    EmptyFrame,
    /// First payload byte is not a known opcode.
    BadOpcode(u8),
    /// Body shorter than the opcode's fixed layout requires.
    Truncated,
    /// Body longer than the opcode's fixed layout allows.
    TrailingBytes,
    /// A count field (MGET keys, SCAN entries, SCAN_PART entries)
    /// exceeds its opcode's bound or disagrees with
    /// the body length.
    BadCount(u32),
    /// ERR payload is not UTF-8.
    BadUtf8,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            ProtoError::EmptyFrame => write!(f, "empty frame (no opcode)"),
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            ProtoError::Truncated => write!(f, "body shorter than the opcode requires"),
            ProtoError::TrailingBytes => write!(f, "body longer than the opcode allows"),
            ProtoError::BadCount(n) => write!(f, "count {n} exceeds its opcode's bound"),
            ProtoError::BadUtf8 => write!(f, "error message is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Append one length-prefixed frame with the given opcode and body
/// writer. The writer appends body bytes to the buffer; the length
/// prefix is patched afterwards so bodies never need pre-measuring.
fn frame(out: &mut Vec<u8>, opcode: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(opcode);
    body(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl Request {
    /// Append this request as one wire frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Get { key } => frame(out, op::GET, |b| put_u64(b, *key)),
            Request::Set { key, value } => frame(out, op::SET, |b| {
                put_u64(b, *key);
                put_u64(b, *value);
            }),
            Request::Del { key } => frame(out, op::DEL, |b| put_u64(b, *key)),
            Request::MGet { keys } => frame(out, op::MGET, |b| {
                put_u32(b, keys.len() as u32);
                for k in keys {
                    put_u64(b, *k);
                }
            }),
            Request::Shutdown => frame(out, op::SHUTDOWN, |_| {}),
            Request::Scan { start, count } => frame(out, op::SCAN, |b| {
                put_u64(b, *start);
                put_u32(b, *count);
            }),
        }
    }
}

/// Append one SCAN_PART frame of `entries` (≤ [`SCAN_PART_MAX`]), the
/// frame [`Response::ScanPart`] encodes, from a slice: a streaming
/// SCAN refills one part buffer instead of handing a `Vec` per part over.
pub fn encode_scan_part(entries: &[(u64, u64)], out: &mut Vec<u8>) {
    assert!(
        entries.len() <= SCAN_PART_MAX,
        "SCAN_PART overflow: {} entries",
        entries.len()
    );
    frame(out, resp::SCAN_PART, |b| {
        put_u32(b, entries.len() as u32);
        for (k, v) in entries {
            put_u64(b, *k);
            put_u64(b, *v);
        }
    })
}

impl Response {
    /// Append this response as one wire frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Value(v) => frame(out, resp::VALUE, |b| {
                b.push(u8::from(v.is_some()));
                put_u64(b, v.unwrap_or(0));
            }),
            Response::Old(v) => frame(out, resp::OLD, |b| {
                b.push(u8::from(v.is_some()));
                put_u64(b, v.unwrap_or(0));
            }),
            Response::MValues(vs) => frame(out, resp::MVALUES, |b| {
                put_u32(b, vs.len() as u32);
                for v in vs {
                    b.push(u8::from(v.is_some()));
                    put_u64(b, v.unwrap_or(0));
                }
            }),
            Response::Ok => frame(out, resp::OK, |_| {}),
            Response::ScanPart(entries) => encode_scan_part(entries, out),
            Response::ScanEnd { total } => frame(out, resp::SCAN_END, |b| put_u32(b, *total)),
            Response::Error(msg) => frame(out, resp::ERR, |b| b.extend_from_slice(msg.as_bytes())),
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Fixed-layout body reader: every `take_*` advances and fails with
/// `Truncated` past the end; `finish` fails with `TrailingBytes` unless
/// the body was consumed exactly.
struct Body<'a> {
    buf: &'a [u8],
}

impl<'a> Body<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Body { buf }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        if self.buf.len() < N {
            return Err(ProtoError::Truncated);
        }
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        Ok(head.try_into().unwrap())
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

fn opt_value(body: &mut Body<'_>) -> Result<Option<u64>, ProtoError> {
    let found = body.u8()?;
    let v = body.u64()?;
    Ok((found != 0).then_some(v))
}

impl Request {
    /// Decode one complete frame payload (opcode + body, no length
    /// prefix).
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let (&opcode, rest) = payload.split_first().ok_or(ProtoError::EmptyFrame)?;
        let mut b = Body::new(rest);
        let req = match opcode {
            op::GET => Request::Get { key: b.u64()? },
            op::SET => Request::Set {
                key: b.u64()?,
                value: b.u64()?,
            },
            op::DEL => Request::Del { key: b.u64()? },
            op::MGET => {
                let count = b.u32()?;
                if count > MAX_MGET {
                    return Err(ProtoError::BadCount(count));
                }
                let mut keys = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    keys.push(b.u64()?);
                }
                Request::MGet { keys }
            }
            op::SHUTDOWN => Request::Shutdown,
            op::SCAN => {
                let start = b.u64()?;
                let count = b.u32()?;
                if count > MAX_SCAN {
                    return Err(ProtoError::BadCount(count));
                }
                Request::Scan { start, count }
            }
            other => return Err(ProtoError::BadOpcode(other)),
        };
        b.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Decode one complete frame payload (opcode + body, no length
    /// prefix).
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let (&opcode, rest) = payload.split_first().ok_or(ProtoError::EmptyFrame)?;
        let mut b = Body::new(rest);
        let r = match opcode {
            resp::VALUE => Response::Value(opt_value(&mut b)?),
            resp::OLD => Response::Old(opt_value(&mut b)?),
            resp::MVALUES => {
                let count = b.u32()?;
                if count > MAX_MGET {
                    return Err(ProtoError::BadCount(count));
                }
                let mut vs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    vs.push(opt_value(&mut b)?);
                }
                Response::MValues(vs)
            }
            resp::OK => Response::Ok,
            resp::SCAN_PART => {
                let count = b.u32()?;
                if count as usize > SCAN_PART_MAX {
                    return Err(ProtoError::BadCount(count));
                }
                let mut entries = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    entries.push((b.u64()?, b.u64()?));
                }
                Response::ScanPart(entries)
            }
            resp::SCAN_END => Response::ScanEnd { total: b.u32()? },
            resp::ERR => {
                let msg = std::str::from_utf8(b.buf).map_err(|_| ProtoError::BadUtf8)?;
                return Ok(Response::Error(msg.to_string()));
            }
            other => return Err(ProtoError::BadOpcode(other)),
        };
        b.finish()?;
        Ok(r)
    }
}

/// Incremental frame reassembler.
///
/// Feed it whatever byte chunks the socket produced; pull typed frames
/// out with [`next_request`](Self::next_request) /
/// [`next_response`](Self::next_response), which decode each payload in
/// place — where it was received, without copying it out first. The
/// decoder validates the length prefix *before* buffering a body, so a
/// garbage length can never make it allocate [`MAX_FRAME`]-scale memory
/// on behalf of a broken peer. Decode errors are sticky: a connection
/// that produced one cannot resynchronize mid-stream and must be closed.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed prefix is compacted away
    /// periodically instead of on every frame.
    pos: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes from the socket.
    pub fn feed(&mut self, chunk: &[u8]) {
        if self.poisoned {
            return;
        }
        // Compact once the consumed prefix dominates, so long-lived
        // connections never grow the buffer without bound.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The one frame reader: validate the length prefix, hand `decode`
    /// the payload where it sits in the buffer, and step past the frame.
    ///
    /// `Ok(None)` means "need more bytes". Any `Err` — an oversized
    /// prefix here, an opcode/body error from `decode` — poisons the
    /// decoder: every later call fails (as `FrameTooLarge(0)`).
    fn next_frame<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, ProtoError>,
    ) -> Result<Option<T>, ProtoError> {
        if self.poisoned {
            return Err(ProtoError::FrameTooLarge(0));
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        let frame = if len > MAX_FRAME {
            Err(ProtoError::FrameTooLarge(len))
        } else if avail.len() < 4 + len {
            return Ok(None);
        } else {
            decode(&avail[4..4 + len])
        };
        if frame.is_ok() {
            self.pos += 4 + len;
        } else {
            self.poisoned = true;
        }
        frame.map(Some)
    }

    /// Pull the next complete [`Request`], if one is fully buffered.
    /// Decode errors poison the decoder.
    pub fn next_request(&mut self) -> Result<Option<Request>, ProtoError> {
        self.next_frame(Request::decode)
    }

    /// Pull the next complete [`Response`], if one is fully buffered.
    /// Decode errors poison the decoder.
    pub fn next_response(&mut self) -> Result<Option<Response>, ProtoError> {
        self.next_frame(Response::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let reqs = [
            Request::Get { key: 7 },
            Request::Set {
                key: u64::MAX,
                value: 0,
            },
            Request::Del { key: 1 << 63 },
            Request::MGet {
                keys: vec![1, 2, 3, u64::MAX],
            },
            Request::MGet { keys: vec![] },
            Request::Shutdown,
            Request::Scan {
                start: 3,
                count: MAX_SCAN,
            },
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        for r in &reqs {
            assert_eq!(dec.next_request().unwrap().as_ref(), Some(r));
        }
        assert_eq!(dec.next_request().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn response_frames_round_trip() {
        let resps = [
            Response::Value(Some(42)),
            Response::Value(None),
            Response::Old(Some(u64::MAX)),
            Response::Old(None),
            Response::MValues(vec![Some(1), None, Some(3)]),
            Response::MValues(vec![]),
            Response::Ok,
            Response::ScanPart(vec![(1, 2), (3, 4), (u64::MAX, 0)]),
            Response::ScanPart(vec![]),
            Response::ScanPart((0..SCAN_PART_MAX as u64).map(|k| (k, k + 1)).collect()),
            Response::ScanEnd { total: 300 },
            Response::Error("bad frame: unknown opcode 0x99".into()),
        ];
        let mut wire = Vec::new();
        for r in &resps {
            r.encode(&mut wire);
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        for r in &resps {
            assert_eq!(dec.next_response().unwrap().as_ref(), Some(r));
        }
        assert_eq!(dec.next_response().unwrap(), None);
    }

    #[test]
    fn split_frames_reassemble_byte_by_byte() {
        let mut wire = Vec::new();
        Request::Set { key: 9, value: 10 }.encode(&mut wire);
        Request::Get { key: 9 }.encode(&mut wire);
        let mut dec = FrameDecoder::new();
        let mut seen = Vec::new();
        for &b in &wire {
            dec.feed(&[b]);
            while let Some(r) = dec.next_request().unwrap() {
                seen.push(r);
            }
        }
        assert_eq!(
            seen,
            vec![Request::Set { key: 9, value: 10 }, Request::Get { key: 9 }]
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            dec.next_request(),
            Err(ProtoError::FrameTooLarge(_))
        ));
        // Poisoned: more bytes don't resurrect it.
        let mut ok = Vec::new();
        Request::Get { key: 1 }.encode(&mut ok);
        dec.feed(&ok);
        assert!(dec.next_request().is_err());
    }

    #[test]
    fn structural_garbage_is_rejected() {
        // Unknown opcode (0x05 once counted a scan; 0x08–0x0A were once
        // reserved for CAS/INCR/TTL).
        for opcode in [0x77, 0x05, 0x08, 0x09, 0x0A] {
            let mut dec = FrameDecoder::new();
            dec.feed(&3u32.to_le_bytes());
            dec.feed(&[opcode, 0, 0]);
            assert_eq!(dec.next_request(), Err(ProtoError::BadOpcode(opcode)));
        }
        // The response decoder likewise (0x85 was COUNT).
        for opcode in [0x83, 0x85, 0x89] {
            let mut dec = FrameDecoder::new();
            dec.feed(&9u32.to_le_bytes());
            dec.feed(&[opcode]);
            dec.feed(&7u64.to_le_bytes());
            assert_eq!(dec.next_response(), Err(ProtoError::BadOpcode(opcode)));
        }

        // Truncated body.
        let mut dec = FrameDecoder::new();
        dec.feed(&5u32.to_le_bytes());
        dec.feed(&[op::GET, 1, 2, 3, 4]);
        assert_eq!(dec.next_request(), Err(ProtoError::Truncated));

        // Trailing bytes.
        let mut dec = FrameDecoder::new();
        dec.feed(&10u32.to_le_bytes());
        dec.feed(&[op::GET, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(dec.next_request(), Err(ProtoError::TrailingBytes));

        // Empty payload.
        let mut dec = FrameDecoder::new();
        dec.feed(&0u32.to_le_bytes());
        assert_eq!(dec.next_request(), Err(ProtoError::EmptyFrame));

        // MGET count that disagrees with the body.
        let mut dec = FrameDecoder::new();
        dec.feed(&5u32.to_le_bytes());
        dec.feed(&[op::MGET, 2, 0, 0, 0]);
        assert_eq!(dec.next_request(), Err(ProtoError::Truncated));

        // SCAN asking for more than MAX_SCAN entries.
        let mut dec = FrameDecoder::new();
        dec.feed(&13u32.to_le_bytes());
        dec.feed(&[op::SCAN]);
        dec.feed(&0u64.to_le_bytes());
        dec.feed(&(MAX_SCAN + 1).to_le_bytes());
        assert_eq!(dec.next_request(), Err(ProtoError::BadCount(MAX_SCAN + 1)));

        // Truncated SCAN body (count field cut short).
        let mut dec = FrameDecoder::new();
        dec.feed(&9u32.to_le_bytes());
        dec.feed(&[op::SCAN]);
        dec.feed(&0u64.to_le_bytes());
        assert_eq!(dec.next_request(), Err(ProtoError::Truncated));

        // SCAN_PART claiming more entries than the frame bound allows.
        let mut dec = FrameDecoder::new();
        dec.feed(&5u32.to_le_bytes());
        dec.feed(&[resp::SCAN_PART]);
        dec.feed(&(SCAN_PART_MAX as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_response(),
            Err(ProtoError::BadCount(SCAN_PART_MAX as u32 + 1))
        );
    }

    #[test]
    fn compaction_keeps_long_streams_bounded() {
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        Request::Get { key: 3 }.encode(&mut wire);
        for _ in 0..10_000 {
            dec.feed(&wire);
            assert_eq!(dec.next_request().unwrap(), Some(Request::Get { key: 3 }));
        }
        assert!(
            dec.buf.len() < 64 * 1024,
            "decoder buffer grew to {} bytes over a long stream",
            dec.buf.len()
        );
    }
}
