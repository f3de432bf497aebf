//! The benchmark's own copy of the wire format: an encoder that runs
//! during set-up and a fixed-layout response reader for the timed path.
//!
//! `optiql_server::proto` is one of the layers being measured, so the
//! driver must not spend its timed path inside it. The tests at the end
//! of this file hold the two implementations to the same bytes.

use std::io::{ErrorKind, Read};

pub const OP_GET: u8 = 0x01;
pub const OP_SET: u8 = 0x02;
pub const OP_DEL: u8 = 0x03;
pub const OP_MGET: u8 = 0x04;

const RESP_VALUE: u8 = 0x81;
const RESP_OLD: u8 = 0x82;
const RESP_MVALUES: u8 = 0x84;

fn header(out: &mut Vec<u8>, body_len: usize, opcode: u8) {
    out.extend_from_slice(&(body_len as u32 + 1).to_le_bytes());
    out.push(opcode);
}

pub fn put_get(out: &mut Vec<u8>, key: u64) {
    header(out, 8, OP_GET);
    out.extend_from_slice(&key.to_le_bytes());
}

pub fn put_set(out: &mut Vec<u8>, key: u64, value: u64) {
    header(out, 16, OP_SET);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&value.to_le_bytes());
}

pub fn put_del(out: &mut Vec<u8>, key: u64) {
    header(out, 8, OP_DEL);
    out.extend_from_slice(&key.to_le_bytes());
}

pub fn put_mget(out: &mut Vec<u8>, keys: &[u64]) {
    header(out, 4 + 8 * keys.len(), OP_MGET);
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for k in keys {
        out.extend_from_slice(&k.to_le_bytes());
    }
}

/// One response, borrowed from the reader's buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply<'a> {
    /// GET result.
    Value(Option<u64>),
    /// SET / DEL result: the previous value.
    Old(Option<u64>),
    /// MGET result: `count` entries of `found:u8 | value:u64`.
    MValues(&'a [u8]),
    /// ERR, an unknown opcode or a body of the wrong length: a failed
    /// request whichever it is.
    Bad,
}

/// Entry `i` of an MVALUES body.
pub fn mvalue(body: &[u8], i: usize) -> Option<u64> {
    let e = &body[i * 9..i * 9 + 9];
    (e[0] != 0).then(|| u64::from_le_bytes(e[1..9].try_into().expect("8 bytes")))
}

/// Number of entries in an MVALUES body.
pub fn mvalues_len(body: &[u8]) -> usize {
    body.len() / 9
}

fn opt_value(b: &[u8]) -> Option<u64> {
    (b[0] != 0).then(|| u64::from_le_bytes(b[1..9].try_into().expect("8 bytes")))
}

/// Accumulates socket bytes in a fixed buffer and hands out whole
/// response frames.
pub struct Reader {
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
}

/// Reader buffer size; also the largest frame it can hold. The longest
/// reply this benchmark asks for is an MGET of 8 keys (81 bytes).
const READ_BUF: usize = 256 * 1024;

impl Default for Reader {
    fn default() -> Self {
        Reader::new()
    }
}

impl Reader {
    pub fn new() -> Reader {
        Reader {
            buf: vec![0; READ_BUF].into_boxed_slice(),
            pos: 0,
            end: 0,
        }
    }

    /// One `read` into the buffer. `Ok(0)` is end of stream; a
    /// non-blocking socket with nothing to read gives `WouldBlock`.
    pub fn fill(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        loop {
            match src.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The next whole frame, or `None` when more bytes are needed.
    pub fn next_reply(&mut self) -> Option<Reply<'_>> {
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < 5 {
            return None;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || 4 + len > READ_BUF {
            // Unframeable: consume everything so the caller counts a
            // failure and sees no further frames.
            self.pos = self.end;
            return Some(Reply::Bad);
        }
        if avail.len() < 4 + len {
            return None;
        }
        let start = self.pos + 4;
        self.pos = start + len;
        let payload = &self.buf[start..start + len];
        let body = &payload[1..];
        Some(match payload[0] {
            RESP_VALUE if body.len() == 9 => Reply::Value(opt_value(body)),
            RESP_OLD if body.len() == 9 => Reply::Old(opt_value(body)),
            RESP_MVALUES if body.len() >= 4 => {
                let n = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
                if body.len() == 4 + 9 * n {
                    Reply::MValues(&body[4..])
                } else {
                    Reply::Bad
                }
            }
            _ => Reply::Bad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql_server::{FrameDecoder, Request, Response};

    #[test]
    fn encoder_matches_the_programs_codec() {
        let reqs = [
            Request::Get { key: 7 },
            Request::Set {
                key: u64::MAX,
                value: 3,
            },
            Request::Del { key: 1 << 40 },
            Request::MGet {
                keys: vec![1, 2, 3, 4, 5, 6, 7, 8],
            },
        ];
        let mut theirs = Vec::new();
        for r in &reqs {
            r.encode(&mut theirs);
        }
        let mut ours = Vec::new();
        put_get(&mut ours, 7);
        put_set(&mut ours, u64::MAX, 3);
        put_del(&mut ours, 1 << 40);
        put_mget(&mut ours, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(ours, theirs);
        let mut d = FrameDecoder::new();
        d.feed(&ours);
        for r in &reqs {
            assert_eq!(d.next_request().unwrap().as_ref(), Some(r));
        }
    }

    #[test]
    fn reader_matches_the_programs_codec_across_split_reads() {
        let resps = [
            Response::Value(Some(8)),
            Response::Value(None),
            Response::Old(Some(9)),
            Response::MValues(vec![Some(1), None, Some(3)]),
            Response::Error("no".into()),
            Response::Ok,
        ];
        let mut bytes = Vec::new();
        for r in &resps {
            r.encode(&mut bytes);
        }
        // Feed in 5-byte pieces: frames straddle reads.
        let mut rd = Reader::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(5) {
            let mut src = piece;
            assert_eq!(rd.fill(&mut src).unwrap(), piece.len());
            while let Some(r) = rd.next_reply() {
                got.push(match r {
                    Reply::Value(v) => format!("value {v:?}"),
                    Reply::Old(v) => format!("old {v:?}"),
                    Reply::MValues(b) => format!(
                        "mvalues {:?}",
                        (0..mvalues_len(b))
                            .map(|i| mvalue(b, i))
                            .collect::<Vec<_>>()
                    ),
                    Reply::Bad => "bad".into(),
                });
            }
        }
        assert_eq!(
            got,
            [
                "value Some(8)",
                "value None",
                "old Some(9)",
                "mvalues [Some(1), None, Some(3)]",
                "bad",
                "bad"
            ]
        );
    }
}
