//! The log record codec: CRC32-framed, length-prefixed records.
//!
//! Every record travels in a *frame*:
//!
//! ```text
//! frame   := len:u32le | crc:u32le | payload        (crc = crc32(payload))
//! payload := tag:u8 | body
//! ```
//!
//! A key inside a record body is its 8 big-endian bytes behind a `u16`
//! length that is always 8. The length field is what logs written when
//! the index also took byte-string keys carry, and it stays so those
//! bytes still read: a SET is 35 bytes on disk either way.
//!
//! Redo records carry an LSN; checkpoint records don't (a checkpoint file
//! carries one `start_lsn` in its header — see `checkpoint.rs`):
//!
//! ```text
//! Set       := 0x01 | lsn:u64le | klen:u16le = 8 | key:u64be | value:u64le
//! Del       := 0x02 | lsn:u64le | klen:u16le = 8 | key:u64be
//! CkptBegin := 0x10 | start_lsn:u64le
//! CkptEntry := 0x11 | klen:u16le = 8 | key:u64be | value:u64le
//! CkptEnd   := 0x12 | entries:u64le
//! ```
//!
//! Decoding is *torn-tail tolerant by construction*: [`FrameCursor`]
//! yields records until the first frame that cannot be fully validated
//! (short header, absurd length, truncated payload, CRC mismatch, or a
//! malformed body behind a valid CRC — a `klen` other than 8 among them)
//! and then reports the byte offset where the valid prefix ends — that
//! offset is where recovery truncates.

use crate::crc::crc32;

/// Frame header size: `len:u32 + crc:u32`.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single payload. Every record is a few dozen bytes,
/// so anything near this is corruption; the bound keeps a torn length
/// word from looking like a 4 GiB allocation.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// The `klen` every key carries: a key is a `u64`.
const KEY_LEN: u16 = 8;

const TAG_SET: u8 = 0x01;
const TAG_DEL: u8 = 0x02;
const TAG_CKPT_BEGIN: u8 = 0x10;
const TAG_CKPT_ENTRY: u8 = 0x11;
const TAG_CKPT_END: u8 = 0x12;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Upsert `key := value`, stamped with its log sequence number.
    Set {
        /// Per-shard log sequence number (1-based, dense).
        lsn: u64,
        /// The key written.
        key: u64,
        /// The value written.
        value: u64,
    },
    /// Remove `key`, stamped with its log sequence number.
    Del {
        /// Per-shard log sequence number (1-based, dense).
        lsn: u64,
        /// The key removed.
        key: u64,
    },
    /// Checkpoint header: replay log records with `lsn >= start_lsn` on
    /// top of the checkpoint's entries.
    CkptBegin {
        /// First LSN *not* guaranteed to be reflected in the entries.
        start_lsn: u64,
    },
    /// One checkpointed key/value pair.
    CkptEntry {
        /// The checkpointed key.
        key: u64,
        /// The checkpointed value.
        value: u64,
    },
    /// Checkpoint footer: `entries` must match the `CkptEntry` count or
    /// the whole checkpoint is rejected.
    CkptEnd {
        /// Number of `CkptEntry` records preceding this footer.
        entries: u64,
    },
}

impl Record {
    /// The LSN this record carries, if it is a redo record.
    pub fn lsn(&self) -> Option<u64> {
        match self {
            Record::Set { lsn, .. } | Record::Del { lsn, .. } => Some(*lsn),
            _ => None,
        }
    }

    /// Append this record as a complete frame.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        match self {
            Record::Set { lsn, key, value } => frame_set(out, *lsn, *key, *value),
            Record::Del { lsn, key } => frame_del(out, *lsn, *key),
            Record::CkptBegin { start_lsn } => frame_ckpt_begin(out, *start_lsn),
            Record::CkptEntry { key, value } => frame_ckpt_entry(out, *key, *value),
            Record::CkptEnd { entries } => frame_ckpt_end(out, *entries),
        }
    }
}

/// Begin a frame: reserve the header, return the payload start offset.
#[inline]
fn open_frame(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    out.len()
}

/// Seal a frame whose payload begins at `payload_at`: patch length and
/// CRC into the reserved header.
#[inline]
fn seal_frame(out: &mut [u8], payload_at: usize) {
    let len = out.len() - payload_at;
    debug_assert!(len <= MAX_PAYLOAD);
    let crc = crc32(&out[payload_at..]);
    out[payload_at - 8..payload_at - 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[payload_at - 4..payload_at].copy_from_slice(&crc.to_le_bytes());
}

#[inline]
fn push_key(out: &mut Vec<u8>, key: u64) {
    out.extend_from_slice(&KEY_LEN.to_le_bytes());
    out.extend_from_slice(&key.to_be_bytes());
}

/// Append a `Set` frame without materializing a [`Record`].
pub fn frame_set(out: &mut Vec<u8>, lsn: u64, key: u64, value: u64) {
    let p = open_frame(out);
    out.push(TAG_SET);
    out.extend_from_slice(&lsn.to_le_bytes());
    push_key(out, key);
    out.extend_from_slice(&value.to_le_bytes());
    seal_frame(out, p);
}

/// Append a `Del` frame without materializing a [`Record`].
pub fn frame_del(out: &mut Vec<u8>, lsn: u64, key: u64) {
    let p = open_frame(out);
    out.push(TAG_DEL);
    out.extend_from_slice(&lsn.to_le_bytes());
    push_key(out, key);
    seal_frame(out, p);
}

/// Append a `CkptBegin` frame.
pub fn frame_ckpt_begin(out: &mut Vec<u8>, start_lsn: u64) {
    let p = open_frame(out);
    out.push(TAG_CKPT_BEGIN);
    out.extend_from_slice(&start_lsn.to_le_bytes());
    seal_frame(out, p);
}

/// Append a `CkptEntry` frame.
pub fn frame_ckpt_entry(out: &mut Vec<u8>, key: u64, value: u64) {
    let p = open_frame(out);
    out.push(TAG_CKPT_ENTRY);
    push_key(out, key);
    out.extend_from_slice(&value.to_le_bytes());
    seal_frame(out, p);
}

/// Append a `CkptEnd` frame.
pub fn frame_ckpt_end(out: &mut Vec<u8>, entries: u64) {
    let p = open_frame(out);
    out.push(TAG_CKPT_END);
    out.extend_from_slice(&entries.to_le_bytes());
    seal_frame(out, p);
}

/// Where (and why) a byte stream stopped decoding: the valid prefix ends
/// at `offset`; everything from there on is torn or corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the end of the last fully valid frame.
    pub offset: u64,
    /// Human-readable cause (short header, crc mismatch, ...).
    pub reason: String,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "torn tail at byte {}: {}", self.offset, self.reason)
    }
}

/// A cursor over a contiguous byte image of a log (or checkpoint) file.
pub struct FrameCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameCursor<'a> {
    /// Start decoding at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameCursor { buf, pos: 0 }
    }

    /// Byte offset of the next undecoded frame — after an `Err`, the
    /// truncation point.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    fn torn(&self, reason: impl Into<String>) -> TornTail {
        TornTail {
            offset: self.pos as u64,
            reason: reason.into(),
        }
    }

    /// Decode the next frame. `Ok(None)` at a clean end of stream;
    /// `Err` at the first byte that cannot belong to a valid frame (the
    /// cursor's [`offset`](Self::offset) then marks the valid prefix).
    pub fn next_frame(&mut self) -> Result<Option<Record>, TornTail> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        if rest.len() < FRAME_HEADER {
            return Err(self.torn(format!("{}-byte partial frame header", rest.len())));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_PAYLOAD {
            return Err(self.torn(format!("implausible payload length {len}")));
        }
        if rest.len() < FRAME_HEADER + len {
            return Err(self.torn(format!(
                "payload truncated: {} of {len} bytes present",
                rest.len() - FRAME_HEADER
            )));
        }
        let crc_stored = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        let crc_actual = crc32(payload);
        if crc_actual != crc_stored {
            return Err(self.torn(format!(
                "crc mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}"
            )));
        }
        match decode_payload(payload) {
            Ok(rec) => {
                self.pos += FRAME_HEADER + len;
                Ok(Some(rec))
            }
            Err(e) => Err(self.torn(format!("valid crc but malformed payload: {e}"))),
        }
    }
}

struct Body<'a>(&'a [u8]);

impl<'a> Body<'a> {
    fn u16(&mut self) -> Result<u16, String> {
        if self.0.len() < 2 {
            return Err("short u16".into());
        }
        let v = u16::from_le_bytes(self.0[..2].try_into().unwrap());
        self.0 = &self.0[2..];
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, String> {
        if self.0.len() < 8 {
            return Err("short u64".into());
        }
        let v = u64::from_le_bytes(self.0[..8].try_into().unwrap());
        self.0 = &self.0[8..];
        Ok(v)
    }

    fn key(&mut self) -> Result<u64, String> {
        let n = self.u16()?;
        if n != KEY_LEN {
            return Err(format!("key length {n}, not {KEY_LEN}"));
        }
        let Some((k, rest)) = self.0.split_first_chunk::<8>() else {
            return Err("short key".into());
        };
        self.0 = rest;
        Ok(u64::from_be_bytes(*k))
    }

    fn finish(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing payload bytes", self.0.len()))
        }
    }
}

fn decode_payload(payload: &[u8]) -> Result<Record, String> {
    let (&tag, body) = payload.split_first().ok_or("empty payload")?;
    let mut b = Body(body);
    let rec = match tag {
        TAG_SET => Record::Set {
            lsn: b.u64()?,
            key: b.key()?,
            value: b.u64()?,
        },
        TAG_DEL => Record::Del {
            lsn: b.u64()?,
            key: b.key()?,
        },
        TAG_CKPT_BEGIN => Record::CkptBegin {
            start_lsn: b.u64()?,
        },
        TAG_CKPT_ENTRY => Record::CkptEntry {
            key: b.key()?,
            value: b.u64()?,
        },
        TAG_CKPT_END => Record::CkptEnd { entries: b.u64()? },
        other => return Err(format!("unknown record tag {other:#04x}")),
    };
    b.finish()?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Set {
                lsn: 1,
                key: 42,
                value: 1000,
            },
            Record::Del { lsn: 2, key: 0 },
            Record::Set {
                lsn: 3,
                key: u64::MAX,
                value: u64::MAX,
            },
            Record::CkptBegin { start_lsn: 4 },
            Record::CkptEntry { key: 7, value: 7 },
            Record::CkptEnd { entries: 1 },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            r.encode_frame(&mut buf);
        }
        let mut cur = FrameCursor::new(&buf);
        let mut got = Vec::new();
        while let Some(r) = cur.next_frame().expect("valid stream") {
            got.push(r);
        }
        assert_eq!(got, recs);
        assert_eq!(cur.offset(), buf.len() as u64);
    }

    #[test]
    fn truncation_at_any_offset_stops_at_frame_boundary() {
        let recs = sample_records();
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            r.encode_frame(&mut buf);
            boundaries.push(buf.len());
        }
        for cut in 0..buf.len() {
            let mut cur = FrameCursor::new(&buf[..cut]);
            let mut n = 0;
            let end = loop {
                match cur.next_frame() {
                    Ok(Some(_)) => n += 1,
                    Ok(None) => break cur.offset(),
                    Err(t) => break t.offset,
                }
            };
            // The decoded prefix is exactly the whole frames before the cut.
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(n, whole, "cut at {cut}");
            assert_eq!(end as usize, boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn zero_length_and_giant_frames_are_rejected() {
        let mut buf = vec![0u8; FRAME_HEADER];
        assert!(
            FrameCursor::new(&buf).next_frame().is_err(),
            "len 0 rejected"
        );
        buf[0..4].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(
            FrameCursor::new(&buf).next_frame().is_err(),
            "oversize rejected"
        );
    }

    #[test]
    fn crc_protects_every_payload_byte() {
        let mut buf = Vec::new();
        Record::Set {
            lsn: 9,
            key: 0x6b,
            value: 3,
        }
        .encode_frame(&mut buf);
        assert_eq!(buf.len(), 35, "a SET is 35 bytes on disk");
        for i in FRAME_HEADER..buf.len() {
            let mut evil = buf.clone();
            evil[i] ^= 0x40;
            let got = FrameCursor::new(&evil).next_frame();
            assert!(got.is_err(), "payload flip at {i} undetected");
        }
    }
}
