//! Storage & wire codec: the checksummed binary v3 format.
//!
//! Everything durable or shipped — snapshot generations, WAL records,
//! replication batches, anti-entropy snapshots, protocol frames — is
//! written as a v3 envelope: LEB128 varints and delta-encoded sorted
//! columns behind one CRC. Snapshots are several-fold smaller than the
//! retired text formats and decode without a JSON parser; recovery
//! replay is correspondingly faster (experiment E24 measured both
//! before those formats were retired).
//!
//! Every read path reads exactly this format. A file in one of the
//! text formats that builds before v3 wrote is refused by name, never
//! decoded, quarantined or skipped: [`refuse_pre_v3`] recognises it by
//! its leading bytes and returns [`pre_v3_error`], which names the last
//! build that reads it and the remedy.
//!
//! ## The v3 envelope
//!
//! Every v3 record — on disk or on the wire — is one envelope:
//!
//! ```text
//! "SLB3"  version  mode  body_len  body        crc32
//! 4 bytes  1 byte 1 byte  varint  body_len B  4 B LE
//! ```
//!
//! The CRC-32 ([`hashkit::crc32()`]) covers everything between the magic
//! and the trailer (version, mode, length varint, body), so any bit flip
//! in the framing or payload fails verification; the magic itself is the
//! format check, so a flipped magic simply stops being v3. Decoders are
//! hard-limit bounded ([`MAX_BODY_LEN`], [`MAX_SLOT_COUNT`]) and never
//! allocate more than the input could justify, so corrupt or adversarial
//! length fields cannot balloon memory — they fail closed into the
//! quarantine paths of recovery and `scrub`.
//!
//! ## Columnar snapshot bodies
//!
//! A v3 snapshot body stores per-sketch slot state as three columns:
//! the non-empty slot hashes sorted ascending and delta-encoded (minima
//! of uniform hashes delta-compress well), the slot-index permutation
//! that returns each hash to its slot, and the argmin vertex ids. A slot
//! in memory holds only its hash: the writer derives each argmin from it
//! and the reader checks that every argmin hashes back to its slot before
//! dropping it.
//! Vertex ids are likewise sorted and delta-encoded across the store.
//!
//! ## Varints
//!
//! Unsigned LEB128: 7 value bits per byte, high bit is the continuation
//! flag, low groups first, at most 10 bytes for a `u64`.

use std::fmt;
use std::io::{self, BufRead, Read};
use std::path::Path;

use graphstream::VertexId;
use hashkit::crc32::{crc32, Crc32};
use hashkit::HashFamily;

use crate::config::SketchConfig;
use crate::journal::JournalEntry;
use crate::sketch::{Slot, VertexSketch};
use crate::snapshot::{StoreSnapshot, VertexEntry};
use crate::store::SketchStore;

/// The 4-byte magic opening every binary v3 envelope.
pub const BINARY_MAGIC: [u8; 4] = *b"SLB3";

/// The format version byte carried after the magic.
pub const BINARY_VERSION: u8 = 3;

/// Hard upper bound on one envelope's body length (16 GiB), far above
/// any store this program holds: a k=256 store of 100k vertices is a
/// ~315 MB snapshot body. A length field beyond it fails decoding
/// immediately. Below it, readers still never allocate from the length
/// field alone: a decode from bytes in memory is bounded by those bytes,
/// and [`read_envelope_blocking`] buffers only what arrives, so a
/// corrupt length fails as truncation, not as a huge allocation.
pub const MAX_BODY_LEN: u64 = 1 << 34;

/// Hard upper bound on the slot count of a decoded sketch (far above
/// any configurable width).
pub const MAX_SLOT_COUNT: u64 = 1 << 20;

/// Envelope mode byte: one WAL edge record.
pub const MODE_WAL_ENTRY: u8 = 0x01;
/// Envelope mode byte: a [`StoreSnapshot`] body.
pub const MODE_STORE_SNAPSHOT: u8 = 0x02;
/// Retired envelope mode byte: the duplicate-robust store snapshot,
/// which nothing writes any more. Never reused, so such a file fails on
/// the mode byte instead of mis-decoding as another body.
pub const MODE_ROBUST_SNAPSHOT: u8 = 0x03;
/// Envelope mode byte: a protocol frame whose body is UTF-8 command or
/// response text (the negotiated binary wire mode).
pub const MODE_TEXT_FRAME: u8 = 0x04;
/// Envelope mode byte: a replication batch of WAL entries.
pub const MODE_WAL_BATCH: u8 = 0x05;
/// Retired envelope mode byte: the pre-v3 snapshot transfer (seq, raw
/// length, LZ-compressed JSON). Never reused, so a peer on that version
/// fails on the mode byte instead of mis-decoding the body.
pub const MODE_LZ_SNAPSHOT_FRAME: u8 = 0x06;
/// Envelope mode byte: an anti-entropy or resync snapshot transfer whose
/// body is `varint seq` followed by the same v3 store-snapshot body a
/// checkpoint writes.
pub const MODE_SNAPSHOT_FRAME: u8 = 0x07;

/// Why a binary decode failed — or, for [`CodecError::TooLarge`] and
/// [`CodecError::Malformed`], why an encode refused its input. Every
/// decode variant is a fail-closed outcome: callers treat the input as
/// corrupt and route it to quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends before the envelope (or a field) is complete.
    Truncated,
    /// The input does not start with [`BINARY_MAGIC`].
    BadMagic,
    /// The version byte is not [`BINARY_VERSION`].
    BadVersion(u8),
    /// The mode byte is not one this decoder accepts.
    BadMode(u8),
    /// The CRC-32 trailer does not match the framed bytes.
    BadCrc,
    /// A length field exceeds its hard limit.
    TooLarge(&'static str),
    /// The framing verified but the body is structurally invalid.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated record"),
            CodecError::BadMagic => write!(f, "missing binary magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadMode(m) => write!(f, "unexpected record mode {m:#04x}"),
            CodecError::BadCrc => write!(f, "CRC mismatch"),
            CodecError::TooLarge(what) => write!(f, "{what} exceeds hard limit"),
            CodecError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Appends `value` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint at `*pos`, advancing it.
///
/// # Errors
/// [`CodecError::Truncated`] if the input ends mid-varint;
/// [`CodecError::Malformed`] if the encoding overflows a `u64`.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    leb128(|| {
        let b = *bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        Ok(b)
    })
}

/// Whether `bytes` opens with the binary v3 magic: the envelope's
/// format check.
fn is_binary(bytes: &[u8]) -> bool {
    bytes.starts_with(&BINARY_MAGIC)
}

/// The last commit whose build still reads the pre-v3 text formats.
pub const LAST_PRE_V3_READER: &str = "528a374";

/// The first commit whose build writes only v3: any build from it
/// through [`LAST_PRE_V3_READER`] converts a pre-v3 data directory.
pub const FIRST_V3_WRITER: &str = "0b8569b";

/// How many leading bytes [`refuse_pre_v3`] needs to see: the longest
/// signature, `STREAMLINK-SNAP`.
pub const PRE_V3_HEAD_LEN: usize = 15;

/// The two kinds of file that builds before v3 wrote in text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A snapshot: a data directory's generation or a `--snapshot` file.
    Snapshot,
    /// A WAL segment (`wal.<seq>.log`).
    WalSegment,
}

/// Refuses the file at `path` when `head`, its leading bytes, carries
/// the signature of a format a pre-v3 build wrote: `STREAMLINK-SNAP`
/// (v2) or `{` (v1 bare JSON) for a snapshot, `F ` (v2) or `E ` (v1)
/// for a WAL segment. This is the one rule that tells a pre-v3 file
/// from a damaged v3 one. No single bit flip of a v3 file gives a
/// signature (`F`, `E` and `{` each differ from the magic's leading `S`,
/// 0x53, in two or three bits, and `STREAMLINK-SNAP` from `SLB3` in
/// more), so a v3 file is never refused here: damage stays damage, for
/// quarantine or fallback.
///
/// # Errors
/// [`pre_v3_error`] for a pre-v3 file.
pub fn refuse_pre_v3(kind: FileKind, path: &Path, head: &[u8]) -> io::Result<()> {
    let signatures: &[&[u8]] = match kind {
        FileKind::Snapshot => &[b"STREAMLINK-SNAP", b"{"],
        FileKind::WalSegment => &[b"F ", b"E "],
    };
    if signatures.iter().any(|sig| head.starts_with(sig)) {
        return Err(pre_v3_error(path));
    }
    Ok(())
}

/// The error every read path returns for a file a pre-v3 build wrote.
/// Its kind is [`io::ErrorKind::Unsupported`], never `InvalidData`, so
/// no caller mistakes it for damage to quarantine or skip; the message
/// names the file, the last build that reads it and the remedy.
#[must_use]
pub fn pre_v3_error(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!(
            "{}: written by a pre-v3 build of streamlink in a text format this build \
             does not read; the last build that reads it is commit {LAST_PRE_V3_READER}. \
             Remedy: run any build from commit {FIRST_V3_WRITER} through \
             {LAST_PRE_V3_READER} once on the data directory with `--snapshot-keep 1` \
             and stop it with SIGTERM; its final checkpoint rewrites the directory \
             in v3 (docs/OPERATIONS.md §12.2)",
            path.display()
        ),
    )
}

/// A decoded v3 envelope: the mode byte, the body slice, and how many
/// input bytes the whole record consumed (for scanning concatenated
/// records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// The record's mode byte.
    pub mode: u8,
    /// The verified body.
    pub body: &'a [u8],
    /// Total encoded length including magic and CRC trailer.
    pub consumed: usize,
}

/// Appends an envelope header: magic, version, mode, length varint.
fn write_header(out: &mut Vec<u8>, mode: u8, body_len: usize) {
    out.extend_from_slice(&BINARY_MAGIC);
    out.push(BINARY_VERSION);
    out.push(mode);
    write_varint(out, body_len as u64);
}

/// Wraps `body` in a v3 envelope (magic, version, mode, length varint,
/// body, CRC-32 trailer).
#[must_use]
pub fn encode_envelope(mode: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 20);
    write_header(&mut out, mode, body.len());
    out.extend_from_slice(body);
    let crc = crc32(&out[BINARY_MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The envelope [`encode_envelope`] would build around `body`, as its
/// header and CRC-32 trailer, so a writer can emit header, body and
/// trailer in turn without copying the body into one buffer.
#[must_use]
pub(crate) fn envelope_frame(mode: u8, body: &[u8]) -> (Vec<u8>, [u8; 4]) {
    let mut header = Vec::with_capacity(16);
    write_header(&mut header, mode, body.len());
    let mut crc = Crc32::new();
    crc.update(&header[BINARY_MAGIC.len()..]);
    crc.update(body);
    (header, crc.finish().to_le_bytes())
}

/// The writer's half of [`MAX_BODY_LEN`]: refuses a body the reader
/// would reject, so nothing unreadable reaches disk.
///
/// # Errors
/// [`CodecError::TooLarge`] when `len` exceeds [`MAX_BODY_LEN`].
fn check_body_len(len: usize) -> Result<(), CodecError> {
    if len as u64 > MAX_BODY_LEN {
        return Err(CodecError::TooLarge("record body length"));
    }
    Ok(())
}

/// Decodes and verifies one envelope at the start of `bytes`.
///
/// Trailing bytes after the record are fine (concatenated records);
/// [`Envelope::consumed`] says where this one ends.
///
/// # Errors
/// Fails closed on any framing defect — missing magic, bad version,
/// truncation, an oversized length field, or a CRC mismatch.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope<'_>, CodecError> {
    if bytes.len() < BINARY_MAGIC.len() {
        return Err(if is_binary(bytes) || BINARY_MAGIC.starts_with(bytes) {
            CodecError::Truncated
        } else {
            CodecError::BadMagic
        });
    }
    if !is_binary(bytes) {
        return Err(CodecError::BadMagic);
    }
    let mut pos = BINARY_MAGIC.len();
    let Some(&version) = bytes.get(pos) else {
        return Err(CodecError::Truncated);
    };
    if version != BINARY_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    pos += 1;
    let Some(&mode) = bytes.get(pos) else {
        return Err(CodecError::Truncated);
    };
    pos += 1;
    let body_len = read_varint(bytes, &mut pos)?;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::TooLarge("record body length"));
    }
    let body_len =
        usize::try_from(body_len).map_err(|_| CodecError::TooLarge("record body length"))?;
    let body_end = pos
        .checked_add(body_len)
        .ok_or(CodecError::TooLarge("record body length"))?;
    let trailer_end = body_end
        .checked_add(4)
        .ok_or(CodecError::TooLarge("record body length"))?;
    if bytes.len() < trailer_end {
        return Err(CodecError::Truncated);
    }
    let expected = u32::from_le_bytes(
        bytes[body_end..trailer_end]
            .try_into()
            .expect("4-byte slice"),
    );
    if crc32(&bytes[BINARY_MAGIC.len()..body_end]) != expected {
        return Err(CodecError::BadCrc);
    }
    Ok(Envelope {
        mode,
        body: &bytes[pos..body_end],
        consumed: trailer_end,
    })
}

// ---------------------------------------------------------------------
// WAL entries and replication batches
// ---------------------------------------------------------------------

fn wal_entry_body(entry: &JournalEntry) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    write_varint(&mut body, entry.seq);
    write_varint(&mut body, entry.u.0);
    write_varint(&mut body, entry.v.0);
    body
}

/// Encodes one WAL entry as a standalone v3 record.
#[must_use]
pub fn encode_wal_entry(entry: &JournalEntry) -> Vec<u8> {
    encode_envelope(MODE_WAL_ENTRY, &wal_entry_body(entry))
}

/// Decodes the body of a [`MODE_WAL_ENTRY`] envelope.
///
/// # Errors
/// Fails if the body is not exactly three varints.
pub fn decode_wal_entry_body(body: &[u8]) -> Result<JournalEntry, CodecError> {
    let mut pos = 0;
    let seq = read_varint(body, &mut pos)?;
    let u = read_varint(body, &mut pos)?;
    let v = read_varint(body, &mut pos)?;
    if pos != body.len() {
        return Err(CodecError::Malformed("trailing bytes after WAL entry"));
    }
    Ok(JournalEntry {
        seq,
        u: VertexId(u),
        v: VertexId(v),
    })
}

/// Encodes a replication pull batch: the primary's high-water seq and a
/// seq-ascending run of entries (seqs delta-encoded).
#[must_use]
pub fn encode_wal_batch(entries: &[JournalEntry], primary_seq: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + entries.len() * 8);
    write_varint(&mut body, primary_seq);
    write_varint(&mut body, entries.len() as u64);
    let mut prev = 0u64;
    for (i, e) in entries.iter().enumerate() {
        let delta = if i == 0 {
            e.seq
        } else {
            e.seq.wrapping_sub(prev)
        };
        write_varint(&mut body, delta);
        prev = e.seq;
        write_varint(&mut body, e.u.0);
        write_varint(&mut body, e.v.0);
    }
    encode_envelope(MODE_WAL_BATCH, &body)
}

/// Decodes the body of a [`MODE_WAL_BATCH`] envelope into
/// `(entries, primary_seq)`.
///
/// # Errors
/// Fails on truncation, non-ascending seqs, or count/length mismatch.
pub fn decode_wal_batch_body(body: &[u8]) -> Result<(Vec<JournalEntry>, u64), CodecError> {
    let mut pos = 0;
    let primary_seq = read_varint(body, &mut pos)?;
    let count = read_varint(body, &mut pos)?;
    // Each entry needs at least 3 bytes; a count the remaining bytes
    // cannot hold is corrupt, and bounding the pre-allocation by it
    // keeps a flipped count bit from ballooning memory.
    if count > (body.len() - pos.min(body.len())) as u64 {
        return Err(CodecError::Malformed("batch count exceeds body"));
    }
    let count = usize::try_from(count).map_err(|_| CodecError::TooLarge("batch count"))?;
    let mut entries = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let delta = read_varint(body, &mut pos)?;
        let seq = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .filter(|_| delta > 0)
                .ok_or(CodecError::Malformed("batch seqs not ascending"))?
        };
        prev = seq;
        let u = read_varint(body, &mut pos)?;
        let v = read_varint(body, &mut pos)?;
        entries.push(JournalEntry {
            seq,
            u: VertexId(u),
            v: VertexId(v),
        });
    }
    if pos != body.len() {
        return Err(CodecError::Malformed("trailing bytes after batch"));
    }
    Ok((entries, primary_seq))
}

/// Encodes UTF-8 command/response text as a [`MODE_TEXT_FRAME`] record —
/// the unit of the negotiated binary protocol mode.
#[must_use]
pub fn encode_text_frame(text: &str) -> Vec<u8> {
    encode_envelope(MODE_TEXT_FRAME, text.as_bytes())
}

/// Reads one complete envelope from a blocking byte stream, returning
/// its `(mode, body)`. This is the client side of the negotiated binary
/// protocol mode, where frames arrive back-to-back on a socket and the
/// length prefix is the only delimiter.
///
/// # Errors
/// `UnexpectedEof` when the peer closes mid-frame; `InvalidData` (via
/// [`CodecError`]) for any framing defect, including a length field
/// past [`MAX_BODY_LEN`] — rejected before anything is read.
pub fn read_envelope_blocking(reader: &mut impl io::Read) -> io::Result<(u8, Vec<u8>)> {
    // Magic + version + mode.
    let mut buf = vec![0u8; BINARY_MAGIC.len() + 2];
    reader.read_exact(&mut buf)?;
    if !is_binary(&buf) {
        return Err(CodecError::BadMagic.into());
    }
    let version = buf[BINARY_MAGIC.len()];
    if version != BINARY_VERSION {
        return Err(CodecError::BadVersion(version).into());
    }
    // Length varint, one byte at a time (at most 10).
    let varint_start = buf.len();
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        buf.push(byte[0]);
        if byte[0] & 0x80 == 0 {
            break;
        }
        if buf.len() - varint_start >= 10 {
            return Err(CodecError::Malformed("varint too long").into());
        }
    }
    let mut pos = varint_start;
    let body_len = read_varint(&buf, &mut pos)?;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::TooLarge("record body length").into());
    }
    // Body + CRC trailer, buffered as it arrives rather than sized from
    // the length field, then verified through the one decoder.
    let body_start = buf.len();
    let rest = body_len + 4;
    if (reader.by_ref().take(rest).read_to_end(&mut buf)? as u64) < rest {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let mode = decode_envelope(&buf)?.mode;
    // Hand back the body in the buffer it arrived in, not a copy of it.
    buf.truncate(buf.len() - 4);
    buf.drain(..body_start);
    Ok((mode, buf))
}

// ---------------------------------------------------------------------
// Streaming input
// ---------------------------------------------------------------------

/// The byte source every snapshot-body decoder reads: any [`BufRead`],
/// whether a slice in memory or a buffered file, decoded in place.
///
/// Decoded bytes go back to the source, and into the running CRC when
/// one is kept, a whole buffer at a time rather than field by field.
/// No read passes `limit`, so a body decoder cannot run on into the
/// trailer. A read error from the source ends decoding as
/// [`CodecError::Truncated`] and is kept in `io_error` for the caller to
/// report as what it was.
struct Input<R> {
    inner: R,
    /// Bytes of `inner`'s current buffer already decoded but not yet
    /// handed back.
    used: usize,
    /// Source bytes handed back so far.
    consumed: u64,
    /// Absolute position no read may pass.
    limit: u64,
    /// How many bytes the source holds in all (a file's length, a
    /// slice's), which bounds counts before anything is reserved.
    held: u64,
    crc: Option<Crc32>,
    io_error: Option<io::Error>,
}

impl<'a> Input<&'a [u8]> {
    /// Input over bytes already in memory.
    fn slice(bytes: &'a [u8]) -> Self {
        Input::new(bytes, bytes.len() as u64)
    }
}

impl<R: BufRead> Input<R> {
    fn new(inner: R, held: u64) -> Self {
        Input {
            inner,
            used: 0,
            consumed: 0,
            limit: u64::MAX,
            held,
            crc: None,
            io_error: None,
        }
    }

    /// Bytes read so far.
    fn position(&self) -> u64 {
        self.consumed + self.used as u64
    }

    /// Bytes that can still be read: up to `limit` and within what the
    /// source holds.
    fn remaining(&self) -> u64 {
        self.limit.min(self.held).saturating_sub(self.position())
    }

    /// Where the source's current buffer ends, cut at `limit` (0 at the
    /// end of the source, or on a read error).
    fn buffer_end(&mut self) -> usize {
        let room = usize::try_from(self.limit.saturating_sub(self.consumed)).unwrap_or(usize::MAX);
        loop {
            match self.inner.fill_buf() {
                Ok(buf) => return buf.len().min(room),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.io_error.get_or_insert(e);
                    return 0;
                }
            }
        }
    }

    /// The undecoded rest of the current buffer, refilled once it is
    /// spent; empty only at the end of the source or at `limit`.
    fn rest(&mut self) -> &[u8] {
        let mut end = self.buffer_end();
        if self.used > 0 && self.used >= end {
            self.flush();
            end = self.buffer_end();
        }
        match self.inner.fill_buf() {
            Ok(buf) if self.used < end => &buf[self.used..end],
            _ => &[],
        }
    }

    /// Hands the decoded bytes back to the source, folding them into the
    /// CRC first.
    fn flush(&mut self) {
        if self.used == 0 {
            return;
        }
        if let (Some(crc), Ok(buf)) = (self.crc.as_mut(), self.inner.fill_buf()) {
            crc.update(&buf[..self.used]);
        }
        self.inner.consume(self.used);
        self.consumed += self.used as u64;
        self.used = 0;
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.rest().first().ok_or(CodecError::Truncated)?;
        self.used += 1;
        Ok(b)
    }

    /// Decodes one sketch: in one go from the current buffer when it
    /// holds the whole sketch, which skips the per-field buffer checks,
    /// and field by field across a refill when it does not.
    fn sketch(&mut self, sketches: &mut SketchDecoder) -> Result<VertexSketch, CodecError> {
        let mut window = Window {
            bytes: self.rest(),
            pos: 0,
        };
        match sketches.decode(&mut window) {
            Ok(sketch) => {
                let read = window.pos;
                self.used += read;
                Ok(sketch)
            }
            Err(CodecError::Truncated) => sketches.decode(self),
            Err(e) => Err(e),
        }
    }

    /// Reads on to `limit` (or the end of the source), so the CRC
    /// covers everything up to it.
    fn skip_to_limit(&mut self) {
        loop {
            let n = self.rest().len();
            if n == 0 {
                return;
            }
            self.used += n;
        }
    }

    /// Starts a CRC over everything read after this point.
    fn start_crc(&mut self) {
        self.flush();
        self.crc = Some(Crc32::new());
    }

    /// Ends the CRC begun by [`Self::start_crc`] and returns its value.
    fn finish_crc(&mut self) -> u32 {
        self.flush();
        self.crc.take().map_or(0, |crc| crc.finish())
    }
}

/// A source of LEB128 varints for the column decoders.
trait Varints {
    fn varint(&mut self) -> Result<u64, CodecError>;
}

impl<R: BufRead> Varints for Input<R> {
    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut pos = 0;
        match read_varint(self.rest(), &mut pos) {
            Ok(value) => {
                self.used += pos;
                Ok(value)
            }
            // The buffer ends mid-varint: read it again a byte at a
            // time, across the refill.
            Err(CodecError::Truncated) => leb128(|| self.byte()),
            Err(e) => Err(e),
        }
    }
}

/// The rest of [`Input`]'s current buffer, read as plain bytes.
struct Window<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Varints for Window<'_> {
    fn varint(&mut self) -> Result<u64, CodecError> {
        read_varint(self.bytes, &mut self.pos)
    }
}

/// Unsigned LEB128 over a byte supplier.
fn leb128(mut next: impl FnMut() -> Result<u8, CodecError>) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    for i in 0..10u32 {
        let b = next()?;
        let group = u64::from(b & 0x7f);
        if i == 9 && group > 1 {
            return Err(CodecError::Malformed("varint overflows u64"));
        }
        value |= group << (7 * i);
        if b & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(CodecError::Malformed("varint longer than 10 bytes"))
}

// ---------------------------------------------------------------------
// Columnar sketch encoding
// ---------------------------------------------------------------------

/// Appends one sketch's three columns. A slot stores no argmin, so the
/// argmin column is derived: each hash inverted through its slot's
/// function.
fn encode_sketch(out: &mut Vec<u8>, sketch: &VertexSketch, family: &HashFamily) {
    let mut filled: Vec<(u64, usize)> = sketch
        .slots()
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, s)| (s.hash, i))
        .collect();
    filled.sort_unstable();
    write_varint(out, filled.len() as u64);
    // Column 1: sorted hashes, delta-encoded.
    let mut prev = 0u64;
    for &(hash, _) in &filled {
        write_varint(out, hash - prev);
        prev = hash;
    }
    // Column 2: the slot-index permutation.
    for &(_, idx) in &filled {
        write_varint(out, idx as u64);
    }
    // Column 3: the argmin vertices.
    for &(hash, idx) in &filled {
        write_varint(out, family.member(idx).invert(hash));
    }
}

/// Decodes sketches of one config's width, keeping its working buffers
/// across vertices so that each sketch costs one allocation: its slot
/// array.
struct SketchDecoder {
    k: usize,
    family: HashFamily,
    hashes: Vec<u64>,
    indices: Vec<usize>,
    taken: Vec<bool>,
}

impl SketchDecoder {
    fn new(config: &SketchConfig) -> Self {
        let k = config.slots();
        SketchDecoder {
            k,
            family: config.build_bank(),
            hashes: Vec::with_capacity(k),
            indices: Vec::with_capacity(k),
            taken: vec![false; k],
        }
    }

    /// One sketch. Every stored argmin must hash to its slot's minimum:
    /// one forward hash per filled slot, so a corrupt argmin fails closed
    /// here instead of surfacing as a wrong sample later.
    fn decode(&mut self, input: &mut impl Varints) -> Result<VertexSketch, CodecError> {
        let k = self.k;
        let filled = input.varint()?;
        if filled > k as u64 {
            return Err(CodecError::Malformed("filled slots exceed sketch width"));
        }
        let filled =
            usize::try_from(filled).map_err(|_| CodecError::TooLarge("filled slot count"))?;
        self.hashes.clear();
        let mut prev = 0u64;
        for i in 0..filled {
            let delta = input.varint()?;
            let hash = if i == 0 {
                delta
            } else {
                prev.checked_add(delta)
                    .ok_or(CodecError::Malformed("hash column overflows"))?
            };
            prev = hash;
            self.hashes.push(hash);
        }
        self.indices.clear();
        self.taken.fill(false);
        for _ in 0..filled {
            let idx = input.varint()?;
            let idx = usize::try_from(idx)
                .ok()
                .filter(|&i| i < k)
                .ok_or(CodecError::Malformed("slot index out of range"))?;
            if std::mem::replace(&mut self.taken[idx], true) {
                return Err(CodecError::Malformed("duplicate slot index"));
            }
            self.indices.push(idx);
        }
        let mut slots = vec![Slot::EMPTY; k].into_boxed_slice();
        for (&idx, &hash) in self.indices.iter().zip(&self.hashes) {
            let argmin = input.varint()?;
            if self.family.member(idx).hash(argmin) != hash {
                return Err(CodecError::Malformed(
                    "slot argmin does not hash to its slot",
                ));
            }
            slots[idx] = Slot { hash };
        }
        Ok(VertexSketch::from_slots(slots))
    }
}

// ---------------------------------------------------------------------
// Snapshot bodies
// ---------------------------------------------------------------------

/// The v3 config byte of the hasher backend: the one hash family is
/// `0`.
const BACKEND_MIXER: u8 = 0;

/// The v3 config byte of the retired Tabulation backend, which no build
/// since its removal writes or reads. Reserved: never reused for another
/// family.
pub(crate) const BACKEND_RETIRED_TABULATION: u8 = 1;

fn encode_config(out: &mut Vec<u8>, config: &SketchConfig) -> Result<(), CodecError> {
    if config.slots() as u64 > MAX_SLOT_COUNT {
        return Err(CodecError::TooLarge("sketch slot count"));
    }
    write_varint(out, config.slots() as u64);
    write_varint(out, config.base_seed());
    out.push(BACKEND_MIXER);
    Ok(())
}

fn decode_config<R: BufRead>(input: &mut Input<R>) -> Result<SketchConfig, CodecError> {
    let slots = input.varint()?;
    if slots == 0 || slots > MAX_SLOT_COUNT {
        return Err(CodecError::Malformed("slot count out of range"));
    }
    let slots = usize::try_from(slots).map_err(|_| CodecError::TooLarge("slot count"))?;
    let seed = input.varint()?;
    match input.byte()? {
        BACKEND_MIXER => Ok(SketchConfig::with_slots(slots).seed(seed)),
        BACKEND_RETIRED_TABULATION => Err(CodecError::Malformed(
            "hasher backend 1 is the retired Tabulation backend, which this build does not read",
        )),
        _ => Err(CodecError::Malformed("unknown hasher backend")),
    }
}

/// Decodes the sorted, delta-encoded vertex-id column.
fn decode_vertex_column<R: BufRead>(
    input: &mut Input<R>,
    count: usize,
) -> Result<Vec<VertexId>, CodecError> {
    let mut out = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let delta = input.varint()?;
        let id = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .filter(|_| delta > 0)
                .ok_or(CodecError::Malformed("vertex ids not strictly ascending"))?
        };
        prev = id;
        out.push(VertexId(id));
    }
    Ok(out)
}

fn read_vertex_count<R: BufRead>(input: &mut Input<R>) -> Result<usize, CodecError> {
    let count = input.varint()?;
    // Every vertex costs at least two body bytes (id delta + degree or
    // sketch header); a count beyond the bytes the body can still hold
    // is corrupt, and is refused before anything is reserved for it.
    if count > input.remaining() {
        return Err(CodecError::Malformed("vertex count exceeds body"));
    }
    usize::try_from(count).map_err(|_| CodecError::TooLarge("vertex count"))
}

/// Where the store-snapshot body decoder puts what it decodes: a
/// [`StoreSnapshot`]'s vertex list, or straight into a [`SketchStore`]'s
/// vertex map with no intermediate copy.
pub(crate) trait SnapshotSink: Sized {
    /// An empty image of a store with `config` and `edges_processed`,
    /// with room for `count` vertices.
    fn with_capacity(config: SketchConfig, edges_processed: u64, count: usize) -> Self;

    /// Adds one vertex; vertex ids arrive strictly ascending.
    fn push(&mut self, entry: VertexEntry);
}

impl SnapshotSink for StoreSnapshot {
    fn with_capacity(config: SketchConfig, edges_processed: u64, count: usize) -> Self {
        StoreSnapshot {
            config,
            edges_processed,
            vertices: Vec::with_capacity(count),
        }
    }

    fn push(&mut self, entry: VertexEntry) {
        self.vertices.push(entry);
    }
}

/// Appends the v3 store-snapshot body (the payload of both a
/// [`MODE_STORE_SNAPSHOT`] file and a [`MODE_SNAPSHOT_FRAME`] transfer).
fn encode_store_snapshot_body(body: &mut Vec<u8>, snap: &StoreSnapshot) -> Result<(), CodecError> {
    encode_config(body, &snap.config)?;
    write_varint(body, snap.edges_processed);
    write_varint(body, snap.vertices.len() as u64);
    let mut prev = 0u64;
    for (i, entry) in snap.vertices.iter().enumerate() {
        let delta = if i == 0 {
            entry.vertex.0
        } else {
            entry.vertex.0.wrapping_sub(prev)
        };
        write_varint(body, delta);
        prev = entry.vertex.0;
    }
    for entry in &snap.vertices {
        write_varint(body, entry.degree);
    }
    let family = snap.config.build_bank();
    for entry in &snap.vertices {
        encode_sketch(body, &entry.sketch, &family);
    }
    Ok(())
}

/// The one v3 store-snapshot body decoder. It reads from `input` up to
/// its `limit`, which is where the body must end, and hands each vertex
/// to the sink as soon as its sketch is decoded.
fn decode_store_snapshot_body<R: BufRead, S: SnapshotSink>(
    input: &mut Input<R>,
) -> Result<S, CodecError> {
    let config = decode_config(input)?;
    let edges_processed = input.varint()?;
    let count = read_vertex_count(input)?;
    let ids = decode_vertex_column(input, count)?;
    let mut degrees = Vec::with_capacity(count);
    for _ in 0..count {
        degrees.push(input.varint()?);
    }
    let mut sink = S::with_capacity(config, edges_processed, count);
    let mut sketches = SketchDecoder::new(&config);
    for (vertex, degree) in ids.into_iter().zip(degrees) {
        let sketch = input.sketch(&mut sketches)?;
        sink.push(VertexEntry {
            vertex,
            sketch,
            degree,
        });
    }
    if input.position() != input.limit {
        return Err(CodecError::Malformed("trailing bytes after snapshot"));
    }
    Ok(sink)
}

// ---------------------------------------------------------------------
// Snapshot files and snapshot transfers
// ---------------------------------------------------------------------

/// The v3 store-snapshot body of `snap`, refused when the reader would
/// refuse it.
///
/// # Errors
/// As [`encode_store_snapshot`].
pub(crate) fn store_snapshot_body(snap: &StoreSnapshot) -> Result<Vec<u8>, CodecError> {
    let mut body = Vec::with_capacity(32 + snap.vertices.len() * 16);
    encode_store_snapshot_body(&mut body, snap)?;
    check_body_len(body.len())?;
    Ok(body)
}

/// Encodes a full store snapshot file.
///
/// # Errors
/// [`CodecError::TooLarge`] for a body past [`MAX_BODY_LEN`] (the reader
/// would refuse it) or an oversized sketch width.
pub fn encode_store_snapshot(snap: &StoreSnapshot) -> Result<Vec<u8>, CodecError> {
    Ok(encode_envelope(
        MODE_STORE_SNAPSHOT,
        &store_snapshot_body(snap)?,
    ))
}

/// Reads one [`MODE_STORE_SNAPSHOT`] file from `input` in a single
/// pass, folding the CRC over each buffer as it is consumed. The sink is
/// returned only once the body has ended exactly at its declared
/// length, the trailer CRC has matched, and the source has ended there.
fn read_store_envelope<R: BufRead, S: SnapshotSink>(input: &mut Input<R>) -> Result<S, CodecError> {
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = input.byte()?;
    }
    if magic != BINARY_MAGIC {
        return Err(CodecError::BadMagic);
    }
    input.start_crc();
    let version = input.byte()?;
    if version != BINARY_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let mode = input.byte()?;
    if mode != MODE_STORE_SNAPSHOT {
        return Err(CodecError::BadMode(mode));
    }
    let body_len = input.varint()?;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::TooLarge("record body length"));
    }
    let body_end = input.position() + body_len;
    input.limit = body_end;
    let body = decode_store_snapshot_body(input);
    if body.is_err() {
        // Damage usually trips a structure check before the trailer is
        // reached; run the CRC to the end anyway, so rot is reported as
        // a CRC mismatch rather than as whatever it happened to break.
        input.skip_to_limit();
    }
    let crc = input.finish_crc();
    if input.position() != body_end {
        return body.and(Err(CodecError::Truncated));
    }
    input.limit = body_end + 4;
    let mut trailer = [0u8; 4];
    for b in &mut trailer {
        *b = input.byte()?;
    }
    if crc != u32::from_le_bytes(trailer) {
        return Err(CodecError::BadCrc);
    }
    let sink = body?;
    input.limit = u64::MAX;
    if !input.rest().is_empty() {
        return Err(CodecError::Malformed("trailing bytes after record"));
    }
    Ok(sink)
}

/// Decodes and verifies a full store snapshot file held in memory.
///
/// # Errors
/// Fails closed on any framing or body defect.
pub fn decode_store_snapshot(bytes: &[u8]) -> Result<StoreSnapshot, CodecError> {
    read_store_envelope(&mut Input::slice(bytes))
}

/// Reads a full store snapshot file from `reader` in one pass, without
/// holding its bytes: [`decode_store_snapshot`] for a stream. `held` is
/// how many bytes the source holds (a file's length); it bounds the
/// vertex count before anything is reserved.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] for any framing or body defect, or a
/// source that ends early or runs on past the trailer; any other kind
/// is the source's own read error.
pub(crate) fn read_store_snapshot<S: SnapshotSink>(
    reader: impl BufRead,
    held: u64,
) -> io::Result<S> {
    let mut input = Input::new(reader, held);
    let decoded = read_store_envelope(&mut input);
    match input.io_error {
        Some(e) => Err(e),
        None => decoded.map_err(io::Error::from),
    }
}

/// Encodes an anti-entropy or resync snapshot transfer as one
/// [`MODE_SNAPSHOT_FRAME`] envelope: the WAL seq the snapshot covers,
/// then the store-snapshot body exactly as [`encode_store_snapshot`]
/// frames it on disk.
///
/// # Errors
/// [`CodecError::TooLarge`] when the body would exceed [`MAX_BODY_LEN`],
/// so the sender refuses what no receiver could decode.
pub fn encode_snapshot_frame(seq: u64, snap: &StoreSnapshot) -> Result<Vec<u8>, CodecError> {
    let mut body = Vec::with_capacity(42 + snap.vertices.len() * 16);
    write_varint(&mut body, seq);
    encode_store_snapshot_body(&mut body, snap)?;
    check_body_len(body.len())?;
    Ok(encode_envelope(MODE_SNAPSHOT_FRAME, &body))
}

/// Decodes the (already verified) body of a [`MODE_SNAPSHOT_FRAME`]
/// envelope into `(seq, snapshot)`.
///
/// # Errors
/// Any [`CodecError`] on a truncated seq or a malformed snapshot body.
pub fn decode_snapshot_frame_body(body: &[u8]) -> Result<(u64, StoreSnapshot), CodecError> {
    decode_frame_body(body)
}

/// [`decode_snapshot_frame_body`] straight into a live store, with no
/// intermediate [`StoreSnapshot`]: how a replica installs a transfer.
///
/// # Errors
/// As [`decode_snapshot_frame_body`].
pub fn load_snapshot_frame(body: &[u8]) -> Result<(u64, SketchStore), CodecError> {
    decode_frame_body(body)
}

fn decode_frame_body<S: SnapshotSink>(body: &[u8]) -> Result<(u64, S), CodecError> {
    let mut input = Input::slice(body);
    let seq = input.varint()?;
    input.limit = body.len() as u64;
    Ok((seq, decode_store_snapshot_body(&mut input)?))
}

/// The format selector of the write-path signatures that predate v3
/// being the only format. It has one value; nothing reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Checksummed binary v3.
    #[default]
    BinaryV3,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SketchStore;
    use graphstream::{BarabasiAlbert, EdgeStream};
    use proptest::prelude::*;

    fn populated_snapshot() -> StoreSnapshot {
        let mut s = SketchStore::new(SketchConfig::with_slots(32).seed(5));
        s.insert_stream(BarabasiAlbert::new(120, 2, 8).edges());
        StoreSnapshot::capture(&s)
    }

    fn entry(seq: u64) -> JournalEntry {
        JournalEntry {
            seq,
            u: VertexId(seq.wrapping_mul(3)),
            v: VertexId(seq.wrapping_mul(3).wrapping_add(1)),
        }
    }

    #[test]
    fn snapshot_frame_carries_the_checkpoint_body() {
        let snap = populated_snapshot();
        let frame = encode_snapshot_frame(181, &snap).unwrap();
        let env = decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, MODE_SNAPSHOT_FRAME);
        assert_eq!(env.consumed, frame.len());
        // After the seq varint, the body is the snapshot file's body.
        let file = encode_store_snapshot(&snap).unwrap();
        let file_body = decode_envelope(&file).unwrap().body;
        let mut pos = 0;
        assert_eq!(read_varint(env.body, &mut pos), Ok(181));
        assert_eq!(&env.body[pos..], file_body);
        let (seq, back) = decode_snapshot_frame_body(env.body).unwrap();
        assert_eq!(seq, 181);
        assert_eq!(back, snap);
        assert!(decode_snapshot_frame_body(&env.body[..env.body.len() - 1]).is_err());
        assert_eq!(decode_snapshot_frame_body(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn streaming_decode_is_independent_of_buffer_size() {
        // Small buffers put every field, and every sketch, across a
        // refill; the CRC must still cover each byte exactly once.
        let snap = populated_snapshot();
        let bytes = encode_store_snapshot(&snap).unwrap();
        let held = bytes.len() as u64;
        let mut flipped = bytes.clone();
        flipped[bytes.len() - 6] ^= 0x04;
        for capacity in [1, 2, 3, 7, 64, 1 << 20] {
            let reader = io::BufReader::with_capacity(capacity, &bytes[..]);
            let back: StoreSnapshot = read_store_snapshot(reader, held).unwrap();
            assert_eq!(back, snap, "buffer of {capacity}");
            let cut = io::BufReader::with_capacity(capacity, &bytes[..bytes.len() - 1]);
            assert!(read_store_snapshot::<StoreSnapshot>(cut, held - 1).is_err());
            let rot = io::BufReader::with_capacity(capacity, &flipped[..]);
            let err = read_store_snapshot::<StoreSnapshot>(rot, held).unwrap_err();
            assert!(err.to_string().contains("CRC mismatch"), "{err}");
        }
    }

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        let mut pos = 0;
        assert_eq!(read_varint(&buf[..9], &mut pos), Err(CodecError::Truncated));
        // 10th byte carrying more than one value bit overflows u64.
        let over = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&over, &mut pos),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn envelope_roundtrip_and_mode() {
        let rec = encode_envelope(MODE_WAL_ENTRY, b"payload");
        let env = decode_envelope(&rec).unwrap();
        assert_eq!(env.mode, MODE_WAL_ENTRY);
        assert_eq!(env.body, b"payload");
        assert_eq!(env.consumed, rec.len());
        // Concatenated records: the first decode reports its own end.
        let mut two = rec.clone();
        two.extend_from_slice(&encode_envelope(MODE_TEXT_FRAME, b"x"));
        assert_eq!(decode_envelope(&two).unwrap().consumed, rec.len());
    }

    #[test]
    fn envelope_rejects_wrong_version_and_magic() {
        let mut rec = encode_envelope(MODE_WAL_ENTRY, b"p");
        rec[4] = 9;
        assert_eq!(decode_envelope(&rec), Err(CodecError::BadVersion(9)));
        assert_eq!(decode_envelope(b"not binary"), Err(CodecError::BadMagic));
    }

    #[test]
    fn envelope_bounds_oversized_length_fields() {
        // Hand-build framing that claims a body beyond MAX_BODY_LEN.
        let mut rec = Vec::new();
        rec.extend_from_slice(&BINARY_MAGIC);
        rec.push(BINARY_VERSION);
        rec.push(MODE_WAL_ENTRY);
        write_varint(&mut rec, MAX_BODY_LEN + 1);
        rec.extend_from_slice(&[0; 8]);
        assert_eq!(
            decode_envelope(&rec),
            Err(CodecError::TooLarge("record body length"))
        );
    }

    #[test]
    fn writer_refuses_bodies_past_the_reader_limit() {
        let limit = usize::try_from(MAX_BODY_LEN).unwrap();
        // A k=256 store of 100k vertices (~315 MB of body) fits.
        assert_eq!(check_body_len(315_000_000), Ok(()));
        assert_eq!(check_body_len(limit), Ok(()));
        assert_eq!(
            check_body_len(limit + 1),
            Err(CodecError::TooLarge("record body length"))
        );
    }

    #[test]
    fn read_envelope_blocking_walks_concatenated_frames() {
        let mut stream = encode_text_frame("OK pong");
        stream.extend_from_slice(&encode_wal_entry(&entry(7)));
        let mut cursor = io::Cursor::new(stream);
        let (mode, body) = read_envelope_blocking(&mut cursor).unwrap();
        assert_eq!(mode, MODE_TEXT_FRAME);
        assert_eq!(body, b"OK pong");
        let (mode, body) = read_envelope_blocking(&mut cursor).unwrap();
        assert_eq!(mode, MODE_WAL_ENTRY);
        assert_eq!(decode_wal_entry_body(&body), Ok(entry(7)));
        // Clean EOF at a frame boundary is still an error to the caller.
        assert!(read_envelope_blocking(&mut cursor).is_err());
    }

    #[test]
    fn read_envelope_blocking_fails_closed() {
        // Flipped CRC trailer.
        let mut frame = encode_text_frame("hello");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(read_envelope_blocking(&mut io::Cursor::new(frame)).is_err());
        // Truncation mid-body.
        let frame = encode_text_frame("hello");
        let cut = frame.len() - 3;
        assert!(read_envelope_blocking(&mut io::Cursor::new(&frame[..cut])).is_err());
        // An oversized length field is rejected before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&BINARY_MAGIC);
        huge.push(BINARY_VERSION);
        huge.push(MODE_TEXT_FRAME);
        write_varint(&mut huge, MAX_BODY_LEN + 1);
        assert!(read_envelope_blocking(&mut io::Cursor::new(&huge)).is_err());
        // A length at the limit with a few bytes behind it is a short
        // read, not a 16 GiB buffer.
        let mut cut = huge[..6].to_vec();
        write_varint(&mut cut, MAX_BODY_LEN);
        cut.extend_from_slice(b"abc");
        let err = read_envelope_blocking(&mut io::Cursor::new(cut)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn wal_entry_roundtrip() {
        let e = entry(123_456_789);
        let rec = encode_wal_entry(&e);
        let env = decode_envelope(&rec).unwrap();
        assert_eq!(env.mode, MODE_WAL_ENTRY);
        assert_eq!(decode_wal_entry_body(env.body), Ok(e));
    }

    #[test]
    fn every_single_bit_flip_in_a_wal_record_fails_closed() {
        let rec = encode_wal_entry(&entry(987_654_321));
        let mut bytes = rec.clone();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                let verdict =
                    decode_envelope(&bytes).and_then(|env| decode_wal_entry_body(env.body));
                assert!(
                    verdict.is_err(),
                    "flip {byte}:{bit} produced a silently valid record"
                );
                bytes[byte] ^= 1 << bit;
            }
        }
        assert_eq!(bytes, rec);
    }

    #[test]
    fn truncation_at_every_offset_fails_closed() {
        let rec = encode_wal_entry(&entry(42));
        for cut in 0..rec.len() {
            assert!(
                decode_envelope(&rec[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
        let snap = encode_store_snapshot(&populated_snapshot()).unwrap();
        for cut in (0..snap.len()).step_by(7) {
            assert!(
                decode_store_snapshot(&snap[..cut]).is_err(),
                "snapshot truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn wal_batch_roundtrip_and_ordering() {
        let entries: Vec<_> = (5..25).map(entry).collect();
        let rec = encode_wal_batch(&entries, 99);
        let env = decode_envelope(&rec).unwrap();
        assert_eq!(env.mode, MODE_WAL_BATCH);
        let (back, primary_seq) = decode_wal_batch_body(env.body).unwrap();
        assert_eq!(back, entries);
        assert_eq!(primary_seq, 99);
        assert!(decode_wal_batch_body(&env.body[..env.body.len() - 1]).is_err());
    }

    #[test]
    fn empty_wal_batch_roundtrips() {
        let rec = encode_wal_batch(&[], 7);
        let env = decode_envelope(&rec).unwrap();
        assert_eq!(decode_wal_batch_body(env.body), Ok((Vec::new(), 7)));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = StoreSnapshot::capture(&SketchStore::new(SketchConfig::with_slots(8)));
        let v3 = encode_store_snapshot(&snap).unwrap();
        assert_eq!(decode_store_snapshot(&v3).unwrap(), snap);
    }

    #[test]
    fn snapshot_decode_rejects_wrong_mode() {
        let snap = populated_snapshot();
        let frame = encode_snapshot_frame(3, &snap).unwrap();
        assert_eq!(
            decode_store_snapshot(&frame),
            Err(CodecError::BadMode(MODE_SNAPSHOT_FRAME))
        );
    }

    #[test]
    fn pre_v3_signatures_are_refused_by_name_and_v3_bit_flips_are_not() {
        let path = Path::new("dir/snapshot.6.json");
        for (kind, head) in [
            (
                FileKind::Snapshot,
                &b"STREAMLINK-SNAP v2 len=2 crc32=0\n{}"[..],
            ),
            (FileKind::Snapshot, b"{\"config\":"),
            (FileKind::WalSegment, b"F 7 2 106 9619fa8a\n"),
            (FileKind::WalSegment, b"E 1 2 100\n"),
        ] {
            let err = refuse_pre_v3(kind, path, head).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{head:?}");
            let msg = err.to_string();
            assert!(msg.starts_with("dir/snapshot.6.json: "), "{msg}");
            assert!(msg.contains(LAST_PRE_V3_READER), "{msg}");
            assert!(msg.contains("--snapshot-keep 1"), "{msg}");
        }
        // A v3 file, whole or with any single bit of its magic flipped,
        // is never taken for a pre-v3 one: damage stays damage.
        for kind in [FileKind::Snapshot, FileKind::WalSegment] {
            let mut head = encode_wal_entry(&entry(1));
            refuse_pre_v3(kind, path, &head).unwrap();
            for bit in 0..BINARY_MAGIC.len() * 8 {
                head[bit / 8] ^= 1 << (bit % 8);
                refuse_pre_v3(kind, path, &head).unwrap();
                head[bit / 8] ^= 1 << (bit % 8);
            }
        }
        // The signatures are per kind: a segment opening with `{` is damage.
        refuse_pre_v3(FileKind::WalSegment, path, b"{").unwrap();
        refuse_pre_v3(FileKind::Snapshot, path, b"F 1 2 3").unwrap();
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn prop_wal_entry_roundtrip(seq in any::<u64>(), u in any::<u64>(), v in any::<u64>()) {
            let e = JournalEntry { seq, u: VertexId(u), v: VertexId(v) };
            let rec = encode_wal_entry(&e);
            let env = decode_envelope(&rec).unwrap();
            prop_assert_eq!(decode_wal_entry_body(env.body), Ok(e));
        }

        #[test]
        fn prop_wal_record_bit_flip_never_verifies(seq in any::<u64>(), flip in 0usize..400) {
            let rec = encode_wal_entry(&entry(seq));
            let mut bytes = rec.clone();
            let bit = flip % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let verdict = decode_envelope(&bytes)
                .and_then(|env| decode_wal_entry_body(env.body));
            prop_assert!(verdict.is_err());
        }

        #[test]
        fn prop_snapshot_bit_flip_fails_closed(seed in 0u64..30, flip in any::<u64>()) {
            let mut s = SketchStore::new(SketchConfig::with_slots(8).seed(seed));
            s.insert_stream(BarabasiAlbert::new(40, 2, seed).edges());
            let rec = encode_store_snapshot(&StoreSnapshot::capture(&s)).unwrap();
            let mut bytes = rec.clone();
            let bit = (flip % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode_store_snapshot(&bytes).is_err());
        }

        #[test]
        fn prop_garbage_never_decodes_as_snapshot(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Random bytes must fail closed (the odds of a valid CRC on
            // random framing are ~2^-32; the deterministic structure
            // checks reject far earlier).
            prop_assert!(decode_store_snapshot(&bytes).is_err());
        }
    }
}
