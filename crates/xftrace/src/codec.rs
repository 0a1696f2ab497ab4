//! The entry-record layer shared by the binary trace formats.
//!
//! One trace entry is encoded as
//!
//! ```text
//! entry := tag:u8 head:u8 payload file_id:varint line_delta:varint [tid:varint]
//! head  := op code (bits 0..=3) | post stage (bit 4) | internal (bit 5) | checked (bit 6)
//! ```
//!
//! Addresses in the payload are zigzag-encoded deltas against the previous
//! address (PM traces are strongly local), sizes are plain varints, and the
//! line is a zigzag delta against the previous line. Source files go
//! through an incremental string table: the first reference to a file
//! emits a `FileDef` record (`0x01`, varint length, UTF-8 bytes) and
//! assigns the next id; every later reference is a small varint. The
//! trailing thread id is present only in streams that carry thread ids.
//!
//! The `.xft` trace format (crate `xfstream`) frames these records with
//! its header, failure-point and `End` records; the cross-run class cache
//! (crate `xfdetector`) frames them per equivalence class. Both encode
//! through [`EntryWriter`] and decode through [`EntryCursor`], a
//! bounds-checked cursor over one in-memory buffer: every length is checked
//! against the bytes actually present before anything is allocated, so a
//! corrupt length prefix is a [`DecodeError::Eof`], never an allocation.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};

use crate::varint::{unzigzag, write_str, write_varint, zigzag};
use crate::{FenceKind, FlushKind, Op, OwnedTraceEntry, SourceLoc, Stage, TraceEntry};

/// Record tag: a string-table definition (`FileDef`).
pub const REC_FILE_DEF: u8 = 0x01;
/// Record tag: a pre-failure trace entry.
pub const REC_PRE: u8 = 0x02;
/// Record tag: a post-failure trace entry.
pub const REC_POST: u8 = 0x04;

// Op codes (bits 0..=3 of the entry head byte).
const OP_WRITE: u8 = 0;
const OP_READ: u8 = 1;
const OP_NT_WRITE: u8 = 2;
const OP_FLUSH: u8 = 3;
const OP_FENCE: u8 = 4;
const OP_TX_BEGIN: u8 = 5;
const OP_TX_COMMIT: u8 = 6;
const OP_TX_ABORT: u8 = 7;
const OP_TX_ADD: u8 = 8;
const OP_ALLOC: u8 = 9;
const OP_FREE: u8 = 10;
const OP_COMMIT_VAR: u8 = 11;
const OP_COMMIT_RANGE: u8 = 12;

// Entry head-byte flags (bits 4..=6).
const ENT_STAGE_POST: u8 = 0b0001_0000;
const ENT_INTERNAL: u8 = 0b0010_0000;
const ENT_CHECKED: u8 = 0b0100_0000;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside a record (or a length ran past its end).
    Eof,
    /// Structurally invalid input: unknown codes, out-of-range values,
    /// undefined file ids, invalid UTF-8.
    Corrupt(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Eof => f.write_str("unexpected end of buffer"),
            DecodeError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Delta-coding state, advanced identically by writer and reader.
#[derive(Debug, Default)]
struct DeltaState {
    prev_addr: u64,
    prev_line: i64,
}

impl DeltaState {
    fn addr_delta(&mut self, addr: u64) -> u64 {
        let d = zigzag(addr.wrapping_sub(self.prev_addr) as i64);
        self.prev_addr = addr;
        d
    }

    #[inline]
    fn addr_undelta(&mut self, raw: u64) -> u64 {
        let addr = self.prev_addr.wrapping_add(unzigzag(raw) as u64);
        self.prev_addr = addr;
        addr
    }

    fn line_delta(&mut self, line: u32) -> u64 {
        let d = zigzag(i64::from(line) - self.prev_line);
        self.prev_line = i64::from(line);
        d
    }

    #[inline]
    fn line_undelta(&mut self, raw: u64) -> Result<u32, DecodeError> {
        let line = self.prev_line + unzigzag(raw);
        self.prev_line = line;
        u32::try_from(line)
            .map_err(|_| DecodeError::Corrupt(format!("line delta out of range ({line})")))
    }
}

/// The fields of one entry, borrowed from either entry form.
struct Fields<'a> {
    op: Op,
    file: &'a str,
    line: u32,
    tid: u32,
    stage: Stage,
    internal: bool,
    checked: bool,
}

/// Encoder state of one entry stream: the string table and the delta
/// state. The caller owns the byte sink and passes it to every call, so
/// the same encoder serves a streaming file writer and an in-memory buffer.
#[derive(Debug)]
pub struct EntryWriter {
    files: HashMap<String, u64>,
    delta: DeltaState,
    tids: bool,
}

impl EntryWriter {
    /// A fresh encoder; `tids` appends each entry's thread id.
    #[must_use]
    pub fn new(tids: bool) -> Self {
        EntryWriter {
            files: HashMap::new(),
            delta: DeltaState::default(),
            tids,
        }
    }

    /// Interns `file` into the string table, emitting a `FileDef` record
    /// on first sight, and returns its id.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `w`.
    pub fn file_id<W: Write>(&mut self, w: &mut W, file: &str) -> io::Result<u64> {
        if let Some(&id) = self.files.get(file) {
            return Ok(id);
        }
        let id = self.files.len() as u64;
        w.write_all(&[REC_FILE_DEF])?;
        write_str(w, file)?;
        self.files.insert(file.to_owned(), id);
        Ok(id)
    }

    /// Appends one entry (borrowed form) as a record tagged `tag`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `w`.
    pub fn write_entry<W: Write>(&mut self, w: &mut W, tag: u8, e: &TraceEntry) -> io::Result<()> {
        self.write_fields(
            w,
            tag,
            &Fields {
                op: e.op,
                file: e.loc.file,
                line: e.loc.line,
                tid: e.tid,
                stage: e.stage,
                internal: e.internal,
                checked: e.checked,
            },
        )
    }

    /// Appends one entry (owned form) as a record tagged `tag`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `w`.
    pub fn write_owned<W: Write>(
        &mut self,
        w: &mut W,
        tag: u8,
        e: &OwnedTraceEntry,
    ) -> io::Result<()> {
        self.write_fields(
            w,
            tag,
            &Fields {
                op: e.op,
                file: &e.file,
                line: e.line,
                tid: e.tid,
                stage: e.stage,
                internal: e.internal,
                checked: e.checked,
            },
        )
    }

    fn write_fields<W: Write>(&mut self, w: &mut W, tag: u8, f: &Fields<'_>) -> io::Result<()> {
        let file_id = self.file_id(w, f.file)?;
        let code = match f.op {
            Op::Write { .. } => OP_WRITE,
            Op::Read { .. } => OP_READ,
            Op::NtWrite { .. } => OP_NT_WRITE,
            Op::Flush { .. } => OP_FLUSH,
            Op::Fence { .. } => OP_FENCE,
            Op::TxBegin => OP_TX_BEGIN,
            Op::TxCommit => OP_TX_COMMIT,
            Op::TxAbort => OP_TX_ABORT,
            Op::TxAdd { .. } => OP_TX_ADD,
            Op::Alloc { .. } => OP_ALLOC,
            Op::Free { .. } => OP_FREE,
            Op::RegisterCommitVar { .. } => OP_COMMIT_VAR,
            Op::RegisterCommitRange { .. } => OP_COMMIT_RANGE,
        };
        let mut head = code;
        if f.stage == Stage::Post {
            head |= ENT_STAGE_POST;
        }
        if f.internal {
            head |= ENT_INTERNAL;
        }
        if f.checked {
            head |= ENT_CHECKED;
        }
        w.write_all(&[tag, head])?;
        match f.op {
            Op::Write { addr, size }
            | Op::Read { addr, size }
            | Op::NtWrite { addr, size }
            | Op::TxAdd { addr, size }
            | Op::Free { addr, size }
            | Op::RegisterCommitVar { addr, size } => {
                write_varint(w, self.delta.addr_delta(addr))?;
                write_varint(w, u64::from(size))?;
            }
            Op::Flush { addr, kind } => {
                write_varint(w, self.delta.addr_delta(addr))?;
                w.write_all(&[flush_kind_code(kind)])?;
            }
            Op::Alloc { addr, size, zeroed } => {
                write_varint(w, self.delta.addr_delta(addr))?;
                write_varint(w, u64::from(size))?;
                w.write_all(&[u8::from(zeroed)])?;
            }
            Op::RegisterCommitRange {
                var_addr,
                addr,
                size,
            } => {
                write_varint(w, self.delta.addr_delta(var_addr))?;
                write_varint(w, self.delta.addr_delta(addr))?;
                write_varint(w, u64::from(size))?;
            }
            Op::Fence { kind } => w.write_all(&[fence_kind_code(kind)])?,
            Op::TxBegin | Op::TxCommit | Op::TxAbort => {}
        }
        write_varint(w, file_id)?;
        write_varint(w, self.delta.line_delta(f.line))?;
        if self.tids {
            write_varint(w, u64::from(f.tid))?;
        }
        Ok(())
    }
}

fn flush_kind_code(kind: FlushKind) -> u8 {
    match kind {
        FlushKind::Clwb => 0,
        FlushKind::Clflush => 1,
        FlushKind::Clflushopt => 2,
    }
}

fn flush_kind_from(code: u8) -> Result<FlushKind, DecodeError> {
    match code {
        0 => Ok(FlushKind::Clwb),
        1 => Ok(FlushKind::Clflush),
        2 => Ok(FlushKind::Clflushopt),
        other => Err(DecodeError::Corrupt(format!("unknown flush kind {other}"))),
    }
}

fn fence_kind_code(kind: FenceKind) -> u8 {
    match kind {
        FenceKind::Sfence => 0,
        FenceKind::Mfence => 1,
        FenceKind::Drain => 2,
    }
}

fn fence_kind_from(code: u8) -> Result<FenceKind, DecodeError> {
    match code {
        0 => Ok(FenceKind::Sfence),
        1 => Ok(FenceKind::Mfence),
        2 => Ok(FenceKind::Drain),
        other => Err(DecodeError::Corrupt(format!("unknown fence kind {other}"))),
    }
}

/// The decoder: a cursor walk over one contiguous in-memory buffer, with
/// the varint loop inlined and source files resolved to interned
/// `&'static str` once per `FileDef` record, so decoding an entry
/// allocates nothing.
#[derive(Debug)]
pub struct EntryCursor<B> {
    buf: B,
    pos: usize,
    files: Vec<&'static str>,
    delta: DeltaState,
    tids: bool,
}

impl<B: AsRef<[u8]>> EntryCursor<B> {
    /// A cursor at the start of `buf`, reading entries without thread ids
    /// until [`EntryCursor::set_tids`] says otherwise.
    pub fn new(buf: B) -> Self {
        EntryCursor {
            buf,
            pos: 0,
            files: Vec::new(),
            delta: DeltaState::default(),
            tids: false,
        }
    }

    /// Whether entries carry a trailing thread id (decided by the framing
    /// header, which is read through this cursor first).
    pub fn set_tids(&mut self, tids: bool) {
        self.tids = tids;
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.as_ref().len() - self.pos
    }

    /// The (interned) string table seen so far.
    #[must_use]
    pub fn files(&self) -> &[&'static str] {
        &self.files
    }

    /// One raw byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Eof`] at the end of the buffer.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        match self.buf.as_ref().get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(DecodeError::Eof),
        }
    }

    /// The next `n` raw bytes; bounds-checked before anything is copied.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Eof`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Eof)?;
        let s = self
            .buf
            .as_ref()
            .get(self.pos..end)
            .ok_or(DecodeError::Eof)?;
        self.pos = end;
        Ok(s)
    }

    /// A varint-length-prefixed UTF-8 string; `what` names it in errors.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Eof`] on a length past the end, [`DecodeError::Corrupt`]
    /// on invalid UTF-8.
    pub fn str(&mut self, what: &str) -> Result<&str, DecodeError> {
        let len = usize::try_from(self.varint()?).map_err(|_| DecodeError::Eof)?;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| DecodeError::Corrupt(format!("{what} is not UTF-8")))
    }

    /// A little-endian base-128 varint. Delta encoding makes single-byte
    /// varints the overwhelmingly common case, so that case is a
    /// straight-line load-test-increment.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Eof`] on truncation, [`DecodeError::Corrupt`] for a
    /// varint longer than 10 bytes.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        if let Some(rest) = self.buf.as_ref().get(self.pos..) {
            match *rest {
                [b0, ..] if b0 < 0x80 => {
                    self.pos += 1;
                    return Ok(u64::from(b0));
                }
                [b0, b1, ..] if b1 < 0x80 => {
                    self.pos += 2;
                    return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
                }
                _ => {}
            }
        }
        self.varint_multi()
    }

    /// Multi-byte (or EOF) continuation of [`Self::varint`].
    fn varint_multi(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(DecodeError::Corrupt("varint longer than 10 bytes".into()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// The next record tag, consuming (and interning) any `FileDef`
    /// records in front of it.
    ///
    /// # Errors
    ///
    /// As [`EntryCursor::str`].
    #[inline]
    pub fn next_tag(&mut self) -> Result<u8, DecodeError> {
        loop {
            let tag = self.u8()?;
            if tag != REC_FILE_DEF {
                return Ok(tag);
            }
            let name = crate::intern_file(self.str("file name")?);
            self.files.push(name);
        }
    }

    /// Resolves a string-table id.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Corrupt`] for an id no `FileDef` has defined yet.
    #[inline]
    pub fn file(&self, id: u64) -> Result<&'static str, DecodeError> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.files.get(i).copied())
            .ok_or_else(|| DecodeError::Corrupt(format!("undefined file id {id}")))
    }

    /// Decodes the body of one entry record (everything after its tag).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Eof`] on truncation, [`DecodeError::Corrupt`] on
    /// malformed fields.
    #[inline]
    pub fn read_entry(&mut self) -> Result<TraceEntry, DecodeError> {
        let head = self.u8()?;
        let code = head & 0x0f;
        let stage = if head & ENT_STAGE_POST != 0 {
            Stage::Post
        } else {
            Stage::Pre
        };
        let internal = head & ENT_INTERNAL != 0;
        let checked = head & ENT_CHECKED != 0;
        let size_of = |v: u64| -> Result<u32, DecodeError> {
            u32::try_from(v).map_err(|_| DecodeError::Corrupt(format!("size {v} exceeds u32")))
        };
        let op = match code {
            OP_WRITE | OP_READ | OP_NT_WRITE | OP_TX_ADD | OP_FREE | OP_COMMIT_VAR => {
                let raw = self.varint()?;
                let addr = self.delta.addr_undelta(raw);
                let size = size_of(self.varint()?)?;
                match code {
                    OP_WRITE => Op::Write { addr, size },
                    OP_READ => Op::Read { addr, size },
                    OP_NT_WRITE => Op::NtWrite { addr, size },
                    OP_TX_ADD => Op::TxAdd { addr, size },
                    OP_FREE => Op::Free { addr, size },
                    _ => Op::RegisterCommitVar { addr, size },
                }
            }
            OP_FLUSH => {
                let raw = self.varint()?;
                let addr = self.delta.addr_undelta(raw);
                Op::Flush {
                    addr,
                    kind: flush_kind_from(self.u8()?)?,
                }
            }
            OP_FENCE => Op::Fence {
                kind: fence_kind_from(self.u8()?)?,
            },
            OP_TX_BEGIN => Op::TxBegin,
            OP_TX_COMMIT => Op::TxCommit,
            OP_TX_ABORT => Op::TxAbort,
            OP_ALLOC => {
                let raw = self.varint()?;
                let addr = self.delta.addr_undelta(raw);
                let size = size_of(self.varint()?)?;
                Op::Alloc {
                    addr,
                    size,
                    zeroed: self.u8()? != 0,
                }
            }
            OP_COMMIT_RANGE => {
                let raw_v = self.varint()?;
                let var_addr = self.delta.addr_undelta(raw_v);
                let raw_a = self.varint()?;
                let addr = self.delta.addr_undelta(raw_a);
                let size = size_of(self.varint()?)?;
                Op::RegisterCommitRange {
                    var_addr,
                    addr,
                    size,
                }
            }
            other => return Err(DecodeError::Corrupt(format!("unknown op code {other}"))),
        };
        let file_id = self.varint()?;
        let file = self.file(file_id)?;
        let raw_line = self.varint()?;
        let line = self.delta.line_undelta(raw_line)?;
        let tid = if self.tids {
            u32::try_from(self.varint()?)
                .map_err(|_| DecodeError::Corrupt("thread id exceeds u32".into()))?
        } else {
            0
        };
        Ok(TraceEntry {
            op,
            loc: SourceLoc { file, line },
            tid,
            stage,
            internal,
            checked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<TraceEntry> {
        let at = |op, file, line| TraceEntry {
            op,
            loc: SourceLoc { file, line },
            tid: 3,
            stage: Stage::Post,
            internal: false,
            checked: true,
        };
        vec![
            at(
                Op::Write {
                    addr: 0x1000_0000,
                    size: 8,
                },
                "a.rs",
                10,
            ),
            at(
                Op::Flush {
                    addr: 0x1000_0000,
                    kind: FlushKind::Clflushopt,
                },
                "a.rs",
                9,
            ),
            at(
                Op::Fence {
                    kind: FenceKind::Drain,
                },
                "b.rs",
                1,
            ),
            at(
                Op::Alloc {
                    addr: 0x40,
                    size: 64,
                    zeroed: true,
                },
                "b.rs",
                2,
            ),
            at(
                Op::RegisterCommitRange {
                    var_addr: 0x40,
                    addr: 0x1000_0040,
                    size: 16,
                },
                "a.rs",
                3,
            ),
            at(Op::TxCommit, "a.rs", 4),
        ]
    }

    fn encode(tids: bool) -> Vec<u8> {
        let mut w = EntryWriter::new(tids);
        let mut buf = Vec::new();
        for e in entries() {
            w.write_entry(&mut buf, REC_POST, &e).unwrap();
        }
        buf
    }

    #[test]
    fn entries_round_trip_with_and_without_tids() {
        for tids in [true, false] {
            let buf = encode(tids);
            let mut cur = EntryCursor::new(&buf[..]);
            cur.set_tids(tids);
            for want in entries() {
                assert_eq!(cur.next_tag().unwrap(), REC_POST);
                let got = cur.read_entry().unwrap();
                assert_eq!(got.tid, if tids { 3 } else { 0 });
                assert_eq!(TraceEntry { tid: 3, ..got }, want);
            }
            assert_eq!(cur.remaining(), 0);
            assert_eq!(cur.files(), &["a.rs", "b.rs"]);
        }
    }

    #[test]
    fn owned_and_borrowed_forms_encode_identically() {
        let mut w = EntryWriter::new(true);
        let mut buf = Vec::new();
        for e in entries() {
            w.write_owned(&mut buf, REC_POST, &e.into()).unwrap();
        }
        assert_eq!(buf, encode(true));
    }

    #[test]
    fn every_truncation_is_eof_or_corrupt_never_a_panic() {
        let buf = encode(true);
        for cut in 0..buf.len() {
            let mut cur = EntryCursor::new(&buf[..cut]);
            cur.set_tids(true);
            let err = loop {
                match cur.next_tag().and_then(|_| cur.read_entry()) {
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            assert_eq!(err, DecodeError::Eof, "cut at {cut}");
        }
    }

    #[test]
    fn oversize_lengths_fail_before_allocating() {
        // A FileDef claiming 2^45 bytes of name.
        let buf = [REC_FILE_DEF, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08];
        assert_eq!(EntryCursor::new(&buf[..]).next_tag(), Err(DecodeError::Eof));
        let mut cur = EntryCursor::new(&[0xffu8; 16][..]);
        assert!(matches!(cur.varint(), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn undefined_file_ids_and_unknown_codes_are_corrupt() {
        let mut cur = EntryCursor::new(&[REC_POST, 0x0f][..]);
        assert_eq!(cur.next_tag().unwrap(), REC_POST);
        assert!(matches!(cur.read_entry(), Err(DecodeError::Corrupt(_))));
        let mut cur = EntryCursor::new(&[REC_POST, OP_TX_BEGIN, 0, 0][..]);
        cur.next_tag().unwrap();
        assert!(matches!(cur.read_entry(), Err(DecodeError::Corrupt(_))));
    }
}
