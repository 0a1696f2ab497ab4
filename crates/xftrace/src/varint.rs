//! LEB128-style varint and zigzag primitives shared by the binary formats.
//!
//! The trace entry codec ([`crate::codec`], framed by the `.xft` format and
//! the class cache), the `.xfj` run journal and the server's wire protocol
//! all encode their integer fields as little-endian base-128 varints, with
//! signed deltas zigzag-mapped into unsigned space first. The primitives
//! live here, in the lowest layer of the workspace, so every format shares
//! one implementation.

use std::io::{self, Read, Write};

/// Zigzag-encodes a signed value into an unsigned varint payload
/// (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`).
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes `v` as a little-endian base-128 varint (1–10 bytes).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Writes `s` as its varint byte length followed by its UTF-8 bytes, the
/// string form of every binary format here
/// ([`crate::codec::EntryCursor::str`] reads it back).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// Reads a varint written by [`write_varint`].
///
/// # Errors
///
/// Returns the underlying I/O error (including unexpected EOF), or
/// [`io::ErrorKind::InvalidData`] for a varint longer than 10 bytes.
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint longer than 10 bytes",
            ));
        }
        v |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut &buf[..]).unwrap(), v);
        }
    }

    #[test]
    fn overlong_varint_is_invalid_data() {
        let buf = [0x80u8; 11];
        let err = read_varint(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_varint_is_eof() {
        let buf = [0x80u8];
        let err = read_varint(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
