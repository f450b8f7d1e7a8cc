//! Byte-level codec helpers and the error type shared by every persistent format.
//!
//! All on-disk integers are **little-endian** and written through [`ByteWriter`] /
//! read back through [`ByteReader`], so the format is defined in exactly one place per
//! record type and a short read or out-of-range length is always a typed
//! [`PersistError::Corrupt`] instead of a panic.

use std::fmt;

/// Errors surfaced by the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// An operating-system I/O failure (open, read, write, fsync, rename).
    Io(std::io::Error),
    /// Stored bytes failed validation: a checksum mismatch, a short read, an
    /// impossible length.  Data signalled as corrupt is never partially applied.
    Corrupt(String),
    /// The bytes are intact but describe something this build cannot load: an unknown
    /// format version, a store-layout mismatch, an invalid configuration value.
    Format(String),
    /// Another live writer process holds the store directory's lock file.  The store
    /// is healthy — retry once the other writer exits (see [`crate::lock`]).
    Locked(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            PersistError::Format(msg) => write!(f, "unsupported format: {msg}"),
            PersistError::Locked(msg) => write!(f, "store locked: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Result alias for the durability layer.
pub type PersistResult<T> = Result<T, PersistError>;

/// Shorthand for building a [`PersistError::Corrupt`].
pub fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// Shorthand for building a [`PersistError::Format`].
pub fn format_err(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

/// An append-only little-endian encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `v` as a LEB128 varint: seven bits per byte, low bits first, the
    /// high bit set on every byte but the last.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Hands the buffered bytes to `emit` and empties the buffer, once it holds at
    /// least `limit` bytes — how the streaming section encoders keep their scratch
    /// bounded however large the section ([`SPILL_BYTES`] inside their loops, `0`
    /// to drain what is left).
    pub fn spill(
        &mut self,
        limit: usize,
        emit: &mut impl FnMut(&[u8]) -> PersistResult<()>,
    ) -> PersistResult<()> {
        if self.buf.len() >= limit && !self.buf.is_empty() {
            emit(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Scratch a streaming section encoder fills before handing it on.
pub const SPILL_BYTES: usize = 64 * 1024;

/// A little-endian decoder over a byte slice; every read is bounds-checked.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`PersistError::Corrupt`] unless every byte has been consumed.
    pub fn expect_end(&self, what: &str) -> PersistResult<()> {
        if self.remaining() != 0 {
            return Err(corrupt(format!(
                "{what}: {} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads `len` raw bytes.
    pub fn get_bytes(&mut self, len: usize) -> PersistResult<&'a [u8]> {
        if self.remaining() < len {
            return Err(corrupt(format!(
                "short read: wanted {len} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> PersistResult<u8> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> PersistResult<u32> {
        Ok(u32::from_le_bytes(self.get_bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> PersistResult<u64> {
        Ok(u64::from_le_bytes(self.get_bytes(8)?.try_into().unwrap()))
    }

    /// Reads a varint written by [`ByteWriter::put_varint`], rejecting one that
    /// runs past ten bytes or overflows 64 bits.
    pub fn get_varint(&mut self) -> PersistResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint overflows 64 bits"))
    }

    /// Reads a varint that must fit a `u32`.
    pub fn get_varint_u32(&mut self) -> PersistResult<u32> {
        let v = self.get_varint()?;
        u32::try_from(v).map_err(|_| corrupt(format!("varint {v} exceeds 32 bits")))
    }

    /// Reads an `f64` written by [`ByteWriter::put_f64`].
    pub fn get_f64(&mut self) -> PersistResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that do not fit.
    pub fn get_len(&mut self) -> PersistResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("length {v} exceeds the address space")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_and_refuse_overflow() {
        let values = [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut w = ByteWriter::new();
        for v in values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes[..4], [0, 1, 127, 0x80]);
        let mut r = ByteReader::new(&bytes);
        for v in values {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        r.expect_end("varints").unwrap();
        assert!(
            ByteReader::new(&[0xff; 10]).get_varint().is_err(),
            "overflow"
        );
        assert!(
            ByteReader::new(&[0xff; 11]).get_varint().is_err(),
            "too long"
        );
        assert!(ByteReader::new(&[0x80]).get_varint().is_err(), "truncated");
        let mut big = ByteWriter::new();
        big.put_varint(u32::MAX as u64 + 1);
        assert!(ByteReader::new(&big.into_bytes()).get_varint_u32().is_err());
    }

    #[test]
    fn roundtrip_every_scalar() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(0.2);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), 0.2);
        assert_eq!(r.get_bytes(4).unwrap(), b"tail");
        assert!(r.expect_end("test").is_ok());
    }

    #[test]
    fn spilling_hands_every_byte_on_in_order() {
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        let mut emit = |chunk: &[u8]| {
            chunks.push(chunk.to_vec());
            Ok(())
        };
        let mut w = ByteWriter::new();
        for v in 0..10u32 {
            w.put_u32(v);
            w.spill(16, &mut emit).unwrap();
        }
        assert_eq!(w.len(), 8, "two words wait for the final drain");
        w.spill(0, &mut emit).unwrap();
        w.spill(0, &mut emit).unwrap(); // nothing left: no empty chunk
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), [16, 16, 8]);
        let words: Vec<u8> = (0..10u32).flat_map(u32::to_le_bytes).collect();
        assert_eq!(chunks.concat(), words);
    }

    #[test]
    fn short_reads_are_corrupt_not_panics() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(r.get_u32(), Err(PersistError::Corrupt(_))));
        // The failed read consumed nothing; smaller reads still succeed.
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.remaining(), 2);
        assert!(r.expect_end("test").is_err());
    }

    #[test]
    fn error_display_mentions_the_kind() {
        assert!(corrupt("bad crc").to_string().contains("corrupt"));
        assert!(format_err("v9").to_string().contains("unsupported"));
        let io: PersistError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("I/O"));
    }
}
