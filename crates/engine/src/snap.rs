//! Compact binary state serialization for simulation snapshots.
//!
//! The run artifact is JSON because humans and external tools read it;
//! snapshot *state* is different — it must round-trip `u128` integrals
//! and `f64` accumulators bit-exactly, it is written and read only by
//! this workspace, and it can be large (every pending event, every
//! resident warp). A fixed-width little-endian byte stream sidesteps
//! JSON number-fidelity questions entirely and keeps encode/decode
//! allocation-light.
//!
//! [`ByteWriter`] appends primitives; [`ByteReader`] consumes them with
//! truncation-checked reads returning [`SnapError`] instead of
//! panicking, so a corrupted or truncated snapshot file is rejected
//! gracefully. Integrity of a full snapshot section is the caller's
//! job (the GPU crate frames the stream with a length and an FNV-1a
//! checksum); this module only guarantees that a well-formed stream
//! round-trips every value bit-identically.

use std::fmt;

/// A failure while decoding snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the expected value.
    Truncated,
    /// The stream held bytes past the last expected value.
    Trailing(usize),
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A decoded value violated a structural invariant.
    Invalid(&'static str),
    /// The snapshot framing itself is unusable (bad schema, length or
    /// checksum mismatch).
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Trailing(n) => write!(f, "snapshot has {n} trailing bytes"),
            SnapError::BadTag { what, tag } => {
                write!(f, "snapshot has invalid {what} tag {tag}")
            }
            SnapError::Invalid(what) => write!(f, "snapshot has invalid {what}"),
            SnapError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends fixed-width little-endian primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
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

    /// Appends a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip,
    /// including infinities and NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a collection length as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Consumes the primitives written by [`ByteWriter`], with every read
/// checked against the remaining length.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is an error.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a collection length, bounded by the remaining byte count so
    /// a corrupted length cannot trigger a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapError::Invalid("length prefix"));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Invalid("UTF-8 string"))
    }

    /// Asserts the stream was fully consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX / 3);
        w.put_i64(-42);
        w.put_f64(f64::NEG_INFINITY);
        w.put_f64(0.1 + 0.2);
        w.put_bool(true);
        w.put_str("héllo");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated));
        let mut r = ByteReader::new(&bytes);
        r.get_u32().unwrap();
        assert_eq!(r.get_u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u32().unwrap();
        assert_eq!(r.finish(), Err(SnapError::Trailing(1)));
    }

    #[test]
    fn bad_bool_and_oversized_length_are_rejected() {
        let mut r = ByteReader::new(&[3]);
        assert_eq!(
            r.get_bool(),
            Err(SnapError::BadTag {
                what: "bool",
                tag: 3
            })
        );
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_len(), Err(SnapError::Invalid("length prefix")));
    }

    #[test]
    fn length_prefix_is_bounded_by_the_remaining_bytes() {
        // A prefix that fits the whole buffer but not what is left after
        // it (here: 16 bytes total, 8 left once the prefix is read).
        let mut w = ByteWriter::new();
        w.put_u64(9);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_len(), Err(SnapError::Invalid("length prefix")));
        // Exactly the remaining count is accepted.
        let mut w = ByteWriter::new();
        w.put_u64(8);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_len(), Ok(8));
    }

    #[test]
    fn errors_display_their_cause() {
        assert!(SnapError::Truncated.to_string().contains("truncated"));
        assert!(SnapError::Corrupt("bad fnv".into())
            .to_string()
            .contains("bad fnv"));
        assert!(SnapError::Invalid("x").to_string().contains("x"));
        assert!(SnapError::Trailing(2).to_string().contains("2"));
    }
}
