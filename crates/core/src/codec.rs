//! The one little-endian byte codec: a writer, a bounds-checked reader
//! and the span body that the cluster wire and the segment store share.
//!
//! Both formats spell a periodic span — dense values on a grid plus
//! presence intervals, timestamps implicit — with the same tail:
//!
//! ```text
//! span := values:u32+f32* ranges:u32+(start:i64 end:i64)*
//! ```
//!
//! [`put_span`] writes it; [`Reader::span`] reads it back as two borrowed
//! byte slices ([`Span`]), so a caller can validate or filter a span
//! before it allocates anything for it.
//!
//! What this module owns is the byte-level rules: every read is bounds
//! checked, and every element count is refused before allocation unless
//! the bytes left could hold that many elements ([`Reader::count`]). A
//! hostile or corrupt buffer yields a [`CodecError`], never a panic and
//! never an allocation larger than the buffer. Opcodes, version bytes,
//! magic and checksums belong to the formats that use this codec.

use crate::time::Tick;

/// Why a byte buffer failed to decode. Each format turns it into its own
/// error: the wire into a `WireError`, the segment reader into a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced structure did.
    Truncated,
    /// A declared count exceeds what the rest of the buffer can hold.
    TooLarge(usize),
    /// Bytes remained after the structure was fully decoded.
    Trailing(usize),
    /// A string field is not valid UTF-8.
    Utf8,
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` as its little-endian IEEE-754 bit pattern (NaN
/// payloads and negative zero survive).
#[inline]
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    put_u32(buf, v.to_bits());
}

/// Appends a `u32` byte length and the string's UTF-8 bytes.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a span body: the value count and values, then the range count
/// and `[start, end)` pairs.
pub fn put_span(buf: &mut Vec<u8>, values: &[f32], ranges: &[(Tick, Tick)]) {
    put_u32(buf, values.len() as u32);
    for &v in values {
        put_f32(buf, v);
    }
    put_u32(buf, ranges.len() as u32);
    for &(s, e) in ranges {
        put_i64(buf, s);
        put_i64(buf, e);
    }
}

/// A span body still borrowed from its buffer: `values` holds 4 bytes per
/// `f32`, `ranges` 16 bytes per `(start, end)` pair.
#[derive(Debug, Clone, Copy)]
pub struct Span<'a> {
    values: &'a [u8],
    ranges: &'a [u8],
}

impl<'a> Span<'a> {
    /// The values, decoded from their bit patterns.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f32> + 'a {
        self.values
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// The presence ranges as `(start, end)` tick pairs, unvalidated.
    pub fn ranges(&self) -> impl ExactSizeIterator<Item = (Tick, Tick)> + 'a {
        self.ranges.chunks_exact(16).map(|b| {
            let (s, e) = b.split_at(8);
            let tick = |h: &[u8]| Tick::from_le_bytes(h.try_into().expect("8-byte half"));
            (tick(s), tick(e))
        })
    }
}

/// A bounds-checked little-endian reader over one buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than `n` bytes are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.rest.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }

    /// Reads a byte. Errors as [`take`](Self::take).
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`. Errors as [`take`](Self::take).
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`. Errors as [`take`](Self::take).
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`. Errors as [`take`](Self::take).
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f32` bit pattern. Errors as [`take`](Self::take).
    #[inline]
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        self.u32().map(f32::from_bits)
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// A `u32` element count, refused unless the bytes left could hold
    /// `n` elements of at least `min_elem_bytes` each (a zero minimum
    /// counts as one byte) — so a forged count can never make a decoder
    /// allocate beyond the buffer it arrived in.
    ///
    /// # Errors
    /// [`CodecError::TooLarge`] with the declared count, or
    /// [`CodecError::Truncated`] when the count itself is cut off.
    #[inline]
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::TooLarge(n));
        }
        Ok(n)
    }

    /// Reads a [`put_str`] string, borrowed.
    ///
    /// # Errors
    /// As [`count`](Self::count), or [`CodecError::Utf8`].
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::Utf8)
    }

    /// Reads a [`put_span`] body without decoding or copying an element.
    ///
    /// # Errors
    /// As [`count`](Self::count), for either count.
    #[inline]
    pub fn span(&mut self) -> Result<Span<'a>, CodecError> {
        let n = self.count(4)?;
        let values = self.take(n * 4)?;
        let n = self.count(16)?;
        let ranges = self.take(n * 16)?;
        Ok(Span { values, ranges })
    }

    /// Ends the read.
    ///
    /// # Errors
    /// [`CodecError::Trailing`] when bytes are left over.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}
