//! Bit-level readers and writers.
//!
//! Two stream orientations are provided because the two entropy-coding
//! families in the framework want different layouts:
//!
//! - **MSB-first, forward** ([`MsbBitWriter`] / [`MsbBitReader`]): used by the
//!   canonical Huffman coder. Codes are written most-significant-bit first and
//!   the decoder walks the stream front to back. This orientation also lets
//!   the hardware model's *speculative* Huffman expander start a decode at an
//!   arbitrary bit offset (Section 5.3 of the paper).
//! - **LSB-first, backward-read** ([`BitWriter`] / [`ReverseBitReader`]):
//!   the FSE/tANS layout. The encoder writes fields LSB-first, front to back;
//!   the decoder starts from a terminator bit at the *end* of the stream and
//!   reads fields in reverse (LIFO) order — exactly the ZStandard bitstream
//!   convention that lets the FSE encoder run over symbols backward while the
//!   decoder emits them forward.
//!
//! A plain forward LSB reader ([`BitReader`]) is included for tests and for
//! formats with simple little-endian bit fields.

/// Error returned when a reader runs out of bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamExhausted;

impl std::fmt::Display for BitstreamExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitstream exhausted")
    }
}

impl std::error::Error for BitstreamExhausted {}

const MAX_FIELD_BITS: u32 = 57;

/// Bits the writers flush at a time. Between calls fewer than this many
/// are pending, so a field of up to this width always fits beside them in
/// the 64-bit accumulator; wider fields go in as two.
const FLUSH_BITS: u32 = 32;

/// LSB-first bit accumulator producing a byte vector.
///
/// Fields of up to 57 bits are appended least-significant-bit first. Pair
/// with [`ReverseBitReader`] (after [`BitWriter::finish_with_marker`]) for
/// FSE-style streams, or with [`BitReader`] for forward reading. Bits
/// collect in a 64-bit accumulator and go out 32 at a time.
///
/// ```
/// use cdpu_util::bits::{BitWriter, BitReader};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let (bytes, len) = w.finish();
/// assert_eq!(len, 11);
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_bits(8).unwrap(), 0xFF);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    acc: u64,
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.acc_bits as usize
    }

    /// Appends the low `nbits` of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `nbits > 57` or if `value` has bits set above `nbits`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        assert!(nbits <= MAX_FIELD_BITS, "field too wide: {nbits}");
        debug_assert!(
            nbits == 64 || value < (1u64 << nbits),
            "value {value:#x} does not fit in {nbits} bits"
        );
        if nbits > FLUSH_BITS {
            self.put(value & u32::MAX as u64, FLUSH_BITS);
            self.put(value >> FLUSH_BITS, nbits - FLUSH_BITS);
        } else {
            self.put(value, nbits);
        }
    }

    /// Appends a field of at most [`FLUSH_BITS`] bits.
    #[inline(always)]
    fn put(&mut self, value: u64, nbits: u32) {
        self.acc |= value << self.acc_bits;
        self.acc_bits += nbits;
        if self.acc_bits >= FLUSH_BITS {
            self.bytes.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= FLUSH_BITS;
            self.acc_bits -= FLUSH_BITS;
        }
    }

    /// Finishes the stream, zero-padding the final partial byte.
    /// Returns `(bytes, exact_bit_count)`.
    pub fn finish(mut self) -> (Vec<u8>, usize) {
        let bit_len = self.bit_len();
        let tail = self.acc_bits.div_ceil(8) as usize;
        self.bytes.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        (self.bytes, bit_len)
    }

    /// Finishes the stream FSE-style: appends a single `1` terminator bit and
    /// zero-pads to a byte boundary. [`ReverseBitReader`] locates this
    /// terminator to find the logical end of the stream, so the exact bit
    /// count does not need to be transmitted out of band.
    pub fn finish_with_marker(mut self) -> Vec<u8> {
        self.write_bits(1, 1);
        self.finish().0
    }
}

/// Forward, LSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor (0 = LSB of bytes[0]).
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, positioned at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Reads `nbits` (≤ 57) as an LSB-first field.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if fewer than `nbits` remain.
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64, BitstreamExhausted> {
        assert!(nbits <= MAX_FIELD_BITS);
        if self.remaining() < nbits as usize {
            return Err(BitstreamExhausted);
        }
        let v = extract_bits_lsb(self.bytes, self.pos, nbits);
        self.pos += nbits as usize;
        Ok(v)
    }
}

/// Loads 8 bytes at `byte_pos` as a little-endian u64; bytes past the end of
/// the slice read as zero. A 57-bit field at any intra-byte alignment
/// (shift ≤ 7) fits entirely inside this window: 57 + 7 = 64.
#[inline(always)]
fn load_le_window(bytes: &[u8], byte_pos: usize) -> u64 {
    match bytes.get(byte_pos..byte_pos + 8) {
        Some(chunk) => u64::from_le_bytes(chunk.try_into().unwrap()),
        None => {
            let mut buf = [0u8; 8];
            if byte_pos < bytes.len() {
                let tail = &bytes[byte_pos..];
                buf[..tail.len()].copy_from_slice(tail);
            }
            u64::from_le_bytes(buf)
        }
    }
}

/// Big-endian analogue of [`load_le_window`]: byte `byte_pos` lands in the
/// most significant byte; bytes past the end of the slice read as zero.
#[inline(always)]
fn load_be_window(bytes: &[u8], byte_pos: usize) -> u64 {
    match bytes.get(byte_pos..byte_pos + 8) {
        Some(chunk) => u64::from_be_bytes(chunk.try_into().unwrap()),
        None => {
            let mut buf = [0u8; 8];
            if byte_pos < bytes.len() {
                let tail = &bytes[byte_pos..];
                buf[..tail.len()].copy_from_slice(tail);
            }
            u64::from_be_bytes(buf)
        }
    }
}

/// Extracts `nbits` starting at absolute LSB-first bit index `start`.
fn extract_bits_lsb(bytes: &[u8], start: usize, nbits: u32) -> u64 {
    debug_assert!(nbits <= MAX_FIELD_BITS);
    if nbits == 0 {
        return 0;
    }
    let shift = (start % 8) as u32;
    (load_le_window(bytes, start / 8) >> shift) & mask(nbits)
}

fn mask(nbits: u32) -> u64 {
    if nbits >= 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

/// Backward (LIFO) reader for streams produced by
/// [`BitWriter::finish_with_marker`].
///
/// Fields come back in the reverse of the order they were written; each field
/// value is identical to what was passed to `write_bits`. This is the
/// ZStandard/FSE convention: the entropy *encoder* walks symbols backward so
/// the *decoder* can emit them forward.
///
/// ```
/// use cdpu_util::bits::{BitWriter, ReverseBitReader};
/// let mut w = BitWriter::new();
/// w.write_bits(0b01, 2);
/// w.write_bits(0b1110, 4);
/// let bytes = w.finish_with_marker();
/// let mut r = ReverseBitReader::new(&bytes).unwrap();
/// assert_eq!(r.read_bits(4).unwrap(), 0b1110); // last written, first read
/// assert_eq!(r.read_bits(2).unwrap(), 0b01);
/// assert_eq!(r.remaining(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReverseBitReader<'a> {
    bytes: &'a [u8],
    /// Bit cursor: number of valid payload bits below the cursor.
    pos: usize,
}

impl<'a> ReverseBitReader<'a> {
    /// Creates a reader, locating the `1` terminator bit from the end.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if the stream is empty or all-zero (no
    /// terminator present).
    pub fn new(bytes: &'a [u8]) -> Result<Self, BitstreamExhausted> {
        let last_nonzero = bytes
            .iter()
            .rposition(|&b| b != 0)
            .ok_or(BitstreamExhausted)?;
        let top = 7 - bytes[last_nonzero].leading_zeros() as usize;
        Ok(ReverseBitReader {
            bytes,
            pos: last_nonzero * 8 + top,
        })
    }

    /// Payload bits remaining below the cursor.
    pub fn remaining(&self) -> usize {
        self.pos
    }

    /// Reads the `nbits` most recently written bits.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if fewer than `nbits` remain.
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64, BitstreamExhausted> {
        assert!(nbits <= MAX_FIELD_BITS);
        if self.pos < nbits as usize {
            return Err(BitstreamExhausted);
        }
        self.pos -= nbits as usize;
        Ok(extract_bits_lsb(self.bytes, self.pos, nbits))
    }

    /// Peeks up to 57 of the most recently written bits without consuming
    /// them, as `(window, valid)`: the window is LSB-aligned with bit
    /// `pos - 1` of the stream in its highest valid position, so a field of
    /// `n ≤ valid` bits reads as `(window >> (valid - n)) & ((1 << n) - 1)`.
    /// Batched entropy decoders use one `peek_tail` per refill and then
    /// [`ReverseBitReader::consume`] the total once.
    pub fn peek_tail(&self) -> (u64, u32) {
        let n = self.pos.min(MAX_FIELD_BITS as usize) as u32;
        (extract_bits_lsb(self.bytes, self.pos - n as usize, n), n)
    }

    /// Consumes `nbits` previously examined via [`ReverseBitReader::peek_tail`].
    ///
    /// # Panics
    ///
    /// Debug-asserts that at least `nbits` remain.
    pub fn consume(&mut self, nbits: u32) {
        debug_assert!(nbits as usize <= self.pos);
        self.pos -= nbits as usize;
    }
}

/// MSB-first bit writer: the first bit written becomes the most significant
/// bit of the first byte. Pairs with [`MsbBitReader`].
///
/// ```
/// use cdpu_util::bits::{MsbBitWriter, MsbBitReader};
/// let mut w = MsbBitWriter::new();
/// w.write_bits(0b1, 1);
/// w.write_bits(0b0110, 4);
/// let (bytes, len) = w.finish();
/// assert_eq!(len, 5);
/// assert_eq!(bytes[0] >> 3, 0b10110);
/// let mut r = MsbBitReader::new(&bytes, len);
/// assert_eq!(r.read_bits(1).unwrap(), 0b1);
/// assert_eq!(r.read_bits(4).unwrap(), 0b0110);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MsbBitWriter {
    bytes: Vec<u8>,
    acc: u64,
    acc_bits: u32,
}

impl MsbBitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.acc_bits as usize
    }

    /// Appends the low `nbits` of `value`, most significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if `nbits > 57`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        assert!(nbits <= MAX_FIELD_BITS, "field too wide: {nbits}");
        debug_assert!(nbits == 64 || value < (1u64 << nbits));
        if nbits > FLUSH_BITS {
            self.put(value >> FLUSH_BITS, nbits - FLUSH_BITS);
            self.put(value & u32::MAX as u64, FLUSH_BITS);
        } else {
            self.put(value, nbits);
        }
    }

    /// Appends a field of at most [`FLUSH_BITS`] bits. The pending bits are
    /// the low `acc_bits` of `acc`; what lies above them was flushed.
    #[inline(always)]
    fn put(&mut self, value: u64, nbits: u32) {
        self.acc = (self.acc << nbits) | value;
        self.acc_bits += nbits;
        if self.acc_bits >= FLUSH_BITS {
            self.acc_bits -= FLUSH_BITS;
            self.bytes.extend_from_slice(&((self.acc >> self.acc_bits) as u32).to_be_bytes());
        }
    }

    /// Finishes the stream, zero-padding the final partial byte on the right.
    /// Returns `(bytes, exact_bit_count)`.
    pub fn finish(mut self) -> (Vec<u8>, usize) {
        let bit_len = self.bit_len();
        if self.acc_bits > 0 {
            let tail = self.acc_bits.div_ceil(8) as usize;
            let aligned = self.acc << (64 - self.acc_bits);
            self.bytes.extend_from_slice(&aligned.to_be_bytes()[..tail]);
        }
        (self.bytes, bit_len)
    }
}

/// Forward, MSB-first bit reader with an explicit logical length and support
/// for random seeking — the primitive behind speculative Huffman decoding.
#[derive(Debug, Clone)]
pub struct MsbBitReader<'a> {
    bytes: &'a [u8],
    bit_len: usize,
    pos: usize,
}

impl<'a> MsbBitReader<'a> {
    /// Creates a reader over the first `bit_len` bits of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds the bits available in `bytes`.
    pub fn new(bytes: &'a [u8], bit_len: usize) -> Self {
        assert!(bit_len <= bytes.len() * 8);
        MsbBitReader {
            bytes,
            bit_len,
            pos: 0,
        }
    }

    /// Current absolute bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to an absolute bit position (may be mid-stream; this
    /// is what hardware speculation does).
    ///
    /// # Panics
    ///
    /// Panics if `pos > bit_len`.
    pub fn seek(&mut self, pos: usize) {
        assert!(pos <= self.bit_len);
        self.pos = pos;
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bit_len - self.pos
    }

    /// Reads `nbits` (≤ 57) MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if fewer than `nbits` remain.
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64, BitstreamExhausted> {
        if self.remaining() < nbits as usize {
            return Err(BitstreamExhausted);
        }
        let v = self.peek_bits(nbits);
        self.pos += nbits as usize;
        Ok(v)
    }

    /// Peeks up to `nbits` without consuming; bits past the logical end read
    /// as zero (standard table-decoder behaviour near stream end).
    pub fn peek_bits(&self, nbits: u32) -> u64 {
        assert!(nbits <= MAX_FIELD_BITS);
        if nbits == 0 {
            return 0;
        }
        let shift = (self.pos % 8) as u32;
        let v = (load_be_window(self.bytes, self.pos / 8) << shift) >> (64 - nbits);
        // Zero out any bits past the logical end (they sit in the low bits of
        // an MSB-first peek).
        let avail = self.remaining().min(nbits as usize) as u32;
        if avail == nbits {
            v
        } else {
            (v >> (nbits - avail)) << (nbits - avail)
        }
    }

    /// Consumes `nbits` after a successful peek. Consuming past the logical
    /// end is clamped to the end.
    pub fn consume(&mut self, nbits: u32) {
        self.pos = (self.pos + nbits as usize).min(self.bit_len);
    }
}

/// Forward MSB-first reader with a cached u64 window — the fast path behind
/// batched entropy decode.
///
/// Where [`MsbBitReader`] re-derives byte/bit offsets and re-loads the
/// stream on every `peek_bits`, `BitBuf` loads a 64-bit window once per
/// [`BitBuf::refill`] and serves `peek`/`consume` from registers with no
/// bounds math. After a refill at least 57 valid bits are available, so a
/// decoder can pull several table-sized fields per refill.
///
/// The intended discipline, which keeps `BitBuf` bit-identical to an
/// [`MsbBitReader`] walking the same stream:
///
/// 1. only enter the fast loop while [`BitBuf::remaining`] `>= 64` (every
///    cached bit is then inside the logical stream — end-of-stream
///    zero-padding can never be observed),
/// 2. `refill()`, then `peek`/`consume` while [`BitBuf::valid`] covers the
///    next field,
/// 3. fall back to [`MsbBitReader`] (via [`MsbBitReader::seek`] to
///    [`BitBuf::position`]) for the sub-64-bit tail.
#[derive(Debug, Clone)]
pub struct BitBuf<'a> {
    bytes: &'a [u8],
    bit_len: usize,
    /// Absolute bit position of the first bit in `acc`.
    pos: usize,
    /// Cached window, MSB-aligned: the top [`BitBuf::valid`] bits of `acc`
    /// are the next bits of the stream.
    acc: u64,
    valid: u32,
}

impl<'a> BitBuf<'a> {
    /// Creates a reader over the first `bit_len` bits of `bytes`, positioned
    /// at bit 0 with an empty window (call [`BitBuf::refill`] first).
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds the bits available in `bytes`.
    pub fn new(bytes: &'a [u8], bit_len: usize) -> Self {
        assert!(bit_len <= bytes.len() * 8);
        BitBuf { bytes, bit_len, pos: 0, acc: 0, valid: 0 }
    }

    /// Current absolute bit position.
    #[inline(always)]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining to the logical end of the stream.
    #[inline(always)]
    pub fn remaining(&self) -> usize {
        self.bit_len - self.pos
    }

    /// Valid bits currently cached in the window.
    #[inline(always)]
    pub fn valid(&self) -> u32 {
        self.valid
    }

    /// Reloads the window at the current bit position: one unaligned u64
    /// load and a shift, no per-bit work. Afterwards `valid() >= 57`
    /// (64 minus at most 7 bits of intra-byte misalignment).
    #[inline(always)]
    pub fn refill(&mut self) {
        let shift = (self.pos % 8) as u32;
        self.acc = load_be_window(self.bytes, self.pos / 8) << shift;
        self.valid = 64 - shift;
    }

    /// Returns the next `nbits` (1 ..= [`BitBuf::valid`]) without consuming.
    #[inline(always)]
    pub fn peek(&self, nbits: u32) -> u64 {
        debug_assert!(nbits >= 1 && nbits <= self.valid);
        self.acc >> (64 - nbits)
    }

    /// Advances past `nbits` previously peeked bits.
    #[inline(always)]
    pub fn consume(&mut self, nbits: u32) {
        debug_assert!(nbits <= self.valid);
        self.acc <<= nbits;
        self.valid -= nbits;
        self.pos += nbits as usize;
    }
}

/// A bank of `K` independent [`BitBuf`] cursors, one per interleaved
/// stream — the decode-side primitive behind N-way multi-stream entropy
/// coding.
///
/// A single-stream table decoder is serial-dependency-bound: each
/// `peek → table load → consume` chain must retire before the next can
/// start. Splitting symbols round-robin across `K` independent bitstreams
/// gives the CPU `K` parallel dependency chains; the bank keeps one cached
/// window per lane so a rotation (one symbol from each lane) issues `K`
/// overlapping table loads.
///
/// Each lane follows the same discipline as a lone [`BitBuf`]: fast-loop
/// only while `remaining() >= 64`, refill when the window runs dry, fall
/// back to [`MsbBitReader`] for the sub-64-bit tail.
#[derive(Debug, Clone)]
pub struct BitBufBank<'a, const K: usize> {
    lanes: [BitBuf<'a>; K],
}

impl<'a, const K: usize> BitBufBank<'a, K> {
    /// Creates a bank from `K` `(bytes, bit_len)` streams, each positioned
    /// at bit 0 with an empty window.
    ///
    /// # Panics
    ///
    /// Panics if any `bit_len` exceeds the bits available in its stream.
    pub fn new(streams: [(&'a [u8], usize); K]) -> Self {
        BitBufBank {
            lanes: streams.map(|(bytes, bit_len)| BitBuf::new(bytes, bit_len)),
        }
    }

    /// Mutable access to lane `k`.
    #[inline(always)]
    pub fn lane(&mut self, k: usize) -> &mut BitBuf<'a> {
        &mut self.lanes[k]
    }

    /// All lanes at once, for rotation loops that index directly.
    #[inline(always)]
    pub fn lanes(&mut self) -> &mut [BitBuf<'a>; K] {
        &mut self.lanes
    }

    /// Refills every lane's window.
    #[inline(always)]
    pub fn refill_all(&mut self) {
        for lane in &mut self.lanes {
            lane.refill();
        }
    }

    /// The smallest `remaining()` across lanes: the fast rotation loop is
    /// safe while this is `>= 64` (no lane can observe end-of-stream
    /// zero-padding).
    #[inline(always)]
    pub fn min_remaining(&self) -> usize {
        self.lanes.iter().map(BitBuf::remaining).min().unwrap_or(0)
    }

    /// The smallest cached-window occupancy across lanes.
    #[inline(always)]
    pub fn min_valid(&self) -> u32 {
        self.lanes.iter().map(BitBuf::valid).min().unwrap_or(0)
    }
}

/// A [`ReverseBitReader`] with a self-refreshing [`peek_tail`] window — the
/// per-stream cursor behind N-way interleaved FSE decode.
///
/// PR 5's batched sequence decoder peeks one 57-bit tail window and slices
/// several fields out of it by hand. `ReverseTailCursor` packages that
/// machinery so a decoder can hold `K` independent cursors and round-robin
/// [`ReverseTailCursor::take`] calls across them: each take serves from the
/// cached window in registers and only touches the underlying reader when
/// the window runs dry.
///
/// [`peek_tail`]: ReverseBitReader::peek_tail
#[derive(Debug, Clone)]
pub struct ReverseTailCursor<'a> {
    reader: ReverseBitReader<'a>,
    /// Cached tail window; the low `peeked` bits were valid at refresh.
    window: u64,
    /// Unconsumed bits left in the window.
    have: u32,
    /// Window occupancy at the last refresh (`peeked - have` bits have been
    /// taken from the window but not yet consumed from the reader).
    peeked: u32,
}

impl<'a> ReverseTailCursor<'a> {
    /// Creates a cursor over a marker-terminated stream (see
    /// [`BitWriter::finish_with_marker`]).
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if the stream is empty or carries no
    /// terminator.
    pub fn new(bytes: &'a [u8]) -> Result<Self, BitstreamExhausted> {
        Ok(ReverseTailCursor {
            reader: ReverseBitReader::new(bytes)?,
            window: 0,
            have: 0,
            peeked: 0,
        })
    }

    /// Payload bits remaining (cached window included).
    pub fn remaining(&self) -> usize {
        self.reader.remaining() - (self.peeked - self.have) as usize
    }

    /// Commits window consumption to the reader and re-peeks the tail.
    #[inline(never)]
    fn refresh(&mut self) {
        self.reader.consume(self.peeked - self.have);
        let (window, have) = self.reader.peek_tail();
        self.window = window;
        self.have = have;
        self.peeked = have;
    }

    /// Reads the `nbits` (≤ 57) most recently written bits, LIFO order —
    /// bit-identical to [`ReverseBitReader::read_bits`] on the same stream.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if fewer than `nbits` remain.
    #[inline(always)]
    pub fn take(&mut self, nbits: u32) -> Result<u64, BitstreamExhausted> {
        debug_assert!(nbits <= MAX_FIELD_BITS);
        if self.have < nbits {
            self.refresh();
            if self.have < nbits {
                return Err(BitstreamExhausted);
            }
        }
        self.have -= nbits;
        Ok((self.window >> self.have) & mask(nbits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn lsb_roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let fields: Vec<(u64, u32)> = vec![(1, 1), (0, 2), (0x3FF, 10), (5, 3), (0, 0), (0x1FFFF, 17)];
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let (bytes, len) = w.finish();
        assert_eq!(len, fields.iter().map(|f| f.1 as usize).sum::<usize>());
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    /// Packs a bit-at-a-time model of a writer's stream into bytes,
    /// zero-padding the last one.
    fn pack(bits: &[bool], msb_first: bool) -> Vec<u8> {
        let at = |i: usize| if msb_first { 7 - i } else { i };
        bits.chunks(8)
            .map(|byte| byte.iter().enumerate().fold(0u8, |acc, (i, &b)| acc | (b as u8) << at(i)))
            .collect()
    }

    #[test]
    fn writers_match_a_bit_at_a_time_model() {
        let mut rng = Xoshiro256::seed_from(83);
        // A last field tops each stream up to every residue mod the flush
        // width, so `finish` meets every number of pending bits.
        for residue in 0..FLUSH_BITS as usize {
            for _trial in 0..20 {
                let mut widths: Vec<u32> = (0..rng.index(40)).map(|_| rng.range_u64(0, 57) as u32).collect();
                let total: usize = widths.iter().map(|&w| w as usize).sum();
                widths.push(((residue + 32 - total % 32) % 32) as u32);
                let (mut lsb, mut msb) = (BitWriter::new(), MsbBitWriter::new());
                let (mut lsb_bits, mut msb_bits) = (Vec::new(), Vec::new());
                for nbits in widths {
                    let v = rng.next_u64() & mask(nbits);
                    lsb.write_bits(v, nbits);
                    msb.write_bits(v, nbits);
                    lsb_bits.extend((0..nbits).map(|i| v >> i & 1 == 1));
                    msb_bits.extend((0..nbits).rev().map(|i| v >> i & 1 == 1));
                    assert_eq!(lsb.bit_len(), lsb_bits.len());
                    assert_eq!(msb.bit_len(), msb_bits.len());
                }
                assert_eq!(lsb_bits.len() % 32, residue);
                assert_eq!(lsb.finish(), (pack(&lsb_bits, false), lsb_bits.len()));
                assert_eq!(msb.finish(), (pack(&msb_bits, true), msb_bits.len()));
            }
        }
    }

    #[test]
    fn lsb_reader_exhaustion() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        let (bytes, _len) = w.finish();
        let mut r = BitReader::new(&bytes);
        r.read_bits(2).unwrap();
        // padding bits exist in the byte, so only 6 remain
        assert!(r.read_bits(7).is_err());
    }

    #[test]
    fn reverse_reader_lifo_order() {
        let mut w = BitWriter::new();
        w.write_bits(0xA, 4);
        w.write_bits(0x15, 5);
        w.write_bits(1, 1);
        let bytes = w.finish_with_marker();
        let mut r = ReverseBitReader::new(&bytes).unwrap();
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(5).unwrap(), 0x15);
        assert_eq!(r.read_bits(4).unwrap(), 0xA);
        assert_eq!(r.remaining(), 0);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn reverse_reader_empty_or_zero_fails() {
        assert!(ReverseBitReader::new(&[]).is_err());
        assert!(ReverseBitReader::new(&[0, 0, 0]).is_err());
    }

    #[test]
    fn reverse_reader_marker_only() {
        let w = BitWriter::new();
        let bytes = w.finish_with_marker();
        let r = ReverseBitReader::new(&bytes).unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn msb_roundtrip_mixed_widths() {
        let mut w = MsbBitWriter::new();
        let fields: Vec<(u64, u32)> = vec![(1, 1), (0b10, 2), (0x155, 10), (7, 3), (0x0FFF, 16)];
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let (bytes, len) = w.finish();
        let mut r = MsbBitReader::new(&bytes, len);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn msb_seek_and_peek() {
        let mut w = MsbBitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0b0011, 4);
        let (bytes, len) = w.finish();
        let mut r = MsbBitReader::new(&bytes, len);
        r.seek(4);
        assert_eq!(r.peek_bits(4), 0b0011);
        assert_eq!(r.read_bits(4).unwrap(), 0b0011);
        r.seek(0);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
    }

    #[test]
    fn msb_peek_past_end_zero_padded() {
        let mut w = MsbBitWriter::new();
        w.write_bits(0b11, 2);
        let (bytes, len) = w.finish();
        let r = MsbBitReader::new(&bytes, len);
        // peek 8 bits: 2 real (11) + 6 zero
        assert_eq!(r.peek_bits(8), 0b1100_0000);
    }

    #[test]
    fn randomized_lsb_roundtrip() {
        let mut rng = Xoshiro256::seed_from(77);
        for _trial in 0..200 {
            let n_fields = rng.index(40) + 1;
            let mut w = BitWriter::new();
            let mut fields = Vec::new();
            for _ in 0..n_fields {
                let nbits = rng.range_u64(0, 57) as u32;
                let v = rng.next_u64() & mask(nbits);
                fields.push((v, nbits));
                w.write_bits(v, nbits);
            }
            let bytes = w.finish_with_marker();
            let mut r = ReverseBitReader::new(&bytes).unwrap();
            for &(v, nbits) in fields.iter().rev() {
                assert_eq!(r.read_bits(nbits).unwrap(), v);
            }
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn bitbuf_matches_msb_reader() {
        let mut rng = Xoshiro256::seed_from(79);
        for _trial in 0..200 {
            let n_fields = rng.index(60) + 1;
            let mut w = MsbBitWriter::new();
            let mut fields = Vec::new();
            for _ in 0..n_fields {
                let nbits = rng.range_u64(1, 16) as u32;
                let v = rng.next_u64() & mask(nbits);
                fields.push((v, nbits));
                w.write_bits(v, nbits);
            }
            let (bytes, len) = w.finish();
            let mut buf = BitBuf::new(&bytes, len);
            let mut slow = MsbBitReader::new(&bytes, len);
            for &(v, nbits) in &fields {
                if buf.remaining() >= 64 {
                    // Fast-path discipline: refill when the window runs dry.
                    if buf.valid() < nbits {
                        buf.refill();
                    }
                    assert_eq!(buf.peek(nbits), v);
                    buf.consume(nbits);
                    slow.seek(buf.position());
                } else {
                    // Tail discipline: fall back to the per-field reader.
                    assert_eq!(slow.read_bits(nbits).unwrap(), v);
                }
            }
            assert_eq!(slow.remaining(), 0);
        }
    }

    #[test]
    fn bitbuf_refill_gives_57_plus_bits() {
        let bytes = [0xAAu8; 16];
        for start in 0..8usize {
            let mut buf = BitBuf::new(&bytes, 128);
            if start > 0 {
                buf.refill();
                buf.consume(start as u32);
            }
            buf.refill();
            assert!(buf.valid() >= 57, "valid {} at start {start}", buf.valid());
            // The window must agree with a fresh MsbBitReader at that offset.
            let mut slow = MsbBitReader::new(&bytes, 128);
            slow.seek(start);
            assert_eq!(buf.peek(13), slow.peek_bits(13));
        }
    }

    #[test]
    fn reverse_peek_tail_matches_read_bits() {
        let mut rng = Xoshiro256::seed_from(80);
        for _trial in 0..100 {
            let n_fields = rng.index(30) + 1;
            let mut w = BitWriter::new();
            let mut fields = Vec::new();
            for _ in 0..n_fields {
                let nbits = rng.range_u64(0, 12) as u32;
                let v = rng.next_u64() & mask(nbits);
                fields.push((v, nbits));
                w.write_bits(v, nbits);
            }
            let bytes = w.finish_with_marker();
            let mut peeker = ReverseBitReader::new(&bytes).unwrap();
            let mut reader = ReverseBitReader::new(&bytes).unwrap();
            for &(v, nbits) in fields.iter().rev() {
                let (window, have) = peeker.peek_tail();
                assert_eq!(have as usize, peeker.remaining().min(57));
                if have >= nbits {
                    let field = (window >> (have - nbits)) & mask(nbits);
                    assert_eq!(field, v);
                }
                peeker.consume(nbits);
                assert_eq!(reader.read_bits(nbits).unwrap(), v);
                assert_eq!(peeker.remaining(), reader.remaining());
            }
        }
    }

    #[test]
    fn bitbuf_bank_lanes_match_solo_readers() {
        let mut rng = Xoshiro256::seed_from(81);
        for _trial in 0..100 {
            // Four independent streams of random-width fields.
            let mut streams = Vec::new();
            for _lane in 0..4 {
                let n_fields = rng.index(40) + 1;
                let mut w = MsbBitWriter::new();
                let mut fields = Vec::new();
                for _ in 0..n_fields {
                    let nbits = rng.range_u64(1, 16) as u32;
                    let v = rng.next_u64() & mask(nbits);
                    fields.push((v, nbits));
                    w.write_bits(v, nbits);
                }
                let (bytes, len) = w.finish();
                streams.push((bytes, len, fields));
            }
            let mut bank = BitBufBank::<4>::new([
                (&streams[0].0, streams[0].1),
                (&streams[1].0, streams[1].1),
                (&streams[2].0, streams[2].1),
                (&streams[3].0, streams[3].1),
            ]);
            bank.refill_all();
            // Round-robin one field per lane; every lane must agree with a
            // lone MsbBitReader walking the same stream.
            let max_fields = streams.iter().map(|s| s.2.len()).max().unwrap();
            let mut slows: Vec<MsbBitReader<'_>> = streams
                .iter()
                .map(|(bytes, len, _)| MsbBitReader::new(bytes, *len))
                .collect();
            for i in 0..max_fields {
                for k in 0..4 {
                    let Some(&(v, nbits)) = streams[k].2.get(i) else {
                        continue;
                    };
                    let lane = bank.lane(k);
                    if lane.remaining() >= 64 {
                        if lane.valid() < nbits {
                            lane.refill();
                        }
                        assert_eq!(lane.peek(nbits), v);
                        lane.consume(nbits);
                        let pos = lane.position();
                        slows[k].seek(pos);
                    } else {
                        assert_eq!(slows[k].read_bits(nbits).unwrap(), v);
                    }
                }
            }
            for slow in &slows {
                assert_eq!(slow.remaining(), 0);
            }
        }
    }

    #[test]
    fn reverse_tail_cursor_matches_reverse_reader() {
        let mut rng = Xoshiro256::seed_from(82);
        for _trial in 0..200 {
            let n_fields = rng.index(60) + 1;
            let mut w = BitWriter::new();
            let mut fields = Vec::new();
            for _ in 0..n_fields {
                let nbits = rng.range_u64(0, 20) as u32;
                let v = rng.next_u64() & mask(nbits);
                fields.push((v, nbits));
                w.write_bits(v, nbits);
            }
            let bytes = w.finish_with_marker();
            let mut cursor = ReverseTailCursor::new(&bytes).unwrap();
            let mut reader = ReverseBitReader::new(&bytes).unwrap();
            for &(v, nbits) in fields.iter().rev() {
                assert_eq!(cursor.take(nbits).unwrap(), v);
                assert_eq!(reader.read_bits(nbits).unwrap(), v);
                assert_eq!(cursor.remaining(), reader.remaining());
            }
            assert_eq!(cursor.remaining(), 0);
            assert!(cursor.take(1).is_err());
        }
    }

    #[test]
    fn randomized_msb_roundtrip() {
        let mut rng = Xoshiro256::seed_from(78);
        for _trial in 0..200 {
            let n_fields = rng.index(40) + 1;
            let mut w = MsbBitWriter::new();
            let mut fields = Vec::new();
            for _ in 0..n_fields {
                let nbits = rng.range_u64(1, 57) as u32;
                let v = rng.next_u64() & mask(nbits);
                fields.push((v, nbits));
                w.write_bits(v, nbits);
            }
            let (bytes, len) = w.finish();
            let mut r = MsbBitReader::new(&bytes, len);
            for &(v, nbits) in &fields {
                assert_eq!(r.read_bits(nbits).unwrap(), v);
            }
        }
    }
}
