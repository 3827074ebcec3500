//! Sequence application (the LZ77 decode side).
//!
//! The paper's LZ77 decoder block (Section 5.2) consumes `(offset, length,
//! literal)` triplets and produces output by copying from a history window,
//! falling back to memory when the offset exceeds the on-chip SRAM. This
//! module provides the functional equivalent: [`reconstruct`] applies a
//! [`Parse`] against a literal stream, validating every offset; the copy
//! handles the classic overlapping case (`offset < length`) that RLE-style
//! matches rely on by replicating the period region-at-a-time.

use crate::{Lz77Error, Parse, Seq};

/// Appends `input[..len]` to `out`: the literal copy of every element
/// loop. A run of up to 16 bytes, with 16 in `input` and room for 16 in
/// `out`, moves as one fixed-size copy and is cut back to `len`, instead
/// of a length-dispatched `memcpy`.
#[inline(always)]
pub fn extend_literals(out: &mut Vec<u8>, input: &[u8], len: usize) {
    if len <= 16 && input.len() >= 16 && out.capacity() - out.len() >= 16 {
        let end = out.len() + len;
        out.extend_from_slice(&input[..16]);
        out.truncate(end);
    } else {
        out.extend_from_slice(&input[..len]);
    }
}

/// Applies one copy of `len` bytes from `offset` back onto `out`.
///
/// Non-overlapping copies (`offset >= len`) are a single wide
/// `extend_from_within` — the wild-copy fast path every LZ decoder spends
/// most of its time in. Overlapping copies replicate already-written bytes
/// (e.g. `offset == 1` extends a run) by doubling the copied region: each
/// full-region `extend_from_within` keeps the region length a multiple of
/// `offset`, so the region stays periodic and a final partial copy is
/// still the exact continuation. Output is byte-identical to the retained
/// byte-at-a-time [`crate::reference::apply_copy`].
///
/// # Errors
///
/// [`Lz77Error::BadOffset`] if `offset == 0` or exceeds the bytes produced.
pub fn apply_copy(out: &mut Vec<u8>, offset: u32, len: u32) -> Result<(), Lz77Error> {
    if offset == 0 || offset as usize > out.len() {
        return Err(Lz77Error::BadOffset {
            offset,
            produced: out.len(),
        });
    }
    let len = len as usize;
    let start = out.len() - offset as usize;
    if offset as usize >= len {
        if cdpu_telemetry::enabled() {
            cdpu_telemetry::counter!("decode.wild_copies").incr();
        }
        out.extend_from_within(start..start + len);
    } else {
        if cdpu_telemetry::enabled() {
            cdpu_telemetry::counter!("decode.overlap_copies").incr();
        }
        let mut produced = 0usize;
        while produced < len {
            let region = out.len() - start;
            let take = region.min(len - produced);
            out.extend_from_within(start..start + take);
            produced += take;
        }
    }
    Ok(())
}

/// Bytes moved per step of [`apply_sequences_prefix`].
const CHUNK: usize = 16;
/// A literal run or a match longer than this is one slice copy, not chunks:
/// past a few chunks a `memcpy` call has repaid its length dispatch.
const LONG_RUN: usize = 4 * CHUNK;

/// For an overlapping copy at `offset < CHUNK`: the smallest multiple of
/// `offset` that is at least [`CHUNK`]. Output is periodic in `offset`, so
/// it is periodic in this too, and a copy from that far back never overlaps
/// the chunk it writes.
const WIDE_OFFSET: [u8; CHUNK] = [0, 16, 16, 18, 16, 20, 18, 21, 16, 18, 20, 22, 24, 26, 28, 30];

/// Copies `buf[src..src + CHUNK]` to `buf[dst..dst + CHUNK]`, `src + CHUNK <= dst`.
#[inline(always)]
fn copy_chunk(buf: &mut [u8], src: usize, dst: usize) {
    let (head, tail) = buf.split_at_mut(dst);
    let chunk: [u8; CHUNK] = head[src..src + CHUNK].try_into().expect("a CHUNK-byte range");
    tail[..CHUNK].copy_from_slice(&chunk);
}

/// Applies the longest *plainly valid* prefix of a block's sequence list to
/// `out` and returns `(sequences applied, literals consumed)`; the caller's
/// own checked loop finishes the list from there and so keeps every error,
/// in its own order, with its own payloads.
///
/// `out` holds the history on entry and the block may add at most `max_len`
/// bytes to it. A sequence is plainly valid when its literals are present
/// with 16 bytes to spare, `1 <= offset <= window`, the offset reaches no
/// further back than the bytes produced so far, and the sequence ends 32
/// bytes short of the block's end. Inside that margin literals and matches
/// of up to 64 bytes move in whole 16-byte chunks — a chunk may write up to
/// 15 bytes past the end of its run, which the next run overwrites — instead
/// of through a length-dispatched `memcpy` per run, which is where a decoder
/// of ~6-byte matches otherwise spends its time; a longer run is one slice
/// copy (an overlapping match doubles its region as [`apply_copy`] does).
/// `out` is sized to `max_len` once, so nothing is written past
/// `out.len() + max_len`, and is cut back to the bytes produced before
/// returning.
///
/// Telemetry: `decode.wild_copies` / `decode.overlap_copies` count copies
/// exactly as [`apply_copy`] does, published once per call.
pub fn apply_sequences_prefix(
    out: &mut Vec<u8>,
    literals: &[u8],
    seqs: &[Seq],
    window: u32,
    max_len: usize,
) -> (usize, usize) {
    if max_len <= 2 * CHUNK {
        return (0, 0);
    }
    let start = out.len();
    out.resize(start + max_len, 0);
    let limit = out.len() - 2 * CHUNK;
    let lit_limit = literals.len().saturating_sub(CHUNK);
    let (mut pos, mut lit_pos, mut applied) = (start, 0usize, 0usize);
    let mut overlaps = 0u64;
    for seq in seqs {
        let (lit_len, match_len, offset) =
            (seq.lit_len as usize, seq.match_len as usize, seq.offset as usize);
        let room = limit - pos;
        if lit_len > lit_limit.saturating_sub(lit_pos)
            || lit_len > room
            || match_len > room - lit_len
            || offset == 0
            || seq.offset > window
            || offset > pos + lit_len
        {
            break;
        }
        if lit_len > LONG_RUN {
            out[pos..pos + lit_len].copy_from_slice(&literals[lit_pos..lit_pos + lit_len]);
        } else {
            let mut done = 0;
            while done < lit_len {
                out[pos + done..pos + done + CHUNK]
                    .copy_from_slice(&literals[lit_pos + done..lit_pos + done + CHUNK]);
                done += CHUNK;
            }
        }
        pos += lit_len;
        lit_pos += lit_len;

        if match_len > LONG_RUN {
            // The region from the match source to the write position stays
            // a multiple of `offset` long, so copying it whole continues
            // the period; `offset >= match_len` is a single copy.
            let mut done = 0;
            while done < match_len {
                let take = (offset + done).min(match_len - done);
                out.copy_within(pos - offset..pos - offset + take, pos + done);
                done += take;
            }
        } else {
            let mut done = 0;
            let mut back = offset;
            if offset < CHUNK {
                // Byte-wise until the widened offset reaches the match start.
                back = WIDE_OFFSET[offset] as usize;
                done = (back - offset).min(match_len);
                for i in 0..done {
                    out[pos + i] = out[pos + i - offset];
                }
            }
            while done < match_len {
                copy_chunk(out, pos + done - back, pos + done);
                done += CHUNK;
            }
        }
        overlaps += (offset < match_len) as u64;
        pos += match_len;
        applied += 1;
    }
    out.truncate(pos);
    if cdpu_telemetry::enabled() {
        cdpu_telemetry::counter!("decode.wild_copies").add(applied as u64 - overlaps);
        cdpu_telemetry::counter!("decode.overlap_copies").add(overlaps);
    }
    (applied, lit_pos)
}

/// Reconstructs the original buffer from a parse and its literal stream.
///
/// `max_window`, when given, enforces the decoder's window bound — a copy
/// whose offset exceeds it fails with [`Lz77Error::OffsetExceedsWindow`]
/// (the hardware analogue: the offset falls outside even the off-chip
/// fallback range allowed by the algorithm's framing).
///
/// # Errors
///
/// [`Lz77Error::LiteralsExhausted`] if `literals` is shorter than the parse
/// requires, plus the offset errors described above.
pub fn reconstruct(
    parse: &Parse,
    literals: &[u8],
    max_window: Option<u32>,
) -> Result<Vec<u8>, Lz77Error> {
    let mut out = Vec::with_capacity(parse.total_len());
    let mut lit_pos = 0usize;
    for seq in &parse.seqs {
        lit_pos = take_literals(&mut out, literals, lit_pos, seq.lit_len)?;
        check_window(seq, max_window)?;
        apply_copy(&mut out, seq.offset, seq.match_len)?;
    }
    take_literals(&mut out, literals, lit_pos, parse.last_literals)?;
    Ok(out)
}

fn take_literals(
    out: &mut Vec<u8>,
    literals: &[u8],
    lit_pos: usize,
    n: u32,
) -> Result<usize, Lz77Error> {
    let end = lit_pos + n as usize;
    if end > literals.len() {
        return Err(Lz77Error::LiteralsExhausted);
    }
    out.extend_from_slice(&literals[lit_pos..end]);
    Ok(end)
}

/// Reusable buffers for the decode side, mirroring
/// [`crate::matcher::MatcherScratch`] on the encode side: one long-lived
/// instance absorbs the per-call allocations of every codec's
/// `decompress_into`, so steady-state decode does not touch the allocator.
///
/// The three buffers cover the decoder shapes in the workspace: `out` is
/// the reconstructed output every codec needs; `lits` and `seqs` hold the
/// per-block literal and sequence staging the ZStd- and Flate-class
/// decoders otherwise allocate per block.
#[derive(Debug, Default)]
pub struct DecoderScratch {
    out: Vec<u8>,
    lits: Vec<u8>,
    seqs: Vec<Seq>,
}

impl DecoderScratch {
    /// Creates an empty scratch (no allocation until first use).
    pub const fn new() -> Self {
        DecoderScratch {
            out: Vec::new(),
            lits: Vec::new(),
            seqs: Vec::new(),
        }
    }

    /// Clears and hands out the `(output, literals, sequences)` buffers.
    ///
    /// Telemetry: counts `decode.scratch.hits` when previously-allocated
    /// output capacity is being reused, `decode.scratch.misses` on a cold
    /// buffer.
    pub fn buffers(&mut self) -> (&mut Vec<u8>, &mut Vec<u8>, &mut Vec<Seq>) {
        if self.out.capacity() == 0 {
            cdpu_telemetry::counter!("decode.scratch.misses").incr();
        } else {
            cdpu_telemetry::counter!("decode.scratch.hits").incr();
        }
        self.out.clear();
        self.lits.clear();
        self.seqs.clear();
        (&mut self.out, &mut self.lits, &mut self.seqs)
    }
}

cdpu_util::tls_scratch! {
    /// Runs `f` with this thread's shared [`DecoderScratch`] — the fallback
    /// the codecs' plain `decompress` entries could use when the caller does
    /// not hold a scratch of their own.
    ///
    /// # Panics
    ///
    /// Panics if called reentrantly from within `f` (the scratch is already
    /// borrowed).
    pub fn with_tls_decoder_scratch, DecoderScratch
}

fn check_window(seq: &Seq, max_window: Option<u32>) -> Result<(), Lz77Error> {
    if let Some(window) = max_window {
        if seq.offset > window {
            return Err(Lz77Error::OffsetExceedsWindow {
                offset: seq.offset,
                window,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_literals_appends_exactly_len_bytes() {
        let input: Vec<u8> = (0..64).map(|i| i as u8 ^ 0xA5).collect();
        for len in 0..=40 {
            // Inputs shorter and longer than the 16-byte copy, into a
            // buffer with and without 16 bytes of spare capacity.
            for avail in [len, len + 3, len + 16, 64] {
                for spare in [0, 16, 100] {
                    let mut out = Vec::with_capacity(5 + spare);
                    out.extend_from_slice(b"head:");
                    extend_literals(&mut out, &input[..avail], len);
                    let want = [&b"head:"[..], &input[..len]].concat();
                    assert_eq!(out, want, "len {len}, {avail} bytes in, {spare} spare");
                }
            }
        }
    }

    #[test]
    fn non_overlapping_copy() {
        let mut out = b"abcd".to_vec();
        apply_copy(&mut out, 4, 4).unwrap();
        assert_eq!(out, b"abcdabcd");
    }

    #[test]
    fn overlapping_copy_replicates() {
        let mut out = b"ab".to_vec();
        apply_copy(&mut out, 1, 5).unwrap();
        assert_eq!(out, b"abbbbbb");
        let mut out = b"xy".to_vec();
        apply_copy(&mut out, 2, 6).unwrap();
        assert_eq!(out, b"xyxyxyxy");
    }

    #[test]
    fn zero_offset_rejected() {
        let mut out = b"a".to_vec();
        assert_eq!(
            apply_copy(&mut out, 0, 1),
            Err(Lz77Error::BadOffset { offset: 0, produced: 1 })
        );
    }

    #[test]
    fn offset_past_start_rejected() {
        let mut out = b"ab".to_vec();
        assert_eq!(
            apply_copy(&mut out, 3, 1),
            Err(Lz77Error::BadOffset { offset: 3, produced: 2 })
        );
    }

    #[test]
    fn reconstruct_simple() {
        let parse = Parse {
            seqs: vec![Seq { lit_len: 4, match_len: 4, offset: 4 }],
            last_literals: 1,
        };
        assert_eq!(reconstruct(&parse, b"abcd!", None).unwrap(), b"abcdabcd!");
    }

    #[test]
    fn reconstruct_literal_exhaustion() {
        let parse = Parse {
            seqs: vec![],
            last_literals: 10,
        };
        assert_eq!(
            reconstruct(&parse, b"short", None),
            Err(Lz77Error::LiteralsExhausted)
        );
    }

    #[test]
    fn reconstruct_window_enforcement() {
        let parse = Parse {
            seqs: vec![Seq { lit_len: 8, match_len: 4, offset: 8 }],
            last_literals: 0,
        };
        assert!(reconstruct(&parse, b"abcdefgh", Some(8)).is_ok());
        assert_eq!(
            reconstruct(&parse, b"abcdefgh", Some(4)),
            Err(Lz77Error::OffsetExceedsWindow { offset: 8, window: 4 })
        );
    }

    #[test]
    fn reconstruct_empty() {
        assert_eq!(reconstruct(&Parse::default(), b"", None).unwrap(), b"");
    }

    #[test]
    fn copy_matches_reference_on_random_sequences() {
        use cdpu_util::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from(90);
        for _trial in 0..200 {
            let seed_len = rng.index(24) + 1;
            let mut fast: Vec<u8> = (0..seed_len).map(|_| rng.next_u64() as u8).collect();
            let mut slow = fast.clone();
            for _ in 0..rng.index(8) + 1 {
                // Deliberately include invalid offsets (0 and past-start).
                let offset = rng.index(fast.len() + 3) as u32;
                let len = rng.index(300) as u32;
                let a = apply_copy(&mut fast, offset, len);
                let b = crate::reference::apply_copy(&mut slow, offset, len);
                assert_eq!(a, b, "offset {offset} len {len}");
                assert_eq!(fast, slow, "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn copy_small_offset_large_len() {
        for offset in 1..=12u32 {
            for len in [0u32, 1, 7, 8, 9, 63, 64, 65, 200] {
                let mut fast: Vec<u8> = (0..16).map(|i| i as u8 * 3).collect();
                let mut slow = fast.clone();
                apply_copy(&mut fast, offset, len).unwrap();
                crate::reference::apply_copy(&mut slow, offset, len).unwrap();
                assert_eq!(fast, slow, "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn decoder_scratch_hands_out_cleared_buffers() {
        let mut scratch = DecoderScratch::new();
        {
            let (out, lits, seqs) = scratch.buffers();
            out.extend_from_slice(b"hello");
            lits.push(1);
            seqs.push(Seq { lit_len: 1, match_len: 4, offset: 1 });
        }
        let (out, lits, seqs) = scratch.buffers();
        assert!(out.is_empty() && lits.is_empty() && seqs.is_empty());
        assert!(out.capacity() >= 5, "capacity must survive reuse");
    }

    #[test]
    fn tls_decoder_scratch_is_reusable() {
        let cap = with_tls_decoder_scratch(|s| {
            let (out, _, _) = s.buffers();
            out.extend_from_slice(&[0u8; 256]);
            out.capacity()
        });
        let cap2 = with_tls_decoder_scratch(|s| {
            let (out, _, _) = s.buffers();
            assert!(out.is_empty());
            out.capacity()
        });
        assert!(cap2 >= cap.min(256));
    }
}
