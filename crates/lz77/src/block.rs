//! The encode half of the block-frame container the ZStd-class and
//! Flate-class codecs share: the [`BlockFrameSpec`] that
//! [`BlockFrameReader`](cdpu_util::stream::BlockFrameReader) reads, written
//! by one [`BlockFrameWriter`].
//!
//! The writer cuts parse events into blocks with one splitter and writes
//! the frame: the header, one block per cut (raw when the coded
//! payload does not pay, RLE when the spec has RLE blocks and the block is
//! one repeated byte), the last flag on the block that completes the
//! declared total, and an empty raw block as the whole content when there
//! is none. The one-shot encoders hand it a whole parse
//! ([`write_parse`](BlockFrameWriter::write_parse)); the stream encoders
//! feed it event by event under
//! [`StreamDriver`](crate::stream::StreamDriver). Each codec supplies its
//! [`SplitRule`] and a [`BlockCoder`] for the payload of one block.

use crate::stream::{EventCoder, ParseEvent};
use crate::{Parse, Seq, MIN_MATCH};
use cdpu_util::stream::BlockFrameSpec;
use cdpu_util::varint;

/// How a codec's blocks cut the parse.
#[derive(Debug, Clone, Copy)]
pub struct SplitRule {
    /// Input bytes per block.
    pub block: usize,
    /// Longest match one sequence may carry (DEFLATE's 258), if capped.
    pub max_match: Option<u32>,
    /// A match shorter than [`MIN_MATCH`], which only a hand-built parse
    /// carries, goes out as literals (a format with no length code for
    /// it) instead of whole.
    pub short_as_literals: bool,
    /// Where a cut would leave a tail shorter than [`MIN_MATCH`], the cut
    /// moves back by a whole [`MIN_MATCH`] instead of just far enough to
    /// leave [`MIN_MATCH`] bytes.
    pub back_off_whole: bool,
}

/// Incremental block splitter: accumulates parse events and closes a
/// [`Parse`] chunk whenever a block's worth of input is covered.
///
/// A long match splits into back-to-back matches at the *same* offset,
/// which copy the same bytes as the whole match did. Literal runs and
/// matches are additive: feeding a run or a match in several calls, or a
/// whole parse at once, closes the same chunks, so a one-shot and a
/// streamed encode write the same blocks.
#[derive(Debug)]
pub(crate) struct Splitter {
    rule: SplitRule,
    /// Closed chunks in input order, not yet written.
    chunks: Vec<Parse>,
    /// The open chunk, whose trailing literals wait in `last_literals`
    /// until a match turns them into its `lit_len`.
    pub(crate) cur: Parse,
    cur_len: usize,
}

impl Splitter {
    fn new(rule: SplitRule) -> Self {
        assert!(rule.block >= 2 * MIN_MATCH, "block too small to split matches");
        Splitter { rule, chunks: Vec::new(), cur: Parse::default(), cur_len: 0 }
    }

    /// Closes the open chunk, if it covers anything.
    fn close(&mut self) {
        if self.cur_len > 0 || !self.cur.seqs.is_empty() {
            self.chunks.push(std::mem::take(&mut self.cur));
            self.cur_len = 0;
        }
    }

    fn add_literals(&mut self, mut n: usize) {
        while n > 0 {
            if self.cur_len == self.rule.block {
                self.close();
            }
            let take = n.min(self.rule.block - self.cur_len);
            self.cur.last_literals += take as u32;
            self.cur_len += take;
            n -= take;
        }
    }

    /// Adds a match of `len` bytes at `offset`, cut so that no chunk
    /// exceeds the block and no piece exceeds the rule's cap or, where a
    /// cut falls, is shorter than [`MIN_MATCH`].
    fn add_match(&mut self, mut len: u32, offset: u32) {
        const MIN: u32 = MIN_MATCH as u32;
        if len < MIN && self.rule.short_as_literals {
            return self.add_literals(len as usize);
        }
        while len > 0 {
            let space = (self.rule.block - self.cur_len) as u32;
            let mut piece = len.min(self.rule.max_match.unwrap_or(u32::MAX)).min(space);
            if piece < len {
                if len - piece < MIN {
                    piece = if self.rule.back_off_whole {
                        piece.saturating_sub(MIN)
                    } else {
                        len.saturating_sub(MIN)
                    };
                }
                if piece < MIN {
                    // No room for a codeable piece here: start a new chunk.
                    self.close();
                    continue;
                }
            }
            let lit_len = std::mem::take(&mut self.cur.last_literals);
            self.cur.seqs.push(Seq { lit_len, match_len: piece, offset });
            self.cur_len += piece as usize;
            len -= piece;
        }
    }
}

/// One codec's coder of a block payload, for [`BlockFrameWriter`].
pub trait BlockCoder {
    /// What coding one block reports (ZStd's per-block statistics).
    type Stats;

    /// Codes block `data`, whose parse is `parse`, into `payload`, which
    /// arrives empty; `None` when the block cannot be coded.
    fn code(&mut self, data: &[u8], parse: &Parse, payload: &mut Vec<u8>) -> Option<Self::Stats>;
}

/// How [`BlockFrameWriter`] wrote one block.
#[derive(Debug)]
pub enum Written<S> {
    /// Stored: it could not be coded, or its payload did not pay.
    Raw,
    /// One repeated byte.
    Rle,
    /// Coded, with what the coder reported.
    Coded(S),
}

/// Blocks of one repeated byte shorter than this are not worth an RLE
/// block.
const RLE_MIN: usize = 16;

/// The one writer of the block-frame container ([`BlockFrameSpec`]); see
/// the module docs.
#[derive(Debug)]
pub struct BlockFrameWriter<E: 'static, C> {
    spec: &'static BlockFrameSpec<E>,
    coder: C,
    pub(crate) split: Splitter,
    /// Declared content size, and the input bytes written as blocks.
    total: usize,
    written: usize,
    /// Streamed input that no written block covers yet.
    data: Vec<u8>,
    /// One payload buffer for every block of the frame.
    payload: Vec<u8>,
}

impl<E: 'static, C: BlockCoder> BlockFrameWriter<E, C> {
    /// A writer of a frame of `total` content bytes, after it wrote the
    /// header (magic, `window_log` byte, content size) into `out`.
    pub fn new(
        spec: &'static BlockFrameSpec<E>,
        rule: SplitRule,
        window_log: u32,
        total: usize,
        coder: C,
        out: &mut Vec<u8>,
    ) -> Self {
        out.extend_from_slice(&spec.magic);
        out.push(window_log as u8);
        varint::write_u64(out, total as u64);
        Self::at_blocks(spec, rule, total, coder)
    }

    /// A writer positioned at the first block, for a codec that wrote a
    /// header of its own.
    pub fn at_blocks(
        spec: &'static BlockFrameSpec<E>,
        rule: SplitRule,
        total: usize,
        coder: C,
    ) -> Self {
        let (data, payload) = (Vec::new(), Vec::new());
        BlockFrameWriter {
            spec,
            coder,
            split: Splitter::new(rule),
            total,
            written: 0,
            data,
            payload,
        }
    }

    /// Writes every block of `data`, whose parse is `parse`, into `out`,
    /// and tells `tally` how each went out.
    ///
    /// # Panics
    ///
    /// Panics if `parse` does not cover `data` exactly.
    pub fn write_parse(
        mut self,
        data: &[u8],
        parse: &Parse,
        out: &mut Vec<u8>,
        mut tally: impl FnMut(Written<C::Stats>),
    ) {
        assert_eq!(parse.total_len(), data.len(), "parse must cover the input");
        for seq in &parse.seqs {
            self.split.add_literals(seq.lit_len as usize);
            self.split.add_match(seq.match_len, seq.offset);
        }
        self.split.add_literals(parse.last_literals as usize);
        self.write_closed(data, true, out, &mut tally);
    }

    /// Writes the chunks the splitter closed over `data`, which starts at
    /// the first unwritten input byte; with `last`, first closes the open
    /// chunk, and writes the empty block of empty content. Returns the
    /// bytes of `data` written.
    fn write_closed(
        &mut self,
        data: &[u8],
        last: bool,
        out: &mut Vec<u8>,
        tally: &mut dyn FnMut(Written<C::Stats>),
    ) -> usize {
        if last {
            self.split.close();
        }
        let mut head = 0;
        for chunk in std::mem::take(&mut self.split.chunks) {
            let len = chunk.total_len();
            tally(self.write_block(&data[head..head + len], &chunk, out));
            head += len;
        }
        if last && self.total == 0 {
            tally(self.write_block(b"", &Parse::default(), out));
        }
        head
    }

    fn write_block(&mut self, data: &[u8], parse: &Parse, out: &mut Vec<u8>) -> Written<C::Stats> {
        self.written += data.len();
        let last = (self.written == self.total) as u8;
        let len = data.len() as u64;
        if let Some(rle) = self.spec.rle {
            if data.len() >= RLE_MIN && data.iter().all(|&b| b == data[0]) {
                out.push(last | rle << 1);
                varint::write_u64(out, len);
                out.push(data[0]);
                return Written::Rle;
            }
        }
        self.payload.clear();
        match self.coder.code(data, parse, &mut self.payload) {
            Some(stats) if self.payload.len() < data.len() => {
                out.push(last | self.spec.coded << 1);
                varint::write_u64(out, len);
                varint::write_u64(out, self.payload.len() as u64);
                out.extend_from_slice(&self.payload);
                Written::Coded(stats)
            }
            _ => {
                out.push(last | self.spec.raw << 1);
                varint::write_u64(out, len);
                out.extend_from_slice(data);
                Written::Raw
            }
        }
    }
}

/// The streamed side: the splitter takes the parser's events, and each
/// fed piece writes the blocks it closed.
impl<E: 'static, C: BlockCoder> EventCoder for BlockFrameWriter<E, C> {
    fn event(&mut self, ev: ParseEvent<'_>, _out: &mut Vec<u8>) {
        match ev {
            ParseEvent::Literals(b) => self.split.add_literals(b.len()),
            ParseEvent::Match { offset, len } => self.split.add_match(len, offset),
        }
    }

    fn end_piece(&mut self, piece: &[u8], last: bool, out: &mut Vec<u8>) {
        let mut data = std::mem::take(&mut self.data);
        data.extend_from_slice(piece);
        // A chunk closes only over fed bytes, so its input is all here.
        let used = self.write_closed(&data, last, out, &mut |_| {});
        data.drain(..used);
        self.data = data;
    }

    fn scratch_bytes(&self) -> usize {
        self.data.capacity()
            + self.payload.capacity()
            + self.split.cur.seqs.capacity() * std::mem::size_of::<Seq>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZSTD_LIKE: SplitRule = SplitRule {
        block: 10_000,
        max_match: None,
        short_as_literals: false,
        back_off_whole: false,
    };

    fn split_parse(parse: &Parse, rule: SplitRule) -> Vec<Parse> {
        let mut s = Splitter::new(rule);
        for seq in &parse.seqs {
            s.add_literals(seq.lit_len as usize);
            s.add_match(seq.match_len, seq.offset);
        }
        s.add_literals(parse.last_literals as usize);
        s.close();
        s.chunks
    }

    #[test]
    fn split_parse_respects_target() {
        let parse = Parse {
            seqs: (0..100).map(|_| Seq { lit_len: 1000, match_len: 500, offset: 7 }).collect(),
            last_literals: 3000,
        };
        let chunks = split_parse(&parse, ZSTD_LIKE);
        let total: usize = chunks.iter().map(|c| c.total_len()).sum();
        assert_eq!(total, parse.total_len());
        for c in &chunks {
            assert!(c.total_len() <= 10_000, "chunk {} too big", c.total_len());
        }
    }

    #[test]
    fn split_parse_giant_literal_run() {
        let parse = Parse {
            seqs: vec![Seq { lit_len: 50_000, match_len: 4, offset: 1 }],
            last_literals: 0,
        };
        let chunks = split_parse(&parse, ZSTD_LIKE);
        let total: usize = chunks.iter().map(|c| c.total_len()).sum();
        assert_eq!(total, parse.total_len());
    }

    #[test]
    fn cuts_keep_every_piece_codeable_under_both_rules() {
        let flate_like = SplitRule {
            max_match: Some(258),
            short_as_literals: true,
            back_off_whole: true,
            ..ZSTD_LIKE
        };
        for rule in [ZSTD_LIKE, flate_like] {
            for len in 4..600 {
                let parse = Parse {
                    seqs: vec![Seq { lit_len: 9_700, match_len: len, offset: 3 }],
                    last_literals: 0,
                };
                let chunks = split_parse(&parse, rule);
                assert_eq!(chunks.iter().map(|c| c.total_len()).sum::<usize>(), parse.total_len());
                for seq in chunks.iter().flat_map(|c| &c.seqs) {
                    assert!(
                        seq.match_len >= 4 && seq.match_len <= rule.max_match.unwrap_or(u32::MAX),
                        "{rule:?}"
                    );
                }
            }
        }
    }
}
