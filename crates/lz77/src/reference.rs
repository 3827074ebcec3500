//! Retained naive reference match finders and the reference decode copy.
//!
//! These are the original byte-at-a-time, allocate-per-call
//! implementations of [`crate::matcher::HashTableMatcher`],
//! [`crate::matcher::HashChainMatcher`] and
//! [`crate::window::apply_copy`], kept as executable specifications: the
//! optimized versions (word-at-a-time match extension, contiguous
//! scratch-backed tables, wild/region copies) must produce the
//! **identical** [`Parse`] and output bytes on every input. The
//! `equivalence` test suites assert exactly that across random and
//! adversarial corpora; any future optimization that changes an output
//! byte fails there first.
//!
//! Not for production use: these run several times slower than the
//! optimized versions and exist only as a comparison oracle.

use crate::hash::hash_at;
use crate::matcher::{ChainConfig, MatcherConfig};
use crate::{Lz77Error, Parse, Seq};

/// The original byte-sequential sequence copy (the seed
/// [`crate::window::apply_copy`]): pushes one byte per iteration, which
/// handles overlap implicitly. Identical output and errors to the
/// optimized copy; kept as the decode-side oracle.
pub fn apply_copy(out: &mut Vec<u8>, offset: u32, len: u32) -> Result<(), Lz77Error> {
    if offset == 0 || offset as usize > out.len() {
        return Err(Lz77Error::BadOffset {
            offset,
            produced: out.len(),
        });
    }
    let start = out.len() - offset as usize;
    out.reserve(len as usize);
    for i in 0..len as usize {
        let b = out[start + i];
        out.push(b);
    }
    Ok(())
}

/// Byte-at-a-time match extension (the original `match_length`).
fn match_length(data: &[u8], pos: usize, cand: usize, min_match: usize) -> usize {
    debug_assert!(cand < pos);
    let max = data.len() - pos;
    if max < min_match {
        return 0;
    }
    let mut len = 0usize;
    while len < max && data[cand + len] == data[pos + len] {
        len += 1;
    }
    if len >= min_match {
        len
    } else {
        0
    }
}

/// The original greedy set-associative hash-table parse
/// (allocate-per-call, byte-at-a-time extension).
pub fn hash_table_parse(cfg: &MatcherConfig, data: &[u8]) -> Parse {
    let ways = cfg.ways as usize;
    let sets = (1usize << cfg.entries_log) / ways;
    let set_log = cdpu_util::floor_log2(sets.max(1) as u64);
    let window = cfg.window_size();
    let mut table = vec![0u32; sets * ways];

    let mut seqs = Vec::new();
    let mut pos = 0usize;
    let mut anchor = 0usize;
    let mut skip_counter: usize = 32;

    if data.len() >= cfg.min_match {
        while pos + cfg.min_match <= data.len() {
            let h = hash_at(data, pos, cfg.hash_fn, set_log) as usize;
            let set = &mut table[h * ways..(h + 1) * ways];

            let mut best_len = 0usize;
            let mut best_off = 0usize;
            for &slot in set.iter() {
                if slot == 0 {
                    continue;
                }
                let cand = (slot - 1) as usize;
                let off = pos - cand;
                if off == 0 || off > window {
                    continue;
                }
                let len = match_length(data, pos, cand, cfg.min_match);
                if len > best_len {
                    best_len = len;
                    best_off = off;
                }
            }

            set.copy_within(0..ways - 1, 1);
            set[0] = pos as u32 + 1;

            if best_len > 0 {
                seqs.push(Seq {
                    lit_len: (pos - anchor) as u32,
                    match_len: best_len as u32,
                    offset: best_off as u32,
                });
                let end = pos + best_len;
                let mut p = pos + 1;
                while p + cfg.min_match <= data.len() && p < end {
                    let h = hash_at(data, p, cfg.hash_fn, set_log) as usize;
                    let set = &mut table[h * ways..(h + 1) * ways];
                    set.copy_within(0..ways - 1, 1);
                    set[0] = p as u32 + 1;
                    p += 1;
                }
                pos = end;
                anchor = pos;
                skip_counter = 32;
            } else if cfg.skip {
                pos += 1 + (skip_counter >> 5);
                skip_counter += 1;
            } else {
                pos += 1;
            }
        }
    }
    Parse {
        seqs,
        last_literals: (data.len() - anchor) as u32,
    }
}

/// The original hash-chain parse (allocate-per-call, byte-at-a-time
/// extension, optional 1-step lazy matching).
pub fn hash_chain_parse(cfg: &ChainConfig, data: &[u8]) -> Parse {
    let window = 1usize << cfg.window_log;
    let wmask = window - 1;
    let mut head = vec![0u32; 1usize << cfg.hash_log];
    let mut prev = vec![0u32; window];

    let best_match = |data: &[u8], pos: usize, head: &[u32], prev: &[u32]| -> (usize, usize) {
        let h = hash_at(data, pos, crate::hash::HashFn::Multiplicative, cfg.hash_log) as usize;
        let mut cand_plus1 = head[h];
        let mut depth = 0;
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        while cand_plus1 != 0 && depth < cfg.max_chain {
            let cand = (cand_plus1 - 1) as usize;
            if cand >= pos || pos - cand > window {
                break;
            }
            let len = match_length(data, pos, cand, cfg.min_match);
            if len > best_len {
                best_len = len;
                best_off = pos - cand;
            }
            cand_plus1 = prev[cand & wmask];
            depth += 1;
        }
        (best_len, best_off)
    };

    let insert = |data: &[u8], p: usize, head: &mut [u32], prev: &mut [u32]| {
        let h = hash_at(data, p, crate::hash::HashFn::Multiplicative, cfg.hash_log) as usize;
        prev[p & wmask] = head[h];
        head[h] = p as u32 + 1;
    };

    let mut seqs = Vec::new();
    let mut pos = 0usize;
    let mut anchor = 0usize;
    while pos + cfg.min_match <= data.len() {
        let (mut len, mut off) = best_match(data, pos, &head, &prev);
        insert(data, pos, &mut head, &mut prev);
        if len == 0 {
            pos += 1;
            continue;
        }
        if cfg.lazy && pos + 1 + cfg.min_match <= data.len() {
            let (len2, off2) = best_match(data, pos + 1, &head, &prev);
            if len2 > len + 1 {
                insert(data, pos + 1, &mut head, &mut prev);
                pos += 1;
                len = len2;
                off = off2;
            }
        }
        seqs.push(Seq {
            lit_len: (pos - anchor) as u32,
            match_len: len as u32,
            offset: off as u32,
        });
        let end = pos + len;
        let mut p = pos + 1;
        while p + cfg.min_match <= data.len() && p < end {
            insert(data, p, &mut head, &mut prev);
            p += 1;
        }
        pos = end;
        anchor = pos;
    }
    Parse {
        seqs,
        last_literals: (data.len() - anchor) as u32,
    }
}
