//! The reference oracle for the streaming core: `StreamParser` must make
//! exactly the decisions the one-shot matchers make, for every matcher
//! configuration, at every hostile chunk size — including 1-byte feeds
//! and sizes that split a match, a probe, or a lazy lookahead across the
//! chunk boundary.

mod common;

use cdpu_lz77::matcher::{ChainConfig, HashChainMatcher, HashTableMatcher, MatcherConfig};
use cdpu_lz77::stream::{ParseEvent, StreamParser};
use cdpu_lz77::{Parse, Seq};
use cdpu_util::rng::Xoshiro256;

/// Rebuilds a `Parse` (plus the literal byte stream) from parse events.
fn collect(parser: &mut StreamParser, data: &[u8], chunk: usize) -> (Parse, Vec<u8>) {
    let mut seqs = Vec::new();
    let mut lits = Vec::new();
    let mut run = 0u64;
    {
        let mut sink = |ev: ParseEvent<'_>| match ev {
            ParseEvent::Literals(b) => {
                lits.extend_from_slice(b);
                run += b.len() as u64;
            }
            ParseEvent::Match { offset, len } => {
                seqs.push(Seq { lit_len: run as u32, match_len: len, offset });
                run = 0;
            }
        };
        let mut fed = 0;
        while fed < data.len() {
            let end = (fed + chunk).min(data.len());
            parser.feed(&data[fed..end], &mut sink);
            fed = end;
        }
        parser.finish(&mut sink);
    }
    (Parse { seqs, last_literals: run as u32 }, lits)
}

fn sample_texts(rng: &mut Xoshiro256) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = vec![
        vec![],
        b"a".to_vec(),
        b"abc".to_vec(),
        b"aaaa".to_vec(),
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
        b"abcdabcdabcdabcdabcd".to_vec(),
        b"the quick brown fox jumps over the lazy dog".repeat(40),
    ];
    for _ in 0..4 {
        let len = rng.index(6000);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        inputs.push(v);
    }
    // Compressible: small alphabet with runs (long matches, lazy hits).
    for _ in 0..4 {
        let len = rng.index(6000);
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            let run = rng.index(30) + 1;
            let b = b'a' + rng.index(4) as u8;
            v.extend(std::iter::repeat_n(b, run.min(len - v.len())));
        }
        inputs.push(v);
    }
    inputs
}

/// Hostile chunk sizes for small inputs: byte-at-a-time, primes, and
/// sizes that land boundaries inside matches and lazy lookaheads.
const CHUNKS: &[usize] = &[1, 2, 3, 7, 13, 64, 251, 1021, 4096, usize::MAX];
/// For window-sized inputs (1-byte feeds over them are O(n²) oracles).
const BIG_CHUNKS: &[usize] = &[251, 4096, 30011];

fn check_table(data: &[u8], cfg: MatcherConfig, max_offset: Option<u32>, chunks: &[usize]) {
    let mut want = HashTableMatcher::new(cfg).parse(data);
    if let Some(m) = max_offset {
        want.fold_matches_beyond(m);
    }
    let want_lits = want.literal_bytes(data);
    for &chunk in chunks {
        let chunk = chunk.min(data.len().max(1));
        let mut parser = StreamParser::table(cfg, data.len(), max_offset);
        let (got, got_lits) = collect(&mut parser, data, chunk);
        assert_eq!(got.seqs, want.seqs, "cfg {cfg:?} chunk {chunk} len {}", data.len());
        assert_eq!(got.last_literals, want.last_literals, "cfg {cfg:?} chunk {chunk}");
        assert_eq!(got_lits, want_lits, "cfg {cfg:?} chunk {chunk}");
    }
}

fn check_chain(data: &[u8], cfg: ChainConfig, chunks: &[usize]) {
    let want = HashChainMatcher::new(cfg).parse(data);
    let want_lits = want.literal_bytes(data);
    for &chunk in chunks {
        let chunk = chunk.min(data.len().max(1));
        let mut parser = StreamParser::chain(cfg, data.len(), None);
        let (got, got_lits) = collect(&mut parser, data, chunk);
        assert_eq!(got.seqs, want.seqs, "cfg {cfg:?} chunk {chunk} len {}", data.len());
        assert_eq!(got.last_literals, want.last_literals, "cfg {cfg:?} chunk {chunk}");
        assert_eq!(got_lits, want_lits, "cfg {cfg:?} chunk {chunk}");
    }
}

#[test]
fn table_matcher_equivalence() {
    let mut rng = Xoshiro256::seed_from(71);
    for data in sample_texts(&mut rng) {
        for cfg in [
            MatcherConfig::snappy_sw(),
            MatcherConfig::snappy_hw(),
            MatcherConfig { entries_log: 9, ..MatcherConfig::snappy_hw() },
            MatcherConfig { ways: 4, ..MatcherConfig::snappy_hw() },
            MatcherConfig { window_log: 11, ..MatcherConfig::snappy_sw() },
        ] {
            check_table(&data, cfg, None, CHUNKS);
        }
    }
}

#[test]
fn table_matcher_grid_equivalence() {
    let inputs = common::grid_inputs();
    for cfg in common::grid_configs() {
        for data in &inputs {
            check_table(data, cfg, None, &[1, 7, 4096, usize::MAX]);
        }
    }
}

#[test]
fn chain_matcher_equivalence() {
    let mut rng = Xoshiro256::seed_from(72);
    for data in sample_texts(&mut rng) {
        for cfg in [
            ChainConfig::default_level(),
            ChainConfig { max_chain: 1, ..ChainConfig::default_level() },
            ChainConfig { max_chain: 64, lazy: true, ..ChainConfig::default_level() },
            ChainConfig { window_log: 10, lazy: true, ..ChainConfig::default_level() },
        ] {
            check_chain(&data, cfg, CHUNKS);
        }
    }
}

#[test]
fn chain_matcher_grid_equivalence() {
    let inputs = common::grid_inputs();
    for cfg in common::chain_grid_configs() {
        for data in &inputs {
            check_chain(data, cfg, &[1, 7, 4096, usize::MAX]);
        }
    }
}

#[test]
fn short_stream_at_a_wide_window_sizes_links_by_its_length() {
    // zstd level 19's search: a 2^23-byte window, which a link per window
    // position would spend 32 MiB on for a 4 KiB input.
    let cfg = ChainConfig { window_log: 23, hash_log: 17, max_chain: 1024, lazy: true, min_match: 4 };
    let mut rng = Xoshiro256::seed_from(75);
    let data: Vec<u8> = (0..4096).map(|_| b'a' + rng.index(6) as u8).collect();
    let mut parser = StreamParser::chain(cfg, data.len(), None);
    let (got, _) = collect(&mut parser, &data, 1024);
    assert_eq!(got, HashChainMatcher::new(cfg).parse(&data));
    assert!(parser.scratch_bytes() < 1 << 20, "{} scratch bytes", parser.scratch_bytes());
}

#[test]
fn window_wrap_and_compaction_equivalence() {
    // Inputs larger than the window force the sliding buffer to compact
    // while far-back candidates age out of range.
    let mut rng = Xoshiro256::seed_from(73);
    let mut data = Vec::new();
    for _ in 0..20_000 {
        let b = b'a' + rng.index(5) as u8;
        data.extend(std::iter::repeat_n(b, rng.index(8) + 1));
    }
    let cfg = MatcherConfig { window_log: 11, ..MatcherConfig::snappy_sw() };
    check_table(&data, cfg, None, BIG_CHUNKS);
    let ccfg = ChainConfig { window_log: 10, lazy: true, ..ChainConfig::default_level() };
    check_chain(&data, ccfg, BIG_CHUNKS);
}

#[test]
fn max_offset_folding_matches_fold_matches_beyond() {
    // A window of 2^11 admits offsets up to 2048; folding at 512 demotes
    // every farther match, mirroring the lzo/lz4 encode path's
    // fold_matches_beyond at the 16-bit offset ceiling.
    let mut rng = Xoshiro256::seed_from(74);
    let mut data = Vec::new();
    for _ in 0..6_000 {
        let b = b'a' + rng.index(3) as u8;
        data.extend(std::iter::repeat_n(b, rng.index(10) + 1));
    }
    let cfg = MatcherConfig { window_log: 11, ..MatcherConfig::snappy_hw() };
    // Sanity: the fold must actually demote something, or the test is vacuous.
    let mut folded = HashTableMatcher::new(cfg).parse(&data);
    let before = folded.seqs.len();
    folded.fold_matches_beyond(512);
    assert!(folded.seqs.len() < before, "fold demoted nothing; weaken the input");
    check_table(&data, cfg, Some(512), &[1, 13, 251, 4096]);
}

#[test]
fn long_overlapping_run_crosses_chunks() {
    // One giant self-overlapping match: the cursor pins while bytes
    // accumulate, then the whole region must come out as a single match.
    let data = vec![7u8; 40_000];
    check_table(&data, MatcherConfig::snappy_sw(), None, &[1, 251, 4096]);
    check_chain(&data, ChainConfig { lazy: true, ..ChainConfig::default_level() }, &[1, 251, 4096]);
}
