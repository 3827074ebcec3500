//! Equivalence: optimized matchers vs the retained naive reference.
//!
//! The kernel fast paths (word-at-a-time match extension, contiguous
//! scratch-backed tables, thread-local scratch reuse) are pure
//! implementation changes: for every input and configuration the `Parse`
//! — sequence list, offsets, lengths, trailing literals — must be
//! *identical* to the naive byte-at-a-time reference in
//! `cdpu_lz77::reference`. These property tests sweep random and
//! adversarial corpora; compressed-stream stability in the codec crates
//! follows from parse equality here.

mod common;

use cdpu_lz77::matcher::{
    ChainConfig, HashChainMatcher, HashTableMatcher, MatcherConfig, MatcherScratch,
};
use cdpu_lz77::reference;
use cdpu_util::rng::Xoshiro256;

/// Random + adversarial inputs: incompressible noise, runs of repeats,
/// offset-1 matches, short period patterns, near-window-boundary
/// repetitions, and mixed segments.
fn corpora(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut inputs: Vec<Vec<u8>> = vec![
        vec![],
        b"a".to_vec(),
        b"abc".to_vec(),
        b"abcd".to_vec(),
        // Offset-1 matches: long single-byte runs.
        vec![b'x'; 7],
        vec![b'x'; 4096],
        // Short periods, including periods straddling MIN_MATCH.
        b"ab".repeat(600),
        b"abc".repeat(400),
        b"abcd".repeat(300),
        b"abcde".repeat(240),
        // Period of exactly 8 (one comparison word) and 9 (misaligned).
        b"01234567".repeat(200),
        b"012345678".repeat(180),
        // Runs of repeats with varying run bytes.
        {
            let mut v = Vec::new();
            for i in 0..200u32 {
                v.extend(std::iter::repeat_n((i % 7) as u8 + b'a', (i % 31) as usize + 1));
            }
            v
        },
    ];
    // Incompressible noise at sizes around the 8-byte word boundary.
    for len in [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 10_000] {
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        inputs.push(v);
    }
    // Mixed segments: noise / runs / structured text.
    for _ in 0..12 {
        let len = rng.index(20_000) + 1;
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            match rng.index(4) {
                0 => {
                    let mut chunk = vec![0u8; rng.index(500) + 1];
                    rng.fill_bytes(&mut chunk);
                    v.extend(chunk);
                }
                1 => {
                    let b = rng.index(256) as u8;
                    v.extend(std::iter::repeat_n(b, rng.index(300) + 1));
                }
                2 => v.extend_from_slice(b"key=value;key=value2;k=v;"),
                _ => {
                    // Copy from earlier output (guaranteed real matches).
                    if v.is_empty() {
                        v.push(rng.index(256) as u8);
                    }
                    let back = rng.index(v.len()) + 1;
                    let n = rng.index(200) + 4;
                    for _ in 0..n {
                        let b = v[v.len() - back];
                        v.push(b);
                    }
                }
            }
        }
        v.truncate(len);
        inputs.push(v);
    }
    // Periodic data at/around window boundaries (window_log 11 → 2 KiB).
    let mut period = vec![0u8; 2048];
    rng.fill_bytes(&mut period);
    for extra in [0usize, 1, 8] {
        let mut v = period.clone();
        v.extend(std::iter::repeat_n(0u8, extra));
        v.extend_from_slice(&period);
        inputs.push(v);
    }
    inputs
}

fn table_configs() -> Vec<MatcherConfig> {
    vec![
        MatcherConfig::snappy_sw(),
        MatcherConfig::snappy_hw(),
        MatcherConfig {
            entries_log: 9,
            ..MatcherConfig::snappy_hw()
        },
        MatcherConfig {
            ways: 4,
            ..MatcherConfig::snappy_hw()
        },
        MatcherConfig {
            ways: 2,
            entries_log: 6,
            ..MatcherConfig::snappy_sw()
        },
        MatcherConfig {
            window_log: 11,
            ..MatcherConfig::snappy_hw()
        },
    ]
}

fn chain_configs() -> Vec<ChainConfig> {
    vec![
        ChainConfig::default_level(),
        ChainConfig {
            max_chain: 1,
            ..ChainConfig::default_level()
        },
        ChainConfig {
            max_chain: 64,
            lazy: true,
            ..ChainConfig::default_level()
        },
        ChainConfig {
            window_log: 11,
            hash_log: 10,
            ..ChainConfig::default_level()
        },
    ]
}

#[test]
fn hash_table_matches_reference() {
    for (i, data) in corpora(0xE01).iter().enumerate() {
        for cfg in table_configs() {
            let fast = HashTableMatcher::new(cfg).parse(data);
            let naive = reference::hash_table_parse(&cfg, data);
            assert_eq!(fast, naive, "input {i} ({} bytes), cfg {cfg:?}", data.len());
        }
    }
}

#[test]
fn hash_table_grid_matches_reference() {
    // One scratch throughout, so consecutive parses never share a layout.
    let mut scratch = MatcherScratch::new();
    let inputs = common::grid_inputs();
    for cfg in common::grid_configs() {
        let matcher = HashTableMatcher::new(cfg);
        for (i, data) in inputs.iter().enumerate() {
            let fast = matcher.parse_with_scratch(data, &mut scratch);
            let naive = reference::hash_table_parse(&cfg, data);
            assert_eq!(fast, naive, "input {i} ({} bytes), cfg {cfg:?}", data.len());
        }
    }
}

#[test]
fn hash_chain_matches_reference() {
    for (i, data) in corpora(0xE02).iter().enumerate() {
        for cfg in chain_configs() {
            let fast = HashChainMatcher::new(cfg).parse(data);
            let naive = reference::hash_chain_parse(&cfg, data);
            assert_eq!(fast, naive, "input {i} ({} bytes), cfg {cfg:?}", data.len());
        }
    }
}

#[test]
fn hash_chain_grid_matches_reference() {
    // One scratch throughout, so consecutive parses never share a layout.
    let mut scratch = MatcherScratch::new();
    let inputs = common::grid_inputs();
    for cfg in common::chain_grid_configs() {
        let matcher = HashChainMatcher::new(cfg);
        for (i, data) in inputs.iter().enumerate() {
            let fast = matcher.parse_with_scratch(data, &mut scratch);
            let naive = reference::hash_chain_parse(&cfg, data);
            assert_eq!(fast, naive, "input {i} ({} bytes), cfg {cfg:?}", data.len());
        }
    }
}

#[test]
fn scratch_reuse_is_stateless() {
    // One scratch reused across different inputs and *both* matcher kinds
    // (different table sizes, shrinking and growing) must never leak state
    // between parses.
    let mut scratch = MatcherScratch::new();
    let table = HashTableMatcher::new(MatcherConfig::snappy_hw());
    let small_table = HashTableMatcher::new(MatcherConfig {
        entries_log: 6,
        ..MatcherConfig::snappy_hw()
    });
    let chain = HashChainMatcher::new(ChainConfig::default_level());
    for (i, data) in corpora(0xE03).iter().enumerate() {
        let a = table.parse_with_scratch(data, &mut scratch);
        assert_eq!(
            a,
            reference::hash_table_parse(table.config(), data),
            "table parse diverged on input {i}"
        );
        let b = small_table.parse_with_scratch(data, &mut scratch);
        assert_eq!(
            b,
            reference::hash_table_parse(small_table.config(), data),
            "small-table parse diverged on input {i}"
        );
        let c = chain.parse_with_scratch(data, &mut scratch);
        assert_eq!(
            c,
            reference::hash_chain_parse(chain.config(), data),
            "chain parse diverged on input {i}"
        );
    }
}
