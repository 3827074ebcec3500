//! The configuration grids and inputs the `equivalence` and
//! `stream_equivalence` suites both sweep the two matchers over.

use cdpu_lz77::hash::HashFn;
use cdpu_lz77::matcher::{ChainConfig, MatcherConfig};
use cdpu_util::rng::Xoshiro256;

/// Every way count the kernel treats differently (direct-mapped, powers of
/// two, one that leaves a partial set, one set holding the whole table) ×
/// both hash families × skip × minimum matches at and above the hash width
/// × table and window sizes from a few slots to the codecs' own.
pub fn grid_configs() -> Vec<MatcherConfig> {
    let mut cfgs = Vec::new();
    for ways in [1u32, 2, 3, 4, 8] {
        for hash_fn in [HashFn::Multiplicative, HashFn::XorFold] {
            for skip in [true, false] {
                for min_match in [4usize, 5, 8] {
                    for entries_log in [4u32, 9, 14] {
                        for window_log in [8u32, 11, 16] {
                            cfgs.push(MatcherConfig { window_log, entries_log, ways, hash_fn, min_match, skip });
                        }
                    }
                }
            }
        }
    }
    // ways == entries: one set, zero hash bits.
    for hash_fn in [HashFn::Multiplicative, HashFn::XorFold] {
        for (entries_log, ways) in [(3u32, 8u32), (4, 16)] {
            cfgs.push(MatcherConfig { entries_log, ways, hash_fn, ..MatcherConfig::snappy_hw() });
        }
    }
    cfgs
}

/// Windows smaller than, near and larger than the inputs × a head table of
/// a few slots (every chain long and mixed) or of the codecs' size × walk
/// depths of one, two, a few and one past a power of two × greedy and
/// lazy × minimum matches at and above the hash width.
pub fn chain_grid_configs() -> Vec<ChainConfig> {
    let mut cfgs = Vec::new();
    for window_log in [8u32, 11, 16] {
        for hash_log in [4u32, 12] {
            for max_chain in [1u32, 2, 8, 33] {
                for lazy in [false, true] {
                    for min_match in [4usize, 5, 8] {
                        cfgs.push(ChainConfig { window_log, hash_log, max_chain, lazy, min_match });
                    }
                }
            }
        }
    }
    cfgs
}

/// Inputs of every length from 0 to 8, copies that end 0–8 bytes before
/// the end of the input (so the covered positions run into the last
/// `min_match` bytes, where they stop being indexed), and two mixed
/// buffers with matches nearer and farther than the small windows.
pub fn grid_inputs() -> Vec<Vec<u8>> {
    let mut rng = Xoshiro256::seed_from(0x6121D);
    let mut inputs = Vec::new();
    for n in 0..=8 {
        inputs.push(b"aaaaaaaa"[..n].to_vec());
        inputs.push(b"abababab"[..n].to_vec());
    }
    for tail in 0..=8 {
        let mut v = vec![0u8; 64 + tail];
        rng.fill_bytes(&mut v);
        let copy = v[..24].to_vec();
        v.splice(64..64, copy);
        inputs.push(v);
    }
    for alphabet in [3usize, 200] {
        let mut v: Vec<u8> = Vec::new();
        while v.len() < 3000 {
            match rng.index(3) {
                0 => v.extend((0..rng.index(40) + 1).map(|_| rng.index(alphabet) as u8)),
                1 => v.extend(std::iter::repeat_n(rng.index(alphabet) as u8, rng.index(20) + 1)),
                _ if v.is_empty() => v.push(0),
                _ => {
                    let back = rng.index(v.len().min(2500)) + 1;
                    for _ in 0..rng.index(60) + 4 {
                        v.push(v[v.len() - back]);
                    }
                }
            }
        }
        inputs.push(v);
    }
    inputs
}
