//! The chunked sequence executor against a byte-at-a-time walk.
//!
//! `apply_sequences_prefix` applies the part of a block's sequence list
//! that is valid with room to spare and leaves the rest — and every error —
//! to the caller's checked loop. Here that loop is the shape both
//! entropy-coded decoders use (literals, window, overrun, copy), and the
//! oracle is the same loop run from the first sequence over
//! `reference::apply_copy`.

use std::sync::Mutex;

use cdpu_lz77::window::{apply_copy, apply_sequences_prefix};
use cdpu_lz77::{reference, Lz77Error, Seq};
use cdpu_util::rng::Xoshiro256;

/// Telemetry is process-wide; the counter test must not see the sweep's copies.
static SERIAL: Mutex<()> = Mutex::new(());

#[derive(Debug, PartialEq)]
enum Stop {
    LiteralsShort,
    Window { offset: u32, window: u32 },
    Overrun,
    Copy(Lz77Error),
}

struct Block {
    history: Vec<u8>,
    literals: Vec<u8>,
    seqs: Vec<Seq>,
    tail: usize,
    window: u32,
    max_len: usize,
}

/// A codec's checked loop from sequence `from` on, literals from `lit_pos`.
fn checked_loop(
    b: &Block,
    out: &mut Vec<u8>,
    from: usize,
    mut lit_pos: usize,
    copy: fn(&mut Vec<u8>, u32, u32) -> Result<(), Lz77Error>,
) -> Result<(), Stop> {
    let start = b.history.len();
    for seq in &b.seqs[from..] {
        let lit_end = lit_pos + seq.lit_len as usize;
        if lit_end > b.literals.len() {
            return Err(Stop::LiteralsShort);
        }
        out.extend_from_slice(&b.literals[lit_pos..lit_end]);
        lit_pos = lit_end;
        if seq.offset > b.window {
            return Err(Stop::Window { offset: seq.offset, window: b.window });
        }
        if seq.match_len as usize > b.max_len.saturating_sub(out.len() - start) {
            return Err(Stop::Overrun);
        }
        copy(out, seq.offset, seq.match_len).map_err(Stop::Copy)?;
    }
    if lit_pos + b.tail > b.literals.len() {
        return Err(Stop::LiteralsShort);
    }
    out.extend_from_slice(&b.literals[lit_pos..lit_pos + b.tail]);
    if out.len() - start > b.max_len {
        return Err(Stop::Overrun);
    }
    Ok(())
}

/// Runs the executor then the checked loop; returns the output, the result
/// and how many sequences the executor took.
fn fast_walk(b: &Block) -> (Vec<u8>, Result<(), Stop>, usize) {
    let start = b.history.len();
    let mut out = b.history.clone();
    let (applied, lit_pos) =
        apply_sequences_prefix(&mut out, &b.literals, &b.seqs, b.window, b.max_len);
    let taken = &b.seqs[..applied];
    assert_eq!(lit_pos, taken.iter().map(|s| s.lit_len as usize).sum::<usize>());
    let produced: usize = taken.iter().map(|s| (s.lit_len + s.match_len) as usize).sum();
    assert_eq!(out.len(), start + produced, "output is cut back to the bytes produced");
    assert!(produced <= b.max_len, "the executor stays inside the block");
    let result = checked_loop(b, &mut out, applied, lit_pos, apply_copy);
    (out, result, applied)
}

fn slow_walk(b: &Block) -> (Vec<u8>, Result<(), Stop>) {
    let mut out = b.history.clone();
    let result = checked_loop(b, &mut out, 0, 0, reference::apply_copy);
    (out, result)
}

/// What goes wrong in a generated block, if anything.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    Window,
    OffsetPastStart,
    ZeroOffset,
    LiteralsShortByOne,
    Overrun,
}

fn random_block(rng: &mut Xoshiro256, fault: Fault) -> Block {
    let mut history = vec![0u8; 1 + rng.index(80)];
    rng.fill_bytes(&mut history);
    let window = 1u32 << (5 + rng.index(12));
    let n = 1 + rng.index(60);
    let faulty = rng.index(n);
    let mut seqs = Vec::with_capacity(n);
    let mut produced = history.len();
    for i in 0..n {
        let lit_len = match rng.index(16) {
            0..=6 => 0,
            7..=12 => rng.index(20),
            13 | 14 => 15 + rng.index(4),
            _ => rng.index(300),
        };
        produced += lit_len;
        let match_len = match rng.index(16) {
            0..=8 => 3 + rng.index(10),
            9 | 10 => 15 + rng.index(4),
            11 | 12 => 31 + rng.index(3),
            13 => 60 + rng.index(10),
            14 => 258,
            _ => rng.index(1200),
        };
        let reach = produced.min(window as usize);
        let mut offset = match rng.index(4) {
            0 => 1 + rng.index(reach.min(15)),
            1 => match_len.clamp(1, reach),
            _ => 1 + rng.index(reach),
        };
        if i == faulty {
            match fault {
                Fault::Window => offset = window as usize + 1 + rng.index(9),
                Fault::OffsetPastStart => offset = produced + 1 + rng.index(9),
                Fault::ZeroOffset => offset = 0,
                _ => {}
            }
        }
        seqs.push(Seq { lit_len: lit_len as u32, match_len: match_len as u32, offset: offset as u32 });
        produced += match_len;
    }
    // The last sequences end inside the executor's 32-byte margin as often
    // as not: the block is declared barely longer than what they produce.
    let tail = rng.index(24);
    let total = produced - history.len() + tail;
    let max_len = match fault {
        Fault::Overrun if total > 0 => total - 1 - rng.index(total.min(40)),
        _ => total + if rng.chance(0.5) { 0 } else { rng.index(64) },
    };
    let mut literals = vec![0u8; seqs.iter().map(|s| s.lit_len as usize).sum::<usize>() + tail];
    rng.fill_bytes(&mut literals);
    if fault == Fault::LiteralsShortByOne {
        literals.pop();
    }
    Block { history, literals, seqs, tail, window, max_len }
}

#[test]
fn prefix_then_checked_loop_matches_reference_walk() {
    let _serial = SERIAL.lock().unwrap();
    let mut rng = Xoshiro256::seed_from(0x5E9);
    let faults = [
        Fault::None,
        Fault::Window,
        Fault::OffsetPastStart,
        Fault::ZeroOffset,
        Fault::LiteralsShortByOne,
        Fault::Overrun,
    ];
    let (mut taken, mut offered, mut clean) = (0usize, 0usize, 0usize);
    for trial in 0..6000 {
        let fault = faults[trial % faults.len()];
        let b = random_block(&mut rng, fault);
        let (fast, fast_result, applied) = fast_walk(&b);
        let (slow, slow_result) = slow_walk(&b);
        assert_eq!(fast_result, slow_result, "trial {trial}");
        assert_eq!(fast, slow, "trial {trial}");
        clean += slow_result.is_ok() as usize;
        assert!(fault != Fault::None || slow_result.is_ok(), "trial {trial}: {slow_result:?}");
        taken += applied;
        offered += b.seqs.len();
    }
    assert!(clean >= 1000, "{clean} clean blocks");
    assert!(taken * 2 > offered, "the executor took {taken} of {offered} sequences");
}

#[test]
fn overlapping_copies_at_every_small_offset_and_length() {
    let _serial = SERIAL.lock().unwrap();
    for offset in 1..=40u32 {
        for match_len in 0..=70u32 {
            for lit_len in [0u32, 1, 16, 17] {
                let b = Block {
                    history: (0..48u32).map(|i| (i * 7 + 1) as u8).collect(),
                    literals: (0..64).map(|i| 200 - i as u8).collect(),
                    seqs: vec![Seq { lit_len, match_len, offset }; 2],
                    tail: 3,
                    window: 64,
                    max_len: 2 * (lit_len + match_len) as usize + 3 + 32,
                };
                let (fast, fast_result, applied) = fast_walk(&b);
                let (slow, slow_result) = slow_walk(&b);
                assert_eq!(applied, 2, "offset {offset} len {match_len}");
                assert_eq!((fast, fast_result), (slow, slow_result), "offset {offset} len {match_len}");
            }
        }
    }
}

#[test]
fn copies_are_counted_once_each() {
    let _serial = SERIAL.lock().unwrap();
    let mut rng = Xoshiro256::seed_from(0x5EA);
    let blocks: Vec<Block> = (0..200).map(|_| random_block(&mut rng, Fault::None)).collect();
    let counter = |name: &str| {
        let counters = cdpu_telemetry::registry().counters();
        counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    };
    cdpu_telemetry::enable();
    let before = (counter("decode.wild_copies"), counter("decode.overlap_copies"));
    let mut applied = 0;
    for b in &blocks {
        applied += fast_walk(b).2;
    }
    let after = (counter("decode.wild_copies"), counter("decode.overlap_copies"));
    cdpu_telemetry::disable();
    let overlaps = blocks.iter().flat_map(|b| &b.seqs).filter(|s| s.offset < s.match_len).count();
    let copies: usize = blocks.iter().map(|b| b.seqs.len()).sum();
    assert!(applied > copies / 2);
    assert_eq!(after.1 - before.1, overlaps as u64);
    assert_eq!(after.0 - before.0, (copies - overlaps) as u64);
}
