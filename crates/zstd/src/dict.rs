//! Dictionary compression: seeding the window with shared context.
//!
//! The paper notes the (de)compression API has included "sometimes ... a
//! separate dictionary" since the beginning (Section 3.4) — hyperscalers
//! lean on dictionaries for small RPC payloads, where a shared prefix of
//! representative bytes gives the LZ77 stage history to match against
//! before the payload's own history exists.
//!
//! Mechanically the dictionary is a *window seed*: the compressor parses
//! `dict ‖ data` and keeps only the sequences covering `data` (their
//! offsets may reach back into the dictionary); the decompressor seeds its
//! output window with the dictionary before applying blocks. Dictionary
//! frames carry their own magic plus a dictionary checksum so mismatched
//! dictionaries fail loudly instead of producing garbage.

use cdpu_lz77::{Parse, Seq};
use cdpu_util::crc32c::crc32c;
use cdpu_util::varint;

use crate::{parse_with, ZstdConfig, ZstdError};

/// Magic for dictionary frames (`CDPD`).
pub const DICT_MAGIC: [u8; 4] = *b"CDPD";

/// Compresses `data` against a dictionary.
///
/// Only the last `window` bytes of `dict` are effective (matches farther
/// back would violate the frame's window bound).
pub fn compress_with_dict(data: &[u8], cfg: &ZstdConfig, dict: &[u8]) -> Vec<u8> {
    let wlog = cfg.effective_window_log();
    let window = 1usize << wlog;
    let dict_tail = &dict[dict.len().saturating_sub(window)..];

    // Parse the concatenation so matches can reach into the dictionary,
    // then cut the parse down to the data suffix.
    let mut buf = Vec::with_capacity(dict_tail.len() + data.len());
    buf.extend_from_slice(dict_tail);
    buf.extend_from_slice(data);
    let full = parse_with(&buf, cfg);
    let parse = cut_prefix(&full, dict_tail.len());
    debug_assert_eq!(parse.total_len(), data.len());

    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    out.extend_from_slice(&DICT_MAGIC);
    out.push(wlog as u8);
    varint::write_u64(&mut out, data.len() as u64);
    varint::write_u64(&mut out, dict.len() as u64);
    out.extend_from_slice(&crc32c(dict).to_le_bytes());

    let chunks = crate::split_parse(&parse, crate::MAX_BLOCK_SIZE);
    let mut stats = crate::ZstdStats::default();
    let mut payload = Vec::new();
    let mut pos = 0usize;
    for (i, chunk) in chunks.iter().enumerate() {
        let last = i + 1 == chunks.len();
        let len = chunk.total_len();
        crate::emit_block(&data[pos..pos + len], chunk, last, &mut out, &mut stats, &mut payload, &cfg.entropy);
        pos += len;
    }
    if chunks.is_empty() {
        crate::emit_block(b"", &Parse::default(), true, &mut out, &mut stats, &mut payload, &cfg.entropy);
    }
    out
}

/// Decompresses a dictionary frame produced by [`compress_with_dict`].
///
/// # Errors
///
/// [`ZstdError::BadMagic`] for non-dictionary frames;
/// [`ZstdError::BadHeader`] when the supplied dictionary's length or
/// checksum disagrees with what the frame was compressed against; plus
/// every ordinary decode error.
pub fn decompress_with_dict(frame: &[u8], dict: &[u8]) -> Result<Vec<u8>, ZstdError> {
    if frame.len() < 5 || frame[..4] != DICT_MAGIC {
        return Err(ZstdError::BadMagic);
    }
    let window_log = frame[4] as u32;
    if !(10..=31).contains(&window_log) {
        return Err(ZstdError::BadHeader);
    }
    let mut pos = 5usize;
    let (content_size, n) = varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::BadHeader)?;
    pos += n;
    let (dict_len, n) = varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::BadHeader)?;
    pos += n;
    if pos + 4 > frame.len() {
        return Err(ZstdError::Truncated);
    }
    let dict_crc = u32::from_le_bytes([frame[pos], frame[pos + 1], frame[pos + 2], frame[pos + 3]]);
    pos += 4;
    if dict.len() as u64 != dict_len || crc32c(dict) != dict_crc {
        return Err(ZstdError::BadHeader);
    }

    let window = 1u64.checked_shl(window_log).unwrap_or(u64::MAX) as u32;
    let dict_tail = &dict[dict.len().saturating_sub(window as usize)..];

    // Seed the output window with the dictionary, decode, strip the seed.
    // Reserve conservatively: the declared size is untrusted input, so cap
    // the up-front allocation and let the vector grow if the data is real.
    let mut out =
        Vec::with_capacity(dict_tail.len() + (content_size as usize).min(crate::MAX_BLOCK_SIZE));
    out.extend_from_slice(dict_tail);
    let mut saw_last = false;
    while !saw_last {
        if pos >= frame.len() {
            return Err(ZstdError::Truncated);
        }
        let flags = frame[pos];
        pos += 1;
        saw_last = flags & 1 != 0;
        let btype = (flags >> 1) & 0b11;
        let (len, n) = varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::Truncated)?;
        pos += n;
        let block_len = len as usize;
        if block_len > crate::MAX_BLOCK_SIZE + crate::MAX_BLOCK_SIZE / 2 {
            return Err(ZstdError::BadBlock("block exceeds size limit"));
        }
        match btype {
            0 => {
                if pos + block_len > frame.len() {
                    return Err(ZstdError::Truncated);
                }
                out.extend_from_slice(&frame[pos..pos + block_len]);
                pos += block_len;
            }
            1 => {
                if pos >= frame.len() {
                    return Err(ZstdError::Truncated);
                }
                let b = frame[pos];
                pos += 1;
                out.extend(std::iter::repeat_n(b, block_len));
            }
            2 => {
                let (payload_len, n) =
                    varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::Truncated)?;
                pos += n;
                let payload_len = payload_len as usize;
                if payload_len > frame.len() - pos {
                    return Err(ZstdError::Truncated);
                }
                let before = out.len();
                crate::block::decode_block(
                    &frame[pos..pos + payload_len],
                    &mut out,
                    window,
                    block_len,
                )?;
                if out.len() - before != block_len {
                    return Err(ZstdError::BadBlock("block length mismatch"));
                }
                pos += payload_len;
            }
            _ => return Err(ZstdError::BadBlock("unknown block type")),
        }
        if (out.len() - dict_tail.len()) as u64 > content_size {
            return Err(ZstdError::LengthMismatch {
                expected: content_size,
                actual: (out.len() - dict_tail.len()) as u64,
            });
        }
    }
    if (out.len() - dict_tail.len()) as u64 != content_size {
        return Err(ZstdError::LengthMismatch {
            expected: content_size,
            actual: (out.len() - dict_tail.len()) as u64,
        });
    }
    Ok(out.split_off(dict_tail.len()))
}

/// Cuts the first `prefix` bytes of coverage off a parse, preserving
/// offsets (they become reach-backs into the seeded window). A match
/// straddling the boundary splits — the kept piece is a copy continuing at
/// the same offset, which is exactly how LZ77 copies compose; a kept piece
/// shorter than 4 is downgraded to literals (the bytes exist in the data
/// suffix).
fn cut_prefix(parse: &Parse, prefix: usize) -> Parse {
    let mut out = Parse::default();
    let mut pos = 0usize;
    let mut pending_lit = 0u32;
    for s in &parse.seqs {
        let lit_end = pos + s.lit_len as usize;
        let match_end = lit_end + s.match_len as usize;
        if match_end <= prefix {
            pos = match_end;
            continue;
        }
        // Literal bytes landing after the boundary.
        let lit_keep = lit_end.saturating_sub(prefix.max(pos)) as u32;
        // Match bytes landing after the boundary.
        let match_keep = (match_end - prefix.max(lit_end)) as u32;
        pending_lit += lit_keep;
        if match_keep >= cdpu_lz77::MIN_MATCH as u32 {
            out.seqs.push(Seq {
                lit_len: std::mem::take(&mut pending_lit),
                match_len: match_keep,
                offset: s.offset,
            });
        } else {
            // Too short to code as a match: emit those bytes as literals.
            pending_lit += match_keep;
        }
        pos = match_end;
    }
    // Trailing literals: keep only the part past the boundary.
    let tail_keep = (pos + parse.last_literals as usize).saturating_sub(prefix.max(pos)) as u32;
    out.last_literals = pending_lit + tail_keep;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAGIC;
    use cdpu_util::rng::Xoshiro256;

    fn rpc_like(rng: &mut Xoshiro256, n: usize) -> Vec<u8> {
        let mut d = Vec::new();
        for _ in 0..n {
            d.extend_from_slice(
                format!(
                    "{{\"method\":\"GetUser\",\"auth\":\"bearer\",\"uid\":{},\"fields\":[\"name\",\"email\"]}}",
                    rng.index(1_000_000)
                )
                .as_bytes(),
            );
        }
        d
    }

    fn shared_dict() -> Vec<u8> {
        b"{\"method\":\"GetUser\",\"auth\":\"bearer\",\"uid\":,\"fields\":[\"name\",\"email\"]}".repeat(8)
    }

    #[test]
    fn roundtrip_with_dict() {
        let mut rng = Xoshiro256::seed_from(1);
        let dict = shared_dict();
        for n in [1usize, 3, 50] {
            let data = rpc_like(&mut rng, n);
            let c = compress_with_dict(&data, &ZstdConfig::default(), &dict);
            assert_eq!(decompress_with_dict(&c, &dict).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn empty_payload_with_dict() {
        let dict = shared_dict();
        let c = compress_with_dict(b"", &ZstdConfig::default(), &dict);
        assert_eq!(decompress_with_dict(&c, &dict).unwrap(), b"");
    }

    #[test]
    fn dict_pays_off_on_small_payloads() {
        // The dictionary's whole point: a single small RPC payload shares
        // nearly all its bytes with the dictionary.
        let mut rng = Xoshiro256::seed_from(2);
        let dict = shared_dict();
        let data = rpc_like(&mut rng, 1);
        let plain = crate::compress(&data).len();
        let with_dict = compress_with_dict(&data, &ZstdConfig::default(), &dict).len();
        assert!(
            with_dict * 2 < plain,
            "dict {with_dict} should crush plain {plain}"
        );
    }

    #[test]
    fn wrong_dict_rejected() {
        let dict = shared_dict();
        let data = b"payload payload payload".to_vec();
        let c = compress_with_dict(&data, &ZstdConfig::default(), &dict);
        // Different dictionary: checksum mismatch.
        let other = b"a completely different dictionary".to_vec();
        assert_eq!(
            decompress_with_dict(&c, &other).unwrap_err(),
            ZstdError::BadHeader
        );
        // Same length, different content.
        let mut tampered = dict.clone();
        tampered[0] ^= 1;
        assert_eq!(
            decompress_with_dict(&c, &tampered).unwrap_err(),
            ZstdError::BadHeader
        );
    }

    #[test]
    fn plain_decoder_rejects_dict_frames_and_vice_versa() {
        let dict = shared_dict();
        let data = b"cross-format confusion must fail loudly".to_vec();
        let dict_frame = compress_with_dict(&data, &ZstdConfig::default(), &dict);
        assert_eq!(crate::decompress(&dict_frame).unwrap_err(), ZstdError::BadMagic);
        let plain_frame = crate::compress(&data);
        assert_eq!(
            decompress_with_dict(&plain_frame, &dict).unwrap_err(),
            ZstdError::BadMagic
        );
        assert_eq!(&plain_frame[..4], &MAGIC);
    }

    #[test]
    fn dict_larger_than_window_uses_tail() {
        let mut rng = Xoshiro256::seed_from(3);
        // 256 KiB dictionary with a 64 KiB window (log 16): only the tail
        // is reachable; roundtrip must still hold.
        let mut dict = vec![0u8; 256 * 1024];
        rng.fill_bytes(&mut dict);
        let data = dict[dict.len() - 3000..].to_vec(); // matches the tail
        let cfg = ZstdConfig::with_level(3).window_log(16);
        let c = compress_with_dict(&data, &cfg, &dict);
        assert_eq!(decompress_with_dict(&c, &dict).unwrap(), data);
        assert!(c.len() < data.len() / 4, "tail matches should compress: {}", c.len());
    }

    #[test]
    fn cut_prefix_accounting() {
        let parse = Parse {
            seqs: vec![
                Seq { lit_len: 10, match_len: 20, offset: 5 },  // covers 0..30
                Seq { lit_len: 4, match_len: 8, offset: 9 },    // covers 30..42
            ],
            last_literals: 6,
        };
        for boundary in 0..=48usize {
            let cut = cut_prefix(&parse, boundary);
            assert_eq!(
                cut.total_len(),
                parse.total_len() - boundary.min(parse.total_len()),
                "boundary {boundary}"
            );
            for s in &cut.seqs {
                assert!(s.match_len >= 4);
            }
        }
    }

    #[test]
    fn randomized_roundtrips() {
        let mut rng = Xoshiro256::seed_from(9);
        for trial in 0..15 {
            let dict_len = rng.index(20_000) + 10;
            let mut dict = vec![0u8; dict_len];
            rng.fill_bytes(&mut dict);
            // Payload: a blend of dictionary fragments and fresh bytes.
            let mut data = Vec::new();
            while data.len() < rng.index(30_000) + 100 {
                if rng.chance(0.6) && dict_len > 64 {
                    let start = rng.index(dict_len - 64);
                    data.extend_from_slice(&dict[start..start + 64]);
                } else {
                    let mut fresh = vec![0u8; 37];
                    rng.fill_bytes(&mut fresh);
                    data.extend_from_slice(&fresh);
                }
            }
            let c = compress_with_dict(&data, &ZstdConfig::default(), &dict);
            assert_eq!(decompress_with_dict(&c, &dict).unwrap(), data, "trial {trial}");
        }
    }
}
