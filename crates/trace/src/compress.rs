//! A small LZ77-family codec — the in-repo stand-in for the LZO pass that
//! jigdump applies to every 64 KB read (paper §3.3: compression is what keeps
//! storage and NFS I/O, "the two bottlenecks on our monitor platform", off
//! the critical path).
//!
//! Design: greedy byte-oriented LZ with a 64 KB window and a 4-byte-hash
//! chain, token format:
//!
//! ```text
//! literal run : 0x00 | uvarint(len) | bytes
//! match       : 0x01 | uvarint(len-MIN_MATCH) | uvarint(distance)
//! ```
//!
//! This is slower and slightly less tight than LZO but wholly deterministic,
//! dependency-free, and fast enough to keep trace merging faster than
//! real time (see the `merge_throughput` bench).

use crate::format::BLOCK_MAX;
use crate::varint::{get_uvarint, put_uvarint};

/// Minimum match length worth encoding (below this, literals win).
const MIN_MATCH: usize = 4;
/// Window size — matches may reach this far back.
const WINDOW: usize = 64 * 1024;
/// Number of hash buckets (power of two).
const HASH_SIZE: usize = 1 << 15;
/// How many chain links to follow before giving up (bounds worst case).
const MAX_CHAIN: usize = 16;

/// Errors from [`decompress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// Token stream ended unexpectedly.
    Truncated,
    /// Unknown token tag.
    BadToken(u8),
    /// A match referenced data before the start of output.
    BadDistance,
    /// Output exceeded the caller-supplied limit.
    TooLarge,
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadToken(t) => write!(f, "bad token tag {t:#x}"),
            DecompressError::BadDistance => write!(f, "match distance out of range"),
            DecompressError::TooLarge => write!(f, "decompressed output exceeds limit"),
        }
    }
}

impl std::error::Error for DecompressError {}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    // tidy:allow(decode-no-panic): compressor side — callers guarantee i + 4 <= data.len()
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - 15)) as usize & (HASH_SIZE - 1)
}

/// Compresses `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let n = input.len();
    if n == 0 {
        return out;
    }

    // head[h] = most recent position with hash h (+1, 0 = empty);
    // prev[i % WINDOW] = previous position in the chain for position i.
    let mut head = vec![0u32; HASH_SIZE];
    let mut prev = vec![0u32; WINDOW];

    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            out.push(0x00);
            put_uvarint(out, (to - from) as u64);
            // tidy:allow(decode-no-panic): compressor side — from/to track our own cursor, never past n
            out.extend_from_slice(&input[from..to]);
        }
    };

    while i + MIN_MATCH <= n {
        let h = hash4(input, i);
        // Walk the chain looking for the longest match.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        // tidy:allow(decode-no-panic): compressor side — h < HASH_SIZE by construction
        let mut cand = head[h] as usize;
        let mut chain = 0;
        while cand > 0 && chain < MAX_CHAIN {
            let pos = cand - 1;
            if pos >= i || i - pos > WINDOW {
                break; // stale ring-buffer entry or out of window
            }
            let limit = n - i;
            // Quick reject: a longer match must improve at index best_len.
            // tidy:allow(decode-no-panic): compressor side — pos < i and offsets stay < limit = n - i
            if best_len < limit && input[pos + best_len] == input[i + best_len] {
                let mut l = 0usize;
                // tidy:allow(decode-no-panic): compressor side — pos < i and l < limit = n - i
                while l < limit && input[pos + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - pos;
                }
            }
            chain += 1;
            // tidy:allow(decode-no-panic): compressor side — index is taken mod WINDOW
            let next = prev[pos % WINDOW] as usize;
            // Chains must strictly decrease; a wrapped slot breaks the walk.
            if next >= cand {
                break;
            }
            cand = next;
        }

        if best_len >= MIN_MATCH {
            flush_literals(&mut out, lit_start, i);
            out.push(0x01);
            put_uvarint(&mut out, (best_len - MIN_MATCH) as u64);
            put_uvarint(&mut out, best_dist as u64);
            // Insert hash entries for every position covered by the match
            // (cap the work for very long matches).
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let step_limit = 512.min(end.saturating_sub(i));
            for j in i..i + step_limit {
                if j + MIN_MATCH <= n {
                    let hj = hash4(input, j);
                    // tidy:allow(decode-no-panic): compressor side — mod WINDOW and hj < HASH_SIZE
                    prev[j % WINDOW] = head[hj];
                    head[hj] = (j + 1) as u32; // tidy:allow(decode-no-panic): hj < HASH_SIZE
                }
            }
            i += best_len;
            lit_start = i;
        } else {
            // tidy:allow(decode-no-panic): compressor side — mod WINDOW and h < HASH_SIZE
            prev[i % WINDOW] = head[h];
            head[h] = (i + 1) as u32; // tidy:allow(decode-no-panic): h < HASH_SIZE
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, n);
    out
}

/// Decompresses `input`, refusing to produce more than `max_out` bytes.
///
/// This is the untrusted half of the codec: `input` may be truncated or
/// corrupt, so every access goes through `get` and every length through
/// `checked_add` (tidy: `decode-no-panic`) — corruption decodes to `Err`,
/// never a panic.
///
/// The output is allocated once, at `max_out` (capped at
/// [`BLOCK_MAX`]): block readers pass the header's raw length, so a
/// well-formed block decodes without a single growth reallocation.
pub fn decompress(input: &[u8], max_out: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(max_out.min(BLOCK_MAX));
    let mut i = 0usize;
    while let Some(&tag) = input.get(i) {
        i += 1;
        match tag {
            0x00 => {
                let rest = input.get(i..).ok_or(DecompressError::Truncated)?;
                let (len, n) = get_uvarint(rest).ok_or(DecompressError::Truncated)?;
                i += n;
                let len = usize::try_from(len).map_err(|_| DecompressError::TooLarge)?;
                let end = i.checked_add(len).ok_or(DecompressError::Truncated)?;
                let lits = input.get(i..end).ok_or(DecompressError::Truncated)?;
                if out
                    .len()
                    .checked_add(len)
                    .ok_or(DecompressError::TooLarge)?
                    > max_out
                {
                    return Err(DecompressError::TooLarge);
                }
                out.extend_from_slice(lits);
                i = end;
            }
            0x01 => {
                let rest = input.get(i..).ok_or(DecompressError::Truncated)?;
                let (l, n) = get_uvarint(rest).ok_or(DecompressError::Truncated)?;
                i += n;
                let rest = input.get(i..).ok_or(DecompressError::Truncated)?;
                let (dist, n) = get_uvarint(rest).ok_or(DecompressError::Truncated)?;
                i += n;
                let len = usize::try_from(l)
                    .ok()
                    .and_then(|l| l.checked_add(MIN_MATCH))
                    .ok_or(DecompressError::TooLarge)?;
                let dist = usize::try_from(dist).map_err(|_| DecompressError::BadDistance)?;
                if dist == 0 || dist > out.len() {
                    return Err(DecompressError::BadDistance);
                }
                if out
                    .len()
                    .checked_add(len)
                    .ok_or(DecompressError::TooLarge)?
                    > max_out
                {
                    return Err(DecompressError::TooLarge);
                }
                // Overlapping copies (`dist < len`) are the LZ idiom for
                // runs. Each chunk re-copies everything from `start` on, so
                // the copied span doubles per pass and repeats with period
                // `dist` — the same bytes a byte-wise copy would produce.
                let start = out.len() - dist;
                let mut left = len;
                while left > 0 {
                    let chunk = left.min(out.len() - start);
                    out.extend_from_within(start..start + chunk);
                    left -= chunk;
                }
            }
            bad => return Err(DecompressError::BadToken(bad)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len().max(1)).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty() {
        roundtrip(b"");
    }

    #[test]
    fn short_literals() {
        roundtrip(b"abc");
        roundtrip(b"a");
    }

    #[test]
    fn runs_compress_well() {
        let data = vec![0u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100, "10k zeros compressed to {} bytes", c.len());
        assert_eq!(decompress(&c, 10_000).unwrap(), data);
    }

    #[test]
    fn repeated_structure_compresses() {
        // Simulated trace records: repeating 32-byte headers with counters.
        let mut data = Vec::new();
        for i in 0u32..1000 {
            data.extend_from_slice(b"RECORDHDR");
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(&[0xAB; 19]);
        }
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 3,
            "structured data: {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_data_survives() {
        // Pseudo-random bytes: expansion must be bounded and roundtrip exact.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 64 + 16);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn output_limit_enforced() {
        let data = vec![7u8; 1000];
        let c = compress(&data);
        assert_eq!(decompress(&c, 999), Err(DecompressError::TooLarge));
    }

    #[test]
    fn garbage_never_panics() {
        for seed in 0u8..=255 {
            let garbage: Vec<u8> = (0..64)
                .map(|i| seed.wrapping_mul(31).wrapping_add(i))
                .collect();
            let _ = decompress(&garbage, 1 << 16);
        }
    }

    #[test]
    fn bad_distance_detected() {
        // match of length 4 at distance 9 with only 1 byte of output.
        let mut c = Vec::new();
        c.push(0x00);
        put_uvarint(&mut c, 1);
        c.push(b'x');
        c.push(0x01);
        put_uvarint(&mut c, 0);
        put_uvarint(&mut c, 9);
        assert_eq!(decompress(&c, 100), Err(DecompressError::BadDistance));
    }

    /// The byte-at-a-time match copy the chunked kernel replaced, kept as
    /// the reference decoder the kernel is checked against.
    fn reference_decompress(input: &[u8], max_out: usize) -> Result<Vec<u8>, DecompressError> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while let Some(&tag) = input.get(i) {
            i += 1;
            match tag {
                0x00 => {
                    let rest = input.get(i..).ok_or(DecompressError::Truncated)?;
                    let (len, n) = get_uvarint(rest).ok_or(DecompressError::Truncated)?;
                    i += n;
                    let len = usize::try_from(len).map_err(|_| DecompressError::TooLarge)?;
                    let end = i.checked_add(len).ok_or(DecompressError::Truncated)?;
                    let lits = input.get(i..end).ok_or(DecompressError::Truncated)?;
                    if out
                        .len()
                        .checked_add(len)
                        .ok_or(DecompressError::TooLarge)?
                        > max_out
                    {
                        return Err(DecompressError::TooLarge);
                    }
                    out.extend_from_slice(lits);
                    i = end;
                }
                0x01 => {
                    let rest = input.get(i..).ok_or(DecompressError::Truncated)?;
                    let (l, n) = get_uvarint(rest).ok_or(DecompressError::Truncated)?;
                    i += n;
                    let rest = input.get(i..).ok_or(DecompressError::Truncated)?;
                    let (dist, n) = get_uvarint(rest).ok_or(DecompressError::Truncated)?;
                    i += n;
                    let len = usize::try_from(l)
                        .ok()
                        .and_then(|l| l.checked_add(MIN_MATCH))
                        .ok_or(DecompressError::TooLarge)?;
                    let dist = usize::try_from(dist).map_err(|_| DecompressError::BadDistance)?;
                    if dist == 0 || dist > out.len() {
                        return Err(DecompressError::BadDistance);
                    }
                    if out
                        .len()
                        .checked_add(len)
                        .ok_or(DecompressError::TooLarge)?
                        > max_out
                    {
                        return Err(DecompressError::TooLarge);
                    }
                    let start = out.len() - dist;
                    for j in 0..len {
                        out.push(out[start + j]);
                    }
                }
                bad => return Err(DecompressError::BadToken(bad)),
            }
        }
        Ok(out)
    }

    fn lit(c: &mut Vec<u8>, bytes: &[u8]) {
        c.push(0x00);
        put_uvarint(c, bytes.len() as u64);
        c.extend_from_slice(bytes);
    }

    fn mat(c: &mut Vec<u8>, len: u64, dist: u64) {
        c.push(0x01);
        put_uvarint(c, len - MIN_MATCH as u64);
        put_uvarint(c, dist);
    }

    /// Decodes `c` with the kernel, checking it against the reference.
    fn decode(c: &[u8], max_out: usize) -> Result<Vec<u8>, DecompressError> {
        let got = decompress(c, max_out);
        assert_eq!(got, reference_decompress(c, max_out));
        got
    }

    #[test]
    fn overlapping_match_distance_one_is_a_run() {
        let mut c = Vec::new();
        lit(&mut c, b"a");
        mat(&mut c, 10, 1);
        assert_eq!(decode(&c, 100).unwrap(), b"aaaaaaaaaaa");
    }

    #[test]
    fn overlapping_match_shorter_than_two_distances() {
        // dist < len < 2·dist: the copy reads bytes it wrote itself.
        let mut c = Vec::new();
        lit(&mut c, b"abc");
        mat(&mut c, 5, 3);
        assert_eq!(decode(&c, 100).unwrap(), b"abcabcab");
        // len == dist: no self-overlap, one chunk.
        let mut c = Vec::new();
        lit(&mut c, b"wxyz");
        mat(&mut c, 4, 4);
        assert_eq!(decode(&c, 100).unwrap(), b"wxyzwxyz");
    }

    #[test]
    fn long_overlapping_runs_repeat_their_period() {
        let mut c = Vec::new();
        lit(&mut c, b"xyz");
        mat(&mut c, 100_000, 3);
        lit(&mut c, b"!");
        mat(&mut c, 70_000, 1);
        let out = decode(&c, 170_004).unwrap();
        assert_eq!(out.len(), 170_004);
        assert!(out[..100_003].chunks(3).all(|p| b"xyz".starts_with(p)));
        assert!(out[100_003..].iter().all(|&b| b == b'!'));
        // A match from deep inside the output, not its tail.
        let mut c = Vec::new();
        lit(&mut c, b"0123456789");
        mat(&mut c, 6, 8);
        assert_eq!(decode(&c, 100).unwrap(), b"0123456789234567");
    }

    #[test]
    fn every_error_variant_is_reported() {
        let t = |c: &[u8], max_out| decode(c, max_out).unwrap_err();
        // Truncated: a tag with no length, a literal run past the input,
        // a match missing its distance, an unterminated varint.
        assert_eq!(t(&[0x00], 10), DecompressError::Truncated);
        assert_eq!(t(&[0x00, 5, b'a'], 10), DecompressError::Truncated);
        assert_eq!(t(&[0x00, 1, b'a', 0x01, 0], 10), DecompressError::Truncated);
        assert_eq!(t(&[0x01, 0x80], 10), DecompressError::Truncated);
        // BadToken: any tag but 0x00 / 0x01.
        assert_eq!(t(&[0x02], 10), DecompressError::BadToken(0x02));
        assert_eq!(
            t(&[0x00, 1, b'a', 0xff], 10),
            DecompressError::BadToken(0xff)
        );
        // BadDistance: zero, past the start, and before any output.
        let mut c = Vec::new();
        lit(&mut c, b"abcd");
        mat(&mut c, 4, 0);
        assert_eq!(t(&c, 100), DecompressError::BadDistance);
        let mut c = Vec::new();
        lit(&mut c, b"abcd");
        mat(&mut c, 4, 5);
        assert_eq!(t(&c, 100), DecompressError::BadDistance);
        let mut c = Vec::new();
        mat(&mut c, 4, 1);
        assert_eq!(t(&c, 100), DecompressError::BadDistance);
        // TooLarge: a literal run or a match past the limit, and a match
        // length that overflows.
        let mut c = Vec::new();
        lit(&mut c, b"abcd");
        assert_eq!(t(&c, 3), DecompressError::TooLarge);
        mat(&mut c, 4, 1);
        assert_eq!(t(&c, 7), DecompressError::TooLarge);
        assert_eq!(decode(&c, 8).unwrap(), b"abcddddd");
        let mut c = Vec::new();
        lit(&mut c, b"abcd");
        c.push(0x01);
        put_uvarint(&mut c, u64::MAX);
        put_uvarint(&mut c, 1);
        assert_eq!(t(&c, usize::MAX), DecompressError::TooLarge);
    }

    /// Builds a token stream from `lits` as a leading literal run, then
    /// `ops`: mostly well-formed literal runs and matches (overlapping ones
    /// included), with bad distances, raw tag bytes and oversized lengths
    /// mixed in.
    fn token_stream(ops: &[u64], lits: &[u8]) -> Vec<u8> {
        let mut c = Vec::new();
        lit(&mut c, lits);
        let mut produced = lits.len() as u64;
        for (k, &op) in ops.iter().enumerate() {
            let arg = op >> 8;
            match op % 64 {
                0..=24 => {
                    let len = (arg % 40) as usize;
                    let from = k % lits.len().max(1);
                    let run: Vec<u8> = lits.iter().cycle().skip(from).take(len).copied().collect();
                    lit(&mut c, &run);
                    produced += run.len() as u64;
                }
                25..=60 => {
                    let len = MIN_MATCH as u64 + arg % 300;
                    let dist = 1 + (arg >> 16) % produced.min(64);
                    mat(&mut c, len, dist);
                    produced += len;
                }
                61 => mat(
                    &mut c,
                    MIN_MATCH as u64 + arg % 8,
                    (arg >> 16) % (produced + 3),
                ),
                62 => c.push(arg as u8),
                _ => {
                    c.push((arg & 1) as u8);
                    put_uvarint(&mut c, arg);
                    put_uvarint(&mut c, arg >> 7);
                }
            }
        }
        c
    }

    proptest! {
        #[test]
        fn proptest_kernel_matches_bytewise_reference(
            ops in proptest::collection::vec(any::<u64>(), 0..24),
            lits in proptest::collection::vec(any::<u8>(), 1..64),
            max_out in 0usize..6000,
            cut: u16,
        ) {
            let mut c = token_stream(&ops, &lits);
            // A quarter of the streams lose their tail mid-token.
            if cut.is_multiple_of(4) {
                c.truncate(usize::from(cut) % (c.len() + 1));
            }
            prop_assert_eq!(decompress(&c, max_out), reference_decompress(&c, max_out));
        }

        #[test]
        fn proptest_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            roundtrip(&data);
        }

        #[test]
        fn proptest_roundtrip_structured(
            chunk in proptest::collection::vec(any::<u8>(), 1..64),
            reps in 1usize..100,
        ) {
            let data: Vec<u8> = chunk.iter().copied().cycle().take(chunk.len() * reps).collect();
            roundtrip(&data);
        }

        #[test]
        fn proptest_decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decompress(&data, 1 << 20);
        }
    }
}
