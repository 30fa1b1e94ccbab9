//! The one on-disk record codec. Every record read back from disk — the
//! journal's header and run records, the result cache's entries — is a
//! *sealed line* `<digest> <payload>\n`: 32 lowercase hex characters of the
//! payload's 128-bit digest, a space, and the payload (one line of
//! JSON). [`unseal`] compares the recomputed digest with the stored field
//! byte for byte before the payload goes anywhere, so only checked bytes
//! reach `serde_json`; a line that fails is never served or replayed.
//!
//! The digest runs two 64-bit lanes over the payload eight bytes at a
//! time; each step xors a word in, multiplies by an odd constant (FNV-1a's
//! update, widened to words) and rotates. Every step is a bijection of the
//! lane state and injective in its word, so payloads of one length that
//! differ in any single byte always differ in digest.
//!
//! Two readers sit on [`unseal`]. [`decode`] parses the payload into one
//! `serde::Value` tree for the journal's header and each result-cache
//! entry; the vendored `serde_json::from_str` hands a `Value` target the
//! tree it built by value, so a document is built once, not built and then
//! deep-cloned. The journal's record lines skip the tree at open:
//! `journal::read_journal` reads the key and only checks the value's JSON,
//! which is decoded when its run replays (see the `journal` module docs).

/// Hex characters of the digest field that opens every sealed line.
pub const DIGEST_HEX: usize = 32;

/// Lane seeds (the FNV-1a offset basis and the golden-ratio constant).
const BASIS: [u64; 2] = [0xCBF2_9CE4_8422_2325, 0x9E37_79B9_7F4A_7C15];
/// Odd per-lane multipliers: each update is invertible.
const MUL: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];
/// Per-lane rotations, which carry the product's high bits back down.
const ROT: [u32; 2] = [29, 37];

/// One step of lane `i`: xor the word in, multiply by an odd constant, rotate.
#[inline(always)]
fn step(lane: u64, word: u64, i: usize) -> u64 {
    (lane ^ word).wrapping_mul(MUL[i]).rotate_left(ROT[i])
}

/// The 128-bit digest of `bytes` (see the module docs).
fn digest(bytes: &[u8]) -> [u64; 2] {
    let mut lanes = BASIS;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        lanes = [step(lanes[0], w, 0), step(lanes[1], w, 1)];
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let w = u64::from_le_bytes(tail);
    let len = bytes.len() as u64;
    for (i, lane) in lanes.iter_mut().enumerate() {
        let h = step(step(*lane, w, i), len, i);
        *lane = h ^ (h >> 32);
    }
    lanes
}

/// [`digest`] of `bytes` as its 32-character hex field.
fn digest_hex(bytes: &[u8]) -> [u8; DIGEST_HEX] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0u8; DIGEST_HEX];
    for (lane, half) in digest(bytes).iter().zip(out.chunks_exact_mut(16)) {
        for (j, c) in half.iter_mut().enumerate() {
            *c = HEX[((lane >> (60 - 4 * j)) & 0xF) as usize];
        }
    }
    out
}

/// The digest of `key` as 32 hex characters: the digest field of a
/// sealed line, and the result cache's file stems (an entry's file name is
/// the digest of the key it holds).
pub fn key_stem(key: &str) -> String {
    digest_hex(key.as_bytes()).iter().map(|&c| char::from(c)).collect()
}

/// Renders `payload` as one sealed line, `\n` included.
///
/// # Panics
/// If `payload` contains a `\n` (compact JSON never does).
pub fn seal(payload: &str) -> String {
    assert!(!payload.contains('\n'), "a sealed payload is one line");
    format!("{} {payload}\n", key_stem(payload))
}

/// The payload of one sealed line (a trailing `\n` is ignored), or `None`
/// when the line is malformed, is not UTF-8, or fails its digest.
pub fn unseal(line: &[u8]) -> Option<&str> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let (field, payload) = (line.get(..DIGEST_HEX)?, line.get(DIGEST_HEX + 1..)?);
    if line[DIGEST_HEX] != b' ' || digest_hex(payload) != field {
        return None;
    }
    std::str::from_utf8(payload).ok()
}

/// Unseals one line and decodes its JSON payload.
pub fn decode(line: &[u8]) -> Option<serde::Value> {
    serde_json::from_str(unseal(line)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_round_trips_and_carries_a_fixed_width_digest() {
        let payload = r#"{"key":"c#00000000000000ab:0","value":[1.5,7]}"#;
        let line = seal(payload);
        assert_eq!(line.len(), DIGEST_HEX + 1 + payload.len() + 1);
        assert!(line.ends_with(&format!(" {payload}\n")), "{line}");
        assert_eq!(unseal(line.as_bytes()), Some(payload));
        assert_eq!(unseal(line.trim_end().as_bytes()), Some(payload), "the \\n is optional");
        assert_eq!(
            decode(line.as_bytes()).unwrap().get("value").unwrap().as_array().unwrap().len(),
            2
        );
    }

    #[test]
    fn every_single_byte_change_fails_the_check() {
        // Lengths around the word boundary exercise full words and tails.
        for len in [0usize, 1, 7, 8, 9, 23, 64] {
            let payload: String = (0..len).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
            let line = seal(&payload).into_bytes();
            for at in 0..line.len() - 1 {
                for bit in 0..8 {
                    let mut bad = line.clone();
                    bad[at] ^= 1 << bit;
                    assert_eq!(unseal(&bad), None, "len {len}: flip of bit {bit} at {at} passed");
                }
                for byte in [b'0', b'f', b' ', b'{', 0xFF] {
                    let mut bad = line.clone();
                    if bad[at] != byte {
                        bad[at] = byte;
                        assert_eq!(unseal(&bad), None, "len {len}: byte {byte} at {at} passed");
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_and_foreign_lines_fail() {
        let line = seal(r#"{"schema":"dls-cache/2"}"#);
        for cut in 0..line.len() - 1 {
            assert_eq!(unseal(&line.as_bytes()[..cut]), None, "cut@{cut}");
        }
        assert_eq!(unseal(br#"{"schema":"dls-journal/1","command":"fig5"}"#), None);
        assert_eq!(unseal(b"not a record"), None);
    }

    #[test]
    fn key_stems_are_stable_and_distinct() {
        let a = key_stem("command=fig5 seed=0x1");
        assert_eq!(a.len(), DIGEST_HEX);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_ne!(a, key_stem("command=fig5 seed=0x2"));
        assert_eq!(a, key_stem("command=fig5 seed=0x1"), "stable across calls");
    }
}
