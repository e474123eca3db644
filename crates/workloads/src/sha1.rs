//! SHA-1, from scratch.
//!
//! The UTS benchmark derives every tree node's identity by hashing its
//! parent's 20-byte descriptor with the child index — that is what makes
//! the tree shape deterministic, machine-independent, and impossible to
//! predict without traversal [Olivier et al., LCPC'06]. SHA-1 is broken
//! for cryptography but that is irrelevant here; it is a high-quality
//! splittable hash, and implementing it keeps the workload dependency-free.
//!
//! Every executor pays one hash per UTS node, so the hash allocates
//! nothing: [`sha1`] compresses whole chunks in place and pads its tail
//! into one or two stack blocks; a [`uts_child`] message is 24 bytes, so
//! it takes one block and one compression.
//! The tests pin both to reference digests (`tests/sha1.rs`).

/// A 20-byte SHA-1 digest.
pub type Digest = [u8; 20];

/// The initial hash state (FIPS 180-4 §5.3.1).
const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// One round on state `[a, b, c, d, e]` with round function value `f`,
/// constant `k` and schedule word `w`.
#[inline(always)]
fn round([a, b, c, d, e]: [u32; 5], f: u32, k: u32, w: u32) -> [u32; 5] {
    let t = a
        .rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(w);
    [t, a, b.rotate_left(30), c, d]
}

/// The SHA-1 compression function: fold one 64-byte block into `h`.
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(word.try_into().expect("4 bytes"));
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    // Four 20-round stages, each with its own round function and constant.
    let mut s = *h;
    for &wi in &w[..20] {
        let [_, b, c, d, _] = s;
        s = round(s, (b & c) | (!b & d), 0x5A827999, wi);
    }
    for &wi in &w[20..40] {
        let [_, b, c, d, _] = s;
        s = round(s, b ^ c ^ d, 0x6ED9EBA1, wi);
    }
    for &wi in &w[40..60] {
        let [_, b, c, d, _] = s;
        s = round(s, (b & c) | (b & d) | (c & d), 0x8F1BBCDC, wi);
    }
    for &wi in &w[60..] {
        let [_, b, c, d, _] = s;
        s = round(s, b ^ c ^ d, 0xCA62C1D6, wi);
    }
    for (hi, si) in h.iter_mut().zip(s) {
        *hi = hi.wrapping_add(si);
    }
}

/// The big-endian bytes of a final state.
fn digest(h: [u32; 5]) -> Digest {
    let mut out = [0u8; 20];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compute the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = H0;
    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        compress(&mut h, chunk.try_into().expect("64 bytes"));
    }
    // Padding: the tail, 0x80, zeros, then the 64-bit big-endian bit
    // length in the last 8 bytes — in a second block if the tail leaves
    // no room for it.
    let tail = chunks.remainder();
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    if tail.len() >= 56 {
        compress(&mut h, &block);
        block = [0u8; 64];
    }
    block[56..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    compress(&mut h, &block);
    digest(h)
}

/// UTS child derivation: hash of (parent digest ‖ child index, big-endian).
///
/// The 24-byte message pads into a single stack block, so this is one
/// call of the compression function.
pub fn uts_child(parent: &Digest, index: u32) -> Digest {
    let mut message = [0u8; 24];
    message[..20].copy_from_slice(parent);
    message[20..].copy_from_slice(&index.to_be_bytes());
    sha1(&message)
}

/// UTS root descriptor from a seed (`-r` on the UTS command line).
pub fn uts_root(seed: u32) -> Digest {
    sha1(&seed.to_be_bytes())
}

/// Interpret the first 8 digest bytes as a big-endian u64 — the uniform
/// variate UTS draws its branching decisions from.
pub fn digest_u64(d: &Digest) -> u64 {
    u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
}
