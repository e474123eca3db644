//! SHA-1 with two compression functions: a portable scalar one and, on
//! x86-64 CPUs with the SHA extensions, one built on their
//! `sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2` instructions.
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
//!
//! CPUID alone picks the compression function: the hardware one runs
//! when `is_x86_feature_detected!` reports every feature it is compiled
//! for (`sha`, `sse2`, `ssse3`, `sse4.1`), the scalar one everywhere
//! else. No option selects it, and both give the same digests: a unit
//! test below runs them side by side, and `tests/sha1.rs` pins [`sha1`]
//! to reference digests on whichever path the host takes.

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

/// The SHA-1 compression function: fold one 64-byte block into `h`, in
/// hardware when the CPU has the SHA extensions.
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ShaNi::detect() {
        return ni.compress(h, block);
    }
    compress_scalar(h, block);
}

/// The portable compression function.
fn compress_scalar(h: &mut [u32; 5], block: &[u8; 64]) {
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

/// Proof that this CPU has every feature [`compress_sha_ni`] is compiled
/// for: only [`ShaNi::detect`] makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct ShaNi(());

#[cfg(target_arch = "x86_64")]
impl ShaNi {
    /// `Some` when CPUID reports the SHA extensions and the SSE levels
    /// the hardware compression uses. The standard library caches the
    /// answer in static atomics, so after the first call this is a load
    /// and a bit test; no call allocates or takes a lock.
    #[inline]
    fn detect() -> Option<ShaNi> {
        let present = std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1");
        present.then_some(ShaNi(()))
    }

    /// [`compress_sha_ni`], safe to call because `self` exists.
    #[inline]
    #[allow(unsafe_code)] // the crate's one `unsafe`: entering the feature-gated function
    fn compress(self, h: &mut [u32; 5], block: &[u8; 64]) {
        // SAFETY: [I23] a `ShaNi` is made only by `detect`, after
        // `is_x86_feature_detected!` reported `sha`, `sse2`, `ssse3` and
        // `sse4.1`: every feature `compress_sha_ni` enables.
        unsafe { compress_sha_ni(h, block) }
    }
}

/// The compression function on the SHA extensions: 80 rounds as 20
/// four-round steps. `abcd` holds `a`..`d`, `a` in the top lane; the top
/// lane of `e` holds the step's `e` plus its first schedule word, where
/// `e` is the `a` of four rounds back, rotated (`sha1nexte`). Step `i`
/// takes schedule words `4i..4i+4` as one vector: loaded for steps 0–3,
/// derived for the rest from the four vectors before it, which the ring
/// `w` holds.
///
/// # Safety
///
/// Calling it is `unsafe` from code not compiled for the same features:
/// the CPU must have `sha`, `sse2`, `ssse3` and `sse4.1` ([I23]). Only
/// [`ShaNi::compress`] calls it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(h: &mut [u32; 5], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    // Reverses all 16 bytes: big-endian words, the first in the top lane.
    let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let half = |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
    macro_rules! load {
        ($i:expr) => {
            _mm_shuffle_epi8(_mm_set_epi64x(half(16 * $i + 8), half(16 * $i)), bswap)
        };
    }
    let mut w = [load!(0), load!(1), load!(2), load!(3)];

    let abcd0 = _mm_set_epi32(h[0] as i32, h[1] as i32, h[2] as i32, h[3] as i32);
    let e0 = _mm_set_epi32(h[4] as i32, 0, 0, 0);
    let mut abcd = abcd0;
    let mut e = _mm_add_epi32(e0, w[0]);
    // Step `$i` with round function `$f`; then the next step's words
    // and `e`. After the last step, `e` folds into the state's `e`.
    macro_rules! step {
        ($i:expr, $f:expr) => {
            let next = _mm_sha1rnds4_epu32::<$f>(abcd, e);
            let words = if $i == 19 {
                e0
            } else {
                if $i >= 3 {
                    let x = _mm_sha1msg1_epu32(w[($i + 1) % 4], w[($i + 2) % 4]);
                    let x = _mm_xor_si128(x, w[($i + 3) % 4]);
                    w[($i + 1) % 4] = _mm_sha1msg2_epu32(x, w[$i % 4]);
                }
                w[($i + 1) % 4]
            };
            e = _mm_sha1nexte_epu32(abcd, words);
            abcd = next;
        };
    }
    step!(0, 0);
    step!(1, 0);
    step!(2, 0);
    step!(3, 0);
    step!(4, 0);
    step!(5, 1);
    step!(6, 1);
    step!(7, 1);
    step!(8, 1);
    step!(9, 1);
    step!(10, 2);
    step!(11, 2);
    step!(12, 2);
    step!(13, 2);
    step!(14, 2);
    step!(15, 3);
    step!(16, 3);
    step!(17, 3);
    step!(18, 3);
    step!(19, 3);

    let abcd = _mm_add_epi32(abcd, abcd0);
    h[0] = _mm_extract_epi32::<3>(abcd) as u32;
    h[1] = _mm_extract_epi32::<2>(abcd) as u32;
    h[2] = _mm_extract_epi32::<1>(abcd) as u32;
    h[3] = _mm_extract_epi32::<0>(abcd) as u32;
    h[4] = _mm_extract_epi32::<3>(e) as u32;
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
    sha1_with(data, compress)
}

/// [`sha1`] on a given compression function.
#[inline(always)]
fn sha1_with(data: &[u8], compress: impl Fn(&mut [u32; 5], &[u8; 64])) -> Digest {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The next SplitMix64 output (Steele, Lea & Flood), written out so
    /// that this module keeps no crate dependencies and the root package
    /// can include it by path.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The two compression functions fold the same random blocks into
    /// the same random states, and [`sha1`] pads every length across two
    /// whole blocks alike through each.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_and_scalar_compression_agree() {
        let Some(ni) = ShaNi::detect() else {
            eprintln!("skipping hardware SHA-1 test: CPUID lacks sha, sse2, ssse3 or sse4.1");
            return;
        };
        let mut rng = 0x5EED;
        for n in 0..16_384 {
            let mut scalar = [0u32; 5].map(|_| splitmix(&mut rng) as u32);
            let mut block = [0u8; 64];
            for bytes in block.chunks_exact_mut(8) {
                bytes.copy_from_slice(&splitmix(&mut rng).to_le_bytes());
            }
            let mut hardware = scalar;
            compress_scalar(&mut scalar, &block);
            ni.compress(&mut hardware, &block);
            assert_eq!(hardware, scalar, "block {n}");
        }
        let data: Vec<u8> = (0..=130).map(|_| splitmix(&mut rng) as u8).collect();
        for len in 0..=data.len() {
            let message = &data[..len];
            let scalar = sha1_with(message, compress_scalar);
            let hardware = sha1_with(message, |h, b| ni.compress(h, b));
            assert_eq!(hardware, scalar, "{len} bytes");
            assert_eq!(sha1(message), scalar, "{len} bytes");
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn hardware_and_scalar_compression_agree() {
        eprintln!("skipping hardware SHA-1 test: the SHA extensions are x86-64 only");
    }
}
