//! The SHA-1 that names every UTS node, checked against reference
//! digests, not only for determinism. The root package runs this file
//! too (`tests/workloads.rs`), so `cargo test` at the top cannot pass
//! with a wrong digest — and a wrong digest would silently reshape every
//! UTS tree.
//!
//! Every expected value below is what Python's `hashlib.sha1` prints for
//! the same message.

use uat_workloads::sha1::{digest_u64, sha1, uts_child, uts_root, Digest};

fn hex(d: &Digest) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn fips_vectors() {
    // FIPS 180-1 / RFC 3174 reference vectors.
    assert_eq!(
        hex(&sha1(b"abc")),
        "a9993e364706816aba3e25717850c26c9cd0d89d"
    );
    assert_eq!(
        hex(&sha1(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        )),
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    );
    assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

#[test]
fn million_a() {
    let m = vec![b'a'; 1_000_000];
    assert_eq!(hex(&sha1(&m)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

#[test]
fn multi_block_boundaries() {
    // 55 bytes is the longest tail whose length still fits its block;
    // 56..=63 push the length into a second padding block; 64, 65, 119
    // and 120 repeat the cases after one whole chunk.
    let expected = [
        (55, "55b80d96c523566d3c8a3b8de03a5549fd04915c"),
        (56, "bfe3466cd0dcd5e29b11e7885010fa7c61b737a6"),
        (63, "7db05d8e931f0a6731328e4923fbda65ced2f5db"),
        (64, "eece723b8a411e8c53e7bf49514234da5d394236"),
        (65, "f9619e0496c7fbeff2f2b4f3f93ed379329fe7d6"),
        (119, "791fa3ef300032b7b8efab39b22dead4327cba55"),
        (120, "856ffb270b6b9340b620653753dfc5bafaff0a1f"),
    ];
    for (n, digest) in expected {
        assert_eq!(hex(&sha1(&vec![0x5a; n])), digest, "{n} bytes of 0x5a");
    }
}

#[test]
fn uts_root_is_the_hash_of_the_big_endian_seed() {
    assert_eq!(
        hex(&uts_root(0)),
        "9069ca78e7450a285173431b3e52c5c25299e473"
    );
    assert_eq!(uts_root(0x0102_0304), sha1(&[1, 2, 3, 4]));
}

/// A child is the hash of parent ‖ index: a 10⁵-step chain ends where
/// the reference implementation's chain of `sha1(parent ‖ index)` does,
/// so a wrong digest at any step shows. The multiplier spreads the index
/// over all four of its bytes.
#[test]
fn uts_child_is_sha1_of_parent_and_index() {
    let mut d = uts_root(0);
    for i in 0..100_000u32 {
        d = uts_child(&d, i.wrapping_mul(0x9E37_79B9));
    }
    assert_eq!(hex(&d), "77e8548f70ab45c87f7f04340a2f8c8b1336d908");
}

#[test]
fn child_derivation_is_splittable() {
    let root = uts_root(0);
    let c0 = uts_child(&root, 0);
    let c1 = uts_child(&root, 1);
    assert_ne!(c0, c1);
    // Grandchildren from different parents differ.
    assert_ne!(uts_child(&c0, 0), uts_child(&c1, 0));
    // And the derivation is deterministic.
    assert_eq!(uts_child(&root, 0), c0);
}

#[test]
fn digest_u64_spreads() {
    let root = uts_root(0);
    let a = digest_u64(&uts_child(&root, 0));
    let b = digest_u64(&uts_child(&root, 1));
    assert_ne!(a, b);
    assert!(a > 0 && b > 0);
}
