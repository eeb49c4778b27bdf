//! Self-contained SHA-256 (FIPS 180-4).
//!
//! The workspace builds fully offline, so the digest is implemented here
//! rather than pulled from crates.io — once, in the lowest crate its users
//! share: the service's cache keys are content hashes of canonicalized
//! scenario encodings (`lumen_service::scenario_key`), the golden-tally
//! harness pins every distribution array by its digest, and the wire
//! format's byte-pin test holds digests of whole encodings. The daemon
//! hashes on its poll thread, once per query, so [`digest`] is written
//! for speed; the tests hold it to the standard known-answer vectors, to
//! pinned digests, and to a schoolbook implementation at every tail
//! length.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The initial chaining state.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One compression: fold a 64-byte block into the chaining state `h`.
///
/// The message schedule is a rolling window of sixteen words, each
/// extended in place by the round that consumes it, and the 64 rounds are
/// unrolled with the eight working variables *renamed* from round to
/// round instead of shuffled, so a round writes two registers, not eight.
#[inline(always)]
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (slot, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *slot = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;

    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $kw:expr) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add($kw);
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }
    // W[t] for t < 16: the block's own words.
    macro_rules! load {
        ($i:expr) => {
            w[$i]
        };
    }
    // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]) with indices
    // mod 16: slots ahead of `i` still hold the previous sixteen.
    macro_rules! extend {
        ($i:expr) => {{
            let (w15, w2) = (w[($i + 1) & 15], w[($i + 14) & 15]);
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[$i] = w[$i].wrapping_add(s0).wrapping_add(w[($i + 9) & 15]).wrapping_add(s1);
            w[$i]
        }};
    }
    macro_rules! rounds16 {
        ($k:expr, $w:ident) => {
            round!(a b c d e f g hh, K[$k].wrapping_add($w!(0)));
            round!(hh a b c d e f g, K[$k + 1].wrapping_add($w!(1)));
            round!(g hh a b c d e f, K[$k + 2].wrapping_add($w!(2)));
            round!(f g hh a b c d e, K[$k + 3].wrapping_add($w!(3)));
            round!(e f g hh a b c d, K[$k + 4].wrapping_add($w!(4)));
            round!(d e f g hh a b c, K[$k + 5].wrapping_add($w!(5)));
            round!(c d e f g hh a b, K[$k + 6].wrapping_add($w!(6)));
            round!(b c d e f g hh a, K[$k + 7].wrapping_add($w!(7)));
            round!(a b c d e f g hh, K[$k + 8].wrapping_add($w!(8)));
            round!(hh a b c d e f g, K[$k + 9].wrapping_add($w!(9)));
            round!(g hh a b c d e f, K[$k + 10].wrapping_add($w!(10)));
            round!(f g hh a b c d e, K[$k + 11].wrapping_add($w!(11)));
            round!(e f g hh a b c d, K[$k + 12].wrapping_add($w!(12)));
            round!(d e f g hh a b c, K[$k + 13].wrapping_add($w!(13)));
            round!(c d e f g hh a b, K[$k + 14].wrapping_add($w!(14)));
            round!(b c d e f g hh a, K[$k + 15].wrapping_add($w!(15)));
        };
    }
    rounds16!(0, load);
    rounds16!(16, extend);
    rounds16!(32, extend);
    rounds16!(48, extend);

    for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *slot = slot.wrapping_add(v);
    }
}

/// SHA-256 digest of `data`.
///
/// Whole blocks are compressed straight from `data`; only the last
/// partial block, the `0x80` marker and the bit length are copied, into a
/// two-block tail on the stack.
pub fn digest(data: &[u8]) -> [u8; 32] {
    let mut h = H0;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block.try_into().expect("chunks_exact(64) yields 64-byte blocks"));
    }
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    // The length needs 8 bytes after the marker: one block if the
    // remainder is at most 55 bytes, two otherwise.
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        compress(&mut h, block.try_into().expect("chunks_exact(64) yields 64-byte blocks"));
    }

    let mut out = [0u8; 32];
    for (i, v) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&v.to_be_bytes());
    }
    out
}

/// Lowercase hex of the SHA-256 digest of `data`.
pub fn hex(data: &[u8]) -> String {
    digest(data).iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(hex(b""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        assert_eq!(hex(b"abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        // Spills into a second block (55 vs 56 byte message boundary).
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// The digest as it was before the rolling-schedule rewrite: pad into
    /// a heap copy, expand all 64 schedule words, shuffle eight variables
    /// per round. Kept as the oracle the fast one is checked against.
    fn schoolbook(data: &[u8]) -> [u8; 32] {
        let mut h = H0;
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
        for chunk in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in chunk.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                (hh, g, f, e, d, c, b, a) =
                    (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(s0.wrapping_add(maj)));
            }
            for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
                *slot = slot.wrapping_add(v);
            }
        }
        let mut out = [0u8; 32];
        for (i, v) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&v.to_be_bytes());
        }
        out
    }

    /// 13,229 bytes — the length of the benchmark's voxel scenario
    /// encoding — of a fixed multiplicative sequence.
    fn buffer() -> Vec<u8> {
        (0..13_229u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect()
    }

    #[test]
    fn every_tail_length_agrees_with_the_schoolbook_digest() {
        // 0..=130 crosses each place the stack tail can go wrong: the
        // marker landing on byte 55 / 56 (one tail block or two), an empty
        // remainder at 64 and 128, and the same edges one block later.
        let data = buffer();
        for len in (0..=130).chain([data.len()]) {
            assert_eq!(digest(&data[..len]), schoolbook(&data[..len]), "{len} bytes");
        }
    }

    #[test]
    fn digests_are_pinned() {
        // Values printed by the previous implementation (and by an
        // independent one): the oracle above cannot drift unnoticed.
        let data = buffer();
        for (len, pinned) in [
            (55, "87a26dae81d37e91b25fae7899274e680a048ea44f82b18397b6585c2615c6b7"),
            (56, "cd6756cdcd1cf71057f210633c6d13fce8ac4b9f97690b42c0aa28d721e2add5"),
            (63, "7be910d529434dd8a31078d25667457b6040c888d64904b25d3ca95f1eae6b16"),
            (64, "51e945469a3948debf6fc154e954fd6623ebbc21da2a3ee5e3ee0264e2cef6f2"),
            (119, "c9128add91b549276c05fa0088f24600737e4a1eedf505afcc5977acbce20d17"),
            (120, "05bb0826068da152ddc644acf1ebc99edf92eaf9bc41709d94d1f0a8a456764a"),
            (13_229, "916bf86c7f333010a9f8b51eca580a404d59486424a316b6e8831585c97a0bdb"),
        ] {
            assert_eq!(hex(&data[..len]), pinned, "{len} bytes");
        }
        // All 131 short digests in one: sha256 of their concatenation.
        let all: Vec<u8> = (0..=130).flat_map(|len| digest(&data[..len])).collect();
        assert_eq!(hex(&all), "c8a8daadf720551ddd300179c81aec48309f3b47faf32814445860b8c928482e");
    }

    #[test]
    fn multi_block_message() {
        // 1,000,000 'a' bytes: the classic FIPS long-message vector.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&data), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }
}
