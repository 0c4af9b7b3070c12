//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! The SNP prototype used SHA-1; we use SHA-256 because it is the modern
//! equivalent and equally easy to implement.  Only the streaming interface
//! needed by the rest of the workspace is provided.
//!
//! The workspace forbids `unsafe`, so SHA-NI is out of reach; the speed comes
//! from the structure of the safe code instead:
//!
//! * blocks are compressed straight from the caller's slice
//!   (`chunks_exact(64)`); only a partial block is ever copied, into the
//!   64-byte buffer;
//! * the message schedule is a rolling 16-word window, expanded eight words
//!   at a time just before the eight rounds that consume them;
//! * rounds are unrolled eight at a time, and instead of shuffling eight
//!   variables per round each round renames the registers (`round!` writes
//!   the new `a` into the old `h` and the new `e` into the old `d`), so after
//!   eight rounds the names line up again;
//! * `finalize` writes `0x80`, the zero fill and the bit length into the
//!   buffer at once — at most two compressions;
//! * `update` returns early when a write fits in the partial buffer, and is
//!   `#[inline]`: digests across the workspace are streamed from pieces of
//!   one to eight bytes.
//!
//! Outputs are bit-identical to the textbook formulation, which the tests
//! keep as a differential oracle.

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98,
    0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8,
    0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// use snp_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), snp_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered but not yet compressed (always < 64).
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a new hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let end = self.buffer_len + data.len();
        if end < 64 {
            self.buffer[self.buffer_len..end].copy_from_slice(data);
            self.buffer_len = end;
        } else {
            self.absorb(data);
        }
    }

    /// The part of [`Sha256::update`] that compresses: complete the buffered
    /// block, compress whole blocks in place, buffer the rest.
    fn absorb(&mut self, mut data: &[u8]) {
        if self.buffer_len > 0 {
            let (head, rest) = data.split_at(64 - self.buffer_len);
            self.buffer[self.buffer_len..].copy_from_slice(head);
            compress(&mut self.state, &self.buffer);
            data = rest;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block);
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finish the hash and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        let bit_len = self.total_len.wrapping_mul(8);
        let used = self.buffer_len;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One SHA-256 round with the registers passed under rotated names: writes
/// the round's new `e` into `$d` and its new `a` into `$h`.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
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

/// Compress one 64-byte block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (i, k) in K.chunks_exact(8).enumerate() {
        // Slots `base..base + 8` of the window hold W[8i..8i + 8].  From i = 2
        // on they are expanded in place: the slot of W[n] still holds
        // W[n-16], and W[n-15], W[n-7], W[n-2] sit 1, 9 and 14 slots further
        // on (mod 16).
        let base = (i & 1) * 8;
        if i >= 2 {
            for t in base..base + 8 {
                let w15 = w[(t + 1) & 15];
                let w2 = w[(t + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[t] = w[t].wrapping_add(s0).wrapping_add(w[(t + 9) & 15]).wrapping_add(s1);
            }
        }
        let kw = |j: usize| k[j].wrapping_add(w[base + j]);
        round!(a, b, c, d, e, f, g, h, kw(0));
        round!(h, a, b, c, d, e, f, g, kw(1));
        round!(g, h, a, b, c, d, e, f, kw(2));
        round!(f, g, h, a, b, c, d, e, kw(3));
        round!(e, f, g, h, a, b, c, d, kw(4));
        round!(d, e, f, g, h, a, b, c, kw(5));
        round!(c, d, e, f, g, h, a, b, kw(6));
        round!(b, c, d, e, f, g, h, a, kw(7));
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::SplitMix;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The textbook formulation — a 64-word schedule per block, eight
    /// variables shuffled per round, byte-at-a-time padding — kept only as
    /// the oracle the optimised compressor is diffed against.
    fn textbook_sha256(data: &[u8]) -> [u8; 32] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());

        let mut state = H0;
        for block in message.chunks(64) {
            let mut w = [0u32; 64];
            for i in 0..16 {
                w[i] = u32::from_be_bytes([block[4 * i], block[4 * i + 1], block[4 * i + 2], block[4 * i + 3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let temp1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }
            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_112_byte_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn padding_edge_vectors() {
        // `b"a"` repeated n times, at the lengths where the padding spills
        // into a second block (55/56) or fills one exactly (63/64, 119/120).
        for (n, digest) in [
            (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"),
            (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
            (119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"),
            (120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"),
        ] {
            assert_eq!(hex(&sha256(&vec![b'a'; n])), digest, "n={n}");
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_across_chunk_sizes() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let expected = sha256(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 128, 1000] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Message lengths around the 55/56/64-byte padding boundaries.
        for len in 50..70usize {
            let data = vec![0xabu8; len];
            let oneshot = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), oneshot, "length {len}");
        }
    }

    #[test]
    fn matches_textbook_oracle_at_every_length_and_split() {
        // Every length 0..=1100, each fed through at most 8 `update` calls
        // split at random points; optimised builds try more splits per length.
        let splits_per_length = if cfg!(debug_assertions) { 1 } else { 8 };
        let mut rng = SplitMix(0x5eed);
        let data: Vec<u8> = (0..1100).map(|_| rng.next() as u8).collect();
        for len in 0..=data.len() {
            let message = &data[..len];
            let expected = textbook_sha256(message);
            assert_eq!(sha256(message), expected, "one-shot, length {len}");
            for _ in 0..splits_per_length {
                let mut cuts: Vec<usize> = (0..rng.below(8)).map(|_| rng.below(len + 1)).collect();
                cuts.push(len);
                cuts.sort_unstable();
                let mut h = Sha256::new();
                let mut from = 0;
                for to in cuts {
                    h.update(&message[from..to]);
                    from = to;
                }
                assert_eq!(h.finalize(), expected, "length {len}");
            }
        }
    }
}
