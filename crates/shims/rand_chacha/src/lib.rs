//! Offline stand-in for the `rand_chacha` crate: a genuine ChaCha8
//! stream used as a deterministic RNG.
//!
//! The block function is the real ChaCha quarter-round construction
//! (Bernstein 2008) at 8 rounds; only the seeding convention differs
//! from upstream `rand_chacha` (we expand a 64-bit seed with SplitMix64
//! instead of taking a 256-bit seed array), so streams are deterministic
//! within this workspace but not bit-compatible with crates.io builds.

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

/// Deterministic ChaCha8-based generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// The 16-word ChaCha input state.
    state: [u32; 16],
    /// Buffered keystream of the current block.
    block: [u32; 16],
    /// Next unread word index in `block` (16 = exhausted).
    cursor: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut w = self.state;
        for _ in 0..4 {
            // 8 rounds = 4 double-rounds of column + diagonal mixing.
            quarter_round(&mut w, 0, 4, 8, 12);
            quarter_round(&mut w, 1, 5, 9, 13);
            quarter_round(&mut w, 2, 6, 10, 14);
            quarter_round(&mut w, 3, 7, 11, 15);
            quarter_round(&mut w, 0, 5, 10, 15);
            quarter_round(&mut w, 1, 6, 11, 12);
            quarter_round(&mut w, 2, 7, 8, 13);
            quarter_round(&mut w, 3, 4, 9, 14);
        }
        for (b, (wv, sv)) in self.block.iter_mut().zip(w.iter().zip(&self.state)) {
            *b = wv.wrapping_add(*sv);
        }
        // 64-bit block counter in words 12..14.
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.cursor = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let w = self.block[self.cursor];
        self.cursor += 1;
        w
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> ChaCha8Rng {
        // Expand the seed into the 256-bit key with SplitMix64 (the same
        // convention rand 0.8 uses for seed_from_u64), reusing the rand
        // shim's implementation so the two streams cannot drift.
        let mut sm = rand::StdRng::seed_from_u64(seed);
        let mut next = || sm.next_u64();
        let mut state = [0u32; 16];
        // "expand 32-byte k" sigma constants.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..4 {
            let k = next();
            state[4 + 2 * i] = k as u32;
            state[5 + 2 * i] = (k >> 32) as u32;
        }
        // Counter (12, 13) starts at 0; nonce (14, 15) stays 0.
        ChaCha8Rng {
            state,
            block: [0; 16],
            cursor: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        lo | (hi << 32)
    }

    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn chacha_block_matches_rfc8439_structure() {
        // Sanity of the quarter round against the RFC 7539 §2.1.1 test
        // vector.
        let mut s = [0u32; 16];
        s[0] = 0x11111111;
        s[1] = 0x01020304;
        s[2] = 0x9b8d6f43;
        s[3] = 0x01234567;
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[0], 0xea2a92f4);
        assert_eq!(s[1], 0xcb1cf8ce);
        assert_eq!(s[2], 0x4581472e);
        assert_eq!(s[3], 0x5881c4bb);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(1);
        let mut c = ChaCha8Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn uniformity_smoke() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[rng.gen_range(0..4usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed counts {counts:?}");
        }
    }

    #[test]
    fn blocks_advance() {
        // More than 16 words forces a counter increment; the stream must
        // not repeat the first block.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let first: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first, second);
    }
}
