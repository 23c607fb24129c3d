//! Deterministic and OS-seeded key sources.
//!
//! The experiments in Section 5 of the paper replay *the same three
//! join/leave request sequences* across every strategy, degree and group
//! size "for fair comparisons". Determinism therefore matters end to end:
//! [`HmacDrbg`] is an HMAC-SHA-256 DRBG (modelled on NIST SP 800-90A) that
//! makes key generation reproducible given a seed, while [`OsKeySource`]
//! wraps `rand`'s thread RNG for non-experiment use.
//!
//! Every HMAC the generator computes is keyed with its current `K`, and
//! `K` changes only inside Update. The generator therefore keeps one
//! [`Hmac`] with both key pads absorbed and clones it per HMAC, so an HMAC
//! over the 32-byte `V` costs two SHA-256 compressions instead of four. A
//! `generate(8)` (a key) is 8 compressions: one HMAC for the output block,
//! then Update's HMAC for the new `K`, the two pads of the new `K`, and the
//! HMAC for the new `V`. A 256-byte draw (32 DES IVs) is 22. Every output
//! byte and every `state()` equals what the uncached generator produces;
//! the `reference` oracle in this module's tests is that generator.

use crate::hmac::Hmac;
use crate::sha256::Sha256;
use crate::KeySource;
use rand::RngCore;

const DIGEST_LEN: usize = 32;

/// HMAC-SHA-256 deterministic random bit generator.
///
/// Follows the Update/Generate skeleton of NIST SP 800-90A HMAC_DRBG
/// (without the personalization/reseed machinery, which experiments don't
/// need). Two instances with the same seed produce identical key streams.
#[derive(Clone)]
pub struct HmacDrbg {
    k: [u8; DIGEST_LEN],
    v: [u8; DIGEST_LEN],
    /// An HMAC keyed with `k` and fed nothing: every HMAC under `k` starts
    /// from a clone of it. Rebuilt only where Update replaces `k`.
    keyed: Hmac<Sha256>,
}

impl HmacDrbg {
    /// Instantiate from arbitrary seed material.
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg::from_state([0u8; DIGEST_LEN], [1u8; DIGEST_LEN]);
        drbg.update(Some(seed));
        drbg
    }

    /// Instantiate from a `u64` seed (convenience for experiment configs).
    pub fn from_seed(seed: u64) -> Self {
        HmacDrbg::new(&seed.to_be_bytes())
    }

    /// Export the internal `(K, V)` working state.
    ///
    /// Together with [`from_state`](Self::from_state) this lets a
    /// persistence layer checkpoint a generator mid-stream and resume it
    /// byte-for-byte — required for deterministic crash recovery, where
    /// replaying logged operations must regenerate exactly the keys the
    /// pre-crash server generated. The state is as sensitive as the keys
    /// it will produce; callers must store it accordingly.
    pub fn state(&self) -> ([u8; 32], [u8; 32]) {
        (self.k, self.v)
    }

    /// Rebuild a generator from a state exported by [`state`](Self::state).
    /// The restored instance continues the original's output stream.
    pub fn from_state(k: [u8; 32], v: [u8; 32]) -> Self {
        HmacDrbg { k, v, keyed: Hmac::new(&k) }
    }

    /// `HMAC(K, parts[0] ‖ parts[1] ‖ …)`.
    fn mac(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut mac = self.keyed.clone();
        for part in parts {
            mac.update(part);
        }
        mac.finalize().try_into().expect("SHA-256 outputs 32 bytes")
    }

    /// SP 800-90A's Update: one step, and a second when there is
    /// provided data.
    fn update(&mut self, provided: Option<&[u8]>) {
        self.update_step(0x00, provided.unwrap_or_default());
        if let Some(p) = provided {
            self.update_step(0x01, p);
        }
    }

    /// `K = HMAC(K, V ‖ separator ‖ provided)`, then `V = HMAC(K, V)`
    /// under the new `K`.
    fn update_step(&mut self, separator: u8, provided: &[u8]) {
        self.k = self.mac(&[&self.v, &[separator], provided]);
        self.keyed = Hmac::new(&self.k);
        self.v = self.mac(&[&self.v]);
    }

    /// Fill `out` with deterministic pseudorandom bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for block in out.chunks_mut(DIGEST_LEN) {
            self.v = self.mac(&[&self.v]);
            block.copy_from_slice(&self.v[..block.len()]);
        }
        self.update(None);
    }
}

impl KeySource for HmacDrbg {
    fn generate(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.fill(&mut out);
        out
    }
}

impl RngCore for HmacDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill(&mut b);
        u32::from_be_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.fill(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill(dest);
        Ok(())
    }
}

/// Key source backed by the OS RNG (via `rand::rngs::OsRng`).
#[derive(Debug, Default, Clone, Copy)]
pub struct OsKeySource;

impl KeySource for OsKeySource {
    fn generate(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        rand::rngs::OsRng.fill_bytes(&mut out);
        out
    }
}

/// The generator before it kept its keyed state: `K` and `V` as vectors,
/// and every HMAC built from the key, absorbing both pads, with the outer
/// pad absorbed only when the MAC is finished. Kept as the oracle the
/// cached generator is tested against.
#[cfg(test)]
mod reference {
    use crate::sha256::Sha256;
    use crate::Digest;

    /// RFC 2104 HMAC-SHA-256 under a key of at most one block.
    fn hmac(key: &[u8], message: &[u8]) -> Vec<u8> {
        let mut k = [0u8; 64];
        k[..key.len()].copy_from_slice(key);
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        inner.update(message);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        outer.update(&inner_digest);
        outer.finalize()
    }

    pub struct HmacDrbg {
        k: Vec<u8>,
        v: Vec<u8>,
    }

    impl HmacDrbg {
        pub fn new(seed: &[u8]) -> Self {
            let mut drbg = HmacDrbg { k: vec![0u8; 32], v: vec![1u8; 32] };
            drbg.update(Some(seed));
            drbg
        }

        pub fn state(&self) -> ([u8; 32], [u8; 32]) {
            (self.k.clone().try_into().unwrap(), self.v.clone().try_into().unwrap())
        }

        pub fn from_state(k: [u8; 32], v: [u8; 32]) -> Self {
            HmacDrbg { k: k.to_vec(), v: v.to_vec() }
        }

        fn update(&mut self, provided: Option<&[u8]>) {
            let mut material = self.v.clone();
            material.push(0x00);
            if let Some(p) = provided {
                material.extend_from_slice(p);
            }
            self.k = hmac(&self.k, &material);
            self.v = hmac(&self.k, &self.v);
            if let Some(p) = provided {
                let mut material = self.v.clone();
                material.push(0x01);
                material.extend_from_slice(p);
                self.k = hmac(&self.k, &material);
                self.v = hmac(&self.k, &self.v);
            }
        }

        pub fn fill(&mut self, out: &mut [u8]) {
            let mut written = 0;
            while written < out.len() {
                self.v = hmac(&self.k, &self.v);
                let take = (out.len() - written).min(32);
                out[written..written + take].copy_from_slice(&self.v[..take]);
                written += take;
            }
            self.update(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random draw sequences, each holding the sizes the server draws —
        /// a key (8), a derivation code (16), chunks of 8, 32 and 128 DES
        /// IVs as rekey IVs were once drawn (64, 256, 1,024) — at random
        /// positions, with
        /// `from_state` round trips at random points: the same bytes and
        /// the same `state()` as the reference after every draw.
        #[test]
        fn draws_match_the_uncached_reference(
            seed in proptest::collection::vec(0u8.., 0..80),
            random_lens in proptest::collection::vec(0usize..=1100, 0..12),
            positions in proptest::collection::vec(0usize..=16, 5),
            restore_mask: u32,
        ) {
            let mut lens = random_lens;
            for (len, at) in [8, 16, 64, 256, 1024].into_iter().zip(positions) {
                lens.insert(at.min(lens.len()), len);
            }
            let mut ours = HmacDrbg::new(&seed);
            let mut theirs = reference::HmacDrbg::new(&seed);
            proptest::prop_assert_eq!(ours.state(), theirs.state());
            for (i, len) in lens.into_iter().enumerate() {
                if restore_mask >> (i % 32) & 1 == 1 {
                    let (k, v) = ours.state();
                    ours = HmacDrbg::from_state(k, v);
                    theirs = reference::HmacDrbg::from_state(k, v);
                }
                let mut theirs_out = vec![0u8; len];
                theirs.fill(&mut theirs_out);
                proptest::prop_assert_eq!(ours.generate(len), theirs_out, "draw {} of {} bytes", i, len);
                proptest::prop_assert_eq!(ours.state(), theirs.state());
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = HmacDrbg::from_seed(7);
        let mut b = HmacDrbg::from_seed(7);
        assert_eq!(a.generate(64), b.generate(64));
        assert_eq!(a.generate(13), b.generate(13));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::from_seed(1);
        let mut b = HmacDrbg::from_seed(2);
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn successive_outputs_differ() {
        let mut d = HmacDrbg::from_seed(3);
        let x = d.generate(16);
        let y = d.generate(16);
        assert_ne!(x, y);
    }

    #[test]
    fn generate_key_has_requested_length() {
        let mut d = HmacDrbg::from_seed(4);
        use crate::KeySource;
        assert_eq!(d.generate_key(8).len(), 8);
        assert_eq!(d.generate_key(24).len(), 24);
    }

    #[test]
    fn long_fill_crosses_block_boundaries() {
        let mut a = HmacDrbg::from_seed(5);
        let mut b = HmacDrbg::from_seed(5);
        let long = a.generate(100);
        // Same stream consumed in one go vs. not chunked differently —
        // HMAC-DRBG regenerates per request, so request sizes matter; the
        // invariant we rely on is *whole-request* determinism:
        assert_eq!(long, b.generate(100));
        assert_eq!(long.len(), 100);
    }

    #[test]
    fn rng_core_interface() {
        let mut d = HmacDrbg::from_seed(6);
        let a = d.next_u64();
        let b = d.next_u64();
        assert_ne!(a, b);
        let mut buf = [0u8; 7];
        d.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 7]);
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut original = HmacDrbg::from_seed(42);
        original.generate(100); // advance mid-stream
        let (k, v) = original.state();
        let mut restored = HmacDrbg::from_state(k, v);
        assert_eq!(original.generate(64), restored.generate(64));
        assert_eq!(original.generate(7), restored.generate(7));
    }

    #[test]
    fn os_key_source_produces_distinct_keys() {
        let mut s = OsKeySource;
        use crate::KeySource;
        assert_ne!(s.generate(16), s.generate(16));
    }

    #[test]
    fn byte_distribution_sanity() {
        // Crude sanity check: over 64 KiB, every byte value should appear.
        let mut d = HmacDrbg::from_seed(8);
        let data = d.generate(65536);
        let mut seen = [false; 256];
        for &b in &data {
            seen[b as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
