//! A small, fast hasher for the maps on the sample-ingestion hot path.
//!
//! Every sample looks up a handful of maps keyed by small ids: the calling context
//! tree's child maps ([`Frame`](djx_runtime::Frame)), a thread profile's site and
//! context maps ([`AllocSiteId`](crate::object::AllocSiteId),
//! [`CctNodeId`](crate::cct::CctNodeId)) and the NUMA traffic matrix (node pairs). The standard library's SipHash-1-3 spends
//! tens of nanoseconds on each of those keys; [`FxHasher`] spends one rotate, xor and
//! multiply per word (the mixing step of rustc's `FxHasher`) plus one widening multiply
//! to finish.
//!
//! # Only for ids the runtime or the profiler issues
//!
//! Unlike SipHash, the Fx step is not keyed by a secret, so whoever chooses the keys can
//! choose keys that collide and turn every lookup into a scan of one bucket chain (hash
//! flooding). The ids above are issued by the runtime (thread ids, method ids and
//! bytecode indices) or by the profiler itself (site and node ids are dense counters),
//! never picked by a peer, so [`FxHashMap`] is used for them and nothing else. Maps
//! keyed by peer-supplied or wire-decoded data — query groups and memos, the fleet
//! fold's thread names, delta folds' thread slots (the session's producer fold among
//! them) — keep the standard `RandomState`.
//!
//! The same profile types are also rebuilt from decoded wire frames (a fleet aggregator
//! folds its producers' deltas into them), so two precautions limit what a hostile
//! producer can do with crafted ids: every process draws a random seed that each hash
//! starts from, and [`Hasher::finish`] folds the full 128-bit product of the state and
//! an odd constant, so keys that agree in their low bits still spread over the table
//! and a colliding key set found for one process does not carry over to another. This
//! narrows the exposure; it is not SipHash's guarantee.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The Fx multiplier (an odd constant with well-spread bits).
const MIX: u64 = 0xf135_7aea_2e62_a9c5;
/// Odd constant of the finishing fold (the 64-bit golden ratio).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// A `HashMap` hashing its runtime-issued keys with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// An Fx-style streaming hasher; see the [module documentation](self).
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(FOLD);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

/// Builds [`FxHasher`]s starting from the process-wide random seed.
#[derive(Debug, Clone, Copy)]
pub struct FxBuildHasher {
    seed: u64,
}

impl Default for FxBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Self { seed: *SEED.get_or_init(|| RandomState::new().build_hasher().finish()) }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use djx_runtime::{Frame, MethodId, ThreadId};

    use super::*;
    use crate::cct::CctNodeId;
    use crate::object::AllocSiteId;

    fn distinct_hashes<K: std::hash::Hash>(keys: impl IntoIterator<Item = K>) -> (usize, usize) {
        let build = FxBuildHasher::default();
        let mut seen = HashSet::new();
        let mut n = 0;
        for key in keys {
            seen.insert(build.hash_one(&key));
            n += 1;
        }
        (seen.len(), n)
    }

    #[test]
    fn sequential_ids_and_distinct_frames_hash_apart() {
        let (distinct, n) = distinct_hashes((0..100_000u64).map(ThreadId));
        assert_eq!(distinct, n, "sequential thread ids");
        let (distinct, n) = distinct_hashes((0..100_000u32).map(AllocSiteId));
        assert_eq!(distinct, n, "sequential site ids");
        let (distinct, n) = distinct_hashes((0..100_000u32).map(CctNodeId));
        assert_eq!(distinct, n, "sequential node ids");
        let frames =
            (0..300u32).flat_map(|m| (0..300u32).map(move |bci| Frame::new(MethodId(m), bci)));
        let (distinct, n) = distinct_hashes(frames);
        assert_eq!(distinct, n, "distinct frames");
    }

    #[test]
    fn keys_agreeing_in_their_low_bits_spread_over_the_buckets() {
        // Site ids that are multiples of 4096 agree in their low 12 bits; a plain
        // multiplicative hash would send all of them to one bucket of a 4096-slot table.
        let build = FxBuildHasher::default();
        let buckets: HashSet<u64> =
            (0..1024u32).map(|i| build.hash_one(AllocSiteId(i << 12)) & 4095).collect();
        assert!(buckets.len() > 512, "only {} of 4096 buckets used", buckets.len());
    }

    #[test]
    fn byte_slices_hash_their_partial_last_word() {
        let build = FxBuildHasher::default();
        let hash = |bytes: &[u8]| {
            let mut hasher = build.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(hash(b"twelve bytes"), hash(b"twelve bytez"));
        assert_ne!(hash(b"twelve bytes"), hash(b"twelve by"));
        assert_eq!(hash(b"twelve bytes"), hash(b"twelve bytes"));
    }
}
