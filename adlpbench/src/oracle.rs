//! Inputs and correctness oracles computed apart from the program.
//!
//! * [`Payloads`] derives every payload from the run's seed, so the
//!   subscriber side can be checked byte for byte;
//! * [`tree_roots`] and [`mth`] compute the RFC 6962 Merkle tree hash of a
//!   log prefix, sharing only the SHA-256 primitive with the program.

use adlp_crypto::sha256::{sha256, Digest, Sha256};

/// SplitMix64: the benchmark's own seeded generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Deterministic payloads: publication `i` of stream `stream` is the same
/// bytes for the same seed, whichever order they are asked for.
#[derive(Debug, Clone)]
pub struct Payloads {
    seed: u64,
    len: usize,
}

impl Payloads {
    pub fn new(seed: u64, len: usize) -> Self {
        Payloads { seed, len }
    }

    pub fn get(&self, stream: u64, i: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(
            self.seed
                ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)
                ^ i.wrapping_mul(0xe703_7ed1_a0b4_28db),
        );
        let mut out = Vec::with_capacity(self.len + 8);
        while out.len() < self.len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(self.len);
        out
    }
}

fn leaf(record_digest: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(record_digest.as_bytes());
    h.finalize()
}

fn node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// RFC 6962 §2.1 `MTH` over leaf data `d[0..n]`, by its recursive
/// definition: split at the largest power of two below `n`. Leaf data are
/// the records' SHA-256 digests, which is what the log commits to.
pub fn mth(d: &[Digest]) -> Option<Digest> {
    match d {
        [] => None,
        [one] => Some(leaf(one)),
        _ => {
            // The largest power of two strictly below n (n >= 2 here).
            let k = 1usize << (usize::BITS - 1 - (d.len() - 1).leading_zeros());
            let (l, r) = d.split_at(k);
            Some(node(&mth(l)?, &mth(r)?))
        }
    }
}

/// RFC 6962 roots of every prefix size in `sizes` (ascending) of the log
/// whose encoded records are `records`, in one pass: a frontier of perfect
/// subtrees is folded right to left at each requested size.
pub fn tree_roots(records: &[Vec<u8>], sizes: &[u64]) -> Vec<Option<Digest>> {
    let mut frontier: Vec<(u32, Digest)> = Vec::new();
    let mut out = Vec::with_capacity(sizes.len());
    let mut wanted = sizes.iter().peekable();
    let mut n = 0u64;
    while let Some(&&size) = wanted.peek() {
        if n == size {
            let mut acc: Option<Digest> = None;
            for (_, h) in frontier.iter().rev() {
                acc = Some(match acc {
                    None => *h,
                    Some(right) => node(h, &right),
                });
            }
            out.push(acc);
            wanted.next();
            continue;
        }
        let Some(record) = records.get(n as usize) else {
            // The log is shorter than a size a head claimed.
            out.push(None);
            wanted.next();
            continue;
        };
        let mut item = (0u32, leaf(&sha256(record)));
        while let Some(&(height, top)) = frontier.last() {
            if height != item.0 {
                break;
            }
            frontier.pop();
            item = (height + 1, node(&top, &item.1));
        }
        frontier.push(item);
        n += 1;
    }
    out
}
