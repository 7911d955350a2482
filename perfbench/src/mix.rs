//! Seeded input orders: the order of the paper-sweep rank traces and the
//! serve-mixed request sequence. Everything here is a pure function of the
//! benchmark seed, so the same seed replays the same inputs.

use std::collections::VecDeque;

/// SplitMix64: a small, fixed generator, so the inputs stay the same even if
/// a random-number crate the repository uses changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        items.swap(i, rng.below(i + 1));
    }
    items
}

/// The paper-sweep operation order over `hf` HF and `ccsd` CCSD rank traces.
/// Every third operation is an HF rank and the other two are CCSD ranks,
/// each kernel walking its own seeded permutation. The two kernels' sweep
/// times form two clusters (HF is slower); an unequal 1:2 share keeps both
/// reported percentiles inside a cluster rather than on the gap between.
pub struct SweepOrder {
    hf: Vec<usize>,
    ccsd: Vec<usize>,
}

/// Which trace one sweep operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepInput {
    Hf(usize),
    Ccsd(usize),
}

impl SweepOrder {
    pub fn new(seed: u64, hf: usize, ccsd: usize) -> Self {
        let mut rng = Rng::new(seed);
        SweepOrder {
            hf: permutation(hf, &mut rng),
            ccsd: permutation(ccsd, &mut rng),
        }
    }

    /// Input of operation `i`.
    pub fn input(&self, i: usize) -> SweepInput {
        let block = i / 3;
        match i % 3 {
            0 => SweepInput::Hf(self.hf[block % self.hf.len()]),
            slot => SweepInput::Ccsd(self.ccsd[(2 * block + slot - 1) % self.ccsd.len()]),
        }
    }

    /// Operations that run every HF rank once and every CCSD rank twice, so
    /// a mean over this many leading operations covers the same inputs for
    /// every seed.
    pub fn full_cover(&self) -> usize {
        3 * self.hf.len().max(self.ccsd.len().div_ceil(2))
    }
}

/// Heuristics a serve-mixed request picks from.
pub const SERVE_HEURISTICS: [&str; 4] = ["OOMAMR", "OOLCMR", "MAMR", "DOCPS"];

/// Requests per block; exactly one of each block repeats an earlier key.
pub const REPEAT_EVERY: usize = 4;

/// How far back (in requests) a repeat may reach. It matches the daemon's
/// default cache bound: fewer than this many distinct keys can be sent in
/// this many requests, so a repeated key is still cached under LRU.
pub const REPEAT_WINDOW: usize = 512;

/// One serve-mixed request: inline trace, heuristic and capacity factor,
/// each as an index into the workload's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey {
    pub trace: u16,
    pub heuristic: u8,
    pub factor: u8,
}

/// A request of the sequence and whether it repeats a recent key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedRequest {
    pub seq: usize,
    pub key: RequestKey,
    pub repeat: bool,
}

/// The serve-mixed request sequence. Fresh keys walk a seeded permutation of
/// every (trace, heuristic, factor) combination, so a fresh key was last
/// sent a full permutation ago (or never) and misses the cache. In each
/// block of [`REPEAT_EVERY`] requests one seeded slot, never the first,
/// instead repeats the key of a seeded earlier request within the last
/// [`REPEAT_WINDOW`], which the daemon still holds: a cache hit.
pub struct RequestMix {
    rng: Rng,
    keys: Vec<RequestKey>,
    next_fresh: usize,
    recent: VecDeque<RequestKey>,
    repeat_slot: usize,
    seq: usize,
}

impl RequestMix {
    pub fn new(seed: u64, traces: usize, factors: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x5e7e_1234_abcd_0001);
        let heuristics = SERVE_HEURISTICS.len();
        let all = traces * heuristics * factors;
        let keys = permutation(all, &mut rng)
            .into_iter()
            .map(|k| RequestKey {
                trace: u16::try_from(k / (heuristics * factors)).expect("trace count fits u16"),
                heuristic: ((k / factors) % heuristics) as u8,
                factor: (k % factors) as u8,
            })
            .collect();
        RequestMix {
            rng,
            keys,
            next_fresh: 0,
            recent: VecDeque::with_capacity(REPEAT_WINDOW),
            repeat_slot: 0,
            seq: 0,
        }
    }
}

impl Iterator for RequestMix {
    type Item = MixedRequest;

    fn next(&mut self) -> Option<MixedRequest> {
        let seq = self.seq;
        if seq.is_multiple_of(REPEAT_EVERY) {
            self.repeat_slot = 1 + self.rng.below(REPEAT_EVERY - 1);
        }
        let repeat = seq % REPEAT_EVERY == self.repeat_slot;
        let key = if repeat {
            self.recent[self.rng.below(self.recent.len())]
        } else {
            let key = self.keys[self.next_fresh % self.keys.len()];
            self.next_fresh += 1;
            key
        };
        if self.recent.len() == REPEAT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(key);
        self.seq += 1;
        Some(MixedRequest { seq, key, repeat })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(50, &mut Rng::new(3));
        let b = permutation(50, &mut Rng::new(3));
        let c = permutation(50, &mut Rng::new(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_order_is_one_hf_to_two_ccsd_and_covers_every_rank() {
        let order = SweepOrder::new(9, 150, 150);
        assert_eq!(order.full_cover(), 450);
        let mut hf = vec![0; 150];
        let mut ccsd = vec![0; 150];
        for i in 0..order.full_cover() {
            match order.input(i) {
                SweepInput::Hf(r) => hf[r] += 1,
                SweepInput::Ccsd(r) => ccsd[r] += 1,
            }
        }
        assert!(hf.iter().all(|&n| n == 1));
        assert!(ccsd.iter().all(|&n| n == 2));
        let again = SweepOrder::new(9, 150, 150);
        assert!((0..1000).all(|i| order.input(i) == again.input(i)));
    }

    #[test]
    fn request_mix_is_deterministic_per_seed() {
        let a: Vec<_> = RequestMix::new(7, 300, 9).take(5000).collect();
        let b: Vec<_> = RequestMix::new(7, 300, 9).take(5000).collect();
        let c: Vec<_> = RequestMix::new(8, 300, 9).take(5000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().enumerate().all(|(i, r)| r.seq == i));
    }

    #[test]
    fn exactly_one_request_in_four_repeats_a_recent_key() {
        for seed in [0, 1, 7, 42, 1 << 40] {
            let requests: Vec<_> = RequestMix::new(seed, 300, 9).take(12_000).collect();
            for block in requests.chunks(REPEAT_EVERY) {
                assert_eq!(block.iter().filter(|r| r.repeat).count(), 1);
                assert!(!block[0].repeat);
            }
            let mut last_sent: HashMap<RequestKey, usize> = HashMap::new();
            for r in &requests {
                let previous = last_sent.insert(r.key, r.seq);
                if r.repeat {
                    let gap = r.seq - previous.expect("a repeat names a sent key");
                    assert!(gap <= REPEAT_WINDOW, "seed {seed}: repeat {gap} back");
                } else if let Some(p) = previous {
                    // A fresh key is only ever re-sent a full permutation
                    // later, long after the cache evicted it.
                    assert!(
                        r.seq - p > 5 * REPEAT_WINDOW,
                        "seed {seed}: fresh key re-sent"
                    );
                }
            }
        }
    }
}
