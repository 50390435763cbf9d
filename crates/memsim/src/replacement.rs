//! Pluggable cache replacement: the eviction decision behind both the
//! demand hierarchy ([`crate::cache::Cache`]) and the DRAM write cache
//! ([`crate::writecache::WriteCache`]).
//!
//! The split mirrors a database buffer pool: the frame table owns
//! validity, tags and dirty bits, while a small [`ReplacementPolicy`]
//! trait owns *which occupied slot to give up*. Policies see caches as a
//! grid of `(set, way)` slots and are told about hits ([`touch`]), fills
//! ([`insert`]) and explicit removals ([`evict`]); [`victim`] picks among
//! the slots currently occupied. A fully-associative structure like the
//! write cache is simply `sets = 1`.
//!
//! Three classic policies are provided — true-LRU (bit-for-bit the
//! behaviour the hierarchy had when LRU was hard-coded), Clock
//! (second-chance, one reference bit per slot and a sweeping hand) and 2Q
//! (a probationary FIFO for once-touched lines plus an LRU main queue for
//! re-referenced ones) — registered in the [`PolicySelect`] registry.
//! Like `pcm_schemes::SchemeSelect`, it is declared with
//! [`pcm_types::registry!`], which generates `ALL`, `tag()`, `Display` and
//! `FromStr` from one table; `instantiate()` is an exhaustive `match`.
//!
//! [`touch`]: ReplacementPolicy::touch
//! [`insert`]: ReplacementPolicy::insert
//! [`evict`]: ReplacementPolicy::evict
//! [`victim`]: ReplacementPolicy::victim

use std::fmt;

/// The eviction decision for a set-associative slot grid.
///
/// Contract: the owning cache calls [`insert`](Self::insert) when a slot
/// becomes occupied, [`touch`](Self::touch) on every hit,
/// [`evict`](Self::evict) when a slot is emptied *without* an immediate
/// refill (e.g. a write-cache drain), and [`victim`](Self::victim) only
/// when it needs to sacrifice an occupied slot. Overwriting a victim via
/// a fresh `insert` needs no intervening `evict`.
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Record a hit on an occupied slot.
    fn touch(&mut self, set: usize, way: usize);

    /// Record a fill: the slot is now occupied and most-recently used.
    /// Resets any per-slot policy state left by a previous tenant.
    fn insert(&mut self, set: usize, way: usize);

    /// Record an explicit removal: the slot is empty until re-inserted
    /// and must not be returned by [`victim`](Self::victim).
    fn evict(&mut self, set: usize, way: usize);

    /// Choose the occupied way in `set` to sacrifice. Returns way 0 if
    /// the set is empty (the caller never asks in that state).
    fn victim(&mut self, set: usize) -> usize;

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Clone into a fresh box (lets caches stay `Clone`).
    fn clone_box(&self) -> Box<dyn ReplacementPolicy>;
}

impl Clone for Box<dyn ReplacementPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// True-LRU: a monotone stamp per slot, victim is the first occupied slot
/// with the minimal stamp — exactly the `min_by_key` the hierarchy used
/// when LRU was hard-coded, so the default policy is bit-for-bit
/// unchanged.
#[derive(Clone, Debug)]
pub struct LruPolicy {
    assoc: usize,
    stamp: Vec<u64>,
    present: Vec<bool>,
    tick: u64,
}

impl LruPolicy {
    /// A policy for `sets × assoc` slots, all initially empty.
    pub fn new(sets: usize, assoc: usize) -> Self {
        LruPolicy {
            assoc,
            stamp: vec![0; sets * assoc],
            present: vec![false; sets * assoc],
            tick: 0,
        }
    }
}

impl ReplacementPolicy for LruPolicy {
    fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.stamp[set * self.assoc + way] = self.tick;
    }

    fn insert(&mut self, set: usize, way: usize) {
        self.tick += 1;
        let i = set * self.assoc + way;
        self.stamp[i] = self.tick;
        self.present[i] = true;
    }

    fn evict(&mut self, set: usize, way: usize) {
        self.present[set * self.assoc + way] = false;
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        (0..self.assoc)
            .filter(|w| self.present[base + w])
            .min_by_key(|w| self.stamp[base + w])
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "LRU"
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// Clock (second-chance): one reference bit per slot, a hand per set.
/// The hand sweeps occupied slots, clearing reference bits; the first
/// unreferenced occupied slot it meets is the victim, so anything touched
/// since the last sweep survives one more revolution.
#[derive(Clone, Debug)]
pub struct ClockPolicy {
    assoc: usize,
    referenced: Vec<bool>,
    present: Vec<bool>,
    hand: Vec<usize>,
}

impl ClockPolicy {
    /// A policy for `sets × assoc` slots, all initially empty.
    pub fn new(sets: usize, assoc: usize) -> Self {
        ClockPolicy {
            assoc,
            referenced: vec![false; sets * assoc],
            present: vec![false; sets * assoc],
            hand: vec![0; sets],
        }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn touch(&mut self, set: usize, way: usize) {
        self.referenced[set * self.assoc + way] = true;
    }

    fn insert(&mut self, set: usize, way: usize) {
        let i = set * self.assoc + way;
        self.referenced[i] = true;
        self.present[i] = true;
    }

    fn evict(&mut self, set: usize, way: usize) {
        let i = set * self.assoc + way;
        self.present[i] = false;
        self.referenced[i] = false;
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        if !(0..self.assoc).any(|w| self.present[base + w]) {
            return 0;
        }
        // At most two sweeps: the first clears every reference bit, the
        // second must find an unreferenced occupied slot.
        for _ in 0..2 * self.assoc {
            let w = self.hand[set];
            self.hand[set] = (w + 1) % self.assoc;
            if !self.present[base + w] {
                continue;
            }
            if self.referenced[base + w] {
                self.referenced[base + w] = false;
            } else {
                return w;
            }
        }
        0
    }

    fn name(&self) -> &'static str {
        "Clock"
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// Per-slot queue membership for [`TwoQPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TwoQState {
    /// Slot is empty.
    Empty,
    /// Probationary FIFO: inserted, never re-referenced.
    A1,
    /// Main queue: re-referenced at least once, managed LRU.
    Am,
}

/// Simplified 2Q (Johnson & Shasha, VLDB'94): fresh fills enter a
/// probationary FIFO (`A1`); a hit promotes the slot to the main LRU
/// queue (`Am`). Victims come from the oldest `A1` slot while one exists
/// — so a line re-referenced since its fill is never sacrificed ahead of
/// a one-touch wonder — and only then from the LRU end of `Am`.
#[derive(Clone, Debug)]
pub struct TwoQPolicy {
    assoc: usize,
    state: Vec<TwoQState>,
    stamp: Vec<u64>,
    tick: u64,
}

impl TwoQPolicy {
    /// A policy for `sets × assoc` slots, all initially empty.
    pub fn new(sets: usize, assoc: usize) -> Self {
        TwoQPolicy {
            assoc,
            state: vec![TwoQState::Empty; sets * assoc],
            stamp: vec![0; sets * assoc],
            tick: 0,
        }
    }

    fn oldest(&self, set: usize, want: TwoQState) -> Option<usize> {
        let base = set * self.assoc;
        (0..self.assoc)
            .filter(|w| self.state[base + w] == want)
            .min_by_key(|w| self.stamp[base + w])
    }
}

impl ReplacementPolicy for TwoQPolicy {
    fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        let i = set * self.assoc + way;
        self.state[i] = TwoQState::Am;
        self.stamp[i] = self.tick;
    }

    fn insert(&mut self, set: usize, way: usize) {
        self.tick += 1;
        let i = set * self.assoc + way;
        self.state[i] = TwoQState::A1;
        self.stamp[i] = self.tick;
    }

    fn evict(&mut self, set: usize, way: usize) {
        self.state[set * self.assoc + way] = TwoQState::Empty;
    }

    fn victim(&mut self, set: usize) -> usize {
        self.oldest(set, TwoQState::A1)
            .or_else(|| self.oldest(set, TwoQState::Am))
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "2Q"
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

pcm_types::registry! {
    /// Which replacement policy a cache instantiates, by tag (CLI / JSON).
    /// `ALL` lists every policy in presentation order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
    pub enum PolicySelect: "policy" {
        /// True-LRU — the hierarchy's historical (and default) behaviour.
        #[default]
        Lru => "lru" | "least-recently-used",
        /// Clock / second-chance.
        Clock => "clock" | "second-chance",
        /// 2Q: probationary FIFO + main LRU queue.
        TwoQ => "2q" | "twoq" | "two-queue",
    }
}

impl PolicySelect {
    /// Construct the policy this tag selects, sized for `sets × assoc`
    /// slots. The single factory every cache goes through.
    pub fn instantiate(&self, sets: usize, assoc: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicySelect::Lru => Box::new(LruPolicy::new(sets, assoc)),
            PolicySelect::Clock => Box::new(ClockPolicy::new(sets, assoc)),
            PolicySelect::TwoQ => Box::new(TwoQPolicy::new(sets, assoc)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `(set=0, assoc=4)` through fills of ways 0..4.
    fn filled(p: &mut dyn ReplacementPolicy) {
        for w in 0..4 {
            p.insert(0, w);
        }
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut p = LruPolicy::new(1, 4);
        filled(&mut p);
        p.touch(0, 0); // order now: 1, 2, 3, 0
        assert_eq!(p.victim(0), 1);
        p.touch(0, 1);
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn lru_evict_frees_the_slot() {
        let mut p = LruPolicy::new(1, 4);
        filled(&mut p);
        p.evict(0, 0); // oldest slot emptied — not a victim candidate
        assert_eq!(p.victim(0), 1);
        p.insert(0, 0); // refilled — now the newest
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn clock_grants_second_chance() {
        let mut p = ClockPolicy::new(1, 4);
        filled(&mut p);
        // Every slot is referenced; the first sweep clears 0..3 and the
        // second evicts way 0.
        assert_eq!(p.victim(0), 0);
        p.insert(0, 0);
        // Way 1's bit was cleared by the sweep; an untouched way 1 is the
        // next victim, but a re-referenced one survives.
        p.touch(0, 1);
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn clock_skips_emptied_slots() {
        let mut p = ClockPolicy::new(1, 4);
        filled(&mut p);
        p.evict(0, 0);
        let v = p.victim(0);
        assert_ne!(v, 0);
        assert!(v < 4);
    }

    #[test]
    fn two_q_sacrifices_probation_before_main() {
        let mut p = TwoQPolicy::new(1, 4);
        filled(&mut p);
        p.touch(0, 0); // promote way 0 to Am
                       // Oldest A1 slot is way 1 — the re-referenced way 0 survives.
        assert_eq!(p.victim(0), 1);
        p.touch(0, 1);
        p.touch(0, 2);
        p.touch(0, 3);
        // All promoted: fall back to LRU over Am — way 0 is now oldest.
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn registry_instantiates_every_policy() {
        for (sel, name) in [
            (PolicySelect::Lru, "LRU"),
            (PolicySelect::Clock, "Clock"),
            (PolicySelect::TwoQ, "2Q"),
        ] {
            assert_eq!(sel.instantiate(4, 2).name(), name, "select {sel:?}");
        }
    }

    #[test]
    fn default_policy_is_lru() {
        assert_eq!(PolicySelect::default(), PolicySelect::Lru);
    }

    #[test]
    fn fromstr_accepts_aliases_case_insensitively() {
        for (alias, want) in [
            ("LRU", PolicySelect::Lru),
            ("least-recently-used", PolicySelect::Lru),
            ("Second-Chance", PolicySelect::Clock),
            ("2Q", PolicySelect::TwoQ),
            ("two-queue", PolicySelect::TwoQ),
        ] {
            assert_eq!(alias.parse::<PolicySelect>(), Ok(want), "{alias}");
        }
        let err = "bogus".parse::<PolicySelect>().unwrap_err();
        assert_eq!(err.input, "bogus");
        // The message is derived from ALL — every canonical tag appears.
        for p in PolicySelect::ALL {
            assert!(err.to_string().contains(p.tag()), "lists {}", p.tag());
        }
    }

    pcm_types::propcheck! {
        /// Display → FromStr is the identity over the whole registry,
        /// in any ASCII case.
        fn display_fromstr_roundtrip(i in 0usize..PolicySelect::ALL.len(), upper in pcm_types::propcheck::any_bool()) {
            let policy = PolicySelect::ALL[i];
            let mut tag = policy.to_string();
            pcm_types::prop_assert_eq!(tag.as_str(), policy.tag());
            if upper {
                tag = tag.to_ascii_uppercase();
            }
            pcm_types::prop_assert_eq!(tag.parse::<PolicySelect>(), Ok(policy));
        }

        /// Whatever the interleaving of fills/touches/evicts, `victim`
        /// never names an emptied slot and stays within the set.
        fn victim_is_always_an_occupied_slot(seed in pcm_types::propcheck::any_u64()) {
            let mut rng = pcm_types::rng::SplitMix64::new(seed);
            for sel in PolicySelect::ALL {
                let (sets, assoc) = (2usize, 4usize);
                let mut p = sel.instantiate(sets, assoc);
                let mut occupied = vec![false; sets * assoc];
                for _ in 0..64 {
                    let set = (rng.next_u64() % sets as u64) as usize;
                    let way = (rng.next_u64() % assoc as u64) as usize;
                    match rng.next_u64() % 3 {
                        0 => {
                            p.insert(set, way);
                            occupied[set * assoc + way] = true;
                        }
                        1 if occupied[set * assoc + way] => p.touch(set, way),
                        2 if occupied[set * assoc + way] => {
                            p.evict(set, way);
                            occupied[set * assoc + way] = false;
                        }
                        _ => {}
                    }
                    if occupied[set * assoc..(set + 1) * assoc].iter().any(|o| *o) {
                        let v = p.victim(set);
                        pcm_types::prop_assert!(v < assoc, "{sel}: victim in range");
                        pcm_types::prop_assert!(
                            occupied[set * assoc + v],
                            "{sel}: victim {v} in set {set} is occupied"
                        );
                    }
                }
            }
        }
    }
}
