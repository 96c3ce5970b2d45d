//! The one lock-striped, admission-capped map behind every process-wide
//! cache tier of a service (the two maps of [`crate::SharedNonemptyCache`]
//! and the two of [`crate::SharedExecCache`]).

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// Number of lock stripes, `2^STRIPE_BITS`: small enough to stay
/// cache-friendly, large enough that 8 workers rarely collide.
const STRIPE_BITS: u32 = 4;
pub(crate) const STRIPES: usize = 1 << STRIPE_BITS;

/// `STRIPES` `RwLock`ed stripes picked by key hash, plus a hit counter.
/// Bounded, not evicting: a stripe holding `stripe_cap` entries stops
/// admitting new keys (entries already present keep serving hits and can
/// still be upgraded; fresh work just re-computes), so a long-lived service
/// under a diverse or adversarial query stream cannot grow without bound.
/// Entries are facts about one immutable snapshot; a held value is replaced
/// only by one its tier's admission rule ranks above it (see
/// [`StripedMap::admit`]), so a reader never sees an entry lose an answer it
/// could already give.
///
/// Keys are hashed once per call, with SipHash under the map's own random
/// keys: the high bits of that hash pick the stripe and the whole hash
/// addresses the entry inside it. Keys are request text, so neither the
/// stripe nor the slot of a key can be predicted from outside, and a
/// request stream cannot pile its keys onto one stripe to fill its cap.
#[derive(Debug)]
pub(crate) struct StripedMap<K, V> {
    hasher: RandomState,
    stripes: Vec<RwLock<Stripe<K, V>>>,
    stripe_cap: usize,
    hits: AtomicUsize,
}

/// One stripe: entries by their keyed hash. Two keys with one 64-bit hash
/// are possible but never chosen from outside (the hash keys are secret);
/// the later one waits in `collided`.
#[derive(Debug)]
struct Stripe<K, V> {
    map: HashMap<u64, (K, V), BuildHasherDefault<Prehashed>>,
    collided: Vec<(u64, K, V)>,
}

impl<K: Eq, V> Stripe<K, V> {
    fn len(&self) -> usize {
        self.map.len() + self.collided.len()
    }

    fn find(&self, hash: u64, is: impl Fn(&K) -> bool) -> Option<&V> {
        match self.map.get(&hash) {
            Some((k, v)) if is(k) => Some(v),
            Some(_) => self
                .collided
                .iter()
                .find(|(h, k, _)| *h == hash && is(k))
                .map(|(_, _, v)| v),
            None => None,
        }
    }
}

/// The identity hasher of a stripe's map, whose keys already are keyed
/// hashes. Rotated so that the stripe bits, equal for every key of a
/// stripe, land in the middle of the word: the map reads its bucket index
/// from the low bits and its control tag from the top ones.
#[derive(Debug, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a stripe map is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash.rotate_left(32);
    }
}

impl<K: Hash + Eq, V: Clone> StripedMap<K, V> {
    pub(crate) fn new(stripe_cap: usize) -> Self {
        StripedMap {
            hasher: RandomState::new(),
            stripes: (0..STRIPES)
                .map(|_| {
                    RwLock::new(Stripe {
                        map: HashMap::default(),
                        collided: Vec::new(),
                    })
                })
                .collect(),
            stripe_cap,
            hits: AtomicUsize::new(0),
        }
    }

    /// The keyed hash of `key` and the stripe it picks.
    fn locate<Q: Hash + ?Sized>(&self, key: &Q) -> (u64, &RwLock<Stripe<K, V>>) {
        let hash = self.hasher.hash_one(key);
        (hash, &self.stripes[(hash >> (64 - STRIPE_BITS)) as usize])
    }

    /// Entries currently held, over all stripes.
    pub(crate) fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().expect("cache stripe poisoned").len())
            .sum()
    }

    /// Hits served so far.
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// The value under `key` if there is one and `accept` takes it; only
    /// then is a hit counted.
    #[cfg(test)]
    pub(crate) fn get(&self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<V> {
        self.get_by(key, |k| k == key, accept)
    }

    /// The value under the key `probe` stands for, if there is one and
    /// `accept` takes it; only then is a hit counted. `probe` is the key or
    /// a borrowed view of it, and must hash exactly as the key it stands for (a `&[String]` for a `Vec<String>`,
    /// a tuple of such views for a tuple key), and `is` says whether a
    /// held key is the one probed for.
    pub(crate) fn get_by<Q: Hash + ?Sized>(
        &self,
        probe: &Q,
        is: impl Fn(&K) -> bool,
        accept: impl FnOnce(&V) -> bool,
    ) -> Option<V> {
        let (hash, stripe) = self.locate(probe);
        let stripe = stripe.read().expect("cache stripe poisoned");
        let value = stripe.find(hash, is).filter(|v| accept(v))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value.clone())
    }

    /// Admit `value` under `key`. A new key enters unless its stripe is
    /// full; a key already present keeps its value unless
    /// `replaces(&value, &held)` says the new one should take its place —
    /// a full stripe still upgrades the keys it holds. Tiers whose entries
    /// are plain facts pass `|_, _| false`: the first writer's value stands.
    pub(crate) fn admit(&self, key: K, value: V, replaces: impl FnOnce(&V, &V) -> bool) {
        let (hash, stripe) = self.locate(&key);
        let mut stripe = stripe.write().expect("cache stripe poisoned");
        let full = stripe.len() >= self.stripe_cap;
        let Stripe { map, collided } = &mut *stripe;
        let held = match map.entry(hash) {
            Entry::Occupied(slot) if slot.get().0 == key => &mut slot.into_mut().1,
            Entry::Occupied(_) => match collided
                .iter_mut()
                .find(|(h, k, _)| *h == hash && *k == key)
            {
                Some((_, _, held)) => held,
                None => {
                    if !full {
                        collided.push((hash, key, value));
                    }
                    return;
                }
            },
            Entry::Vacant(slot) => {
                if !full {
                    slot.insert((key, value));
                }
                return;
            }
        };
        if replaces(&value, held) {
            *held = value;
        }
    }

    /// The stripe `key` lands on.
    #[cfg(test)]
    fn stripe_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) >> (64 - STRIPE_BITS)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn never(_: &u32, _: &u32) -> bool {
        false
    }

    #[test]
    fn full_stripe_stops_admitting_and_first_writer_wins() {
        let map: StripedMap<u32, u32> = StripedMap::new(2);
        // Far more keys than 16 stripes x 2 slots: every stripe fills.
        for k in 0..1000 {
            map.admit(k, k + 1, never);
        }
        assert_eq!(map.len(), STRIPES * 2);
        let admitted: Vec<u32> = (0..1000)
            .filter(|k| map.get(k, |_| true).is_some())
            .collect();
        assert_eq!(admitted.len(), STRIPES * 2);
        assert_eq!(map.hits(), STRIPES * 2);
        // A full stripe refuses a new key ...
        map.admit(1000, 0, never);
        assert_eq!(map.get(&1000, |_| true), None);
        assert_eq!(map.len(), STRIPES * 2);
        // ... while keys already present keep hitting and counting, and a
        // second admission of one does not replace the first value.
        let kept = admitted[0];
        map.admit(kept, 0, never);
        assert_eq!(map.get(&kept, |_| true), Some(kept + 1));
        assert_eq!(map.hits(), STRIPES * 2 + 1);
        // A value the predicate rejects is a miss, not a hit.
        assert_eq!(map.get(&kept, |v| *v == 0), None);
        assert_eq!(map.hits(), STRIPES * 2 + 1);
    }

    #[test]
    fn admit_replaces_only_what_the_rule_ranks_lower() {
        let larger = |new: &u32, held: &u32| new > held;
        let map: StripedMap<u32, u32> = StripedMap::new(2);
        map.admit(7, 5, larger);
        map.admit(7, 3, larger);
        assert_eq!(map.get(&7, |_| true), Some(5), "a lower value is refused");
        map.admit(7, 9, larger);
        assert_eq!(map.get(&7, |_| true), Some(9), "a higher value replaces");
        assert_eq!(map.len(), 1);

        // Fill every stripe, then: a held key is still upgraded in its full
        // stripe, a new key is not admitted.
        for k in 0..1000 {
            map.admit(k, 1, larger);
        }
        assert_eq!(map.len(), STRIPES * 2);
        let held: Vec<u32> = (0..1000)
            .filter(|k| map.get(k, |_| true).is_some())
            .collect();
        let absent = (0..1000).find(|k| !held.contains(k)).unwrap();
        for &k in &held {
            map.admit(k, 100, larger);
        }
        map.admit(absent, 100, larger);
        assert!(held.iter().all(|k| map.get(k, |_| true) == Some(100)));
        assert_eq!(map.get(&absent, |_| true), None);
        assert_eq!(map.len(), STRIPES * 2);
    }
    #[test]
    fn stripes_follow_a_per_map_key() {
        // A fixed key set lands on one stripe layout per map instance: the
        // hash is keyed by the instance, so no key set chosen in advance
        // crowds the same stripe of every service.
        let keys: Vec<String> = (0..64).map(|i| format!("keyword{i}")).collect();
        let layout = |map: &StripedMap<String, u32>| -> Vec<usize> {
            keys.iter().map(|k| map.stripe_of(k)).collect()
        };
        let (a, b) = (StripedMap::new(8), StripedMap::new(8));
        assert_ne!(layout(&a), layout(&b));
        // Within one instance the layout is a function of the key.
        assert_eq!(layout(&a), layout(&a));
    }

    #[test]
    fn a_borrowed_view_finds_its_owned_key() {
        let map: StripedMap<(Vec<String>, u32), u32> = StripedMap::new(4);
        let bag = vec!["hanks".to_owned(), "tom".to_owned()];
        map.admit((bag.clone(), 7), 1, |_, _| false);
        let view: (&[String], u32) = (&bag, 7);
        let is = |k: &(Vec<String>, u32)| k.0 == bag && k.1 == 7;
        assert_eq!(map.get_by(&view, is, |_| true), Some(1));
        let words: Vec<&str> = bag.iter().map(String::as_str).collect();
        let view: (&[&str], u32) = (&words, 7);
        assert_eq!(map.get_by(&view, is, |_| true), Some(1));
        let other: (&[String], u32) = (&bag[..1], 7);
        assert_eq!(map.get_by(&other, |k| k.0 == bag[..1], |_| true), None);
    }
}
