//! The one lock-striped, admission-capped map behind every process-wide
//! cache tier of a service ([`crate::SharedNonemptyCache`] and the two maps
//! of [`crate::SharedExecCache`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// Number of lock stripes. Power of two; small enough to stay
/// cache-friendly, large enough that 8 workers rarely collide.
const STRIPES: usize = 16;

/// `STRIPES` `RwLock<HashMap>` stripes picked by key hash, plus a hit
/// counter. Bounded, not evicting: a stripe holding `stripe_cap` entries
/// stops admitting (entries already present keep serving hits; fresh work
/// just re-computes), so a long-lived service under a diverse or adversarial
/// query stream cannot grow without bound. Entries are facts about one
/// immutable snapshot, so the first writer's value is as good as any later
/// one and is never replaced.
#[derive(Debug)]
pub(crate) struct StripedMap<K, V> {
    stripes: Vec<RwLock<HashMap<K, V>>>,
    stripe_cap: usize,
    hits: AtomicUsize,
}

impl<K: Hash + Eq, V: Clone> StripedMap<K, V> {
    pub(crate) fn new(stripe_cap: usize) -> Self {
        StripedMap {
            stripes: (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
            stripe_cap,
            hits: AtomicUsize::new(0),
        }
    }

    fn stripe(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.stripes[(h.finish() as usize) & (STRIPES - 1)]
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
    pub(crate) fn get(&self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<V> {
        let stripe = self.stripe(key).read().expect("cache stripe poisoned");
        let value = stripe.get(key).filter(|v| accept(v))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value.clone())
    }

    /// Admit `value` under `key` unless the key is already present or its
    /// stripe is full.
    pub(crate) fn insert(&self, key: K, value: V) {
        let mut stripe = self.stripe(&key).write().expect("cache stripe poisoned");
        if stripe.len() < self.stripe_cap {
            stripe.entry(key).or_insert(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stripe_stops_admitting_and_first_writer_wins() {
        let map: StripedMap<u32, u32> = StripedMap::new(2);
        // Far more keys than 16 stripes x 2 slots: every stripe fills.
        for k in 0..1000 {
            map.insert(k, k + 1);
        }
        assert_eq!(map.len(), STRIPES * 2);
        let admitted: Vec<u32> = (0..1000)
            .filter(|k| map.get(k, |_| true).is_some())
            .collect();
        assert_eq!(admitted.len(), STRIPES * 2);
        assert_eq!(map.hits(), STRIPES * 2);
        // A full stripe refuses a new key ...
        map.insert(1000, 0);
        assert_eq!(map.get(&1000, |_| true), None);
        assert_eq!(map.len(), STRIPES * 2);
        // ... while keys already present keep hitting and counting, and a
        // second insert of one does not replace the first value.
        let kept = admitted[0];
        map.insert(kept, 0);
        assert_eq!(map.get(&kept, |_| true), Some(kept + 1));
        assert_eq!(map.hits(), STRIPES * 2 + 1);
        // A value the predicate rejects is a miss, not a hit.
        assert_eq!(map.get(&kept, |v| *v == 0), None);
        assert_eq!(map.hits(), STRIPES * 2 + 1);
    }
}
