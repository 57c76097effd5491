//! Object identity as the profiler sees it: allocation sites (allocation calling
//! contexts) and the monitored-object records stored in the object index.
//!
//! The paper represents an object to the developer by the *call path leading to its
//! allocation* (§4.2): all objects allocated at the same call path share one identity,
//! because they are expected to behave alike. [`AllocSiteRegistry`] interns those call
//! paths; the object index then maps live address ranges to `(object id, site id)` pairs so
//! that a sampled address resolves to a site in two steps.

use std::hash::BuildHasher;

use djx_runtime::{Frame, ObjectId};

use crate::fxhash::FxHashMap;

/// Identifier of an interned allocation site (allocation calling context + class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocSiteId(pub u32);

impl std::fmt::Display for AllocSiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site-{}", self.0)
    }
}

/// One interned allocation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Identifier assigned at interning time.
    pub id: AllocSiteId,
    /// Class name of the objects allocated here (e.g. `float[]`, `TopDocCollector`).
    pub class_name: String,
    /// Allocation calling context, root-first. Empty for objects whose allocation the
    /// profiler never observed (attach mode).
    pub call_path: Vec<Frame>,
}

impl AllocSite {
    /// `true` when this site stands for allocations the profiler did not observe.
    pub fn is_unattributed(&self) -> bool {
        self.call_path.is_empty() && self.class_name == AllocSiteRegistry::UNATTRIBUTED_CLASS
    }

    /// Approximate resident bytes of the site (memory-overhead accounting).
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<AllocSite>()
            + self.class_name.len()
            + self.call_path.len() * std::mem::size_of::<Frame>()
    }
}

/// Registry interning allocation sites.
#[derive(Debug, Default, Clone)]
pub struct AllocSiteRegistry {
    sites: Vec<AllocSite>,
    /// Site ids by the hash of their `(class name, call path)`. A probe compares the
    /// candidates' stored keys against the borrowed ones, so interning an existing
    /// site — every monitored allocation but the first per site — allocates nothing.
    by_hash: FxHashMap<u64, Vec<AllocSiteId>>,
}

impl AllocSiteRegistry {
    /// Class-name placeholder used for the unattributed site (objects first seen when
    /// the collector moved them, i.e. allocations missed by attach-mode profiling).
    pub const UNATTRIBUTED_CLASS: &'static str = "<unattributed>";

    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `(class name, allocation call path)` and returns its site id. Repeated
    /// interning of the same pair returns the same id.
    pub fn intern(&mut self, class_name: &str, call_path: &[Frame]) -> AllocSiteId {
        let hash = self.by_hash.hasher().hash_one((class_name, call_path));
        let candidates = self.by_hash.entry(hash).or_default();
        let sites = &self.sites;
        let existing = candidates.iter().copied().find(|id| {
            let site = &sites[id.0 as usize];
            site.class_name == class_name && site.call_path == call_path
        });
        if let Some(id) = existing {
            return id;
        }
        let id = AllocSiteId(self.sites.len() as u32);
        candidates.push(id);
        self.sites.push(AllocSite {
            id,
            class_name: class_name.to_string(),
            call_path: call_path.to_vec(),
        });
        id
    }

    /// Interns the special unattributed site (attach-mode objects).
    pub fn intern_unattributed(&mut self) -> AllocSiteId {
        self.intern(Self::UNATTRIBUTED_CLASS, &[])
    }

    /// Looks up a site by id.
    pub fn get(&self, id: AllocSiteId) -> Option<&AllocSite> {
        self.sites.get(id.0 as usize)
    }

    /// Number of interned sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over sites in interning order.
    pub fn iter(&self) -> impl Iterator<Item = &AllocSite> {
        self.sites.iter()
    }

    /// A clone of every site interned at or after id `from`, in interning order — the
    /// whole table for a profile snapshot (`from` 0), the suffix a streamed delta
    /// carries otherwise.
    pub fn since(&self, from: usize) -> Vec<AllocSite> {
        self.sites.get(from..).unwrap_or_default().to_vec()
    }

    /// Approximate resident bytes (memory-overhead accounting).
    pub fn approx_bytes(&self) -> usize {
        let sites = self.sites.iter().map(AllocSite::approx_bytes).sum::<usize>();
        let index = self.by_hash.len()
            * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<AllocSiteId>>())
            + self.sites.len() * std::mem::size_of::<AllocSiteId>();
        sites + index
    }
}

/// The value stored in the object index for one live monitored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitoredObject {
    /// Runtime identity of the object.
    pub object: ObjectId,
    /// The allocation site the object belongs to.
    pub site: AllocSiteId,
    /// Object size in bytes (header included).
    pub size: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_runtime::MethodId;

    fn f(m: u32, bci: u32) -> Frame {
        Frame::new(MethodId(m), bci)
    }

    #[test]
    fn interning_is_idempotent_per_class_and_path() {
        let mut reg = AllocSiteRegistry::new();
        let a = reg.intern("float[]", &[f(1, 5), f(2, 0)]);
        let b = reg.intern("float[]", &[f(1, 5), f(2, 0)]);
        let c = reg.intern("float[]", &[f(1, 5), f(2, 4)]);
        let d = reg.intern("int[]", &[f(1, 5), f(2, 0)]);
        assert_eq!(a, b);
        assert_ne!(a, c, "different BCI is a different site");
        assert_ne!(a, d, "different class is a different site");
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.get(a).unwrap().class_name, "float[]");
        assert_eq!(reg.get(a).unwrap().call_path, vec![f(1, 5), f(2, 0)]);
    }

    #[test]
    fn unattributed_site_is_marked() {
        let mut reg = AllocSiteRegistry::new();
        let u = reg.intern_unattributed();
        let again = reg.intern_unattributed();
        assert_eq!(u, again);
        assert!(reg.get(u).unwrap().is_unattributed());
        let normal = reg.intern("X", &[f(0, 0)]);
        assert!(!reg.get(normal).unwrap().is_unattributed());
    }

    #[test]
    fn snapshot_and_iter_preserve_order() {
        let mut reg = AllocSiteRegistry::new();
        let ids: Vec<_> = (0..5u32).map(|i| reg.intern("C", &[f(i, 0)])).collect();
        let snap = reg.since(0);
        assert_eq!(snap.len(), 5);
        assert_eq!(reg.since(3), snap[3..], "a suffix is the tail of the table");
        assert!(reg.since(9).is_empty());
        for (i, site) in reg.iter().enumerate() {
            assert_eq!(site.id, ids[i]);
            assert_eq!(snap[i], *site);
        }
        assert!(!reg.is_empty());
        assert!(reg.approx_bytes() > 0);
    }

    #[test]
    fn unknown_id_returns_none() {
        let reg = AllocSiteRegistry::new();
        assert!(reg.get(AllocSiteId(3)).is_none());
        assert!(reg.is_empty());
        assert_eq!(AllocSiteId(3).to_string(), "site-3");
    }
}
