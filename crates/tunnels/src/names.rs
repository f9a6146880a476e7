//! The foreign-DNS view used by exit-side resolution.
//!
//! Proxied methods (Shadowsocks, Tor, ScholarCloud) defeat DNS poisoning
//! because the *remote* end resolves names, outside the censor's reach.
//! Remote proxies and Tor exits hold a [`NameMap`] representing the
//! uncensored DNS view of the outside world.

use std::rc::Rc;

use sc_simnet::addr::Addr;
use sc_simnet::hash::FixedMap;

/// A shared, immutable name → address map (the outside world's DNS view).
#[derive(Debug, Clone, Default)]
pub struct NameMap(Rc<FixedMap<String, Addr>>);

impl NameMap {
    /// Builds a map from (name, addr) pairs.
    pub fn new(entries: impl IntoIterator<Item = (impl Into<String>, Addr)>) -> Self {
        NameMap(Rc::new(
            entries
                .into_iter()
                .map(|(n, a)| (n.into().to_ascii_lowercase(), a))
                .collect(),
        ))
    }

    /// Resolves a name.
    pub fn resolve(&self, name: &str) -> Option<Addr> {
        self.0.get(&name.to_ascii_lowercase()).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_is_case_insensitive() {
        let m = NameMap::new([("Scholar.Google.com", Addr::new(99, 2, 0, 1))]);
        assert_eq!(m.resolve("scholar.google.COM"), Some(Addr::new(99, 2, 0, 1)));
        assert_eq!(m.resolve("other.example"), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }
}
