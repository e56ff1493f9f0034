//! The reverse map: user page → the `(pid, vpn)` mappings that point at it.
//!
//! Every forked child shares init's text page and its copy-on-write stack
//! pages, so one page can have tens of thousands of sharers. Each page's
//! sharers are a [`LazyQueue`] in insertion order: unmapping one costs O(1)
//! amortized however many others remain, and `migrate_block` still
//! repoints them in the order they were added.

use std::collections::HashMap;

use crate::lazy_queue::LazyQueue;
use crate::process::Pid;

/// The sharers of one page, in insertion order.
pub(crate) type Sharers = LazyQueue<(Pid, u64)>;

/// Page number → its sharers. A page whose last sharer left has no entry.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rmap(HashMap<u64, Sharers>);

impl Rmap {
    /// Records that `pid` maps `ppn` at `vpn`.
    pub(crate) fn add(&mut self, ppn: u64, pid: Pid, vpn: u64) {
        self.0.entry(ppn).or_default().push_back((pid, vpn));
    }

    /// Forgets `pid`'s mapping of `ppn` at `vpn`, dropping the page's entry
    /// when no sharer is left.
    pub(crate) fn remove(&mut self, ppn: u64, pid: Pid, vpn: u64) {
        if let Some(s) = self.0.get_mut(&ppn) {
            s.remove_all((pid, vpn));
            if s.is_empty() {
                self.0.remove(&ppn);
            }
        }
    }

    /// Detaches every sharer of `ppn` (for re-keying to a migrated page).
    pub(crate) fn take(&mut self, ppn: u64) -> Option<Sharers> {
        self.0.remove(&ppn)
    }

    /// Re-attaches `sharers` under `ppn`.
    pub(crate) fn put(&mut self, ppn: u64, sharers: Sharers) {
        self.0.insert(ppn, sharers);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    /// One step against a page: add or remove a `(pid, vpn)` sharer, or
    /// migrate the page (re-key `from` → `to`).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Add(u64, Pid, u64),
        Remove(u64, Pid, u64),
        Migrate(u64, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            8 => (0..2u64, 1..40u32, 0..2u64).prop_map(|(p, pid, v)| Op::Add(p, pid, v)),
            6 => (0..2u64, 1..40u32, 0..2u64).prop_map(|(p, pid, v)| Op::Remove(p, pid, v)),
            1 => (0..4u64, 0..4u64).prop_map(|(a, b)| Op::Migrate(a, b)),
        ]
    }

    fn sharers(rmap: &Rmap, ppn: u64) -> Vec<(Pid, u64)> {
        rmap.0
            .get(&ppn)
            .map(|s| s.iter().collect())
            .unwrap_or_default()
    }

    proptest! {
        /// The queue-backed map against the `Vec` + `retain` map it
        /// replaced: after any schedule — duplicate adds and removals of
        /// absent sharers included — every page has the same sharers in
        /// the same order, and a migration hands over that order.
        #[test]
        fn matches_vec_retain_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            let mut rmap = Rmap::default();
            let mut model: HashMap<u64, Vec<(Pid, u64)>> = HashMap::new();
            for op in ops {
                match op {
                    Op::Add(ppn, pid, vpn) => {
                        rmap.add(ppn, pid, vpn);
                        model.entry(ppn).or_default().push((pid, vpn));
                    }
                    Op::Remove(ppn, pid, vpn) => {
                        rmap.remove(ppn, pid, vpn);
                        if let Some(users) = model.get_mut(&ppn) {
                            users.retain(|&(up, uv)| !(up == pid && uv == vpn));
                            if users.is_empty() {
                                model.remove(&ppn);
                            }
                        }
                    }
                    Op::Migrate(from, to) => {
                        // The target is a freshly allocated page.
                        if model.contains_key(&to) {
                            continue;
                        }
                        match (rmap.take(from), model.remove(&from)) {
                            (Some(s), Some(users)) => {
                                prop_assert_eq!(s.iter().collect::<Vec<_>>(), users.clone());
                                rmap.put(to, s);
                                model.insert(to, users);
                            }
                            (None, None) => {}
                            (s, users) => prop_assert!(false, "take: {s:?} vs model {users:?}"),
                        }
                    }
                }
                for ppn in 0..4u64 {
                    prop_assert_eq!(sharers(&rmap, ppn), model.get(&ppn).cloned().unwrap_or_default());
                }
            }
        }
    }
}
