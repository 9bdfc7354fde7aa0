//! The per-bank MEM candidate index (DESIGN.md §4g, "MEM candidate
//! index").
//!
//! MEM-mode command selection serves, per bank, the queued request with
//! the lowest `(class, age)` under [`SchedulePolicy::mem_class`], and ranks
//! the banks by that best candidate. Rescanning the whole MEM queue for it
//! on every full step costs a virtual policy call per entry. The index
//! instead keeps each bank's queued requests in age order, caches the
//! bank's best candidate, and recomputes only the banks marked dirty since
//! the last [`MemIndex::sync`]:
//!
//! * an enqueue to the bank or a removal from it (tracked here);
//! * a change of the bank's open row (the controller compares rows and
//!   calls [`MemIndex::mark_dirty`]);
//! * a change of the policy's per-app class table, which dirties every
//!   bank. `mem_class` depends only on `(app, is_row_hit)`, so re-asking
//!   it for each app seen is a complete change check.

use pimsim_types::AppId;

use crate::policy::SchedulePolicy;

/// Banks the index, and every controller bank mask, can address: one bit
/// of a `u64` per bank. `SystemConfig::validate` rejects larger channels.
pub(crate) const MAX_BANKS: usize = 64;

const BANK_BITS: u32 = 6;
const AGE_BITS: u32 = 52;

/// The rank key of a candidate: `class << 58 | age << 6 | bank`. Ages are
/// unique, so ordering keys is ordering `(class, age)` lexicographically.
pub(crate) fn rank_key(class: u32, age: u64, bank: usize) -> u64 {
    debug_assert!(class < 64, "class {class} does not fit the rank key");
    debug_assert!(age < 1 << AGE_BITS, "age {age} does not fit the rank key");
    debug_assert!(bank < MAX_BANKS);
    u64::from(class) << (AGE_BITS + BANK_BITS) | age << BANK_BITS | bank as u64
}

/// The bank a rank key names.
pub(crate) fn key_bank(key: u64) -> usize {
    (key & ((1 << BANK_BITS) - 1)) as usize
}

/// The age a rank key names.
pub(crate) fn key_age(key: u64) -> u64 {
    (key >> BANK_BITS) & ((1 << AGE_BITS) - 1)
}

/// One queued MEM request as the index sees it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    age: u64,
    row: u32,
    /// Position of the request's app in [`MemIndex::classes`].
    slot: u8,
    write: bool,
}

/// A bank's best candidate: its rank key and the inputs of the command it
/// needs, so a refused bank never touches the queue.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Candidate {
    pub key: u64,
    pub row: u32,
    pub hit: bool,
    pub write: bool,
}

/// Per-bank lists of the queued MEM requests with a cached best candidate
/// per bank (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct MemIndex {
    /// Indexed by bank; grown to the highest bank pushed so far.
    banks: Vec<Vec<Entry>>,
    /// Indexed by bank; meaningful for pending banks.
    best: Vec<Candidate>,
    /// Banks with at least one queued request.
    pending: u64,
    /// Banks where some queued request hits the open row (as of the last
    /// sync).
    hits: u64,
    /// Banks whose cached candidate may be stale.
    dirty: u64,
    /// Every app seen in the MEM queue, with the policy's class for its
    /// row misses and row hits as of the last sync.
    classes: Vec<(AppId, [u32; 2])>,
}

impl MemIndex {
    pub(crate) fn new() -> Self {
        MemIndex {
            banks: Vec::new(),
            best: Vec::new(),
            pending: 0,
            hits: 0,
            dirty: 0,
            classes: Vec::new(),
        }
    }

    /// Indexes a newly queued request; `age` must exceed every indexed age.
    pub(crate) fn push(&mut self, bank: usize, age: u64, row: u32, app: AppId, write: bool) {
        assert!(
            bank < MAX_BANKS,
            "bank {bank} beyond the {MAX_BANKS}-bank controller masks"
        );
        if bank >= self.banks.len() {
            self.banks.resize_with(bank + 1, Vec::new);
            self.best.resize(bank + 1, Candidate::default());
        }
        let slot = match self.classes.iter().position(|&(a, _)| a == app) {
            Some(s) => s,
            None => {
                // Never matches a real class, so the next sync sees the
                // table change before any key is built from it.
                self.classes.push((app, [u32::MAX; 2]));
                self.classes.len() - 1
            }
        };
        let list = &mut self.banks[bank];
        debug_assert!(list.last().is_none_or(|e| e.age < age), "ages are monotone");
        list.push(Entry {
            age,
            row,
            slot: u8::try_from(slot).expect("AppId is a u8"),
            write,
        });
        self.pending |= 1 << bank;
        self.dirty |= 1 << bank;
    }

    /// Drops the request of age `age` from `bank`'s list.
    pub(crate) fn remove(&mut self, bank: usize, age: u64) {
        let list = &mut self.banks[bank];
        let i = list
            .iter()
            .position(|e| e.age == age)
            .expect("removed request is indexed");
        list.remove(i);
        if list.is_empty() {
            self.pending &= !(1 << bank);
        }
        self.dirty |= 1 << bank;
    }

    /// Marks `banks` (a bank bitmask) for recomputation at the next sync.
    pub(crate) fn mark_dirty(&mut self, banks: u64) {
        self.dirty |= banks;
    }

    /// Banks with at least one queued request.
    pub(crate) fn pending(&self) -> u64 {
        self.pending
    }

    /// Banks where some queued request hits the open row.
    pub(crate) fn hits(&self) -> u64 {
        debug_assert_eq!(self.dirty & self.pending, 0, "hit mask read before sync");
        self.hits
    }

    /// Brings every cached candidate and the hit mask up to date with
    /// `policy`'s class table and the open rows.
    #[inline]
    pub(crate) fn sync(&mut self, policy: &dyn SchedulePolicy, open_rows: &[Option<u32>]) {
        if self.pending == 0 {
            // No cached candidate is live; banks filled later arrive dirty.
            // Inlined: PIM-mode steps mostly take this exit.
            self.dirty = 0;
            self.hits = 0;
        } else {
            self.sync_pending(policy, open_rows);
        }
    }

    fn sync_pending(&mut self, policy: &dyn SchedulePolicy, open_rows: &[Option<u32>]) {
        for (app, classes) in &mut self.classes {
            let now = [policy.mem_class(*app, false), policy.mem_class(*app, true)];
            if now != *classes {
                *classes = now;
                self.dirty = u64::MAX;
            }
        }
        self.hits &= !self.dirty;
        let mut todo = self.dirty & self.pending;
        self.dirty = 0;
        while todo != 0 {
            let bank = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            self.recompute(bank, open_rows[bank]);
        }
    }

    fn recompute(&mut self, bank: usize, open: Option<u32>) {
        let mut best: Option<Candidate> = None;
        for e in &self.banks[bank] {
            let hit = open == Some(e.row);
            let class = self.classes[usize::from(e.slot)].1[usize::from(hit)];
            let key = rank_key(class, e.age, bank);
            if hit {
                self.hits |= 1 << bank;
            }
            if best.is_none_or(|b| key < b.key) {
                best = Some(Candidate {
                    key,
                    row: e.row,
                    hit,
                    write: e.write,
                });
            }
        }
        self.best[bank] = best.expect("recomputed banks are pending");
    }

    /// Writes the rank keys of every pending bank outside `masked` to
    /// `out`, best first.
    pub(crate) fn ranked(&self, masked: u64, out: &mut Vec<u64>) {
        debug_assert_eq!(self.dirty & self.pending, 0, "ranking before sync");
        out.clear();
        let mut banks = self.pending & !masked;
        while banks != 0 {
            let bank = banks.trailing_zeros() as usize;
            banks &= banks - 1;
            out.push(self.best[bank].key);
        }
        out.sort_unstable();
    }

    /// `bank`'s cached best candidate (meaningful for pending banks).
    pub(crate) fn candidate(&self, bank: usize) -> Candidate {
        self.best[bank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_keys_order_like_class_age_tuples() {
        let tuples = [(0u32, 9u64, 3usize), (0, 10, 1), (1, 2, 0), (3, 1, 63)];
        for w in tuples.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(rank_key(a.0, a.1, a.2) < rank_key(b.0, b.1, b.2));
        }
        let k = rank_key(5, (1 << 52) - 1, 63);
        assert_eq!((key_age(k), key_bank(k)), ((1 << 52) - 1, 63));
    }
}
