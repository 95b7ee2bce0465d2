//! Dynamic operation counters — the evaluation's "barriers executed"
//! numbers.

use std::cell::Cell;
use std::fmt;

/// Per-VM dynamic counters (a VM is single-threaded; the counters sit
/// in a `Cell`).
#[derive(Debug, Default)]
pub struct VmCounters(Cell<VmCountersSnapshot>);

impl VmCounters {
    /// Takes a copy of all counters.
    pub fn snapshot(&self) -> VmCountersSnapshot {
        self.0.get()
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        self.0.set(VmCountersSnapshot::default());
    }

    /// Adds one run's counts.
    pub(crate) fn add(&self, run: &VmCountersSnapshot) {
        self.0.set(self.0.get().merged(run));
    }
}

/// A copy of [`VmCounters`] at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCountersSnapshot {
    /// IR instructions executed.
    pub insts: u64,
    /// `OpenForRead` barriers executed.
    pub open_read: u64,
    /// `OpenForUpdate` barriers executed.
    pub open_update: u64,
    /// `LogForUndo` barriers executed.
    pub log_undo: u64,
    /// Raw field loads.
    pub get_field: u64,
    /// Raw field stores.
    pub set_field: u64,
    /// Object allocations.
    pub allocs: u64,
    /// Function calls.
    pub calls: u64,
    /// Atomic regions entered (first attempts).
    pub tx_begun: u64,
    /// Atomic regions committed.
    pub tx_committed: u64,
    /// Region re-executions after conflicts.
    pub tx_retries: u64,
    /// Validations triggered at loop back-edges.
    pub backedge_validations: u64,
}

impl VmCountersSnapshot {
    /// The field-by-field sum of two snapshots.
    pub(crate) fn merged(self, other: &VmCountersSnapshot) -> VmCountersSnapshot {
        VmCountersSnapshot {
            insts: self.insts + other.insts,
            open_read: self.open_read + other.open_read,
            open_update: self.open_update + other.open_update,
            log_undo: self.log_undo + other.log_undo,
            get_field: self.get_field + other.get_field,
            set_field: self.set_field + other.set_field,
            allocs: self.allocs + other.allocs,
            calls: self.calls + other.calls,
            tx_begun: self.tx_begun + other.tx_begun,
            tx_committed: self.tx_committed + other.tx_committed,
            tx_retries: self.tx_retries + other.tx_retries,
            backedge_validations: self.backedge_validations + other.backedge_validations,
        }
    }

    /// Total dynamic barrier executions.
    pub fn total_barriers(&self) -> u64 {
        self.open_read + self.open_update + self.log_undo
    }

    /// Barriers per field access — the headline per-access overhead
    /// indicator (0 when no accesses happened).
    pub fn barriers_per_access(&self) -> f64 {
        let accesses = self.get_field + self.set_field;
        if accesses == 0 {
            0.0
        } else {
            self.total_barriers() as f64 / accesses as f64
        }
    }
}

impl fmt::Display for VmCountersSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insts; barriers: {} open-read, {} open-update, {} log-undo \
             ({:.3}/access); {} tx ({} retries)",
            self.insts,
            self.open_read,
            self.open_update,
            self.log_undo,
            self.barriers_per_access(),
            self.tx_committed,
            self.tx_retries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot() {
        let c = VmCounters::default();
        c.add(&VmCountersSnapshot { open_read: 1, get_field: 1, ..Default::default() });
        c.add(&VmCountersSnapshot { open_read: 1, ..Default::default() });
        let s = c.snapshot();
        assert_eq!(s.open_read, 2);
        assert_eq!(s.total_barriers(), 2);
        assert!((s.barriers_per_access() - 2.0).abs() < 1e-9);
        c.reset();
        assert_eq!(c.snapshot(), VmCountersSnapshot::default());
    }

    #[test]
    fn display_is_informative() {
        let s = VmCountersSnapshot { open_read: 5, ..Default::default() };
        assert!(s.to_string().contains("5 open-read"));
    }
}
