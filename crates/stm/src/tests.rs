//! Core STM behaviour tests: isolation, rollback, validation, nesting,
//! version overflow, GC integration.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use omt_heap::{ClassDesc, ClassId, Heap, RootSet, Word};

use crate::{CmPolicy, ConflictKind, Stm, StmConfig, StmWord, TxError};

fn setup() -> (Arc<Heap>, ClassId, Stm) {
    setup_with(StmConfig::default())
}

fn setup_with(config: StmConfig) -> (Arc<Heap>, ClassId, Stm) {
    let heap = Arc::new(Heap::new());
    let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["a", "b"]));
    let stm = Stm::with_config(heap.clone(), config);
    (heap, class, stm)
}

#[test]
fn read_your_own_write() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    tx.write(obj, 0, Word::from_scalar(5)).unwrap();
    assert_eq!(tx.read(obj, 0).unwrap().as_scalar(), Some(5));
    tx.commit().unwrap();
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(5));
}

#[test]
fn commit_increments_version() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    assert_eq!(
        StmWord::decode(heap.header_atomic(obj).load(Ordering::Relaxed)),
        StmWord::Version(0)
    );
    for expected in 1..=3u64 {
        let mut tx = stm.begin();
        tx.write(obj, 0, Word::from_scalar(expected as i64)).unwrap();
        tx.commit().unwrap();
        assert_eq!(
            StmWord::decode(heap.header_atomic(obj).load(Ordering::Relaxed)),
            StmWord::Version(expected)
        );
    }
}

#[test]
fn abort_restores_values_and_version() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(10));
    heap.store(obj, 1, Word::from_scalar(20));

    let mut tx = stm.begin();
    tx.write(obj, 0, Word::from_scalar(99)).unwrap();
    tx.write(obj, 1, Word::from_scalar(98)).unwrap();
    // In-place updates are visible in the raw heap while owned...
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(99));
    tx.abort();
    // ...and rolled back on abort. The version is *burned*, not
    // restored: a concurrent optimistic reader may have loaded the 99
    // while it was in place, and releasing back at version 0 would let
    // that reader validate against data that no longer exists (see
    // `UpdateEntry::original_version`).
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(10));
    assert_eq!(heap.load(obj, 1).as_scalar(), Some(20));
    assert_eq!(
        StmWord::decode(heap.header_atomic(obj).load(Ordering::Relaxed)),
        StmWord::Version(1)
    );
}

#[test]
fn abort_without_stores_keeps_the_version() {
    // Acquisition alone (no `log_for_undo`, no in-place store) cannot
    // have exposed uncommitted data, so abort releases at the original
    // version and concurrent readers stay valid.
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut reader = stm.begin();
    assert_eq!(reader.read(obj, 0).unwrap().as_scalar(), Some(0));
    let mut tx = stm.begin();
    tx.open_for_update(obj).unwrap();
    tx.abort();
    assert_eq!(
        StmWord::decode(heap.header_atomic(obj).load(Ordering::Relaxed)),
        StmWord::Version(0)
    );
    reader.commit().unwrap();
}

#[test]
fn drop_aborts_unfinished_transaction() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    {
        let mut tx = stm.begin();
        tx.write(obj, 0, Word::from_scalar(7)).unwrap();
        // tx dropped here without commit.
    }
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(0));
    assert_eq!(stm.stats().aborts_explicit, 1);
    assert_eq!(stm.registry().active_count(), 0);
}

#[test]
fn writer_invalidates_concurrent_reader() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();

    let mut reader = stm.begin();
    assert_eq!(reader.read(obj, 0).unwrap().as_scalar(), Some(0));

    let mut writer = stm.begin();
    writer.write(obj, 0, Word::from_scalar(1)).unwrap();
    writer.commit().unwrap();

    assert_eq!(reader.commit(), Err(TxError::INVALID));
    assert_eq!(stm.stats().aborts_invalid, 1);
}

#[test]
fn reader_unaffected_by_disjoint_writer() {
    let (heap, class, stm) = setup();
    let a = heap.alloc(class).unwrap();
    let b = heap.alloc(class).unwrap();

    let mut reader = stm.begin();
    reader.read(a, 0).unwrap();

    let mut writer = stm.begin();
    writer.write(b, 0, Word::from_scalar(1)).unwrap();
    writer.commit().unwrap();

    reader.commit().unwrap();
}

#[test]
fn open_for_update_conflicts_when_owned() {
    let (heap, class, stm) =
        setup_with(StmConfig { cm: CmPolicy::AbortSelf, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();

    let mut first = stm.begin();
    first.open_for_update(obj).unwrap();

    let mut second = stm.begin();
    assert_eq!(second.open_for_update(obj), Err(TxError::BUSY));
    second.abort();
    first.commit().unwrap();
}

#[test]
fn spin_policy_waits_out_short_owners() {
    let (heap, class, stm) =
        setup_with(StmConfig { cm: CmPolicy::Spin { max_spins: 4 }, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();

    let mut first = stm.begin();
    first.open_for_update(obj).unwrap();
    let mut second = stm.begin();
    assert_eq!(second.open_for_update(obj), Err(TxError::BUSY));
    assert!(second.counters().cm_spins >= 4);
    second.abort();
    first.abort();
}

#[test]
fn open_for_update_is_idempotent() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    tx.open_for_update(obj).unwrap();
    tx.open_for_update(obj).unwrap();
    assert_eq!(tx.update_set_size(), 1);
    assert_eq!(tx.counters().acquires, 1);
    tx.commit().unwrap();
}

#[test]
fn read_after_own_update_logs_nothing() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    tx.open_for_update(obj).unwrap();
    tx.open_for_read(obj).unwrap();
    assert_eq!(tx.read_set_size(), 0, "read subsumed by prior update open");
    tx.commit().unwrap();
}

#[test]
fn filter_suppresses_duplicate_log_entries() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    for _ in 0..10 {
        tx.read(obj, 0).unwrap();
        tx.write(obj, 1, Word::from_scalar(1)).unwrap();
    }
    let c = tx.counters();
    // First read appended; the write made later reads subsumed anyway.
    assert_eq!(c.read_entries, 1);
    assert_eq!(c.undo_entries, 1);
    assert_eq!(c.undo_filtered, 9);
    tx.commit().unwrap();
}

#[test]
fn without_filter_duplicates_accumulate() {
    let (heap, class, stm) =
        setup_with(StmConfig { runtime_filter: false, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    for _ in 0..10 {
        tx.read(obj, 0).unwrap();
    }
    assert_eq!(tx.read_set_size(), 10);
    // Commit the reader before the undo-logging writer aborts: its
    // abort burns a version (the reader could have seen dirty data),
    // which would — correctly — invalidate a still-open reader.
    tx.commit().unwrap();
    let mut tx2 = stm.begin();
    tx2.open_for_update(obj).unwrap();
    for _ in 0..10 {
        tx2.log_for_undo(obj, 0);
    }
    assert_eq!(tx2.undo_log_size(), 10);
    tx2.abort();
}

#[test]
fn undo_replay_in_reverse_restores_oldest_value() {
    // Without the filter, multiple undo entries exist for one field;
    // reverse replay must land on the oldest value.
    let (heap, class, stm) =
        setup_with(StmConfig { runtime_filter: false, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(1));
    let mut tx = stm.begin();
    tx.write(obj, 0, Word::from_scalar(2)).unwrap();
    tx.write(obj, 0, Word::from_scalar(3)).unwrap();
    tx.abort();
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(1));
}

#[test]
fn nested_rollback_keeps_outer_effects() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    tx.write(obj, 0, Word::from_scalar(1)).unwrap();
    let result: Result<(), TxError> = tx.nested(|tx| {
        tx.write(obj, 0, Word::from_scalar(2))?;
        tx.write(obj, 1, Word::from_scalar(3))?;
        Err(TxError::EXPLICIT)
    });
    assert_eq!(result, Err(TxError::EXPLICIT));
    // Inner effects rolled back; outer write survives.
    assert_eq!(tx.read(obj, 0).unwrap().as_scalar(), Some(1));
    assert_eq!(tx.read(obj, 1).unwrap().as_scalar(), Some(0));
    tx.commit().unwrap();
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(1));
}

#[test]
fn nested_rollback_restores_value_filtered_by_outer_undo_entry() {
    // Regression guard for the filter/savepoint interaction: the outer
    // transaction's undo entry must not suppress the inner re-logging,
    // or partial rollback would miss the outer's intermediate value.
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(5));

    let mut tx = stm.begin();
    tx.write(obj, 0, Word::from_scalar(7)).unwrap(); // undo logs 5
    let sp = tx.savepoint();
    tx.write(obj, 0, Word::from_scalar(9)).unwrap(); // must re-log 7
    tx.rollback_to(sp);
    assert_eq!(tx.read(obj, 0).unwrap().as_scalar(), Some(7));
    tx.commit().unwrap();
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(7));
}

#[test]
fn nested_rollback_releases_inner_acquisitions() {
    let (heap, class, stm) =
        setup_with(StmConfig { cm: CmPolicy::AbortSelf, ..StmConfig::default() });
    let a = heap.alloc(class).unwrap();
    let b = heap.alloc(class).unwrap();

    let mut tx = stm.begin();
    tx.open_for_update(a).unwrap();
    let sp = tx.savepoint();
    tx.open_for_update(b).unwrap();
    tx.rollback_to(sp);

    // b is free again for another transaction; a is still held.
    let mut other = stm.begin();
    other.open_for_update(b).unwrap();
    assert_eq!(other.open_for_update(a), Err(TxError::BUSY));
    other.abort();
    tx.commit().unwrap();
}

#[test]
fn successful_nested_effects_commit_with_outer() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    tx.nested(|tx| tx.write(obj, 0, Word::from_scalar(11))).unwrap();
    tx.commit().unwrap();
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(11));
}

#[test]
#[should_panic(expected = "savepoint does not match")]
fn foreign_savepoint_is_rejected() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut tx1 = stm.begin();
    tx1.write(obj, 0, Word::from_scalar(1)).unwrap();
    let sp = tx1.savepoint();
    tx1.abort();
    let mut tx2 = stm.begin();
    tx2.rollback_to(sp);
}

#[test]
fn version_overflow_wraps_and_bumps_epoch() {
    let (heap, class, stm) = setup_with(StmConfig { version_bits: 2, ..StmConfig::default() }); // max version 3
    let obj = heap.alloc(class).unwrap();
    let epoch_before = stm.epoch();
    for i in 0..4 {
        let mut tx = stm.begin();
        tx.write(obj, 0, Word::from_scalar(i)).unwrap();
        tx.commit().unwrap();
    }
    // Versions went 0→1→2→3→wrap to 0; epoch advanced once.
    assert_eq!(
        StmWord::decode(heap.header_atomic(obj).load(Ordering::Relaxed)),
        StmWord::Version(0)
    );
    assert_eq!(stm.epoch(), epoch_before + 1);
}

#[test]
fn epoch_bump_aborts_transactions_spanning_the_wrap() {
    let (heap, class, stm) = setup_with(StmConfig { version_bits: 2, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();
    let other = heap.alloc(class).unwrap();

    let mut spanning = stm.begin();
    spanning.read(other, 0).unwrap();

    for i in 0..4 {
        let mut tx = stm.begin();
        tx.write(obj, 0, Word::from_scalar(i)).unwrap();
        tx.commit().unwrap();
    }
    // The spanning transaction read an unrelated object, but the epoch
    // advanced, so it must restart (ABA prevention).
    assert_eq!(spanning.commit(), Err(TxError::EPOCH));
}

#[test]
fn renumber_versions_resets_headers() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    for i in 0..5 {
        let mut tx = stm.begin();
        tx.write(obj, 0, Word::from_scalar(i)).unwrap();
        tx.commit().unwrap();
    }
    let epoch = stm.epoch();
    stm.renumber_versions();
    assert_eq!(stm.epoch(), epoch + 1);
    assert_eq!(
        StmWord::decode(heap.header_atomic(obj).load(Ordering::Relaxed)),
        StmWord::Version(0)
    );
}

#[test]
#[should_panic(expected = "quiescence")]
fn renumber_requires_quiescence() {
    let (_heap, _class, stm) = setup();
    let _tx = stm.begin();
    stm.renumber_versions();
}

#[test]
fn incremental_validation_catches_zombies() {
    let (heap, class, stm) =
        setup_with(StmConfig { validate_every: Some(1), ..StmConfig::default() });
    let a = heap.alloc(class).unwrap();
    let b = heap.alloc(class).unwrap();

    let mut zombie = stm.begin();
    zombie.read(a, 0).unwrap();

    let mut writer = stm.begin();
    writer.write(a, 0, Word::from_scalar(1)).unwrap();
    writer.commit().unwrap();

    // The doomed transaction is caught at its very next read, not at
    // commit.
    assert_eq!(zombie.read(b, 0), Err(TxError::INVALID));
    zombie.abort_internal_for_test();
}

#[test]
fn atomically_retries_until_success() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut failures = 3;
    stm.atomically(|tx| {
        if failures > 0 {
            failures -= 1;
            return Err(TxError::EXPLICIT);
        }
        tx.write(obj, 0, Word::from_scalar(42))
    });
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(42));
    assert_eq!(stm.stats().aborts_explicit, 3);
    assert_eq!(stm.stats().commits, 1);
}

#[test]
fn try_atomically_exhausts_budget() {
    let (_heap, _class, stm) = setup_with(StmConfig { max_retries: 3, ..StmConfig::default() });
    let result: Result<(), _> = stm.try_atomically(|_tx| Err(TxError::EXPLICIT));
    match result {
        Err(crate::RetryExhausted::Conflicts { attempts, last }) => {
            assert_eq!(attempts, 4);
            assert_eq!(last, ConflictKind::Explicit);
        }
        other => panic!("expected exhaustion, got {other:?}"),
    }
}

#[test]
fn alloc_in_aborted_tx_becomes_garbage() {
    let (heap, class, stm) = setup();
    let keeper = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    let fresh = tx.alloc(class).unwrap();
    assert!(heap.is_valid(fresh));
    tx.abort();
    let outcome = heap.collect(&RootSet::from(vec![keeper]), &[stm.gc_participant()]);
    assert_eq!(outcome.swept, 1);
    assert!(!heap.is_valid(fresh));
}

#[test]
fn gc_keeps_undo_old_values_alive() {
    let (heap, class, stm) = setup();
    let holder = heap.alloc(class).unwrap();
    let old_target = heap.alloc(class).unwrap();
    heap.store(holder, 1, Word::from_ref(old_target));

    let mut tx = stm.begin();
    // Overwrite the only reference to `old_target`; abort must be able
    // to restore it, so the undo log keeps it alive across GC.
    tx.write(holder, 1, Word::null()).unwrap();
    let outcome = heap.collect(&RootSet::from(vec![holder]), &[stm.gc_participant()]);
    assert_eq!(outcome.swept, 0, "undo-log old value must be a GC root");
    assert!(heap.is_valid(old_target));

    tx.abort();
    assert_eq!(heap.load(holder, 1).as_ref(), Some(old_target));
}

#[test]
fn gc_trims_dead_read_log_entries() {
    let (heap, class, stm) = setup();
    let root = heap.alloc(class).unwrap();
    let doomed = heap.alloc(class).unwrap();

    let mut tx = stm.begin();
    tx.read(doomed, 0).unwrap();
    tx.read(root, 0).unwrap();
    assert_eq!(tx.read_set_size(), 2);

    let outcome = heap.collect(&RootSet::from(vec![root]), &[stm.gc_participant()]);
    assert_eq!(outcome.swept, 1);
    assert_eq!(tx.read_set_size(), 1, "dead read-log entry trimmed");
    assert!(stm.stats().gc_trimmed_entries >= 1);
    tx.commit().unwrap();
}

#[test]
fn stats_flush_on_finish() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    tx.read(obj, 0).unwrap();
    tx.write(obj, 1, Word::from_scalar(1)).unwrap();
    tx.commit().unwrap();
    let s = stm.stats();
    assert_eq!(s.begins, 1);
    assert_eq!(s.commits, 1);
    assert_eq!(s.open_read_ops, 1);
    assert_eq!(s.open_update_ops, 1);
    assert_eq!(s.log_undo_ops, 1);
    assert_eq!(s.acquires, 1);
    assert!(s.validations >= 1);
}

#[test]
fn concurrent_disjoint_transfers_preserve_total() {
    let heap = Arc::new(Heap::new());
    let class = heap.define_class(ClassDesc::with_var_fields("Acct", &["bal"]));
    let accounts: Vec<_> = (0..16)
        .map(|_| {
            let a = heap.alloc(class).unwrap();
            heap.store(a, 0, Word::from_scalar(1000));
            a
        })
        .collect();
    let stm = Stm::new(heap.clone());

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let stm = &stm;
            let accounts = &accounts;
            scope.spawn(move || {
                let mut seed = t as u64 + 1;
                for _ in 0..500 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let from = (seed >> 32) as usize % accounts.len();
                    let to = (seed >> 40) as usize % accounts.len();
                    if from == to {
                        continue;
                    }
                    stm.atomically(|tx| {
                        let fb = tx.read(accounts[from], 0)?.as_scalar().unwrap();
                        let tb = tx.read(accounts[to], 0)?.as_scalar().unwrap();
                        tx.write(accounts[from], 0, Word::from_scalar(fb - 1))?;
                        tx.write(accounts[to], 0, Word::from_scalar(tb + 1))?;
                        Ok(())
                    });
                }
            });
        }
    });

    let total: i64 = accounts.iter().map(|a| heap.load(*a, 0).as_scalar().unwrap()).sum();
    assert_eq!(total, 16 * 1000, "money conserved under contention");
    assert!(stm.stats().commits >= 1);
}

#[test]
fn or_else_takes_first_when_it_succeeds() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let got = stm.atomically(|tx| tx.or_else(|tx| tx.read(obj, 0), |_| Ok(Word::from_scalar(99))));
    assert_eq!(got.as_scalar(), Some(0));
}

#[test]
fn or_else_rolls_back_first_and_runs_second() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    stm.atomically(|tx| {
        tx.or_else(
            |tx| {
                tx.write(obj, 0, Word::from_scalar(1))?; // must be undone
                Err(TxError::EXPLICIT)
            },
            |tx| tx.write(obj, 1, Word::from_scalar(2)),
        )
    });
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(0), "first alternative rolled back");
    assert_eq!(heap.load(obj, 1).as_scalar(), Some(2));
}

#[test]
fn or_else_propagates_real_conflicts() {
    let (heap, class, stm) =
        setup_with(StmConfig { cm: CmPolicy::AbortSelf, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();
    let mut holder = stm.begin();
    holder.open_for_update(obj).unwrap();

    let mut tx = stm.begin();
    let result = tx.or_else(
        |tx| tx.open_for_update(obj).map(|_| 0),
        |_| Ok(1), // must NOT run: Busy is a real conflict, not a retry
    );
    assert_eq!(result, Err(TxError::BUSY));
    tx.abort();
    holder.abort();
}

#[test]
fn or_else_retry_from_second_reaches_the_outer_loop() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut attempts = 0;
    stm.atomically(|tx| {
        attempts += 1;
        if attempts < 3 {
            return tx.or_else(|_| Err(TxError::EXPLICIT), |_| Err(TxError::EXPLICIT));
        }
        tx.write(obj, 0, Word::from_scalar(attempts))
    });
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(3));
}

impl crate::Transaction<'_> {
    /// Test helper: abort without consuming pattern friction.
    fn abort_internal_for_test(self) {
        self.abort();
    }
}

// ---------------------------------------------------------------------
// Contention management: priority policies, dooming, serial fallback.
// ---------------------------------------------------------------------

#[test]
fn oldest_wins_dooms_younger_owner() {
    let (heap, class, stm) = setup_with(StmConfig {
        cm: CmPolicy::OldestWins,
        doom_wait_spins: 64,
        ..StmConfig::default()
    });
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(5));

    let mut older = stm.begin(); // lower serial ⇒ higher priority
    let mut younger = stm.begin();
    younger.write(obj, 0, Word::from_scalar(6)).unwrap();

    // The older transaction dooms the younger; with a single thread the
    // victim cannot release mid-wait, so the bounded doom wait ends in
    // a Busy abort for the older — but the doom flag is set.
    assert_eq!(older.open_for_update(obj), Err(TxError::BUSY));
    assert!(younger.is_doomed());
    assert_eq!(stm.stats().dooms_issued, 0, "dooms flush when the doomer finishes");

    // The victim observes its doom at the next open and at commit.
    assert_eq!(younger.open_for_read(obj), Err(TxError::DOOMED));
    assert_eq!(younger.commit(), Err(TxError::DOOMED));
    // Its in-place update was rolled back and ownership released.
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(5));
    older.abort();

    let s = stm.stats();
    assert_eq!(s.aborts_doomed, 1);
    assert_eq!(s.dooms_issued, 1);
}

#[test]
fn oldest_wins_younger_defers_to_older_owner() {
    let (heap, class, stm) =
        setup_with(StmConfig { cm: CmPolicy::OldestWins, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();

    let mut older = stm.begin();
    older.open_for_update(obj).unwrap();
    let mut younger = stm.begin();
    // The younger waits out its patience, then aborts itself; the older
    // is never doomed.
    assert_eq!(younger.open_for_update(obj), Err(TxError::BUSY));
    assert!(!older.is_doomed());
    assert!(younger.counters().cm_spins > 0);
    younger.abort();
    older.commit().unwrap();
}

#[test]
fn karma_work_beats_age() {
    let (heap, class, stm) =
        setup_with(StmConfig { cm: CmPolicy::Karma, doom_wait_spins: 64, ..StmConfig::default() });
    let objs: Vec<_> = (0..10).map(|_| heap.alloc(class).unwrap()).collect();
    let hot = heap.alloc(class).unwrap();

    let mut older = stm.begin();
    older.open_for_update(hot).unwrap(); // karma 1
    let mut younger = stm.begin();
    for o in &objs {
        younger.open_for_read(*o).unwrap(); // karma 10
    }
    // Despite being younger, the high-karma transaction wins the
    // arbitration and dooms the older owner.
    assert_eq!(younger.open_for_update(hot), Err(TxError::BUSY)); // bounded wait, single thread
    assert!(older.is_doomed());
    assert_eq!(older.commit(), Err(TxError::DOOMED));
    younger.abort();
    assert_eq!(stm.stats().aborts_doomed, 1);
}

#[test]
fn doomed_atomically_retries_and_succeeds() {
    // A doomed retry-loop transaction must come back and commit.
    let (heap, class, stm) = setup_with(StmConfig {
        cm: CmPolicy::OldestWins,
        doom_wait_spins: 16,
        ..StmConfig::default()
    });
    let obj = heap.alloc(class).unwrap();

    let mut doomed_once = false;
    stm.atomically(|tx| {
        if !doomed_once {
            // Simulate being doomed mid-flight by a higher-priority
            // transaction's contention manager.
            tx.ctl().doomed.store(true, Ordering::Release);
            doomed_once = true;
        }
        let n = tx.read(obj, 0)?.as_scalar().unwrap();
        tx.write(obj, 0, Word::from_scalar(n + 1))
    });
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(1));
    assert_eq!(stm.stats().aborts_doomed, 1);
    assert_eq!(stm.stats().commits, 1);
}

#[test]
fn retry_carries_priority_and_karma_across_attempts() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    let mut seen: Vec<(u64, u64)> = Vec::new();
    let _ = stm.try_atomically(|tx| {
        tx.open_for_read(obj)?; // karma +1 each attempt
        let ctl = tx.ctl();
        seen.push((ctl.priority(), ctl.karma()));
        if seen.len() < 3 {
            return Err(TxError::EXPLICIT);
        }
        Ok(())
    });
    assert_eq!(seen.len(), 3);
    let first_priority = seen[0].0;
    assert!(seen.iter().all(|&(p, _)| p == first_priority), "age pinned to first attempt");
    assert_eq!(seen[0].1, 1);
    assert_eq!(seen[1].1, 2, "karma accumulates across retries");
    assert_eq!(seen[2].1, 3);
}

#[test]
fn serial_mode_entered_after_consecutive_aborts() {
    let (_heap, _class, stm) = setup_with(StmConfig {
        serial_after_aborts: Some(2),
        max_retries: 5,
        ..StmConfig::default()
    });
    let result: Result<(), _> = stm.try_atomically(|_tx| Err(TxError::EXPLICIT));
    assert!(matches!(result, Err(crate::RetryExhausted::Conflicts { attempts: 6, .. })));
    // Attempts begin with 0..=5 prior failures; those with >= 2 run
    // serially: attempts 3, 4, 5 and 6 → four serial entries.
    assert_eq!(stm.stats().serial_entries, 4);
}

#[test]
fn serial_fallback_disabled_when_none() {
    let (_heap, _class, stm) =
        setup_with(StmConfig { serial_after_aborts: None, max_retries: 5, ..StmConfig::default() });
    let _: Result<(), _> = stm.try_atomically(|_tx| Err(TxError::EXPLICIT));
    assert_eq!(stm.stats().serial_entries, 0);
}

#[test]
fn try_atomically_reports_busy_exhaustion_against_a_holder() {
    // Deterministic RetryExhausted with a real conflict: a manual
    // transaction holds the object for the whole budget.
    let (heap, class, stm) = setup_with(StmConfig {
        cm: CmPolicy::AbortSelf,
        max_retries: 3,
        serial_after_aborts: None,
        ..StmConfig::default()
    });
    let obj = heap.alloc(class).unwrap();
    let mut holder = stm.begin();
    holder.open_for_update(obj).unwrap();

    let result = stm.try_atomically(|tx| tx.open_for_update(obj));
    match result {
        Err(crate::RetryExhausted::Conflicts { attempts, last }) => {
            assert_eq!(attempts, 4);
            assert_eq!(last, ConflictKind::Busy);
        }
        other => panic!("expected Busy exhaustion, got {other:?}"),
    }
    assert_eq!(stm.stats().aborts_busy, 4);
    holder.abort();
}

// ---------------------------------------------------------------------
// Deadlines: the give-up half of the retry budget.
// ---------------------------------------------------------------------

use std::time::Duration;

#[test]
fn deadline_gives_up_with_typed_error() {
    let (_heap, _class, stm) = setup_with(StmConfig {
        serial_after_aborts: None,
        backoff_cap_log2: 4,
        ..StmConfig::default()
    });
    let result: Result<(), _> =
        stm.try_atomically_within(Duration::from_millis(5), |_tx| Err(TxError::EXPLICIT));
    match result {
        Err(crate::RetryExhausted::DeadlineExceeded { attempts }) => {
            assert!(attempts >= 1, "at least one attempt ran before the deadline");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(stm.stats().deadlines_exceeded, 1);
    assert_eq!(stm.stats().give_ups(), 1);
}

#[test]
fn expired_deadline_sheds_before_first_attempt() {
    let (_heap, _class, stm) = setup();
    let mut runs = 0;
    let result: Result<(), _> = stm.try_atomically_within(Duration::ZERO, |_tx| {
        runs += 1;
        Ok(())
    });
    assert!(matches!(result, Err(crate::RetryExhausted::DeadlineExceeded { attempts: 0 })));
    assert_eq!(runs, 0, "an already-expired deadline never runs the closure");
    assert_eq!(stm.stats().deadlines_exceeded, 1);
}

#[test]
fn config_deadline_applies_to_try_atomically() {
    let (_heap, _class, stm) = setup_with(StmConfig {
        tx_deadline: Some(Duration::from_millis(5)),
        serial_after_aborts: None,
        backoff_cap_log2: 4,
        ..StmConfig::default()
    });
    let result: Result<(), _> = stm.try_atomically(|_tx| Err(TxError::EXPLICIT));
    assert!(matches!(result, Err(crate::RetryExhausted::DeadlineExceeded { .. })));
}

#[test]
fn deadline_escalates_atomically_into_serial_mode() {
    // `atomically` cannot return an error, so a passed deadline forces
    // the next attempt into exclusive serial mode, which cannot lose a
    // conflict race — bounded completion instead of a give-up.
    let (_heap, _class, stm) = setup_with(StmConfig {
        tx_deadline: Some(Duration::ZERO),
        serial_after_aborts: None,
        ..StmConfig::default()
    });
    let mut runs = 0;
    let v = stm.atomically(|_tx| {
        runs += 1;
        if runs == 1 {
            Err(TxError::EXPLICIT)
        } else {
            Ok(42)
        }
    });
    assert_eq!(v, 42);
    assert_eq!(stm.stats().serial_entries, 1, "retry after the deadline ran serially");
    assert_eq!(stm.stats().deadlines_exceeded, 0, "infallible loops never give up");
}

#[test]
fn closure_returned_deadline_error_ends_the_loop() {
    let (_heap, _class, stm) = setup();
    let mut runs = 0;
    let result: Result<(), _> = stm.try_atomically(|_tx| {
        runs += 1;
        Err(TxError::DeadlineExceeded)
    });
    assert!(matches!(result, Err(crate::RetryExhausted::DeadlineExceeded { attempts: 1 })));
    assert_eq!(runs, 1, "DeadlineExceeded is not retryable");
}

#[test]
fn conflict_exhaustion_counts_as_retries_exhausted() {
    let (_heap, _class, stm) =
        setup_with(StmConfig { max_retries: 2, serial_after_aborts: None, ..StmConfig::default() });
    let result: Result<(), _> = stm.try_atomically(|_tx| Err(TxError::EXPLICIT));
    assert!(matches!(result, Err(crate::RetryExhausted::Conflicts { attempts: 3, .. })));
    let s = stm.stats();
    assert_eq!(s.retries_exhausted, 1);
    assert_eq!(s.deadlines_exceeded, 0);
    assert_eq!(s.give_ups(), 1);
}

// ---------------------------------------------------------------------
// Panic safety: a panicking closure must leave no trace in the heap.
// ---------------------------------------------------------------------

#[test]
fn panic_in_body_rolls_back_before_unwinding() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(10));

    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.atomically(|tx| {
            tx.write(obj, 0, Word::from_scalar(99))?;
            panic!("boom");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(caught.is_err());
    // The in-place update was undone and ownership released before the
    // unwind reached us.
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(10));
    assert!(matches!(
        StmWord::decode(heap.header_atomic(obj).load(Ordering::Acquire)),
        StmWord::Version(_)
    ));
    assert_eq!(stm.registry().active_count(), 0);
    let s = stm.stats();
    assert_eq!(s.panics_unwound, 1);
    assert_eq!(s.aborts_explicit, 1);

    // The runtime is fully usable afterwards.
    stm.atomically(|tx| tx.write(obj, 0, Word::from_scalar(11)));
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(11));
}

#[test]
fn panic_after_open_for_update_releases_ownership() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();

    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.atomically(|tx| {
            tx.open_for_update(obj)?;
            panic!("boom after acquire");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(caught.is_err());
    assert_eq!(stm.stats().panics_unwound, 1);
    // No orphan, no squatting owner: another thread's transaction can
    // acquire the object immediately (no recovery involved).
    assert_eq!(stm.registry().orphan_count(), 0);
    let mut tx = stm.begin();
    tx.write(obj, 0, Word::from_scalar(5)).unwrap();
    tx.commit().unwrap();
    assert_eq!(stm.stats().orphans_recovered, 0);
}

#[test]
fn panic_in_serial_mode_releases_the_gate() {
    // The exclusive serial-mode gate is held across the attempt; a
    // panic inside it must release the gate during the unwind or every
    // later transaction deadlocks.
    let (_heap, _class, stm) =
        setup_with(StmConfig { serial_after_aborts: Some(1), ..StmConfig::default() });
    let mut runs = 0;
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.atomically(|_tx| -> crate::TxResult<()> {
            runs += 1;
            if runs == 1 {
                Err(TxError::EXPLICIT) // escalate the next attempt to serial
            } else {
                panic!("boom in serial mode");
            }
        })
    }));
    assert!(caught.is_err());
    assert_eq!(stm.stats().serial_entries, 1);
    // Gate released: an ordinary transaction proceeds without blocking.
    let v = stm.atomically(|_tx| Ok(7));
    assert_eq!(v, 7);
}

// ---------------------------------------------------------------------
// Failpoints: deterministic fault injection and orphan recovery.
// ---------------------------------------------------------------------

use crate::failpoint::{sites, FailAction, Trigger};

#[test]
fn failpoint_abort_at_commit_is_survivable() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    stm.failpoints().set(sites::COMMIT_BEFORE_VALIDATE, FailAction::Abort, Trigger::Once);
    stm.atomically(|tx| tx.write(obj, 0, Word::from_scalar(9)));
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(9));
    let s = stm.stats();
    assert_eq!(s.failpoint_fires, 1);
    assert_eq!(s.aborts_explicit, 1);
    assert_eq!(s.commits, 1);
}

#[test]
fn failpoint_delay_does_not_change_semantics() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    stm.failpoints().set(sites::COMMIT_BEFORE_RELEASE, FailAction::Delay(100), Trigger::Always);
    stm.atomically(|tx| tx.write(obj, 0, Word::from_scalar(3)));
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(3));
    assert_eq!(stm.stats().commits, 1);
    assert!(stm.stats().failpoint_fires >= 1);
}

#[test]
fn kill_after_acquire_is_recovered_by_contender() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(7));

    stm.failpoints().set(sites::OPEN_UPDATE_AFTER_ACQUIRE, FailAction::Kill, Trigger::Once);
    let mut victim = stm.begin();
    assert_eq!(victim.write(obj, 0, Word::from_scalar(8)), Err(TxError::DOOMED));
    drop(victim);
    // The dead transaction still owns the object; its logs are parked.
    assert!(matches!(
        StmWord::decode(heap.header_atomic(obj).load(Ordering::Acquire)),
        StmWord::Owned { .. }
    ));
    assert_eq!(stm.registry().active_count(), 0);
    assert_eq!(stm.registry().orphan_count(), 1);

    // A later transaction stumbles on the orphan, recovers it, and
    // proceeds — no operator intervention.
    let mut other = stm.begin();
    other.write(obj, 0, Word::from_scalar(9)).unwrap();
    other.commit().unwrap();
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(9));

    let s = stm.stats();
    assert_eq!(s.txs_killed, 1);
    assert_eq!(s.orphans_recovered, 1);
    assert_eq!(stm.registry().orphan_count(), 0);
}

#[test]
fn kill_before_release_leaves_torn_state_that_recovery_undoes() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(10));

    stm.failpoints().set(sites::COMMIT_BEFORE_RELEASE, FailAction::Kill, Trigger::Once);
    let mut victim = stm.begin();
    victim.write(obj, 0, Word::from_scalar(99)).unwrap();
    assert_eq!(victim.commit(), Err(TxError::DOOMED));
    // Validation passed, the in-place update is in the heap, ownership
    // is held — maximal torn state.
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(99));

    let mut other = stm.begin();
    other.open_for_update(obj).unwrap(); // triggers recovery
                                         // Recovery replayed the orphan's undo log: exact pre-state.
    assert_eq!(other.read(obj, 0).unwrap().as_scalar(), Some(10));
    other.abort();
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(10));
    assert_eq!(stm.stats().orphans_recovered, 1);
}

#[test]
fn reader_validation_recovers_a_killed_owner() {
    // A read-only transaction never calls `open_for_update`, so the
    // contend-path recovery trigger can't help it. Validation itself
    // must recover orphans, or an orphan squatting on a key dooms every
    // reader of that key forever.
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(10));

    let mut reader = stm.begin();
    assert_eq!(reader.read(obj, 0).unwrap().as_scalar(), Some(10));

    stm.failpoints().set(sites::COMMIT_BEFORE_RELEASE, FailAction::Kill, Trigger::Once);
    let mut victim = stm.begin();
    victim.write(obj, 0, Word::from_scalar(99)).unwrap();
    assert_eq!(victim.commit(), Err(TxError::DOOMED));
    assert_eq!(stm.registry().orphan_count(), 1);

    // The reader's commit fails (it raced the torn write) *and*
    // recovers the orphan on its way out.
    assert_eq!(reader.commit(), Err(TxError::INVALID));
    assert_eq!(stm.stats().orphans_recovered, 1);
    assert_eq!(stm.registry().orphan_count(), 0);

    // A pure read-only retry now succeeds against the restored value.
    let mut retry = stm.begin();
    assert_eq!(retry.read(obj, 0).unwrap().as_scalar(), Some(10));
    retry.commit().unwrap();
}

#[test]
fn kill_during_rollback_orphans_with_updates_in_place() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(1));

    stm.failpoints().set(sites::ABORT_BEFORE_UNDO, FailAction::Kill, Trigger::Once);
    let mut victim = stm.begin();
    victim.write(obj, 0, Word::from_scalar(2)).unwrap();
    victim.abort(); // dies at the top of rollback, nothing undone
    assert_eq!(heap.load(obj, 0).as_scalar(), Some(2), "update still in place");
    assert_eq!(stm.registry().orphan_count(), 1);

    let mut other = stm.begin();
    other.open_for_update(obj).unwrap();
    assert_eq!(other.read(obj, 0).unwrap().as_scalar(), Some(1), "recovery restored pre-state");
    other.commit().unwrap();
}

#[test]
fn seeded_probabilistic_aborts_are_reproducible() {
    let run = |seed: u64| {
        let (heap, class, stm) = setup();
        let obj = heap.alloc(class).unwrap();
        stm.failpoints().set(
            sites::COMMIT_BEFORE_VALIDATE,
            FailAction::Abort,
            Trigger::Prob { p: 0.3, seed },
        );
        for _ in 0..32 {
            stm.atomically(|tx| {
                let n = tx.read(obj, 0)?.as_scalar().unwrap();
                tx.write(obj, 0, Word::from_scalar(n + 1))
            });
        }
        assert_eq!(heap.load(obj, 0).as_scalar(), Some(32));
        stm.stats().failpoint_fires
    };
    let fires = run(0xFA11);
    assert_eq!(fires, run(0xFA11), "same seed ⇒ same injected-abort schedule");
    assert!(fires > 0, "p=0.3 over ≥32 commits should fire at least once");
}

// ---------------------------------------------------------------------
// Commit-sequence clock: validation fast path, watermark, ablation.
// ---------------------------------------------------------------------

#[test]
fn read_only_commit_takes_the_validation_fast_path() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(7));

    let mut tx = stm.begin();
    assert_eq!(tx.read(obj, 0).unwrap().as_scalar(), Some(7));
    tx.commit().unwrap();

    let s = stm.stats();
    assert_eq!(s.commits, 1);
    assert_eq!(s.validations, 1);
    assert_eq!(s.validation_fast_path, 1, "clock unchanged ⇒ no read-log scan");
    assert_eq!(s.validation_entries_scanned, 0);
    assert_eq!(stm.commit_clock(), 0, "read-only commits never bump the clock");
}

#[test]
fn writer_commits_bump_the_clock_and_force_a_full_rescan() {
    let (heap, class, stm) = setup();
    let a = heap.alloc(class).unwrap();
    let b = heap.alloc(class).unwrap();

    let mut reader = stm.begin();
    reader.read(a, 0).unwrap();

    // An unrelated writer publishes an update: the clock moves.
    let mut writer = stm.begin();
    writer.write(b, 0, Word::from_scalar(1)).unwrap();
    writer.commit().unwrap();
    assert_eq!(stm.commit_clock(), 1);

    reader.validate().unwrap();
    assert_eq!(reader.counters().validation_fast_path, 0, "clock moved ⇒ full pass");
    assert_eq!(reader.counters().validation_entries_scanned, 1);

    // The pass refreshed the snapshot; with no further commits the next
    // validation is O(1) again.
    reader.validate().unwrap();
    assert_eq!(reader.counters().validation_fast_path, 1);
    assert_eq!(reader.counters().validation_entries_scanned, 1);
    reader.commit().unwrap();
}

#[test]
fn aborted_writers_do_not_bump_the_clock() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();

    let mut writer = stm.begin();
    writer.write(obj, 0, Word::from_scalar(9)).unwrap();
    writer.abort();
    // Rollback restored the exact pre-state before releasing ownership,
    // so nothing a reader could have fast-pathed across was published.
    assert_eq!(stm.commit_clock(), 0);

    let mut reader = stm.begin();
    reader.read(obj, 0).unwrap();
    reader.commit().unwrap();
    assert_eq!(stm.stats().validation_fast_path, 1);
}

#[test]
fn epoch_bump_is_checked_before_the_clock_shortcut() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();

    let mut tx = stm.begin();
    tx.read(obj, 0).unwrap();
    // Advance the epoch without any commit: the clock is untouched, so
    // a clock-first validation would silently (and wrongly) pass.
    stm.bump_epoch();
    assert_eq!(stm.commit_clock(), 0);
    assert_eq!(tx.validate(), Err(TxError::EPOCH));
    assert_eq!(tx.counters().validation_fast_path, 0, "EPOCH must never be fast-pathed away");
    tx.abort();
}

#[test]
fn version_overflow_epoch_bump_forces_the_slow_path_and_epoch_abort() {
    let (heap, class, stm) = setup_with(StmConfig { version_bits: 2, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();
    let other = heap.alloc(class).unwrap();

    let mut spanning = stm.begin();
    spanning.read(other, 0).unwrap();
    spanning.validate().unwrap();
    assert_eq!(spanning.counters().validation_fast_path, 1, "pre-wrap validation fast-paths");

    // Wrap the version space: the last commit bumps the global epoch
    // (and, like every update commit, the commit-sequence clock).
    for i in 0..4 {
        let mut tx = stm.begin();
        tx.write(obj, 0, Word::from_scalar(i)).unwrap();
        tx.commit().unwrap();
    }
    // The epoch moved between the snapshot refresh and the commit: the
    // outcome is an EPOCH abort, never a silent fast-path skip.
    assert_eq!(spanning.commit(), Err(TxError::EPOCH));
}

#[test]
fn doomed_is_observed_before_the_clock_shortcut() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();

    let mut tx = stm.begin();
    tx.read(obj, 0).unwrap();
    // Every fast-path precondition holds (clock unchanged, clean read
    // log) — yet the doom flag must win.
    tx.ctl().doomed.store(true, Ordering::Release);
    assert_eq!(tx.validate(), Err(TxError::Conflict(ConflictKind::Doomed)));
    assert_eq!(tx.counters().validation_fast_path, 0);
    assert_eq!(tx.commit(), Err(TxError::DOOMED));
}

#[test]
fn foreign_owner_in_read_log_disables_the_fast_path() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();

    let mut owner = stm.begin();
    owner.open_for_update(obj).unwrap();

    let mut reader = stm.begin();
    reader.read(obj, 0).unwrap(); // observes the foreign Owned word
                                  // The acquisition predates the reader's clock snapshots and the
                                  // owner's in-place stores bump no clock, so the clocks cannot vouch
                                  // for this entry — the fast path must stand down.
    assert_eq!(reader.validate(), Err(TxError::INVALID));
    assert_eq!(reader.counters().validation_fast_path, 0);
    assert_eq!(reader.counters().validation_entries_scanned, 1);
    owner.abort();
}

#[test]
fn poisoned_tail_rescans_only_past_the_watermark() {
    let (heap, class, stm) = setup();
    let a = heap.alloc(class).unwrap();
    let b = heap.alloc(class).unwrap();

    // The acquisition happens before the reader begins, so both clocks
    // stay quiescent from the reader's point of view.
    let mut owner = stm.begin();
    owner.open_for_update(b).unwrap();

    let mut reader = stm.begin();
    reader.read(a, 0).unwrap();
    reader.validate().unwrap(); // watermark now covers entry 0
    assert_eq!(reader.counters().validation_fast_path, 1);

    reader.read(b, 0).unwrap(); // poisons the fast path

    // Clocks unchanged: they still vouch for the covered prefix, so
    // only the tail (the offending entry) is scanned.
    assert_eq!(reader.validate(), Err(TxError::INVALID));
    assert_eq!(reader.counters().validation_entries_scanned, 1);
    owner.abort();
}

#[test]
fn rollback_to_savepoint_restores_fast_path_eligibility() {
    let (heap, class, stm) = setup();
    let a = heap.alloc(class).unwrap();
    let b = heap.alloc(class).unwrap();

    let mut owner = stm.begin();
    owner.open_for_update(b).unwrap();

    let mut reader = stm.begin();
    reader.read(a, 0).unwrap();
    let sp = reader.savepoint();
    reader.read(b, 0).unwrap(); // poisons the fast path
    reader.rollback_to(sp); // ...and the poisoning entry is truncated away
    owner.abort();

    reader.validate().unwrap();
    assert_eq!(reader.counters().validation_fast_path, 1, "poison recomputed after rollback");
    reader.commit().unwrap();
}

#[test]
fn in_flight_acquisition_defeats_the_fast_path() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    heap.store(obj, 0, Word::from_scalar(1));

    let mut reader = stm.begin();
    assert_eq!(reader.read(obj, 0).unwrap().as_scalar(), Some(1));

    // A writer acquires the object and stores in place *after* the
    // reader opened it, without committing: the commit clock stays
    // parked, but the acquisition clock moves.
    let mut writer = stm.begin();
    writer.write(obj, 0, Word::from_scalar(99)).unwrap();
    assert_eq!(stm.commit_clock(), 0);

    // Direct update makes the uncommitted store observable; the
    // validation fast path must stand down and the scan must abort the
    // reader (observed Version vs current foreign Owned).
    assert_eq!(reader.load_direct(obj, 0).as_scalar(), Some(99), "dirty read is observable");
    assert_eq!(reader.validate(), Err(TxError::INVALID));
    assert_eq!(reader.counters().validation_fast_path, 0);
    assert_eq!(reader.commit(), Err(TxError::INVALID));
    writer.abort();
}

#[test]
fn acquisition_after_watermark_refresh_forces_a_full_rescan() {
    let (heap, class, stm) = setup();
    let a = heap.alloc(class).unwrap();
    let b = heap.alloc(class).unwrap();

    let mut reader = stm.begin();
    reader.read(a, 0).unwrap();
    reader.read(b, 0).unwrap();
    reader.validate().unwrap(); // watermark covers both entries
    assert_eq!(reader.counters().validation_fast_path, 1);

    // An acquisition *inside* the watermark-covered prefix: the clocks
    // may no longer vouch for the prefix, so the next validation must
    // rescan it (and reject the now-owned entry) rather than fast-path
    // or tail-scan.
    let mut writer = stm.begin();
    writer.write(a, 0, Word::from_scalar(7)).unwrap();

    assert_eq!(reader.validate(), Err(TxError::INVALID));
    assert_eq!(reader.counters().validation_fast_path, 1, "no further fast path");
    assert!(reader.counters().validation_entries_scanned >= 1, "the prefix was rescanned");
    writer.abort();
}

#[test]
fn mid_validation_catches_an_in_flight_writer() {
    // Zombie containment: `validate_every` re-validation is the
    // mechanism that stops a doomed transaction from computing on torn
    // reads, so it must never fast-path across an in-flight foreign
    // acquisition.
    let (heap, class, stm) =
        setup_with(StmConfig { validate_every: Some(2), ..StmConfig::default() });
    let x = heap.alloc(class).unwrap();
    let y = heap.alloc(class).unwrap();

    let mut reader = stm.begin();
    reader.read(x, 0).unwrap(); // one read: no mid-validation yet

    let mut writer = stm.begin();
    writer.write(x, 0, Word::from_scalar(13)).unwrap(); // uncommitted

    // The second read trips the periodic validation, which must scan
    // (the acquisition clock moved) and abort the zombie-to-be.
    assert_eq!(reader.read(y, 0), Err(TxError::INVALID));
    assert_eq!(reader.counters().mid_validations, 1);
    assert_eq!(reader.counters().validation_fast_path, 0);
    reader.abort();
    writer.abort();
}

#[test]
fn own_acquisitions_keep_the_fast_path_armed() {
    let (heap, class, stm) = setup();
    let a = heap.alloc(class).unwrap();
    let b = heap.alloc(class).unwrap();

    // A read-write transaction with no foreign activity: its own
    // acquisition bumps are discounted, so validation is still O(1).
    let mut tx = stm.begin();
    tx.read(a, 0).unwrap();
    tx.write(b, 0, Word::from_scalar(3)).unwrap();
    tx.validate().unwrap();
    assert_eq!(tx.counters().validation_fast_path, 1);
    assert_eq!(tx.counters().validation_entries_scanned, 0);
    tx.commit().unwrap();
    assert_eq!(stm.acquire_clock(), 1);
    assert_eq!(stm.commit_clock(), 1);
}

#[test]
fn knob_off_parks_both_clocks() {
    let (heap, class, stm) =
        setup_with(StmConfig { commit_sequence: false, ..StmConfig::default() });
    let obj = heap.alloc(class).unwrap();
    let mut tx = stm.begin();
    tx.write(obj, 0, Word::from_scalar(4)).unwrap();
    tx.commit().unwrap();
    assert_eq!(stm.commit_clock(), 0);
    assert_eq!(stm.acquire_clock(), 0);
}

#[test]
fn disabling_commit_sequence_restores_the_full_rescan_baseline() {
    // The same deterministic workload under both knob settings: commits,
    // reads, one invalidated zombie per round.
    let run = |commit_sequence: bool| {
        let (heap, class, stm) = setup_with(StmConfig { commit_sequence, ..StmConfig::default() });
        let objs: Vec<_> = (0..4).map(|_| heap.alloc(class).unwrap()).collect();
        for round in 0..3i64 {
            let mut audit = stm.begin();
            for o in &objs {
                audit.read(*o, 0).unwrap();
            }
            audit.commit().unwrap();

            let mut writer = stm.begin();
            writer.write(objs[0], 0, Word::from_scalar(round)).unwrap();
            writer.commit().unwrap();

            let mut zombie = stm.begin();
            zombie.read(objs[0], 0).unwrap();
            let mut rival = stm.begin();
            rival.write(objs[0], 0, Word::from_scalar(round + 100)).unwrap();
            rival.commit().unwrap();
            assert_eq!(zombie.commit(), Err(TxError::INVALID));
        }
        let values: Vec<_> = objs.iter().map(|o| heap.load(*o, 0).as_scalar().unwrap()).collect();
        (stm.stats(), values)
    };

    let (on, heap_on) = run(true);
    let (off, heap_off) = run(false);

    assert_eq!(heap_on, heap_off, "the knob must not change results");
    assert_eq!(off.validation_fast_path, 0, "knob off ⇒ the fast path never fires");
    assert!(on.validation_fast_path > 0);
    assert!(
        on.validation_entries_scanned < off.validation_entries_scanned,
        "the clock must save scans: {} !< {}",
        on.validation_entries_scanned,
        off.validation_entries_scanned
    );

    // Every pre-existing statistic is byte-identical across the ablation.
    let normalize = |mut s: crate::StmStatsSnapshot| {
        s.validation_fast_path = 0;
        s.validation_entries_scanned = 0;
        s
    };
    assert_eq!(normalize(on), normalize(off));
}

// ---------------------------------------------------------------------
// Deterministic schedule exploration: the explorer re-derives the
// cross-thread bugs this crate has fixed, from the test-only knobs that
// revert each fix. Each scenario's oracle rejects a *zombie commit* — a
// reader committing a value no writer ever committed.
// ---------------------------------------------------------------------

mod sched_regressions {
    use super::*;
    use omt_sched::{Execution, Explorer, RunOutcome, SchedConfig, ThreadBody};
    use std::sync::Mutex;

    /// Which fix to revert for one exploration.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Revert {
        /// Sound tree: both fixes in place.
        Nothing,
        /// Validation's fast path consults the commit clock alone
        /// (reverts the PR 3 acquisition-clock check).
        AcquireClockCheck,
        /// Abort releases dirtied entries at their original version
        /// (reverts this PR's version-burn fix).
        AbortVersionBurn,
    }

    /// One reader racing one aborting writer on a single cell.
    ///
    /// The writer stores 1 in place and then aborts; no transaction
    /// ever commits an update, so a reader that *commits* having read 1
    /// observed uncommitted (later rolled-back) state — a
    /// serializability violation. Each knob opens a distinct window:
    ///
    /// - commit-clock-only: the reader validates while the writer still
    ///   owns the cell; with no commit ever published the commit clock
    ///   is quiescent, and without the acquisition clock the fast path
    ///   skips the scan that would see the `Owned` header.
    /// - abort-restores-version: the reader validates *after* the abort
    ///   released the cell back at its original version; the scan
    ///   passes because header word equals the logged word (the ABA the
    ///   version burn prevents).
    fn zombie_read_factory(revert: Revert) -> impl Fn() -> Execution {
        move || {
            let heap = Arc::new(Heap::new());
            let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["a", "b"]));
            let obj = heap.alloc(class).unwrap();
            let stm = Arc::new(Stm::with_config(
                heap.clone(),
                StmConfig { serial_after_aborts: None, ..StmConfig::default() },
            ));
            stm.set_test_unsound_commit_clock_only(revert == Revert::AcquireClockCheck);
            stm.set_test_unsound_abort_restores_version(revert == Revert::AbortVersionBurn);
            let committed_read = Arc::new(Mutex::new(None::<i64>));

            let reader: ThreadBody = Box::new({
                let stm = stm.clone();
                let out = committed_read.clone();
                move || {
                    let mut tx = stm.begin();
                    match tx.read(obj, 0) {
                        Ok(word) => {
                            let v = word.as_scalar().unwrap();
                            if tx.commit().is_ok() {
                                *out.lock().unwrap() = Some(v);
                            }
                        }
                        Err(_) => tx.abort(),
                    }
                }
            });
            let writer: ThreadBody = Box::new({
                let stm = stm.clone();
                move || {
                    let mut tx = stm.begin();
                    let _ = tx.write(obj, 0, Word::from_scalar(1));
                    tx.abort();
                }
            });
            Execution {
                threads: vec![reader, writer],
                check: Box::new(move || match *committed_read.lock().unwrap() {
                    Some(v) if v != 0 => Err(format!(
                        "zombie commit: reader committed {v}, but no writer ever committed"
                    )),
                    _ => Ok(()),
                }),
            }
        }
    }

    fn explorer() -> Explorer {
        Explorer::new(SchedConfig {
            preemption_bound: 3,
            random_walks: 0,
            ..SchedConfig::default()
        })
    }

    #[test]
    fn explorer_rederives_the_two_clock_bug() {
        let report = explorer().explore(&zombie_read_factory(Revert::AcquireClockCheck));
        let cx = report.counterexample.expect(
            "reverting the acquisition-clock check must reintroduce the PR 3 zombie commit",
        );
        assert!(cx.message.contains("zombie commit"), "{}", cx.message);
        // The counterexample replays deterministically.
        match explorer().replay(&zombie_read_factory(Revert::AcquireClockCheck), &cx.schedule) {
            RunOutcome::Fail { message } => assert!(message.contains("zombie commit")),
            o => panic!("counterexample must replay, got {o:?}"),
        }
        // And the *same schedule* passes on the fixed tree: the fix
        // closes exactly this interleaving.
        assert_eq!(
            explorer().replay(&zombie_read_factory(Revert::Nothing), &cx.schedule),
            RunOutcome::Pass,
            "schedule: {:?}\n{}",
            cx.schedule,
            cx.trace
        );
    }

    #[test]
    fn explorer_rederives_the_abort_version_aba_bug() {
        let report = explorer().explore(&zombie_read_factory(Revert::AbortVersionBurn));
        let cx = report
            .counterexample
            .expect("reverting the version burn must reintroduce the abort-ABA zombie commit");
        assert!(cx.message.contains("zombie commit"), "{}", cx.message);
        match explorer().replay(&zombie_read_factory(Revert::AbortVersionBurn), &cx.schedule) {
            RunOutcome::Fail { message } => assert!(message.contains("zombie commit")),
            o => panic!("counterexample must replay, got {o:?}"),
        }
        assert_eq!(
            explorer().replay(&zombie_read_factory(Revert::Nothing), &cx.schedule),
            RunOutcome::Pass
        );
    }

    #[test]
    fn fixed_tree_has_no_zombie_commit() {
        let report = explorer().explore(&zombie_read_factory(Revert::Nothing));
        assert!(report.passed(), "{}", report.counterexample.unwrap());
        assert!(report.exhausted, "the bounded space must be fully enumerated");
        assert_eq!(report.divergences, 0, "scenario must be schedule-deterministic");
    }

    /// A named boxed scenario factory (the unsound snapshot knobs
    /// produce distinct closure types, so the array boxes them).
    type NamedFactory = (&'static str, Box<dyn Fn() -> Execution>);

    /// Prints the minimized counterexample schedules (run with
    /// `--nocapture --ignored` to refresh the frozen schedules in
    /// `tests/sched_explore.rs`).
    #[test]
    #[ignore = "development aid: prints minimized schedules"]
    fn print_minimized_schedules() {
        for (name, revert) in
            [("two_clock", Revert::AcquireClockCheck), ("abort_aba", Revert::AbortVersionBurn)]
        {
            let report = explorer().explore(&zombie_read_factory(revert));
            let cx = report.counterexample.expect(name);
            println!("{name}: schedule {:?}\n{}", cx.schedule, cx.trace);
        }
        let snapshot_factories: [NamedFactory; 2] = [
            ("snapshot_recheck", Box::new(snapshot_zombie_factory(true))),
            ("torn_extension", Box::new(torn_extension_factory(true))),
        ];
        for (name, factory) in snapshot_factories {
            let report = explorer().explore(&factory);
            let cx = report.counterexample.expect(name);
            println!("{name}: schedule {:?}\n{}", cx.schedule, cx.trace);
        }
    }

    fn snapshot_config() -> StmConfig {
        StmConfig {
            serial_after_aborts: None,
            snapshot_reads: true,
            // Keep the bounded owner-wait short so the exploration tree
            // stays small; exhaustion falls back to the (sound)
            // optimistic path.
            doom_wait_spins: 3,
            ..StmConfig::default()
        }
    }

    /// One snapshot reader racing one aborting writer on a single cell
    /// (the snapshot-mode twin of `zombie_read_factory`).
    ///
    /// The writer stores 1 in place and aborts, so no update ever
    /// commits. A sound snapshot read cannot return the dirty 1: the
    /// seqlock re-check sees the header moved (at least to the writer's
    /// `Owned` word) and retries. With `skip_recheck` the first header
    /// is accepted unconditionally, the dirty value flows through, and
    /// the read-only commit skip — which trusts the sandwich — publishes
    /// a zombie.
    fn snapshot_zombie_factory(skip_recheck: bool) -> impl Fn() -> Execution {
        move || {
            let heap = Arc::new(Heap::new());
            let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["a", "b"]));
            let obj = heap.alloc(class).unwrap();
            let stm = Arc::new(Stm::with_config(heap.clone(), snapshot_config()));
            stm.set_test_unsound_snapshot_skip_recheck(skip_recheck);
            let committed_read = Arc::new(Mutex::new(None::<i64>));

            let reader: ThreadBody = Box::new({
                let stm = stm.clone();
                let out = committed_read.clone();
                move || {
                    let mut tx = stm.begin();
                    match tx.read(obj, 0) {
                        Ok(word) => {
                            let v = word.as_scalar().unwrap();
                            if tx.commit().is_ok() {
                                *out.lock().unwrap() = Some(v);
                            }
                        }
                        Err(_) => tx.abort(),
                    }
                }
            });
            let writer: ThreadBody = Box::new({
                let stm = stm.clone();
                move || {
                    let mut tx = stm.begin();
                    let _ = tx.write(obj, 0, Word::from_scalar(1));
                    tx.abort();
                }
            });
            Execution {
                threads: vec![reader, writer],
                check: Box::new(move || match *committed_read.lock().unwrap() {
                    Some(v) if v != 0 => Err(format!(
                        "zombie commit: reader committed {v}, but no writer ever committed"
                    )),
                    _ => Ok(()),
                }),
            }
        }
    }

    /// One snapshot reader racing one *committing* writer across two
    /// cells, probing opacity across a timestamp extension.
    ///
    /// The writer commits x=1, y=1 atomically from (0,0); the only
    /// serializable read pairs are (0,0) and (1,1). A reader that read
    /// x before the commit finds y too new and must *extend*: sound
    /// extension revalidates the read set, catches x having moved, and
    /// aborts. With `skip_revalidate` the extension fast-forwards
    /// `read_ver` without certifying x, and the reader commits the torn
    /// pair (0,1).
    fn torn_extension_factory(skip_revalidate: bool) -> impl Fn() -> Execution {
        move || {
            let heap = Arc::new(Heap::new());
            let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["a", "b"]));
            let x = heap.alloc(class).unwrap();
            let y = heap.alloc(class).unwrap();
            let stm = Arc::new(Stm::with_config(heap.clone(), snapshot_config()));
            stm.set_test_unsound_extension_skips_revalidate(skip_revalidate);
            let committed_pair = Arc::new(Mutex::new(None::<(i64, i64)>));

            let reader: ThreadBody = Box::new({
                let stm = stm.clone();
                let out = committed_pair.clone();
                move || {
                    let mut tx = stm.begin();
                    let result = (|| {
                        let a = tx.read(x, 0)?.as_scalar().unwrap();
                        let b = tx.read(y, 0)?.as_scalar().unwrap();
                        Ok::<_, TxError>((a, b))
                    })();
                    match result {
                        Ok(pair) => {
                            if tx.commit().is_ok() {
                                *out.lock().unwrap() = Some(pair);
                            }
                        }
                        Err(_) => tx.abort(),
                    }
                }
            });
            let writer: ThreadBody = Box::new({
                let stm = stm.clone();
                move || {
                    let mut tx = stm.begin();
                    let wrote = tx.write(x, 0, Word::from_scalar(1)).is_ok()
                        && tx.write(y, 0, Word::from_scalar(1)).is_ok();
                    if wrote {
                        let _ = tx.commit();
                    } else {
                        tx.abort();
                    }
                }
            });
            Execution {
                threads: vec![reader, writer],
                check: Box::new(move || match *committed_pair.lock().unwrap() {
                    Some((a, b)) if a != b => Err(format!(
                        "torn snapshot: reader committed ({a}, {b}), writer published \
                         x and y atomically"
                    )),
                    _ => Ok(()),
                }),
            }
        }
    }

    #[test]
    fn explorer_rederives_the_snapshot_recheck_zombie() {
        let report = explorer().explore(&snapshot_zombie_factory(true));
        let cx = report
            .counterexample
            .expect("skipping the snapshot re-check must reintroduce the dirty-read zombie");
        assert!(cx.message.contains("zombie commit"), "{}", cx.message);
        match explorer().replay(&snapshot_zombie_factory(true), &cx.schedule) {
            RunOutcome::Fail { message } => assert!(message.contains("zombie commit")),
            o => panic!("counterexample must replay, got {o:?}"),
        }
        // The same schedule passes with the re-check in place.
        assert_eq!(
            explorer().replay(&snapshot_zombie_factory(false), &cx.schedule),
            RunOutcome::Pass,
            "schedule: {:?}\n{}",
            cx.schedule,
            cx.trace
        );
    }

    #[test]
    fn explorer_rederives_the_torn_extension_bug() {
        let report = explorer().explore(&torn_extension_factory(true));
        let cx = report
            .counterexample
            .expect("an extension that skips revalidation must admit a torn snapshot");
        assert!(cx.message.contains("torn snapshot"), "{}", cx.message);
        match explorer().replay(&torn_extension_factory(true), &cx.schedule) {
            RunOutcome::Fail { message } => assert!(message.contains("torn snapshot")),
            o => panic!("counterexample must replay, got {o:?}"),
        }
        assert_eq!(
            explorer().replay(&torn_extension_factory(false), &cx.schedule),
            RunOutcome::Pass,
            "schedule: {:?}\n{}",
            cx.schedule,
            cx.trace
        );
    }

    #[test]
    fn snapshot_tree_has_no_zombie_commit() {
        let report = explorer().explore(&snapshot_zombie_factory(false));
        assert!(report.passed(), "{}", report.counterexample.unwrap());
        assert!(report.exhausted, "the bounded space must be fully enumerated");
        assert_eq!(report.divergences, 0, "scenario must be schedule-deterministic");
    }

    #[test]
    fn snapshot_tree_has_no_torn_extension() {
        let report = explorer().explore(&torn_extension_factory(false));
        assert!(report.passed(), "{}", report.counterexample.unwrap());
        assert!(report.exhausted, "the bounded space must be fully enumerated");
        assert_eq!(report.divergences, 0, "scenario must be schedule-deterministic");
    }
}

// ---------------------------------------------------------------------------
// Token allocation soundness: the 32-bit counter wraps, allocation must
// never reissue a live transaction's token (in any build) and never
// issue token 0 (the abstract-lock table's "free" encoding).
// ---------------------------------------------------------------------------

#[test]
fn token_wrap_skips_zero() {
    let (_heap, _class, stm) = setup();
    // Park the counter one before the wrap: the next draw takes
    // u32::MAX, the one after wraps onto 0 and must be skipped.
    stm.set_next_token_for_test(u32::MAX);
    let tx1 = stm.begin();
    assert_eq!(tx1.token().to_raw(), u32::MAX);
    let tx2 = stm.begin();
    assert_eq!(tx2.token().to_raw(), 1, "token 0 must never be issued");
}

#[test]
fn token_wrap_redraws_past_live_transactions() {
    let (_heap, _class, stm) = setup();
    stm.set_next_token_for_test(u32::MAX);
    let tx1 = stm.begin(); // holds u32::MAX
    let tx2 = stm.begin(); // wraps over 0, holds 1
    assert_eq!((tx1.token().to_raw(), tx2.token().to_raw()), (u32::MAX, 1));
    // Rewind onto the live tokens: a fresh begin must redraw past
    // u32::MAX (live), 0 (reserved), and 1 (live) and land on 2 —
    // in release builds too, where the old guard compiled away.
    stm.set_next_token_for_test(u32::MAX);
    let tx3 = stm.begin();
    assert_eq!(tx3.token().to_raw(), 2, "wrap must redraw past live tokens");
    drop((tx1, tx2));
    // With the collisions gone the rewound counter hands tokens out
    // directly again.
    stm.set_next_token_for_test(tx3.token().to_raw() + 1);
    let tx4 = stm.begin();
    assert_eq!(tx4.token().to_raw(), 3);
}

#[test]
fn token_wrap_redraws_past_a_killed_but_unrecovered_transaction() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    stm.set_next_token_for_test(u32::MAX);
    stm.failpoints().set(sites::OPEN_UPDATE_AFTER_ACQUIRE, FailAction::Kill, Trigger::Once);
    let mut victim = stm.begin();
    assert_eq!(victim.token().to_raw(), u32::MAX);
    assert_eq!(victim.write(obj, 0, Word::from_scalar(8)), Err(TxError::DOOMED));
    drop(victim);
    assert_eq!(stm.registry().orphan_count(), 1);

    // The orphan still holds u32::MAX: a wrapped draw must skip it and
    // the reserved 0.
    stm.set_next_token_for_test(u32::MAX);
    let tx = stm.begin();
    assert_eq!(tx.token().to_raw(), 1, "a killed token stays taken until recovery");
    drop(tx);

    // Recovery frees the token.
    let mut other = stm.begin();
    other.write(obj, 0, Word::from_scalar(9)).unwrap();
    other.commit().unwrap();
    assert_eq!(stm.registry().orphan_count(), 0);
    stm.set_next_token_for_test(u32::MAX);
    assert_eq!(stm.begin().token().to_raw(), u32::MAX);
}

// ---------------------------------------------------------------------------
// Pooled control blocks: a finished transaction's `TxCtl` is re-armed for
// the next transaction on its thread only when no contender still holds it.
// ---------------------------------------------------------------------------

#[test]
fn a_held_ctl_is_never_reused_so_a_late_doom_misses_the_next_transaction() {
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();

    let owner = stm.begin();
    // A contender looks the owner up and keeps the block past its finish.
    let held = stm.registry().ctl_of(owner.token()).expect("registered");
    owner.commit().unwrap();
    // The contender's doom lands after the owner finished.
    held.doomed.store(true, Ordering::Release);

    let mut next = stm.begin();
    assert!(!std::ptr::eq(next.ctl(), &*held), "a held ctl must not be reused");
    assert!(!next.is_doomed(), "a late doom must not reach the next transaction");
    next.write(obj, 0, Word::from_scalar(1)).unwrap();
    next.commit().unwrap();

    // With no holder left the pooled block is re-armed in place, and it
    // comes back exactly as `TxCtl::new` would build it.
    let mut first = stm.begin();
    first.read(obj, 0).unwrap();
    first.read(obj, 1).unwrap();
    let pooled: *const crate::cm::TxCtl = first.ctl();
    first.ctl().doomed.store(true, Ordering::Release);
    first.abort();
    let second = stm.begin();
    let ctl = second.ctl();
    assert!(std::ptr::eq(ctl, pooled), "an unshared ctl is re-armed, not reallocated");
    assert_eq!(ctl.token, second.token());
    assert!(!ctl.is_doomed() && !ctl.is_killed());
    assert_eq!(ctl.karma(), 0, "karma restarts with a fresh atomic block");
    assert_eq!(ctl.read_ver.load(Ordering::Acquire), stm.commit_clock());
    second.commit().unwrap();
    drop(held);
}

#[test]
fn a_contender_holding_the_ctl_across_finish_never_dooms_the_next_attempt() {
    use std::sync::mpsc;

    // Two threads: the owner commits while the contender holds its
    // control block, then starts its next transaction; the contender
    // dooms the block it holds. The owner's next transaction must be
    // unaffected on every round.
    let (heap, class, stm) = setup();
    let obj = heap.alloc(class).unwrap();
    std::thread::scope(|s| {
        // Both channels live inside the scope, so a failing assertion
        // drops the owner's ends and the contender exits instead of
        // blocking the scope's join.
        let (to_contender, contender_rx) = mpsc::channel();
        let (to_owner, owner_rx) = mpsc::channel();
        let stm = &stm;
        s.spawn(move || {
            for _ in 0..50 {
                let token = contender_rx.recv().unwrap();
                let held = stm.registry().ctl_of(token).expect("owner is registered");
                to_owner.send(()).unwrap();
                contender_rx.recv().unwrap();
                held.doomed.store(true, Ordering::Release);
                to_owner.send(()).unwrap();
            }
        });
        for round in 0..50 {
            let owner = stm.begin();
            to_contender.send(owner.token()).unwrap();
            owner_rx.recv().unwrap();
            owner.commit().unwrap();
            let mut next = stm.begin();
            to_contender.send(next.token()).unwrap();
            owner_rx.recv().unwrap();
            assert!(!next.is_doomed(), "round {round}: a stale doom reached the next tx");
            next.write(obj, 0, Word::from_scalar(round)).unwrap();
            next.commit().unwrap();
        }
    });
    assert_eq!(stm.stats().aborts_doomed, 0);
}

// ---------------------------------------------------------------------------
// Transaction-lifetime commit/abort handlers (boosting support).
// ---------------------------------------------------------------------------

mod handlers {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    use super::*;

    #[test]
    fn commit_handlers_run_exactly_once_in_order() {
        let (heap, class, stm) = setup();
        let obj = heap.alloc(class).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let aborted = Arc::new(AtomicU32::new(0));
        let mut tx = stm.begin();
        for i in 0..3 {
            let order = order.clone();
            tx.on_commit(move || order.lock().unwrap().push(i));
            let aborted = aborted.clone();
            tx.on_abort(move || {
                aborted.fetch_add(1, Ordering::Relaxed);
            });
        }
        tx.write(obj, 0, Word::from_scalar(1)).unwrap();
        tx.commit().unwrap();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "in registration order");
        assert_eq!(aborted.load(Ordering::Relaxed), 0, "abort list dropped unrun");
    }

    #[test]
    fn abort_handlers_run_in_reverse_order_commit_list_dropped() {
        let (_heap, _class, stm) = setup();
        let order = Arc::new(Mutex::new(Vec::new()));
        let committed = Arc::new(AtomicU32::new(0));
        let mut tx = stm.begin();
        for i in 0..3 {
            let order = order.clone();
            tx.on_abort(move || order.lock().unwrap().push(i));
            let committed = committed.clone();
            tx.on_commit(move || {
                committed.fetch_add(1, Ordering::Relaxed);
            });
        }
        tx.abort();
        assert_eq!(*order.lock().unwrap(), vec![2, 1, 0], "reverse registration order");
        assert_eq!(committed.load(Ordering::Relaxed), 0, "commit list dropped unrun");
    }

    #[test]
    fn drop_of_active_transaction_runs_abort_handlers() {
        let (_heap, _class, stm) = setup();
        let ran = Arc::new(AtomicU32::new(0));
        let mut tx = stm.begin();
        let r = ran.clone();
        tx.on_abort(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        drop(tx);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_handler_does_not_starve_the_rest() {
        let (heap, class, stm) = setup();
        let obj = heap.alloc(class).unwrap();
        let ran = Arc::new(AtomicU32::new(0));
        let mut tx = stm.begin();
        let r = ran.clone();
        tx.on_commit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        tx.on_commit(|| panic!("handler boom"));
        let r = ran.clone();
        tx.on_commit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        tx.write(obj, 0, Word::from_scalar(7)).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.commit()));
        let payload = result.expect_err("the first handler panic must resume");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"handler boom"));
        assert_eq!(ran.load(Ordering::Relaxed), 2, "handlers after the panic still ran");
        // The commit itself still published.
        assert_eq!(heap.load(obj, 0).as_scalar(), Some(7));
    }

    #[test]
    fn rollback_to_savepoint_runs_and_truncates_nested_handlers() {
        let (_heap, _class, stm) = setup();
        let order = Arc::new(Mutex::new(Vec::new()));
        let committed = Arc::new(Mutex::new(Vec::new()));
        let mut tx = stm.begin();
        let o = order.clone();
        tx.on_abort(move || o.lock().unwrap().push("outer"));
        let c = committed.clone();
        tx.on_commit(move || c.lock().unwrap().push("outer"));
        let sp = tx.savepoint();
        for name in ["inner-a", "inner-b"] {
            let o = order.clone();
            tx.on_abort(move || o.lock().unwrap().push(name));
            let c = committed.clone();
            tx.on_commit(move || c.lock().unwrap().push(name));
        }
        tx.rollback_to(sp);
        assert_eq!(
            *order.lock().unwrap(),
            vec!["inner-b", "inner-a"],
            "nested abort handlers run in reverse; outer handler survives"
        );
        order.lock().unwrap().clear();
        tx.commit().unwrap();
        assert_eq!(*order.lock().unwrap(), Vec::<&str>::new(), "outer abort handler dropped");
        assert_eq!(
            *committed.lock().unwrap(),
            vec!["outer"],
            "nested commit handlers were truncated with the savepoint"
        );
    }

    #[test]
    fn kill_failpoint_runs_abort_handlers() {
        use crate::failpoint::{sites, FailAction, Trigger};
        let (heap, class, stm) = setup();
        let obj = heap.alloc(class).unwrap();
        let ran = Arc::new(AtomicU32::new(0));
        stm.failpoints().set(sites::COMMIT_BEFORE_RELEASE, FailAction::Kill, Trigger::Once);
        let mut tx = stm.begin();
        let r = ran.clone();
        tx.on_abort(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        tx.write(obj, 0, Word::from_scalar(9)).unwrap();
        let err = tx.commit().expect_err("the kill surfaces as DOOMED");
        assert_eq!(err, TxError::DOOMED);
        assert_eq!(
            ran.load(Ordering::Relaxed),
            1,
            "semantic undo runs on the dying thread (it cannot be parked)"
        );
    }
}

// ---------------------------------------------------------------------------
// Abstract-lock table (boosting).
// ---------------------------------------------------------------------------

mod boost_locks {
    use super::*;
    use crate::boost::AbstractLockTable;

    #[test]
    fn locks_are_held_two_phase_and_released_on_commit_and_abort() {
        let (_heap, _class, stm) = setup();
        let table = AbstractLockTable::new(8);
        let mut tx = stm.begin();
        table.acquire(&mut tx, 3).unwrap();
        table.acquire(&mut tx, 3).unwrap(); // reentrant
        assert_eq!(table.holder(3), Some(tx.token()));
        tx.commit().unwrap();
        assert_eq!(table.holder(3), None, "commit handler released the lock");

        let mut tx = stm.begin();
        table.acquire(&mut tx, 5).unwrap();
        assert_eq!(table.holder(5), Some(tx.token()));
        tx.abort();
        assert_eq!(table.holder(5), None, "abort handler released the lock");

        let stats = table.stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.reentrant_hits, 1);
        assert_eq!(stats.releases, 2);
    }

    #[test]
    fn contended_lock_fails_busy_under_abort_self_policy() {
        let (_heap, _class, stm) =
            setup_with(StmConfig { cm: CmPolicy::AbortSelf, ..StmConfig::default() });
        let table = AbstractLockTable::new(8);
        let mut holder = stm.begin();
        table.acquire(&mut holder, 1).unwrap();
        let mut contender = stm.begin();
        assert_eq!(table.acquire(&mut contender, 1), Err(TxError::BUSY));
        // Distinct keys never contend.
        table.acquire(&mut contender, 2).unwrap();
        holder.abort();
        // The lock is free again; the contender can take it now.
        table.acquire(&mut contender, 1).unwrap();
        contender.commit().unwrap();
        assert_eq!(table.holder(1), None);
        assert_eq!(table.holder(2), None);
        assert!(table.stats().busy_failures >= 1);
    }

    #[test]
    fn bounded_wait_converts_deadlock_into_busy() {
        // Spin policy waits; the budget must still bound the wait so a
        // cross-acquisition cycle (A holds 1 wants 2, B holds 2 wants
        // 1) resolves by one side failing BUSY instead of both
        // spinning forever.
        let (_heap, _class, stm) = setup_with(StmConfig {
            cm: CmPolicy::Spin { max_spins: u32::MAX },
            doom_wait_spins: 32,
            ..StmConfig::default()
        });
        let table = AbstractLockTable::new(8);
        let mut a = stm.begin();
        let mut b = stm.begin();
        table.acquire(&mut a, 1).unwrap();
        table.acquire(&mut b, 2).unwrap();
        assert_eq!(table.acquire(&mut a, 2), Err(TxError::BUSY));
        // A's retry loop would now roll back, releasing lock 1; B can
        // then complete.
        a.abort();
        table.acquire(&mut b, 1).unwrap();
        b.commit().unwrap();
        assert_eq!(table.holder(1), None);
        assert_eq!(table.holder(2), None);
    }

    #[test]
    fn savepoint_rollback_releases_only_nested_locks() {
        let (_heap, _class, stm) = setup();
        let table = AbstractLockTable::new(8);
        let mut tx = stm.begin();
        table.acquire(&mut tx, 1).unwrap();
        let sp = tx.savepoint();
        table.acquire(&mut tx, 2).unwrap();
        tx.rollback_to(sp);
        assert_eq!(table.holder(2), None, "nested acquisition rolled back");
        assert_eq!(table.holder(1), Some(tx.token()), "outer lock survives");
        // Reentrancy after the partial rollback re-registers a release
        // for the rolled-away slot.
        table.acquire(&mut tx, 2).unwrap();
        tx.commit().unwrap();
        assert_eq!(table.holder(1), None);
        assert_eq!(table.holder(2), None);
    }
}
