//! End-to-end checks for TL2-style snapshot reads (DESIGN.md §4.10):
//! the O(1) `version <= read_ver` acceptance, timestamp extension in
//! place of aborts, the read-only no-validation commit, and the
//! bounded-wait fallback on in-flight writers. The headline property —
//! read-only transactions are abort-free under writer churn with
//! `snapshot_reads` on, and demonstrably not with it off — is what the
//! E5c experiment measures at scale.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use omt::heap::{ClassDesc, Heap, ObjRef, Word};
use omt::stm::{Stm, StmConfig, TxError};
use omt::util::rng::StdRng;

const COLD_CELLS: usize = 24;

fn snapshot_config() -> StmConfig {
    StmConfig {
        snapshot_reads: true,
        // The zero-abort guarantee needs foreign owners waited out, not
        // fallen back from: give the bounded wait real headroom.
        doom_wait_spins: 1 << 20,
        ..StmConfig::default()
    }
}

/// One hot cell (index 0) plus `COLD_CELLS` cold cells, pre-filled
/// outside the STM so the clock starts at zero.
fn setup(config: StmConfig) -> (Arc<Heap>, Arc<Stm>, Vec<ObjRef>) {
    let heap = Arc::new(Heap::new());
    let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["v"]));
    let stm = Arc::new(Stm::with_config(heap.clone(), config));
    let cells: Vec<_> = (0..1 + COLD_CELLS).map(|_| heap.alloc(class).unwrap()).collect();
    for (i, c) in cells.iter().enumerate() {
        heap.store(*c, 0, Word::from_scalar(i as i64));
    }
    (heap, stm, cells)
}

fn churn_hot(stm: &Stm, hot: ObjRef) {
    stm.atomically(|tx| {
        let v = tx.read(hot, 0)?.as_scalar().unwrap();
        tx.write(hot, 0, Word::from_scalar(v + 1))
    });
}

/// The deterministic teeth of the feature: a read-only transaction
/// whose read set straddles a foreign commit — hot cell read *before*
/// the commit, cold cells read *after*. Without snapshot reads the
/// commit-time scan finds the hot entry stale and aborts; with them,
/// every cold read is covered by `read_ver` and the sandwich-verified
/// read-only commit skips validation entirely.
fn straddling_reader(config: StmConfig) -> Result<(), TxError> {
    let (_heap, stm, cells) = setup(config);
    let hot = cells[0];

    let mut tx = stm.begin();
    tx.read(hot, 0)?;
    churn_hot(&stm, hot);
    for &cold in &cells[1..] {
        tx.read(cold, 0)?;
    }
    tx.commit()
}

#[test]
fn straddling_readonly_commit_aborts_without_snapshot_reads() {
    assert_eq!(straddling_reader(StmConfig::default()), Err(TxError::INVALID));
}

#[test]
fn straddling_readonly_commit_succeeds_with_snapshot_reads() {
    assert_eq!(straddling_reader(snapshot_config()), Ok(()));
}

#[test]
fn too_new_version_extends_instead_of_aborting() {
    let (_heap, stm, cells) = setup(snapshot_config());
    let hot = cells[0];

    // Begin first, so `read_ver` predates the commit below.
    let mut tx = stm.begin();
    stm.atomically(|t| t.write(hot, 0, Word::from_scalar(7)));

    // The hot cell's timestamp is now ahead of read_ver: the read must
    // extend (revalidate the — empty — read set and advance read_ver)
    // and return the *committed* value, not abort.
    let v = tx.read(hot, 0).expect("extension must succeed on an empty read set");
    assert_eq!(v.as_scalar().unwrap(), 7);
    let counters = tx.counters();
    assert_eq!(counters.ts_extensions, 1, "exactly one extension");
    assert_eq!(counters.extension_failures, 0);
    assert_eq!(counters.snapshot_read_hits, 1, "the retry after extending is a hit");

    // Cold cells are still covered by the extended read_ver.
    for &cold in &cells[1..] {
        tx.read(cold, 0).unwrap();
    }
    assert_eq!(tx.commit(), Ok(()));

    let stats = stm.stats();
    assert_eq!(stats.ts_extensions, 1);
    assert_eq!(stats.readonly_aborts, 0);
    assert_eq!(stats.readonly_commits, 1, "the writer is not read-only; the reader is");
}

#[test]
fn genuinely_conflicting_extension_aborts() {
    let (_heap, stm, cells) = setup(snapshot_config());
    let (x, y) = (cells[0], cells[1]);

    let mut tx = stm.begin();
    tx.read(x, 0).unwrap();
    // A foreign commit moves *both* cells the reader cares about.
    stm.atomically(|t| {
        t.write(x, 0, Word::from_scalar(100))?;
        t.write(y, 0, Word::from_scalar(100))
    });
    // Reading y finds it too new; the extension's revalidation catches
    // the stale x entry — this conflict is genuine and must abort.
    let err = tx.read(y, 0).expect_err("extension must fail: x moved after being read");
    assert_eq!(err, TxError::INVALID);
    let counters = tx.counters();
    assert_eq!(counters.ts_extensions, 0);
    assert_eq!(counters.extension_failures, 1);
    tx.abort();
    assert_eq!(stm.stats().extension_failures, 1);
}

/// Satellite property test: under a seeded writer-churn storm, readers
/// that touch the hot cell first and cold cells afterwards — and whose
/// lifetime provably straddles at least one churn commit — never abort
/// with snapshot reads on, and *always* abort with them off (the hot
/// entry is stale by commit time in every round).
fn churn_storm(config: StmConfig, seed: u64) -> (u64, u64) {
    const READERS: usize = 4;
    const ROUNDS: usize = 50;

    let (_heap, stm, cells) = setup(config);
    let hot = cells[0];
    let done = Arc::new(AtomicBool::new(false));
    let churns = Arc::new(AtomicU64::new(0));

    thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                churn_hot(&stm, hot);
                churns.fetch_add(1, Ordering::Release);
            }
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let stm = &stm;
                let cells = &cells;
                let churns = &churns;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed + r as u64);
                    for _ in 0..ROUNDS {
                        let mut tx = stm.begin();
                        let round = (|| {
                            tx.read(hot, 0)?;
                            let before = churns.load(Ordering::Acquire);
                            for _ in 0..rng.gen_range(4..COLD_CELLS) {
                                let cold = cells[rng.gen_range(1..cells.len())];
                                tx.read(cold, 0)?;
                            }
                            // Guarantee the straddle: at least one churn
                            // commit lands between our hot read and commit.
                            // The churner counts a commit only after it
                            // returns, so the first count past `before`
                            // may be a commit that landed before our hot
                            // read; the second one began after it.
                            while churns.load(Ordering::Acquire) <= before + 1 {
                                std::hint::spin_loop();
                            }
                            Ok::<_, TxError>(())
                        })();
                        match round {
                            Ok(()) => {
                                let _ = tx.commit();
                            }
                            Err(_) => tx.abort(),
                        }
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().unwrap();
        }
        // Only after every reader finished may the churner stop: each
        // round blocks on one more churn commit landing.
        done.store(true, Ordering::Release);
    });
    let stats = stm.stats();
    (stats.readonly_commits, stats.readonly_aborts)
}

#[test]
fn churn_storm_readonly_aborts_are_zero_with_snapshot_reads() {
    let (commits, aborts) = churn_storm(snapshot_config(), 0x5EED_0001);
    assert_eq!(aborts, 0, "snapshot reads must make read-only transactions abort-free");
    assert_eq!(commits, 4 * 50);
}

#[test]
fn churn_storm_readonly_aborts_are_nonzero_without_snapshot_reads() {
    let (commits, aborts) = churn_storm(StmConfig::default(), 0x5EED_0002);
    assert_eq!(aborts, 4 * 50, "every straddling round must fail validation");
    assert_eq!(commits, 0);
}

/// Satellite §4.7 audit companion: force the in-flight-writer window.
/// A writer parks mid-transaction owning the hot cell with a dirty
/// in-place store; the snapshot reader's bounded wait expires, it falls
/// back to optimistic logging of the `Owned` word, and its commit must
/// fail validation — the dirty value can be *returned* (direct-update
/// STM) but never *committed*.
#[test]
fn in_flight_writer_forces_fallback_and_fails_validation() {
    let (_heap, stm, cells) = setup(StmConfig {
        doom_wait_spins: 4, // expire the wait budget fast
        ..snapshot_config()
    });
    let hot = cells[0];
    let (to_reader, from_writer) = mpsc::channel();
    let (to_writer, from_reader) = mpsc::channel();

    thread::scope(|s| {
        let writer_stm = &stm;
        s.spawn(move || {
            let mut tx = writer_stm.begin();
            tx.open_for_update(hot).unwrap();
            tx.log_for_undo(hot, 0);
            tx.store_direct(hot, 0, Word::from_scalar(99)); // dirty, uncommitted
            to_reader.send(()).unwrap();
            from_reader.recv().unwrap();
            tx.abort();
        });

        from_writer.recv().unwrap();
        let mut tx = stm.begin();
        let observed = tx.read(hot, 0).expect("fallback read returns, possibly dirty");
        let counters = tx.counters();
        assert_eq!(counters.snapshot_read_hits, 0, "an owned word is never a snapshot hit");
        assert!(counters.cm_spins >= 4, "the bounded wait ran to its budget");
        let result = tx.commit();
        assert_eq!(
            result,
            Err(TxError::INVALID),
            "a read that observed a foreign owner cannot validate (saw {observed:?})"
        );
        to_writer.send(()).unwrap();
    });

    // After the writer's abort the dirty store is rolled back.
    assert_eq!(stm.atomically(|tx| tx.read(hot, 0)).as_scalar().unwrap(), 0);
    assert_eq!(stm.stats().snapshot_read_hits, 1, "only the post-abort audit read hits");
}

/// Two `Stm`s on one heap keep separate commit clocks. A version the
/// first stamped can lie ahead of the second's clock; a snapshot read
/// in the second must raise its clock to that version and extend, not
/// spin on an extension that never covers it. The read runs on its
/// own thread and reports through a channel, so a regression fails
/// here within seconds instead of hanging the suite.
#[test]
fn a_version_stamped_by_another_stm_is_raised_into_the_clock() {
    let heap = Arc::new(Heap::new());
    let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["v"]));
    let cell = heap.alloc(class).unwrap();
    let writer = Stm::new(heap.clone());
    writer.atomically(|tx| tx.write(cell, 0, Word::from_scalar(5)));

    let reader = Stm::with_config(heap, snapshot_config());
    let (done, watchdog) = mpsc::channel();
    thread::spawn(move || {
        let value = reader.atomically(|tx| tx.read(cell, 0));
        let _ = done.send((value, reader.stats().ts_extensions, reader.commit_clock()));
    });
    let (value, extensions, clock) = watchdog
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the snapshot read never returned: its extension cannot cover the version");
    assert_eq!(value.as_scalar(), Some(5));
    assert_eq!(extensions, 1, "one raise, one extension");
    assert!(clock >= 1, "the reader's clock was raised to the foreign version");
}
