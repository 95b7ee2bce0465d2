//! End-to-end interpreter tests: every backend runs the same compiled
//! programs to the same answers; conflicts retry; zombies are contained.

use std::sync::Arc;

use omt_heap::{Heap, Word};
use omt_opt::{compile, OptLevel};

use crate::{run_parallel, BackendKind, SyncBackend, Vm, VmConfig, VmError};

fn vm_for(src: &str, level: OptLevel, kind: BackendKind) -> Vm {
    let (ir, _) = compile(src, level).expect("compile");
    let heap = Arc::new(Heap::new());
    let backend = Arc::new(SyncBackend::new(kind, heap.clone()));
    Vm::new(Arc::new(ir), heap, backend)
}

fn run_scalar(vm: &Vm, name: &str, args: &[i64]) -> i64 {
    let words: Vec<Word> = args.iter().map(|a| Word::from_scalar(*a)).collect();
    vm.run(name, &words)
        .expect("run")
        .expect("function returns a value")
        .as_scalar()
        .expect("scalar result")
}

const FIB: &str = "
    fn fib(n: int) -> int {
        if n < 2 { return n; }
        return fib(n - 1) + fib(n - 2);
    }
";

const LIST_PROGRAM: &str = "
    class Node { val key: int; var next: Node; }
    fn build(n: int) -> Node {
        let head: Node = null;
        let i = 0;
        while i < n {
            let fresh = new Node(n - i, head);
            head = fresh;
            i = i + 1;
        }
        return head;
    }
    fn sum(h: Node) -> int {
        let t = 0;
        atomic {
            let p = h;
            while p != null {
                t = t + p.key;
                p = p.next;
            }
        }
        return t;
    }
    fn main(n: int) -> int {
        return sum(build(n));
    }
";

#[test]
fn recursion_without_transactions() {
    let vm = vm_for(FIB, OptLevel::O2, BackendKind::Sequential);
    assert_eq!(run_scalar(&vm, "fib", &[10]), 55);
}

#[test]
fn all_backends_agree_on_list_sum() {
    for kind in BackendKind::ALL {
        for level in OptLevel::ALL {
            let vm = vm_for(LIST_PROGRAM, level, kind);
            assert_eq!(run_scalar(&vm, "main", &[100]), 5050, "backend {kind}, level {level}");
        }
    }
}

#[test]
fn dynamic_barrier_counts_fall_with_optimization() {
    let mut totals = Vec::new();
    for level in OptLevel::ALL {
        let vm = vm_for(LIST_PROGRAM, level, BackendKind::DirectStm);
        run_scalar(&vm, "main", &[200]);
        totals.push(vm.counters().total_barriers());
    }
    for pair in totals.windows(2) {
        assert!(pair[1] <= pair[0], "dynamic barriers increased: {totals:?}");
    }
    assert!(
        totals[4] < totals[0],
        "O4 ({}) should execute far fewer barriers than O0 ({})",
        totals[4],
        totals[0]
    );
}

#[test]
fn immutable_key_reads_execute_no_read_barrier_at_o4() {
    // An object whose only read field is `val`: at O3 one (hoisted)
    // open still executes per call; at O4 none do.
    const SRC: &str = "
        class P { val x: int; }
        fn make(v: int) -> P { return new P(v); }
        fn spin(p: P, n: int) -> int {
            let t = 0;
            atomic {
                let i = 0;
                while i < n { t = t + p.x; i = i + 1; }
            }
            return t;
        }
    ";
    let mut opens = Vec::new();
    for level in [OptLevel::O3, OptLevel::O4] {
        let vm = vm_for(SRC, level, BackendKind::DirectStm);
        let p = vm.run("make", &[Word::from_scalar(3)]).unwrap().unwrap();
        let out = vm.run("spin", &[p, Word::from_scalar(50)]).unwrap().unwrap();
        assert_eq!(out.as_scalar(), Some(150));
        opens.push(vm.counters().open_read);
    }
    assert_eq!(opens[0], 1, "O3 hoists the open out of the loop");
    assert_eq!(opens[1], 0, "O4 elides it entirely (val field)");
}

#[test]
fn atomic_counter_is_exact_under_contention() {
    const SRC: &str = "
        class Counter { var hits: int; }
        fn bump(c: Counter, n: int) -> int {
            let i = 0;
            while i < n {
                atomic { c.hits = c.hits + 1; }
                i = i + 1;
            }
            return n;
        }
        fn make() -> Counter { return new Counter(); }
    ";
    for kind in
        [BackendKind::Coarse, BackendKind::TwoPhase, BackendKind::Buffered, BackendKind::DirectStm]
    {
        let (ir, _) = compile(SRC, OptLevel::O2).expect("compile");
        let ir = Arc::new(ir);
        let heap = Arc::new(Heap::new());
        let backend = Arc::new(SyncBackend::new(kind, heap.clone()));
        let setup = Vm::new(ir.clone(), heap.clone(), backend.clone());
        let counter = setup.run("make", &[]).unwrap().unwrap();

        let outcome = run_parallel(&ir, &heap, &backend, VmConfig::default(), "bump", 4, |_| {
            vec![counter, Word::from_scalar(250)]
        })
        .expect("parallel run");
        let c = counter.as_ref().unwrap();
        assert_eq!(heap.load(c, 0).as_scalar(), Some(1000), "lost updates under backend {kind}");
        assert_eq!(outcome.results.len(), 4);
    }
}

#[test]
fn conflicts_are_retried_and_counted() {
    const SRC: &str = "
        class Counter { var hits: int; }
        fn bump(c: Counter, n: int) -> int {
            let i = 0;
            while i < n {
                atomic { c.hits = c.hits + 1; }
                i = i + 1;
            }
            return n;
        }
        fn make() -> Counter { return new Counter(); }
    ";
    let (ir, _) = compile(SRC, OptLevel::O0).expect("compile");
    let ir = Arc::new(ir);
    let heap = Arc::new(Heap::new());
    let backend = Arc::new(SyncBackend::new(BackendKind::DirectStm, heap.clone()));
    let setup = Vm::new(ir.clone(), heap.clone(), backend.clone());
    let counter = setup.run("make", &[]).unwrap().unwrap();

    let outcome = run_parallel(&ir, &heap, &backend, VmConfig::default(), "bump", 8, |_| {
        vec![counter, Word::from_scalar(500)]
    })
    .expect("parallel run");
    assert_eq!(heap.load(counter.as_ref().unwrap(), 0).as_scalar(), Some(4000));
    assert_eq!(outcome.counters.tx_committed, 4000);
    // With 8 threads hammering one object, some retries are certain.
    let stm = backend.as_stm().expect("direct backend");
    assert_eq!(stm.stats().commits, 4000);
}

#[test]
fn zombie_division_by_zero_is_sandboxed() {
    // Two fields kept equal by every writer; a reader computing
    // 1 / (1 + a - b) can only divide by zero if it observes a torn
    // (inconsistent) state — the VM must convert that into a retry, so
    // the program never traps.
    const SRC: &str = "
        class Pair { var a: int; var b: int; }
        fn make() -> Pair { return new Pair(); }
        fn writer(p: Pair, n: int) -> int {
            let i = 0;
            while i < n {
                atomic { p.a = p.a + 1; p.b = p.b + 1; }
                i = i + 1;
            }
            return n;
        }
        fn reader(p: Pair, n: int) -> int {
            let acc = 0;
            let i = 0;
            while i < n {
                atomic {
                    let d = 1 + p.a - p.b;
                    acc = acc + 100 / d;
                }
                i = i + 1;
            }
            return acc;
        }
    ";
    let (ir, _) = compile(SRC, OptLevel::O2).expect("compile");
    let ir = Arc::new(ir);
    let heap = Arc::new(Heap::new());
    let backend = Arc::new(SyncBackend::new(BackendKind::DirectStm, heap.clone()));
    let setup = Vm::new(ir.clone(), heap.clone(), backend.clone());
    let pair = setup.run("make", &[]).unwrap().unwrap();

    let outcome = run_parallel(
        &ir,
        &heap,
        &backend,
        VmConfig::default(),
        "zombie_mix",
        1, // placeholder; real threads spawned below
        |_| vec![],
    );
    // `zombie_mix` doesn't exist — spawn manually instead.
    assert!(outcome.is_err());

    std::thread::scope(|scope| {
        for t in 0..4 {
            let ir = ir.clone();
            let heap = heap.clone();
            let backend = backend.clone();
            scope.spawn(move || {
                let vm = Vm::new(ir, heap, backend);
                let entry = if t % 2 == 0 { "writer" } else { "reader" };
                let out = vm.run(entry, &[pair, Word::from_scalar(2000)]);
                assert!(out.is_ok(), "{entry} trapped: {out:?}");
                if entry == "reader" {
                    // Every committed read saw a == b, so every term was
                    // exactly 100.
                    assert_eq!(out.unwrap().unwrap().as_scalar(), Some(2000 * 100));
                }
            });
        }
    });
}

#[test]
fn retry_rolls_registers_back() {
    // The accumulator is updated inside the region; a retry must not
    // double-count. We force retries via an explicit conflicting writer.
    const SRC: &str = "
        class Cell { var v: int; }
        fn make() -> Cell { return new Cell(); }
        fn addloop(c: Cell, n: int) -> int {
            let total = 0;
            let i = 0;
            while i < n {
                atomic {
                    total = total + 1;
                    c.v = c.v + 1;
                }
                i = i + 1;
            }
            return total;
        }
    ";
    let (ir, _) = compile(SRC, OptLevel::O0).expect("compile");
    let ir = Arc::new(ir);
    let heap = Arc::new(Heap::new());
    let backend = Arc::new(SyncBackend::new(BackendKind::DirectStm, heap.clone()));
    let setup = Vm::new(ir.clone(), heap.clone(), backend.clone());
    let cell = setup.run("make", &[]).unwrap().unwrap();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let ir = ir.clone();
            let heap = heap.clone();
            let backend = backend.clone();
            handles.push(scope.spawn(move || {
                let vm = Vm::new(ir, heap, backend);
                vm.run("addloop", &[cell, Word::from_scalar(500)])
                    .unwrap()
                    .unwrap()
                    .as_scalar()
                    .unwrap()
            }));
        }
        let totals: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(totals, vec![500; 4], "register rollback on retry");
    });
    assert_eq!(heap.load(cell.as_ref().unwrap(), 0).as_scalar(), Some(2000));
}

#[test]
fn null_dereference_outside_tx_is_a_real_trap() {
    const SRC: &str = "
        class C { var x: int; }
        fn f() -> int { let c: C = null; return c.x; }
    ";
    let vm = vm_for(SRC, OptLevel::O2, BackendKind::Sequential);
    match vm.run("f", &[]) {
        Err(VmError::Trap(msg)) => assert!(msg.contains("null"), "{msg}"),
        other => panic!("expected a trap, got {other:?}"),
    }
}

#[test]
fn unknown_function_and_arity_errors() {
    let vm = vm_for(FIB, OptLevel::O0, BackendKind::Sequential);
    assert!(matches!(vm.run("nope", &[]), Err(VmError::UnknownFunction(_))));
    assert!(matches!(vm.run("fib", &[]), Err(VmError::Trap(_))));
}

#[test]
fn sequential_backend_counts_barriers_without_paying_for_them() {
    let vm = vm_for(LIST_PROGRAM, OptLevel::O0, BackendKind::Sequential);
    run_scalar(&vm, "main", &[50]);
    let c = vm.counters();
    assert!(c.open_read > 0, "barrier ops are still counted");
    assert_eq!(c.tx_committed, 1);
}

#[test]
fn backend_kind_parsing_and_display() {
    for kind in BackendKind::ALL {
        let round: BackendKind = kind.to_string().parse().expect("own display parses");
        assert_eq!(round, kind);
    }
    assert!("martian".parse::<BackendKind>().is_err());
}

#[test]
fn vm_error_display_is_informative() {
    let vm = vm_for(FIB, OptLevel::O0, BackendKind::Sequential);
    let err = vm.run("nope", &[]).unwrap_err();
    assert!(err.to_string().contains("nope"));
}

#[test]
fn counters_reset() {
    let vm = vm_for(FIB, OptLevel::O0, BackendKind::Sequential);
    run_scalar(&vm, "fib", &[5]);
    assert!(vm.counters().insts > 0);
    vm.reset_counters();
    assert_eq!(vm.counters().insts, 0);
}

#[test]
fn deep_recursion_runs_on_the_vm_stack_not_the_native_one() {
    // Calls nest on the VM's own frame stack, so recursion far deeper
    // than a test thread's native stack would allow still completes.
    const SRC: &str = "
        fn down(n: int) -> int {
            if n == 0 { return 0; }
            return down(n - 1) + 1;
        }
    ";
    for kind in [BackendKind::Sequential, BackendKind::DirectStm] {
        let vm = vm_for(SRC, OptLevel::O4, kind);
        assert_eq!(run_scalar(&vm, "down", &[200_000]), 200_000, "backend {kind}");
        assert_eq!(vm.counters().calls, 200_000);
        // The stacks are reused: a second run gives the same answer.
        assert_eq!(run_scalar(&vm, "down", &[1_000]), 1_000);
    }
    let vm = vm_for(FIB, OptLevel::O4, BackendKind::Sequential);
    assert_eq!(run_scalar(&vm, "fib", &[20]), 6765);
}

#[test]
fn bst_depth_recursion_on_a_degenerate_tree() {
    // Sorted keys make the tree a chain, so `depth` recurses once per
    // key, each frame holding live registers across two calls.
    let src = format!(
        "{BST_TREE}
        fn chain(n: int) -> int {{
            let t = new Tree();
            let i = 0;
            while i < n {{ insert(t, i); i = i + 1; }}
            return depth(t.root);
        }}"
    );
    for kind in [BackendKind::Sequential, BackendKind::DirectStm] {
        let vm = vm_for(&src, OptLevel::O4, kind);
        assert_eq!(run_scalar(&vm, "chain", &[600]), 600, "backend {kind}");
    }
}

/// The tree of the bst-insert benchmark program.
const BST_TREE: &str = "
    class Tree { var root: TreeNode; }
    class TreeNode { var key: int; var left: TreeNode; var right: TreeNode; }
    fn insert(t: Tree, key: int) {
        atomic {
            let parent: TreeNode = null;
            let goleft = false;
            let p = t.root;
            while p != null {
                parent = p;
                if key < p.key { goleft = true; p = p.left; }
                else { goleft = false; p = p.right; }
            }
            let fresh = new TreeNode(key, null, null);
            if parent == null { t.root = fresh; }
            else if goleft { parent.left = fresh; }
            else { parent.right = fresh; }
        }
    }
    fn depth(p: TreeNode) -> int {
        if p == null { return 0; }
        let l = depth(p.left);
        let r = depth(p.right);
        if l > r { return l + 1; }
        return r + 1;
    }
";

#[test]
fn conflict_in_a_called_tx_clone_restores_the_region_frames_registers() {
    // The region frame adds to `total` before calling `bump`, whose
    // `$tx` clone opens the cell for update. A failpoint aborts that
    // first open, so the conflict surfaces two frames below the region:
    // the callee frame is unwound, the region frame's registers are
    // restored from its `TxBegin` snapshot, and the retry adds 10 once.
    const SRC: &str = "
        class Cell { var v: int; }
        fn make() -> Cell { return new Cell(); }
        fn bump(c: Cell) -> int { c.v = c.v + 1; return c.v; }
        fn run(c: Cell) -> int {
            let total = 0;
            atomic {
                total = total + 10;
                let seen = bump(c);
                total = total + seen;
            }
            return total;
        }
    ";
    for level in OptLevel::ALL {
        let vm = vm_for(SRC, level, BackendKind::DirectStm);
        let cell = vm.run("make", &[]).unwrap().unwrap();
        let stm = vm.backend().as_stm().expect("direct STM backend");
        stm.failpoints().set(
            omt_stm::failpoint::sites::OPEN_UPDATE_AFTER_ACQUIRE,
            omt_stm::FailAction::Abort,
            omt_stm::Trigger::Once,
        );
        vm.reset_counters();
        let total = vm.run("run", &[cell]).unwrap().unwrap();
        assert_eq!(total.as_scalar(), Some(11), "level {level}: registers rolled back");
        assert_eq!(vm.heap().load(cell.as_ref().unwrap(), 0).as_scalar(), Some(1));
        let c = vm.counters();
        assert_eq!((c.tx_begun, c.tx_retries, c.tx_committed), (1, 1, 1), "level {level}");
        assert_eq!(c.calls, 2, "level {level}: the call ran once per attempt");
        assert_eq!(c.open_update, 2, "level {level}");
    }
}

#[test]
fn runaway_recursion_traps_instead_of_exhausting_memory() {
    let src = format!("{FIB} fn forever(n: int) -> int {{ return forever(n + 1); }}");
    let vm = vm_for(&src, OptLevel::O4, BackendKind::Sequential);
    match vm.run("forever", &[Word::from_scalar(0)]) {
        Err(VmError::Trap(msg)) => assert!(msg.contains("call stack overflow"), "{msg}"),
        other => panic!("expected a trap, got {other:?}"),
    }
    // The VM runs normally after the trap.
    assert_eq!(run_scalar(&vm, "fib", &[10]), 55);
}

#[test]
fn a_run_after_a_panicking_run_starts_from_a_clean_stack() {
    // A stale reference panics inside the heap in the middle of a call;
    // the frames it leaves behind must not leak into the next run.
    const SRC: &str = "
        class C { var x: int; }
        fn make() -> C { return new C(); }
        fn read(c: C) -> int { return c.x; }
        fn outer(c: C) -> int { return read(c) + 1; }
    ";
    let vm = vm_for(SRC, OptLevel::O4, BackendKind::Sequential);
    let stale = vm.run("make", &[]).unwrap().unwrap();
    vm.heap().collect(&omt_heap::RootSet::new(), &[]);
    let panicked =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| vm.run("outer", &[stale])));
    assert!(panicked.is_err(), "a collected object must not be readable");
    let live = vm.run("make", &[]).unwrap().unwrap();
    assert_eq!(vm.run("outer", &[live]).unwrap().unwrap().as_scalar(), Some(1));
}
