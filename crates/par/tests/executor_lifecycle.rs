//! Lifecycle tests for the persistent work-stealing [`Executor`]:
//! graceful shutdown with queued work, panic-in-task isolation, and
//! shutdown idempotence — the failure modes a long-lived service layer
//! actually hits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use lppa_par::Executor;

#[test]
fn shutdown_drains_queued_work_before_joining() {
    // Queue far more slow tasks than workers and shut down immediately:
    // graceful shutdown must run every queued task, not drop the
    // backlog on the floor.
    let pool = Executor::new(2);
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..40 {
        let done = Arc::clone(&done);
        assert!(pool.spawn(move || {
            std::thread::sleep(Duration::from_millis(1));
            done.fetch_add(1, Ordering::Relaxed);
        }));
    }
    pool.shutdown();
    assert_eq!(done.load(Ordering::Relaxed), 40, "queued work was dropped by shutdown");
    assert_eq!(pool.completed(), 40);
    assert!(pool.is_shut_down());
}

#[test]
fn shutdown_drains_affinity_deques_too() {
    // Same contract for spawn_on: per-worker deques are part of the
    // graceful drain, including deques of workers other than the one
    // that happens to see `stopping` first.
    let pool = Executor::new(3);
    let done = Arc::new(AtomicUsize::new(0));
    for shard in 0..30 {
        let done = Arc::clone(&done);
        assert!(pool.spawn_on(shard, move || {
            done.fetch_add(1, Ordering::Relaxed);
        }));
    }
    pool.shutdown();
    assert_eq!(done.load(Ordering::Relaxed), 30);
}

#[test]
fn panic_in_task_does_not_poison_siblings() {
    // One shard's panic must not take down the worker or any sibling
    // shard's tasks: every non-panicking task still completes, the
    // panic count is reported, and the pool stays usable afterwards.
    let pool = Executor::new(3);
    let survivors = Arc::new(AtomicUsize::new(0));
    for i in 0..30 {
        let survivors = Arc::clone(&survivors);
        pool.spawn_on(i % 3, move || {
            if i % 5 == 0 {
                panic!("shard {i} blew up");
            }
            survivors.fetch_add(1, Ordering::Relaxed);
        });
    }
    pool.wait_idle();
    assert_eq!(survivors.load(Ordering::Relaxed), 24);
    assert_eq!(pool.panicked(), 6);
    assert_eq!(pool.completed(), 30);

    // The workers survived: the pool still executes new work.
    let after = Arc::new(AtomicUsize::new(0));
    for _ in 0..10 {
        let after = Arc::clone(&after);
        assert!(pool.spawn(move || {
            after.fetch_add(1, Ordering::Relaxed);
        }));
    }
    pool.wait_idle();
    assert_eq!(after.load(Ordering::Relaxed), 10);
    pool.shutdown();
}

#[test]
fn double_shutdown_is_idempotent() {
    let pool = Executor::new(2);
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..8 {
        let done = Arc::clone(&done);
        pool.spawn(move || {
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    pool.shutdown();
    // The second (and third) call must return immediately without
    // panicking, deadlocking or double-joining.
    pool.shutdown();
    pool.shutdown();
    assert_eq!(done.load(Ordering::Relaxed), 8);
    assert!(pool.is_shut_down());
}

#[test]
fn concurrent_shutdown_calls_do_not_race() {
    // Two threads racing to shut the same pool down: exactly one joins
    // the workers, both return, all queued work still runs.
    let pool = Arc::new(Executor::new(2));
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..20 {
        let done = Arc::clone(&done);
        pool.spawn(move || {
            std::thread::sleep(Duration::from_micros(500));
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.shutdown())
        })
        .collect();
    for racer in racers {
        racer.join().unwrap();
    }
    assert_eq!(done.load(Ordering::Relaxed), 20);
    assert!(pool.is_shut_down());
}

#[test]
fn is_shut_down_waits_until_the_workers_are_joined() {
    // `shutdown` refuses new work before it joins the workers, so a
    // pool whose worker is still inside a task must not report that
    // shutdown has completed.
    let pool = Arc::new(Executor::new(1));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    assert!(pool.spawn(move || {
        entered_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    }));
    entered_rx.recv().unwrap();
    let closer = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.shutdown())
    };
    // A refused spawn shows the closer has started shutting down.
    while pool.spawn(|| {}) {
        std::thread::sleep(Duration::from_millis(1));
    }
    // The worker stays blocked until `release_tx` sends, so the closer
    // cannot finish joining, however long it runs; the pause only lets
    // it reach its join loop, where a flag set before the joins shows.
    std::thread::sleep(Duration::from_millis(20));
    assert!(!pool.is_shut_down(), "reported shut down while a worker still runs a task");
    release_tx.send(()).unwrap();
    closer.join().unwrap();
    assert!(pool.is_shut_down());
}

#[test]
fn spawn_after_shutdown_is_rejected() {
    let pool = Executor::new(1);
    pool.shutdown();
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    assert!(!pool.spawn(move || {
        ran2.fetch_add(1, Ordering::Relaxed);
    }));
    let ran3 = Arc::clone(&ran);
    assert!(!pool.spawn_on(0, move || {
        ran3.fetch_add(1, Ordering::Relaxed);
    }));
    assert_eq!(ran.load(Ordering::Relaxed), 0);
    assert_eq!(pool.completed(), 0);
}

#[test]
fn drop_without_shutdown_drains_gracefully() {
    let done = Arc::new(AtomicUsize::new(0));
    {
        let pool = Executor::new(2);
        for _ in 0..16 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // `pool` dropped here: Drop delegates to shutdown.
    }
    assert_eq!(done.load(Ordering::Relaxed), 16);
}

#[test]
fn wait_idle_then_more_work_then_shutdown() {
    // The epoch-loop usage pattern: waves of tasks separated by
    // wait_idle barriers, then one final drain.
    let pool = Executor::new(4);
    let log = Arc::new(Mutex::new(Vec::new()));
    for wave in 0..3 {
        for i in 0..12 {
            let log = Arc::clone(&log);
            pool.spawn_on(i, move || log.lock().unwrap().push(wave));
        }
        pool.wait_idle();
    }
    pool.shutdown();
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 36);
    // The barrier held: wave values are non-decreasing in log order.
    assert!(log.windows(2).all(|w| w[0] <= w[1]), "waves interleaved: {log:?}");
}
