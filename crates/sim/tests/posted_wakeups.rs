//! Posted wake-ups (`Engine::post_waker`) reach their thread only once
//! every registered thread is blocked, so the woken thread's view does
//! not depend on host scheduling.

use mpx_sim::{Engine, Waker};
use mpx_topo::presets;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A producer posts twice per round, pausing on the host in between; the
/// consumer must wake once per round and always see both posts.
#[test]
fn posted_wakeups_wait_for_the_poster_to_block() {
    const ROUNDS: usize = 5;
    let eng = Engine::new(Arc::new(presets::beluga()));
    let work = Waker::new("work");
    let posts = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let consumer = eng.register_thread("consumer");
    let producer = eng.register_thread("producer");

    let handle = {
        let (work, posts, done) = (work.clone(), posts.clone(), done.clone());
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            loop {
                consumer.wait(&work);
                seen.push(posts.load(Ordering::SeqCst));
                if done.load(Ordering::SeqCst) {
                    return seen;
                }
            }
        })
    };
    for _ in 0..ROUNDS {
        // Let the consumer park before the round starts.
        producer.sleep(1e-6);
        for _ in 0..2 {
            posts.fetch_add(1, Ordering::SeqCst);
            eng.post_waker(&work);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    // Coalesces with the last round's posts: the producer has not
    // blocked since.
    done.store(true, Ordering::SeqCst);
    eng.post_waker(&work);
    drop(producer);
    let seen = handle.join().unwrap();
    let rounds: Vec<usize> = (1..=ROUNDS).map(|r| 2 * r).collect();
    assert_eq!(seen, rounds, "one wake-up per round, after both posts");
}

/// Without registered threads there is no quorum to wait for: a post
/// fires at once.
#[test]
fn posting_with_no_running_thread_fires_at_once() {
    let eng = Engine::new(Arc::new(presets::beluga()));
    let w = Waker::new("w");
    eng.post_waker(&w);
    assert!(w.is_signaled());
}

/// A thread that posts and then leaves the simulation still gets its
/// wake-up delivered: its departure completes the quorum.
#[test]
fn a_departing_poster_completes_the_quorum() {
    let eng = Engine::new(Arc::new(presets::beluga()));
    let w = Waker::new("w");
    let poster = eng.register_thread("poster");
    eng.post_waker(&w);
    assert!(!w.is_signaled(), "the poster is still running");
    drop(poster);
    assert!(w.is_signaled());
}
