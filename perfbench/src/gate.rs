//! NVRAM admission: the two-half log of §II-C, emulated from outside.
//!
//! Each NVLog half holds `half` ops. Writers take a slot in the current
//! half before calling `Filesystem::write`. The writer that finds the
//! half full asks the CP thread for a consistency point; the CP thread
//! opens a fresh half (the freeze point) and runs the CP while writers
//! fill the new half. A writer that finds the *new* half full while that
//! CP is still running parks on a condition variable until the CP thread
//! opens the next half, which it does as soon as the CP finishes: a
//! back-to-back CP. A slow CP therefore shows up as client stalls.
//!
//! The slot count per half equals `NvLog::current_len()` at the freeze,
//! up to the writes admitted but not yet logged at that instant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Returned by [`Gate::admit`] once the run is stopping.
#[derive(Debug, PartialEq, Eq)]
pub struct Stopped;

/// The admission gate shared by the client threads and the CP thread.
pub struct Gate {
    half: u64,
    /// Slots taken in the current half (may run past `half` while
    /// writers are being turned away).
    taken: AtomicU64,
    /// Half generation: bumped each time the CP thread opens a half.
    generation: AtomicU64,
    state: Mutex<State>,
    writers: Condvar,
    cp: Condvar,
}

#[derive(Default)]
struct State {
    want_cp: bool,
    stop: bool,
    parked: usize,
}

impl Gate {
    /// A gate whose halves hold `half` ops each.
    pub fn new(half: u64) -> Self {
        assert!(half > 0, "an NVLog half must hold at least one op");
        Self {
            half,
            taken: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            state: Mutex::new(State::default()),
            writers: Condvar::new(),
            cp: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update of `State` is a single field store, so the state
        // is valid even if a holder panicked.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a slot for one write. Returns the time spent parked, `None`
    /// when the write was admitted without parking.
    pub fn admit(&self) -> Result<Option<Duration>, Stopped> {
        let mut parked: Option<Duration> = None;
        loop {
            // ordering: SeqCst on both gate atomics — a writer that took a
            // slot of an old half must see that half's generation change.
            let generation = self.generation.load(Ordering::SeqCst);
            if self.taken.fetch_add(1, Ordering::SeqCst) < self.half {
                return Ok(parked);
            }
            let t = Instant::now();
            let mut st = self.lock();
            if self.generation.load(Ordering::SeqCst) == generation && !st.stop {
                st.want_cp = true;
                self.cp.notify_one();
                st.parked += 1;
                while self.generation.load(Ordering::SeqCst) == generation && !st.stop {
                    st = self.writers.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                st.parked -= 1;
                *parked.get_or_insert(Duration::ZERO) += t.elapsed();
            }
            if st.stop {
                return Err(Stopped);
            }
        }
    }

    /// CP thread: wait until a writer finds the current half full.
    /// Returns `false` once the run is stopping.
    pub fn wait_full(&self) -> bool {
        let mut st = self.lock();
        while !st.want_cp && !st.stop {
            st = self.cp.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        !st.stop
    }

    /// CP thread: open a fresh half (the CP's freeze point) and release
    /// every parked writer.
    pub fn open_half(&self) {
        let mut st = self.lock();
        st.want_cp = false;
        self.taken.store(0, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.writers.notify_all();
    }

    /// Stop the run: wake the CP thread and every parked writer.
    pub fn stop(&self) {
        let mut st = self.lock();
        st.stop = true;
        self.writers.notify_all();
        self.cp.notify_all();
    }

    /// Writers parked right now.
    pub fn parked(&self) -> usize {
        self.lock().parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    /// Wait (bounded) until `cond` holds; the interleaving itself is
    /// forced by the gate, this only observes it.
    fn eventually(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "condition never became true");
            std::thread::yield_now();
        }
    }

    #[test]
    fn writers_stall_while_the_cp_thread_is_held_back() {
        let gate = Arc::new(Gate::new(4));
        let (tx, rx) = mpsc::channel();
        let writer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                for i in 0..6 {
                    let parked = gate.admit().expect("not stopped");
                    tx.send((i, parked)).expect("receiver alive");
                }
            })
        };
        // The first half admits four writes without parking.
        for i in 0..4 {
            assert_eq!(rx.recv().expect("writer alive"), (i, None));
        }
        // The fifth finds the half full; with no CP started it parks and
        // asks for one.
        eventually(|| gate.parked() == 1);
        assert!(rx.try_recv().is_err(), "a full half must not admit");
        assert!(gate.wait_full(), "the parked writer asked for a CP");
        gate.open_half();
        let (i, parked) = rx.recv().expect("writer alive");
        assert_eq!(i, 4);
        assert!(parked.is_some(), "the stall was recorded");
        assert_eq!(rx.recv().expect("writer alive"), (5, None));
        writer.join().expect("writer thread");
    }

    #[test]
    fn stop_releases_parked_writers() {
        let gate = Arc::new(Gate::new(1));
        assert_eq!(gate.admit(), Ok(None));
        let writer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit())
        };
        eventually(|| gate.parked() == 1);
        gate.stop();
        assert_eq!(writer.join().expect("writer thread"), Err(Stopped));
        assert!(!gate.wait_full());
    }
}
