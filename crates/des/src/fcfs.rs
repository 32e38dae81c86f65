//! Single-server first-come-first-served queueing resource.

use std::collections::VecDeque;

use crate::stats::{Counter, TimeWeighted};
use crate::Time;

/// Notification that a queued job has entered service.
///
/// The simulation driver schedules a completion event at
/// `now + started.service` and calls [`Fcfs::complete`] when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Started<J> {
    /// The job now in service.
    pub job: J,
    /// Its service requirement (milliseconds).
    pub service: Time,
}

/// A single-server FCFS queueing center (CPU or disk of a CARAT node).
///
/// The resource does not own the clock: the caller passes the current time
/// on every transition and schedules completion events itself. `arrive`
/// returns `Some(Started)` when the arriving job begins service immediately
/// (server idle); otherwise the job is queued and will be returned by a
/// later `complete` call.
///
/// ```
/// use carat_des::{Fcfs, Started};
/// let mut cpu: Fcfs<u32> = Fcfs::new(0.0);
/// assert_eq!(cpu.arrive(0.0, 1, 5.0), Some(Started { job: 1, service: 5.0 }));
/// assert_eq!(cpu.arrive(1.0, 2, 3.0), None); // queued behind job 1
/// // job 1 completes at t=5; job 2 starts
/// assert_eq!(cpu.complete(5.0), Some(Started { job: 2, service: 3.0 }));
/// assert_eq!(cpu.complete(8.0), None); // queue drained
/// assert!((cpu.utilization(10.0) - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Fcfs<J> {
    queue: VecDeque<(J, Time)>,
    busy: bool,
    util: TimeWeighted,
    qlen: TimeWeighted,
    completions: Counter,
    served_time: f64,
}

impl<J> Fcfs<J> {
    /// Creates an idle resource observed from time `start`.
    pub fn new(start: Time) -> Self {
        Fcfs {
            queue: VecDeque::new(),
            busy: false,
            util: TimeWeighted::new(start, 0.0),
            qlen: TimeWeighted::new(start, 0.0),
            completions: Counter::new(),
            served_time: 0.0,
        }
    }

    /// A job arrives needing `service` time. Returns `Some` iff it starts
    /// service immediately.
    ///
    /// # Panics
    ///
    /// Panics if `service` is negative or non-finite.
    pub fn arrive(&mut self, now: Time, job: J, service: Time) -> Option<Started<J>>
    where
        J: Copy,
    {
        assert!(
            service.is_finite() && service >= 0.0,
            "bad service time {service}"
        );
        self.qlen.add(now, 1.0);
        if self.busy {
            self.queue.push_back((job, service));
            None
        } else {
            self.busy = true;
            self.util.set(now, 1.0);
            self.served_time += service;
            Some(Started { job, service })
        }
    }

    /// The job in service finished. Returns the next job entering service,
    /// if any.
    pub fn complete(&mut self, now: Time) -> Option<Started<J>> {
        assert!(self.busy, "complete() on an idle server");
        self.completions.incr();
        self.qlen.add(now, -1.0);
        match self.queue.pop_front() {
            Some((job, service)) => {
                self.served_time += service;
                Some(Started { job, service })
            }
            None => {
                self.busy = false;
                self.util.set(now, 0.0);
                None
            }
        }
    }

    /// True while a job is in service.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Jobs present (in service + waiting).
    pub fn population(&self) -> usize {
        self.queue.len() + usize::from(self.busy)
    }

    /// Fraction of the observation window the server was busy.
    pub fn utilization(&self, now: Time) -> f64 {
        self.util.mean(now)
    }

    /// The time-weighted busy signal behind [`utilization`](Self::utilization):
    /// `util_state().mean(now)` is `utilization(now)` for as long as the
    /// server does not change state, which lets a recorder keep the state
    /// and evaluate it later.
    pub fn util_state(&self) -> TimeWeighted {
        self.util
    }

    /// Time-average number of jobs at the center (queue + service).
    pub fn mean_population(&self, now: Time) -> f64 {
        self.qlen.mean(now)
    }

    /// Number of service completions in the observation window.
    pub fn completions(&self) -> u64 {
        self.completions.count()
    }

    /// Total service time handed out (started jobs) — used for consistency
    /// checks against utilization.
    pub fn served_time(&self) -> f64 {
        self.served_time
    }

    /// Restarts statistics collection at `now` without disturbing the queue.
    pub fn reset_stats(&mut self, now: Time) {
        self.util.reset(now);
        self.qlen.reset(now);
        self.completions.reset();
        self.served_time = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut r: Fcfs<u32> = Fcfs::new(0.0);
        assert!(r.arrive(0.0, 1, 1.0).is_some());
        assert!(r.arrive(0.0, 2, 1.0).is_none());
        assert!(r.arrive(0.0, 3, 1.0).is_none());
        assert_eq!(r.complete(1.0).unwrap().job, 2);
        assert_eq!(r.complete(2.0).unwrap().job, 3);
        assert!(r.complete(3.0).is_none());
        assert_eq!(r.completions(), 3);
    }

    #[test]
    fn utilization_and_population() {
        let mut r: Fcfs<u8> = Fcfs::new(0.0);
        r.arrive(0.0, 1, 4.0);
        r.arrive(0.0, 2, 4.0);
        assert_eq!(r.population(), 2);
        r.complete(4.0);
        r.complete(8.0);
        assert_eq!(r.population(), 0);
        // busy during [0, 8], observed to t=10
        assert!((r.utilization(10.0) - 0.8).abs() < 1e-12);
        // 2 jobs during [0,4], 1 during [4,8], 0 during [8,10] → 12/10
        assert!((r.mean_population(10.0) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn reset_stats_keeps_queue_state() {
        let mut r: Fcfs<u8> = Fcfs::new(0.0);
        r.arrive(0.0, 1, 10.0);
        r.arrive(0.0, 2, 1.0);
        r.reset_stats(5.0);
        assert!(r.is_busy());
        assert_eq!(r.population(), 2);
        assert_eq!(r.completions(), 0);
        // still busy after reset: utilization from 5.0 onward is 1.0
        assert!((r.utilization(7.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "idle server")]
    fn complete_on_idle_panics() {
        let mut r: Fcfs<u8> = Fcfs::new(0.0);
        r.complete(1.0);
    }

    #[test]
    fn zero_service_jobs_are_legal() {
        let mut r: Fcfs<u8> = Fcfs::new(0.0);
        let s = r.arrive(0.0, 1, 0.0).unwrap();
        assert_eq!(s.service, 0.0);
        assert!(r.complete(0.0).is_none());
    }
}
