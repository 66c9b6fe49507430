//! Open-loop load generation and its accounting.
//!
//! Requests are due on a fixed schedule regardless of how fast the server
//! answers. A bounded set of connections takes them in due order; when every
//! connection is busy, the next request is sent late and waits in the
//! generator's backlog. Each request's latency is measured from its due
//! time, so a stall is charged to every request it delays.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request's timeline, in seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

/// Accounting of one open-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// `done - due` per request, in milliseconds, schedule order.
    pub latency_ms: Vec<f64>,
    /// `sent - due` per request, in milliseconds: how late the generator
    /// ran.
    pub late_ms: Vec<f64>,
    /// Largest number of requests due but not yet sent, seen at any send.
    pub backlog_max: usize,
    /// Whether the backlog grew over the phase: the generator ran later in
    /// the last quarter of the schedule than in the first by more than
    /// [`GROWTH_TOLERANCE`] of the phase's requests (at least two) worth of
    /// spacing.
    pub backlog_growing: bool,
    /// Requests completed per second, from the first due time to the last
    /// completion.
    pub achieved_rps: f64,
}

/// Share of a phase's requests the backlog may grow by before it counts
/// as growing: random bursts near capacity cross a smaller margin even
/// when the server keeps up.
pub const GROWTH_TOLERANCE: f64 = 0.02;

/// Evenly spaced due times: `count` requests at `rate` per second.
pub fn schedule(rate: f64, count: usize) -> Vec<f64> {
    (0..count).map(|i| i as f64 / rate).collect()
}

/// Accounts a phase. `records` must be in schedule (due) order, which is
/// also the order requests are sent in.
pub fn summarize(records: &[Record]) -> Phase {
    let n = records.len();
    let latency_ms = records.iter().map(|r| (r.done - r.due) * 1e3).collect();
    let late_ms = records
        .iter()
        .map(|r| ((r.sent - r.due) * 1e3).max(0.0))
        .collect();
    // At request i's send time, requests i.. whose due time has passed are
    // waiting (request i itself included).
    let backlog: Vec<usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let due_by_now = records.partition_point(|q| q.due <= r.sent);
            due_by_now.saturating_sub(i)
        })
        .collect();
    let first_due = records.first().map_or(0.0, |r| r.due);
    let last_due = records.last().map_or(0.0, |r| r.due);
    let quarter = (n / 4).max(1);
    let mean_late =
        |rs: &[Record]| rs.iter().map(|r| r.sent - r.due).sum::<f64>() / rs.len().max(1) as f64;
    let spacing = (last_due - first_due) / (n.max(2) - 1) as f64;
    let backlog_growing = n >= 4
        && mean_late(&records[n - quarter..]) - mean_late(&records[..quarter])
            > (GROWTH_TOLERANCE * n as f64).max(2.0) * spacing;
    let last_done = records.iter().map(|r| r.done).fold(first_due, f64::max);
    Phase {
        latency_ms,
        late_ms,
        backlog_max: backlog.iter().copied().max().unwrap_or(0),
        backlog_growing,
        achieved_rps: n as f64 / (last_done - first_due).max(1e-9),
    }
}

/// Runs one open-loop phase over `connections` connections: connection
/// `c` is opened with `connect(c)`, and request `i` is sent with
/// `send(&mut conn, i)` no earlier than `due[i]` seconds after the phase
/// starts. Returns each request's timeline (schedule order) and the
/// outcome `send` returned for it.
pub fn run<C, T: Send>(
    due: &[f64],
    connections: usize,
    connect: impl Fn(usize) -> C + Sync,
    send: impl Fn(&mut C, usize) -> T + Sync,
) -> Vec<(Record, T)> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<(Record, T)>>> = Mutex::new((0..due.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..connections.max(1) {
            let (next, out, connect, send) = (&next, &out, &connect, &send);
            scope.spawn(move || {
                let mut conn = connect(c);
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= due.len() {
                        break;
                    }
                    let wait = due[i] - start.elapsed().as_secs_f64();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                    let sent = start.elapsed().as_secs_f64();
                    let outcome = send(&mut conn, i);
                    let done = start.elapsed().as_secs_f64();
                    out.lock().expect("a sender thread panicked")[i] = Some((
                        Record {
                            due: due[i],
                            sent,
                            done,
                        },
                        outcome,
                    ));
                }
            });
        }
    });
    out.into_inner()
        .expect("a sender thread panicked")
        .into_iter()
        .map(|r| r.expect("request not sent"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due: f64, sent: f64, done: f64) -> Record {
        Record { due, sent, done }
    }

    #[test]
    fn lateness_and_backlog_are_charged_from_due_times() {
        // One connection, 1 s service, due every 0.5 s: each request waits
        // for the previous one, so lateness and backlog grow.
        let records = vec![
            rec(0.0, 0.0, 1.0),
            rec(0.5, 1.0, 2.0),
            rec(1.0, 2.0, 3.0),
            rec(1.5, 3.0, 4.0),
            rec(2.0, 4.0, 5.0),
            rec(2.5, 5.0, 6.0),
            rec(3.0, 6.0, 7.0),
            rec(3.5, 7.0, 8.0),
        ];
        let phase = summarize(&records);
        assert_eq!(
            phase.latency_ms,
            vec![1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0, 4500.0]
        );
        assert_eq!(
            phase.late_ms,
            vec![0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0]
        );
        // At t = 7 (request 7's send) every request is due; only 7 is left.
        // At t = 4 (request 4's send) requests 4..=7 (due <= 4) are waiting:
        // 4, because request 8 does not exist.
        assert_eq!(phase.backlog_max, 4);
        assert!(phase.backlog_growing);
        assert!((phase.achieved_rps - 1.0).abs() < 1e-12);
    }

    #[test]
    fn growing_backlog_is_detected_and_steady_load_is_not() {
        let steady: Vec<Record> = (0..40)
            .map(|i| {
                let t = i as f64 * 0.1;
                rec(t, t, t + 0.05)
            })
            .collect();
        let phase = summarize(&steady);
        assert_eq!(phase.backlog_max, 1);
        assert!(!phase.backlog_growing);
        assert!(phase.late_ms.iter().all(|&l| l == 0.0));
        // Service takes 0.2 s per request at one connection, 0.1 s apart.
        let mut t = 0.0f64;
        let overloaded: Vec<Record> = (0..40)
            .map(|i| {
                let due = i as f64 * 0.1;
                let sent = t.max(due);
                t = sent + 0.2;
                rec(due, sent, t)
            })
            .collect();
        let phase = summarize(&overloaded);
        assert!(phase.backlog_growing);
        assert!(phase.backlog_max >= 19);
    }

    #[test]
    fn run_sends_in_due_order_and_never_early() {
        let due = schedule(200.0, 40);
        let out = run(&due, 2, |c| c, |_, i| i);
        for (i, (r, sent_index)) in out.iter().enumerate() {
            assert_eq!(*sent_index, i);
            assert!(r.sent >= r.due && r.done >= r.sent);
        }
        let phase = summarize(&out.iter().map(|(r, _)| *r).collect::<Vec<_>>());
        assert!(!phase.backlog_growing);
    }
}
