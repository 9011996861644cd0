//! Open-loop load generation against a running `seeker-serve` session.
//!
//! Each request has a due time on a fixed schedule that never slows down
//! when the server does. A request is sent at its due time, or at once if
//! the previous reply came back late, and its latency is timed from the due
//! time — so a stall is charged to every request it delays, not only to
//! the one that hit it. How late the generator sent is recorded apart.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use seeker_serve::Client;
use seeker_trace::CheckIn;

/// Requests of one phase: counts, latencies from due time, send lags.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Reply time minus due time, microseconds, per successful request.
    pub latency_us: Vec<f64>,
    /// Send time minus due time, milliseconds, per open-loop send.
    pub lag_ms: Vec<f64>,
}

impl PhaseStats {
    /// Adds the requests of another run of the same phase.
    pub fn absorb(&mut self, other: PhaseStats) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latency_us.extend(other.latency_us);
        self.lag_ms.extend(other.lag_ms);
    }

    fn record<T, E>(&mut self, result: Result<T, E>, due: Instant) -> Option<T> {
        self.sent += 1;
        match result {
            Ok(v) => {
                self.ok += 1;
                self.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
                Some(v)
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

/// A fixed-rate schedule starting at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate: f64,
}

impl Schedule {
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Sleeps until `due` when it lies ahead; returns how late the send is, ms.
fn wait_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    (Instant::now() - due).as_secs_f64() * 1e3
}

/// SplitMix64: a small deterministic generator for the traffic.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Deterministic stream of distinct user pairs over `n_users` users.
pub struct PairStream {
    rng: SplitMix,
    n_users: u64,
}

impl PairStream {
    pub fn new(seed: u64, n_users: usize) -> PairStream {
        PairStream { rng: SplitMix::new(seed), n_users: n_users as u64 }
    }

    pub fn next_pair(&mut self) -> (u32, u32) {
        let n = self.n_users;
        let a = self.rng.next_u64() % n;
        let b = (a + 1 + self.rng.next_u64() % (n - 1)) % n;
        (a.min(b) as u32, a.max(b) as u32)
    }
}

/// Sends `query_pair` on one connection from `schedule.start` until `end`.
/// Requests due before `switch` land in the first phase, the rest in the
/// second.
pub fn queries(
    addr: SocketAddr,
    mut pairs: PairStream,
    schedule: Schedule,
    switch: Instant,
    end: Instant,
) -> [PhaseStats; 2] {
    let mut phases = [PhaseStats::default(), PhaseStats::default()];
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            phases[0].sent = 1;
            phases[0].failed = 1;
            return phases;
        }
    };
    let mut i = 0;
    loop {
        let due = schedule.due(i);
        if due >= end {
            break;
        }
        let phase = &mut phases[usize::from(due >= switch)];
        phase.lag_ms.push(wait_until(due));
        let (a, b) = pairs.next_pair();
        phase.record(client.query_pair(a, b), due);
        i += 1;
    }
    phases
}

/// Outcome of the write connection in the mixed phase.
#[derive(Debug, Clone, Default)]
pub struct Writes {
    pub stats: PhaseStats,
    /// Frames whose ingest was sent (acknowledged or not).
    pub frames_sent: usize,
    /// Due time to `stats` reply, milliseconds, per acknowledged frame.
    pub visible_ms: Vec<f64>,
}

/// Sends `frames` open-loop on one connection, each followed by a `stats`
/// read, from `schedule.start` until `end` or until the frames run out.
pub fn writes(addr: SocketAddr, frames: &[&[CheckIn]], schedule: Schedule, end: Instant) -> Writes {
    let mut out = Writes::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            out.stats.sent = 1;
            out.stats.failed = 1;
            return out;
        }
    };
    for (j, frame) in frames.iter().enumerate() {
        let due = schedule.due(j as u64);
        if due >= end {
            break;
        }
        out.stats.lag_ms.push(wait_until(due));
        out.frames_sent += 1;
        if out.stats.record(client.ingest(frame.to_vec()), due).is_none() {
            continue;
        }
        if out.stats.record(client.stats(), due).is_some() {
            out.visible_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
    }
    out
}

/// Sends `frames` closed-loop (each after the previous reply) and ends with
/// a `stats` barrier, which flushes whatever is still staged. Returns the
/// stats and the final check-in count the session reported.
pub fn bulk(client: &mut Client, frames: &[&[CheckIn]]) -> (PhaseStats, Option<u64>) {
    let mut stats = PhaseStats::default();
    for frame in frames {
        stats.record(client.ingest(frame.to_vec()), Instant::now());
    }
    let n = stats.record(client.stats(), Instant::now()).map(|s| s.n_checkins);
    (stats, n)
}

/// Nearest-rank percentile `q` (0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile with at least ten samples beyond it, as a
/// fraction (`None` below twenty samples, where only the median holds).
pub fn highest_supported(n: usize) -> Option<f64> {
    (n >= 20).then(|| 1.0 - 10.0 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn pair_stream_is_deterministic_and_valid() {
        let mut a = PairStream::new(9, 7);
        let mut b = PairStream::new(9, 7);
        for _ in 0..1000 {
            let p = a.next_pair();
            assert_eq!(p, b.next_pair());
            assert!(p.0 < p.1 && p.1 < 7);
        }
    }

    #[test]
    fn schedule_does_not_slow_down() {
        let s = Schedule { start: Instant::now(), rate: 4.0 };
        assert_eq!(s.due(8) - s.start, Duration::from_secs(2));
    }

    #[test]
    fn supported_percentile_leaves_ten_samples() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(1000), Some(0.99));
    }
}
