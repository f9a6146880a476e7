//! The calibration kernel: how fast is this machine *right now*?
//!
//! The sandbox this benchmark runs in has noisy neighbours: the same
//! binary doing the same work switches between full speed and about
//! 1.6x slower every few seconds, and now and then reads 2-4x slower
//! for minutes, little of it reported as steal time (see `NOISE.md`).
//! No statistic over a run's own wall times removes an episode that
//! outlasts the run. So the harness times a fixed piece of work of its
//! own between every two units of measured work — every 0.1–0.4 s,
//! because the machine's speed changes within seconds — and reports
//! host metrics at the speed of a reference machine:
//! `wall × REFERENCE_S ÷ the faster of the kernel calls right before and
//! after` (`run::at_reference_speed`).
//!
//! The kernel belongs to the benchmark, not to the system under test —
//! no change to the simulator can make it faster. What it does was
//! chosen by measuring which fixed work slows down *as much as* the
//! simulator does when the neighbours are busy (`NOISE.md`, *Which
//! kernel*): HTTP-like text formatted, split, parsed and filed in
//! ordered maps, and packet-sized buffers churned through a hot set.
//! A dependent ALU chain hardly slows down at all, a loop that only
//! misses the cache (an event queue over 13 MiB of live packets) slows
//! by 0.7–0.9% for each 1% the simulator does, and these two phases
//! together by 1%.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Wall seconds of one [`Kernel::call`] between two units of simulator
/// work on the reference 2-core box when it is quiet. Host metrics read
/// as if every call took this long, so on that box, quiet, they read as
/// timed.
pub const REFERENCE_S: f64 = 0.024;

/// Requests the text phase formats and parses per call.
const REQUESTS: u64 = 24_000;
/// Buffers the churn phase allocates per call.
const BUFFERS: u64 = 100_000;
/// Buffers alive at once in the churn phase.
const HOT: usize = 256;

/// The kernel's state, kept between calls so that every call after the
/// first does the same work.
pub struct Kernel {
    rng: u64,
    hot: Vec<Vec<u8>>,
    text: String,
    checksum: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Kernel {
    /// A kernel with its hot set already live.
    pub fn new() -> Kernel {
        let mut k = Kernel {
            rng: 0x9e37_79b9_7f4a_7c15,
            hot: Vec::with_capacity(HOT),
            text: String::new(),
            checksum: 0,
        };
        k.churn(HOT as u64);
        k
    }

    /// Text phase: format a request head, split it into lines and
    /// fields, parse the numbers back and file them in ordered maps.
    fn requests(&mut self, requests: u64) {
        let mut by_host: BTreeMap<String, u64> = BTreeMap::new();
        let mut by_slot: BTreeMap<u64, f64> = BTreeMap::new();
        for i in 0..requests {
            let v = xorshift(&mut self.rng);
            self.text.clear();
            let _ = write!(
                self.text,
                "GET /scholar?q={}&hl=en HTTP/1.1\r\nHost: h{}.example\r\nX-Weight: {:.3}\r\n\r\n",
                v % 100_000,
                v % 97,
                (v % 1_000) as f64 / 7.0
            );
            let mut lines = self.text.split("\r\n");
            let query = lines
                .next()
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|path| path.split(['=', '&']).nth(1))
                .and_then(|q| q.parse::<u64>().ok())
                .expect("the request line was formatted above");
            for line in lines {
                match line.split_once(": ") {
                    Some(("Host", host)) => *by_host.entry(host.to_string()).or_default() += query,
                    Some((_, weight)) => {
                        let w: f64 = weight.parse().expect("the weight was formatted above");
                        by_slot.insert(i % 64, w);
                    }
                    None => {}
                }
            }
        }
        let weights: f64 = by_slot.values().sum();
        self.checksum = self
            .checksum
            .wrapping_add(by_host.values().sum::<u64>())
            .wrapping_add(weights as u64);
    }

    /// Churn phase: allocate a packet-sized buffer, fill it, and let it
    /// replace a random one of the `HOT` buffers alive.
    fn churn(&mut self, buffers: u64) {
        for _ in 0..buffers {
            let len = 64 + (xorshift(&mut self.rng) % 1437) as usize;
            let buffer = vec![len as u8; len];
            if self.hot.len() < HOT {
                self.hot.push(buffer);
            } else {
                let slot = (xorshift(&mut self.rng) % HOT as u64) as usize;
                self.checksum = self.checksum.wrapping_add(u64::from(self.hot[slot][0]));
                self.hot[slot] = buffer;
            }
        }
    }

    /// One timed call of the fixed work; wall seconds.
    pub fn call(&mut self) -> f64 {
        let t0 = Instant::now();
        self.requests(REQUESTS);
        self.churn(BUFFERS);
        std::hint::black_box(self.checksum);
        t0.elapsed().as_secs_f64()
    }
}

/// `wall_s` as it would have read on the reference machine, given what
/// a kernel call took on the machine it was timed on.
pub fn at_reference_speed(wall_s: f64, kernel_s: f64) -> f64 {
    wall_s * REFERENCE_S / kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_kernels_do_the_same_work() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        a.call();
        b.call();
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.hot.len(), HOT);
    }

    #[test]
    fn a_slow_machine_is_scaled_back_to_the_reference() {
        // Kernel twice as slow as the reference: a 4 s wall reads 2 s.
        let slow = 2.0 * REFERENCE_S;
        assert!((at_reference_speed(4.0, slow) - 2.0).abs() < 1e-12);
        assert_eq!(at_reference_speed(4.0, REFERENCE_S), 4.0);
    }
}
