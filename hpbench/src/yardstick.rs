//! A fixed yardstick of host speed.
//!
//! The host this benchmark runs on shares its cores, caches and memory
//! with other tenants, and its speed drifts by up to 2× in regimes that
//! last from a fraction of a second to minutes; a wall-time median moves
//! with them. The yardstick is benchmark-owned work that no change to the
//! program touches: packets hop through a random successor table and bump
//! per-node loads, a mix of dependent reads, writes and branches like the
//! engine's step loop, on tables (1 MiB) that fit a core's L2 cache, so
//! that it slows down as the benchmark's own cache-resident, high-IPC
//! work does when another tenant shares the core. A pass runs after
//! every measured unit of work, so the passes sample the same stretch of
//! time as the work; the work's fast quantile over the yardstick's
//! (`run_rel.p10`) cancels the slow-down that holds for a whole run.

use std::hint::black_box;
use std::time::Instant;

/// Successor-table entries: 512 KiB of `u32`, plus 512 KiB of loads.
const NODES: usize = 1 << 17;
/// Packets moved per step.
const PACKETS: usize = 1 << 14;
/// Steps per pass: about 8 ms on a quiet 2 GHz Xeon.
const STEPS: u32 = 144;

/// The yardstick's state and the wall time of each pass it made.
pub struct Yardstick {
    next: Vec<u32>,
    load: Vec<u32>,
    pos: Vec<u32>,
    passes: Vec<f64>,
}

impl Yardstick {
    /// Builds the tables (the same on every host and run) and makes a
    /// first pass.
    pub fn new() -> Yardstick {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let next = (0..NODES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % NODES as u64) as u32
            })
            .collect();
        let mut y = Yardstick {
            next,
            load: vec![0; NODES],
            pos: (0..PACKETS as u32).map(|p| p.wrapping_mul(97)).collect(),
            passes: Vec::new(),
        };
        y.pass();
        y
    }

    /// One timed pass of the fixed work. It leaves the caches holding its
    /// own tables, so a traced unit runs after one too, like every
    /// untraced one.
    pub fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let mask = NODES as u32 - 1;
        for step in 0..STEPS {
            for p in &mut self.pos {
                let there = self.next[((*p ^ step) & mask) as usize];
                let load = &mut self.load[there as usize];
                *load = load.wrapping_add(1);
                *p = if *load & 1 == 0 {
                    there
                } else {
                    there.rotate_left(3) & mask
                };
            }
        }
        black_box(&self.pos);
        let wall = t0.elapsed().as_secs_f64();
        self.passes.push(wall);
        wall
    }

    /// Runs `work` and then one yardstick pass; returns the work's result
    /// and wall seconds.
    pub fn bracket<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = black_box(work());
        let wall = t0.elapsed().as_secs_f64();
        self.pass();
        (out, wall)
    }

    /// Wall seconds of every pass so far.
    pub fn passes(&self) -> &[f64] {
        &self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracket_times_the_work_then_makes_a_pass() {
        let mut y = Yardstick::new();
        assert_eq!(y.passes().len(), 1);
        let (out, wall) = y.bracket(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(out, 7);
        assert!(wall >= 0.005);
        assert_eq!(y.passes().len(), 2);
        assert!(y.passes().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn the_work_is_the_same_on_every_build() {
        let (a, b) = (Yardstick::new(), Yardstick::new());
        assert_eq!(a.next, b.next);
        assert_eq!(a.pos, b.pos);
        assert!(a.next.iter().all(|&n| (n as usize) < NODES));
    }
}
