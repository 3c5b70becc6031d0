//! The box-speed reference every timing is held against.
//!
//! This machine is a few vCPUs of a shared host. Measured while this was
//! written: the same `pg-hive discover` flips between two speeds about
//! 1.7 × apart in plateaus of 10–30 s (a neighbour coming and going),
//! and the fast level itself drifts by 20 % over a quarter of an hour.
//! Over a 20-minute series the floor of a 20 s window ranged over 60–70 %
//! of its median and its median over 60–70 %; neither is a number a bound
//! of 25 % can judge.
//!
//! What does repeat is a *paired* measurement: a fixed piece of work
//! timed right before and right after each repetition sits on the same
//! plateau as the repetition, so `repetition ÷ calibration` cancels the
//! box's speed. In the same series the median over a 20 s window of that
//! per-repetition ratio ranged over 16–24 % (quartile distance 5 %), over
//! 40 s 9–12 % (3–4 %). So every time the benchmark reports is `wall time
//! × REFERENCE_S ÷ calibration time around it`: seconds at the speed at
//! which one calibration unit takes [`REFERENCE_S`]. The raw wall times
//! are kept and reported as `box.*` per-layer metrics. README.md has the
//! measurements in full.
//!
//! The calibration is frozen with the benchmark: it calls nothing of the
//! repo, so a change to the program cannot move it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// What one calibration unit takes on this box (2 vCPUs of a 2.1 GHz Xeon
/// host) when no neighbour is active: the 1st percentile of some thousand
/// units over an evening (the fastest took 0.096 s). It only sets the
/// scale — reported seconds are wall seconds at this speed — and cancels
/// out of every comparison.
pub const REFERENCE_S: f64 = 0.100;

/// Skip-gram-like arithmetic on a table that fits in L1: dependent
/// floating-point chains and `exp`, the mix of `embed.train`.
fn float_kernel(iters: usize) -> f64 {
    const DIM: usize = 8;
    const VOCAB: usize = 64;
    let mut a = vec![0.01f64; VOCAB * DIM];
    let mut b = vec![0.02f64; VOCAB * DIM];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize % VOCAB) * DIM;
        let j = ((x >> 32) as usize % VOCAB) * DIM;
        let dot: f64 = (0..DIM).map(|k| a[i + k] * b[j + k]).sum();
        let g = (1.0 / (1.0 + (-dot).exp()) - (x >> 63) as f64) * 0.025;
        for k in 0..DIM {
            let t = a[i + k];
            a[i + k] -= g * b[j + k];
            b[j + k] -= g * t;
        }
        acc += g;
    }
    acc
}

/// Inserts and lookups in a hash map of a few MB: hashing, branches and
/// cache misses, the mix of `core.cluster` / `core.extract`.
fn table_kernel(ops: usize) -> u64 {
    let keys = ops as u64 / 2;
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 88_172_645_463_325_252;
    let mut sum = 0u64;
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % keys).or_insert(0) += 1;
        sum = sum.wrapping_add(*map.get(&((x >> 20) % keys)).unwrap_or(&0));
    }
    sum
}

/// Time the fixed reference work once (seconds, about [`REFERENCE_S`]).
/// Single-threaded, like most of what it is held against. Of the mixes
/// tried against `discover` — these two kernels, a byte scanner, DRAM
/// latency and bandwidth probes, page-fault bursts — the sum of these two
/// tracked it best, on the uniform and the diverse corpus alike.
fn unit() -> f64 {
    let start = Instant::now();
    black_box(float_kernel(black_box(3_000_000)));
    black_box(table_kernel(black_box(600_000)));
    start.elapsed().as_secs_f64()
}

/// When a timed operation ran, in seconds since the pacer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ran {
    pub start: f64,
    pub end: f64,
}

/// Alternates the timed operations of a run with calibration: after
/// every operation, reference work for half as long as the operation
/// took, so that what an operation is held against has seen as much of
/// the box as the operation has. (A 0.1 s calibration beside a 2.6 s
/// repetition reads one of the box's two speeds; the repetition reads
/// their average.)
pub struct Pacer {
    origin: Instant,
    /// Every calibration unit: (mid-point, duration), seconds.
    units: Vec<(f64, f64)>,
}

impl Pacer {
    pub fn start() -> Pacer {
        let mut pacer = Pacer {
            origin: Instant::now(),
            units: Vec::new(),
        };
        pacer.calibrate_for(0.0);
        pacer
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// At least one unit, then more until `seconds` have passed.
    fn calibrate_for(&mut self, seconds: f64) {
        let begin = self.now();
        loop {
            let at = self.now();
            let took = unit();
            self.units.push((at + took / 2.0, took));
            if self.now() - begin >= seconds {
                return;
            }
        }
    }

    /// Run `op`, then calibrate for half as long as it took.
    pub fn run<T>(&mut self, op: impl FnOnce() -> T) -> (T, Ran) {
        let start = self.now();
        let out = op();
        let end = self.now();
        self.calibrate_for((end - start) / 2.0);
        (out, Ran { start, end })
    }

    /// Mean duration of the units within half the operation's length of
    /// it — what follows it, what precedes it, and whatever ran between
    /// those and a short neighbour (a set-up between two repetitions) —
    /// and always the nearest unit on either side.
    fn calibration_around(&self, ran: Ran) -> f64 {
        let reach = (ran.end - ran.start) / 2.0;
        let before = self.units.iter().rposition(|(mid, _)| *mid <= ran.start);
        let after = self.units.iter().position(|(mid, _)| *mid >= ran.end);
        let picked: Vec<f64> = self
            .units
            .iter()
            .enumerate()
            .filter(|(i, (mid, _))| {
                let near = (ran.start - reach..=ran.end + reach).contains(mid)
                    && !(ran.start..ran.end).contains(mid);
                near || Some(*i) == before || Some(*i) == after
            })
            .map(|(_, (_, took))| *took)
            .collect();
        picked.iter().sum::<f64>() / picked.len() as f64
    }

    /// `wall_s`, measured somewhere inside `ran`, as seconds at reference
    /// speed. Call once the operations after it have run.
    pub fn at_reference_speed(&self, wall_s: f64, ran: Ran) -> f64 {
        wall_s * REFERENCE_S / self.calibration_around(ran)
    }

    /// Every unit's duration, seconds.
    pub fn calibrations(&self) -> Vec<f64> {
        self.units.iter().map(|(_, took)| *took).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pacer(units: &[(f64, f64)]) -> Pacer {
        Pacer {
            origin: Instant::now(),
            units: units.to_vec(),
        }
    }

    #[test]
    fn scaling_cancels_the_speed_of_the_box() {
        // The same operation on a box at full and at 0.6x speed.
        let ran = |len: f64| Ran {
            start: 1.0,
            end: 1.0 + len,
        };
        let fast = pacer(&[(0.9, REFERENCE_S), (2.1, REFERENCE_S)]);
        let slow = pacer(&[(0.9, REFERENCE_S / 0.6), (2.8, REFERENCE_S / 0.6)]);
        let a = fast.at_reference_speed(1.0, ran(1.0));
        let b = slow.at_reference_speed(1.0 / 0.6, ran(1.0 / 0.6));
        assert!((a - 1.0).abs() < 1e-12 && (b - a).abs() < 1e-12);
    }

    #[test]
    fn an_operation_is_held_against_its_neighbourhood() {
        // Units at 0.1 s spacing; a 1 s operation from 2.0 to 3.0 reaches
        // 0.5 s either way; a unit in the middle of it (another
        // operation's, impossible in a real run) is not its own.
        let mut units: Vec<(f64, f64)> = (0..60).map(|i| (i as f64 * 0.1, 0.2)).collect();
        for (mid, took) in &mut units {
            if (1.5..=3.5).contains(mid) {
                *took = 0.1;
            }
        }
        let p = pacer(&units);
        let ran = Ran {
            start: 2.0,
            end: 3.0,
        };
        assert!((p.calibration_around(ran) - 0.1).abs() < 1e-12);
        // A short operation far from any unit still has its two nearest.
        let p = pacer(&[(0.0, 0.1), (10.0, 0.3)]);
        let ran = Ran {
            start: 5.0,
            end: 5.1,
        };
        assert!((p.calibration_around(ran) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn the_reference_work_is_deterministic() {
        assert_eq!(float_kernel(1000).to_bits(), float_kernel(1000).to_bits());
        assert_eq!(table_kernel(1000), table_kernel(1000));
    }

    #[test]
    fn a_pacer_calibrates_after_every_operation() {
        let mut p = Pacer::start();
        assert_eq!(p.calibrations().len(), 1);
        let (out, ran) = p.run(|| 7);
        assert_eq!(out, 7);
        assert!(ran.end >= ran.start);
        assert_eq!(p.calibrations().len(), 2);
        assert!(p.at_reference_speed(1.0, ran) > 0.0);
    }
}
