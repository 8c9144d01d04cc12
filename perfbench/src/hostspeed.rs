//! Host-speed reference: a fixed job, owned by the benchmark and built
//! from none of the repository's crates, timed between engine rounds.
//!
//! The benchmark runs on a shared virtual machine whose speed drifts by
//! ±20% over minutes, even while nothing else runs inside the VM. A run of
//! a few dozen seconds cannot average that out: ten runs of the same code
//! spread as far as the drift does. The drift moves this job and the
//! engines together (over 30-second windows the PAL engines' throughput
//! correlates with this job's speed at 0.9 or more), so the end-to-end
//! timings are reported at the reference speed: each is scaled by how fast
//! this job ran during the same run, against [`NOMINAL_S`]. The job never
//! changes with the program, so a change to the program moves the scaled
//! timings exactly as it moves the raw ones.
//!
//! The job is a branchy linear scan of a sorted table (the shape of the
//! engines' bookkeeping) and a 64-tap `f32` FIR filter (the shape of the PAL
//! kernels); each alone tracks the drift less closely than the two together.
//!
//! Only one-worker runs are scaled. A multi-worker run's pace is set by
//! cross-thread handoff and parking, which this job does not track: scaled
//! by it, even when run on every worker's vCPU at once, the pal-2w
//! throughputs spread more across runs than raw.

use std::hint::black_box;
use std::time::Instant;

/// The job's median time on the 2-vCPU reference VM, in seconds. The
/// end-to-end timings read as raw timings at that speed.
pub const NOMINAL_S: f64 = 3.8e-3;

const TABLE_LEN: u64 = 1200;
const SCAN_STEP: u64 = 36;
const LOOKUPS: u64 = 5000;
const TAPS: usize = 64;
const SIGNAL_LEN: usize = 16_384;
const FIR_PASSES: usize = 3;

/// The job's inputs, made once per run.
pub struct Reference {
    table: Vec<(u64, u32)>,
    signal: Vec<f32>,
    taps: Vec<f32>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: (0..TABLE_LEN)
                .map(|i| (i * SCAN_STEP, (i % 3) as u32))
                .collect(),
            signal: (0..SIGNAL_LEN)
                .map(|i| ((i * 7919) % 1000) as f32 * 1e-3)
                .collect(),
            taps: (0..TAPS).map(|i| 1.0 / (1.0 + i as f32)).collect(),
        }
    }

    /// Wall time of one run of the job, in seconds.
    pub fn time_s(&self) -> f64 {
        let (table, signal, taps) = (
            black_box(&self.table),
            black_box(&self.signal),
            black_box(&self.taps),
        );
        let started = Instant::now();
        let span = TABLE_LEN * SCAN_STEP;
        let mut found = 0u64;
        for k in 0..LOOKUPS {
            let at = k * span / LOOKUPS;
            let mut value = 0;
            for &(key, v) in table {
                if key <= at {
                    value = v;
                } else {
                    break;
                }
            }
            found += u64::from(value);
        }
        let mut y = 0.0f32;
        for _ in 0..FIR_PASSES {
            for window in signal.windows(TAPS) {
                y += window.iter().zip(taps).map(|(a, b)| a * b).sum::<f32>();
            }
        }
        black_box((found, y));
        started.elapsed().as_secs_f64()
    }
}

/// How much faster than the reference VM the host ran, from the job's
/// times during a run: above 1 on a fast host, below 1 on a slow one.
pub fn speed(times_s: &[f64]) -> f64 {
    NOMINAL_S / crate::median(times_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_takes_time_and_speed_inverts_it() {
        let r = Reference::new();
        assert!(r.time_s() > 0.0);
        assert_eq!(speed(&[NOMINAL_S * 2.0]), 0.5);
    }
}
