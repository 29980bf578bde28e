//! Host-speed calibration for the end-to-end times.
//!
//! The benchmark runs on a few cores of a shared host. How fast those cores
//! run the simulator drifts by up to 40% over minutes, with CPU time
//! tracking wall time and little steal, so the slowdown comes from
//! neighbours contending for caches and memory, not from waiting. A run's
//! median pass cannot average that away, because one run sits in one host
//! state.
//!
//! So the end-to-end run interleaves a fixed reference chunk with its work
//! (one before each experiment and one after the pass, one after each
//! set-up) and scales each measured time by the chunk's nominal over its
//! measured duration: end-to-end times are reported in reference seconds,
//! the seconds the work would take on a host that runs the chunk in
//! [`NOMINAL_CHUNK_S`]. The chunk is std-only code that calls no simulator
//! crate, so a change to the simulator moves the measured time and not the
//! scale. Its mix was chosen because it tracks the simulator's drift: a
//! binary-heap event queue with exponential delays, `ln`/`exp`/`powf`
//! draws and scattered table updates, then a hash-map store of 100-byte
//! values with periodic sorts. A pure integer and floating-point loop
//! slowed by 7% where the simulator slowed by 17%, so it would not.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference chunk's duration on the reference host, in seconds: the
/// median over fifteen runs on a shared 2-vCPU Intel Xeon guest.
pub const NOMINAL_CHUNK_S: f64 = 0.026;

/// SplitMix64: the chunk's own random stream, independent of `simcore`.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Event-loop-like work: pop the earliest of 1,024 pending events and push
/// it back after an exponential delay, draw through `ln`, `exp` and
/// `powf`, and update a 512 KiB table at random.
fn event_mix(steps: u32) -> u64 {
    const TABLE: usize = 1 << 16;
    let mut state = 0x5eed;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..1024u32)
        .map(|id| Reverse((mix(&mut state) >> 40, id)))
        .collect();
    let mut table = vec![0u64; TABLE];
    let (mut acc, mut sum) = (0.0f64, 0u64);
    for _ in 0..steps {
        let r = mix(&mut state);
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        if let Some(Reverse((t, id))) = heap.pop() {
            heap.push(Reverse((t + (-(1.0 - u).ln() * 1000.0) as u64 + 1, id)));
        }
        acc += (u * 2000.0 + 1.0).powf(-0.99) + (u - 0.5).exp().sqrt();
        let k = r as usize % TABLE;
        table[k] = table[k].wrapping_add(r);
        sum = sum.wrapping_add(table[(r >> 20) as usize % TABLE]);
        if r & 7 == 0 {
            let v: Vec<u64> = Vec::with_capacity(8 + (r >> 60) as usize);
            sum = sum.wrapping_add(black_box(v).capacity() as u64);
        }
    }
    sum ^ acc.to_bits()
}

/// Store-like work: set or get one of 4,096 keys with 100-byte values in a
/// fixed-key SipHash map, and sort every 2,048 drawn values.
fn store_mix(steps: u32) -> u64 {
    let mut state = 0x5707e;
    let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut samples: Vec<f64> = Vec::with_capacity(2048);
    let mut sum = 0u64;
    for _ in 0..steps {
        let r = mix(&mut state);
        let key = r & 4095;
        if r & 1 == 0 {
            map.insert(key, vec![(r >> 8) as u8; 100]);
        } else if let Some(value) = map.get(&key) {
            sum = sum.wrapping_add(u64::from(value[0]));
        }
        samples.push((r >> 11) as f64);
        if samples.len() == 2048 {
            samples.sort_by(f64::total_cmp);
            sum = sum.wrapping_add(samples[1024].to_bits());
            samples.clear();
        }
    }
    sum
}

/// Runs the reference chunk once and returns its wall time.
pub fn time_chunk() -> Duration {
    let start = Instant::now();
    black_box(event_mix(black_box(100_000)) ^ store_mix(black_box(200_000)));
    start.elapsed()
}

/// The reference chunks measured next to one piece of work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reference {
    total: Duration,
    chunks: u32,
}

impl Reference {
    /// Runs and times one more chunk.
    pub fn measure(&mut self) {
        self.add(time_chunk());
    }

    fn add(&mut self, chunk: Duration) {
        self.total += chunk;
        self.chunks += 1;
    }

    /// Reference seconds per measured second: the nominal chunk time over
    /// the mean measured one. NaN before the first chunk.
    pub fn scale(&self) -> f64 {
        NOMINAL_CHUNK_S * f64::from(self.chunks) / self.total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_is_nominal_over_the_mean_chunk() {
        let mut reference = Reference::default();
        reference.add(Duration::from_secs_f64(NOMINAL_CHUNK_S));
        reference.add(Duration::from_secs_f64(NOMINAL_CHUNK_S * 3.0));
        assert!((reference.scale() - 0.5).abs() < 1e-12);
        assert!(Reference::default().scale().is_nan());
    }

    #[test]
    fn the_chunk_does_the_same_work_every_time() {
        assert_eq!(event_mix(5_000), event_mix(5_000));
        assert_eq!(store_mix(5_000), store_mix(5_000));
    }
}
