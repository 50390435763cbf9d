//! A fixed reference kernel, timed right before and right after every
//! measured run, that expresses host times at a reference host speed.
//!
//! The benchmark host is shared with other tenants and its speed drifts:
//! the same run measured minutes apart differs by 10–25%. The kernel
//! depends on nothing in the repository, so scaling a run's time by
//! `REFERENCE_NS / kernel time` cancels most of that drift while a change
//! to the simulator moves the scaled time exactly as it moves the raw
//! time. Raw times are printed beside the scaled ones.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Kernel time, in ns, at the reference speed: about its median on the
/// 2-logical-core Xeon VM the benchmark was defined on.
pub const REFERENCE_NS: f64 = 7.5e6;

/// Time one pass of the kernel: SplitMix64 keys into a 64k-entry hash
/// map (fixed hasher keys, so every pass does identical work), mixing
/// hashing, branches and cache-resident memory traffic as the simulator
/// does.
pub fn kernel_ns() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let (mut x, mut acc) = (0x1234_5678u64, 0u64);
    for i in 0..100_000u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *map.entry(z % 65_536).or_insert(0) += i;
        acc = acc
            .wrapping_add(map.get(&(z >> 48)).copied().unwrap_or(0))
            .wrapping_add(u64::from(z.count_ones()));
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// Factor that scales a time measured between kernel passes taking
/// `before` and `after` ns to the reference speed.
pub fn speed_factor(before: f64, after: f64) -> f64 {
    REFERENCE_NS / (before * after).sqrt()
}
