//! Time-of-flight analysis.
//!
//! The engine gates and records *pathlengths*; in a time-resolved
//! experiment the measured variable is the photon arrival time. The two
//! are related by `t = L · n / c`: pathlength L in the medium of
//! refractive index n. These helpers convert between the two, so the
//! paper's "gated differential pathlengths" can be expressed in
//! picoseconds, the unit a pulsed NIRS instrument actually gates in.

/// Speed of light in vacuum (mm / ps).
pub const C_MM_PER_PS: f64 = 0.299_792_458;

/// Time (ps) for a photon to travel `pathlength_mm` in a medium of
/// refractive index `n`.
#[inline]
pub fn pathlength_to_time_ps(pathlength_mm: f64, n: f64) -> f64 {
    pathlength_mm * n / C_MM_PER_PS
}

/// Pathlength (mm) corresponding to an arrival time (ps) in a medium of
/// refractive index `n`.
#[inline]
pub fn time_to_pathlength_mm(time_ps: f64, n: f64) -> f64 {
    time_ps * C_MM_PER_PS / n
}

/// Mean arrival time (ps) implied by a mean pathlength (mm).
#[inline]
pub fn mean_time_of_flight_ps(mean_pathlength_mm: f64, n: f64) -> f64 {
    pathlength_to_time_ps(mean_pathlength_mm, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_conversion() {
        for l in [1.0, 10.0, 123.4] {
            let t = pathlength_to_time_ps(l, 1.4);
            assert!((time_to_pathlength_mm(t, 1.4) - l).abs() < 1e-9);
        }
    }

    #[test]
    fn physical_sanity() {
        // 300 mm in vacuum-index medium ≈ 1 ns.
        let t = pathlength_to_time_ps(299.792_458, 1.0);
        assert!((t - 1000.0).abs() < 1e-6);
        // Higher index means slower light, longer time.
        assert!(pathlength_to_time_ps(100.0, 1.4) > pathlength_to_time_ps(100.0, 1.0));
    }

    #[test]
    fn mean_tof_matches_conversion() {
        assert_eq!(mean_time_of_flight_ps(50.0, 1.4), pathlength_to_time_ps(50.0, 1.4));
    }
}
