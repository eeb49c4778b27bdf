//! Kernel-stage architecture for the photon transport loop.
//!
//! The paper's Fig 1 loop decomposes into five stages — **launch**, **hop**
//! (free-path sampling + propagation), **interact** (drop/spin/roulette),
//! **surface** (Fresnel escape/reflection at external boundaries), and
//! **finish** (terminal-fate bookkeeping). [`scalar`] composes them into the
//! bit-pinned reference loop, byte-identical to every golden snapshot, and
//! defines the transport rules the stages apply: the step-versus-boundary
//! decision, the step carry-over, the drop bookkeeping and the internal
//! interface crossing.
//!
//! [`batch`] is a second loop over the same rules: a structure-of-arrays
//! tracer that steps a pool of photon lanes in lockstep, replacing the libm
//! calls that dominate the scalar profile (sincos ~14 ns, ln ~7 ns of
//! ~55 ns per interaction — see `docs/PERFORMANCE.md`) with the polynomial
//! approximations in [`lumen_photon::approx`]. It calls the scalar rules
//! per lane and re-enters the scalar launch, surface and finish stages. It
//! backs the [`Precision::Fast`](crate::sim::Precision) tier and is
//! validated statistically (tally-level z-tests), not bit-for-bit.
//!
//! The loops stay two on purpose. The tiers differ in six places — the
//! `ln`/`sincos` provider, `÷μt` vs `×1/μt`, spin renormalisation, the
//! spin-draw order for pure absorbers, the partial path accumulated as
//! `(pl+d)−pl` vs `d`, and trajectory recording — and one generic loop
//! would need a hook for each.
//!
//! The dispatch seam is [`crate::Simulation::run_stream`]: `Exact` scenarios
//! run [`scalar`], `Fast` scenarios run [`batch`]. Everything above that
//! seam — task decomposition, RNG substreams, tally merging, every backend —
//! is tier-agnostic.

pub(crate) mod batch;
pub(crate) mod scalar;

/// Detection bookkeeping accumulated while one photon walks.
///
/// Probabilistic boundary mode detects at most once (the walk ends there);
/// classical mode can split one packet across several escape events, so the
/// *first* detection supplies the path statistics while `weight_total`
/// accumulates every detected fraction.
#[derive(Default)]
pub(crate) struct DetectionState {
    /// `(pathlength, weight_out)` of the first detected escape.
    pub first: Option<(f64, f64)>,
    /// Total weight carried out through the detector by this photon.
    pub weight_total: f64,
}
