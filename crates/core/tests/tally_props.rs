//! Property tests for the tally algebra.
//!
//! Every distributed reduction in `lumen-cluster` (the DataManager's
//! "process the returned results" step, the rayon backend's task-order
//! merge, the TCP server's aggregation) silently relies on [`Tally::merge`]
//! behaving like a commutative monoid: merging split batches must equal one
//! sequential accumulation, grouping must not matter, and normalisation
//! (`scale`) must be linear over merges.
//!
//! Floating-point addition is not associative in general, so the engine
//! fixes the merge *order* (task order) to make results bit-reproducible.
//! These tests pin the two layers of that contract separately:
//!
//! * on **dyadic inputs** (multiples of 1/8 with small magnitudes, where
//!   every sum and product is exact in an `f64`) the algebra must hold
//!   **bit-for-bit**, counts and floats alike;
//! * on **real simulation output** the counts (`u64`) must obey the
//!   algebra exactly, and the float fields to 1 part in 10⁹ — documenting
//!   precisely how much reassociation is allowed to move them.
//!
//! A third layer pins the storage under every grid and profile: [`Cells`]
//! holds nothing until a write can change a bit, and must still read, sum,
//! merge, scale, compare and encode exactly like the `Vec<f64>` it
//! replaced — [`Dense`], kept here as the reference.

use lumen_cluster::wire::{Decoder, Encoder};
use lumen_core::engine::{Backend, Scenario, Sequential};
use lumen_core::tally::{Cells, GridSpec, PathHistogram, Tally, VisitGrid};
use lumen_core::{Detector, Source, Vec3};
use lumen_tissue::presets::semi_infinite_phantom;
use mcrng::StreamFactory;
use proptest::prelude::*;

const LAYERS: usize = 3;

/// A dyadic f64 in [0, 32): exact under addition and halving/doubling.
fn dyadic(raw: u8) -> f64 {
    f64::from(raw) / 8.0
}

/// Build a synthetic tally whose float fields are all dyadic, from a flat
/// byte seed vector (the proptest shim has no struct-level Arbitrary).
fn tally_from(bytes: &[u8; 16]) -> Tally {
    let mut t = Tally::new(LAYERS, None, None);
    t.launched = u64::from(bytes[0]);
    t.detected = u64::from(bytes[1]);
    t.reflected = u64::from(bytes[2]);
    t.roulette_killed = u64::from(bytes[3]);
    t.gate_rejected = u64::from(bytes[4]);
    t.specular_weight = dyadic(bytes[5]);
    t.detected_weight = dyadic(bytes[6]);
    t.reflected_weight = dyadic(bytes[7]);
    t.transmitted_weight = dyadic(bytes[8]);
    for (i, slot) in t.absorbed_by_layer.iter_mut().enumerate() {
        *slot = dyadic(bytes[9 + i]);
    }
    t.detected_path_sum = dyadic(bytes[12]);
    t.detected_depth_max = dyadic(bytes[13]);
    t.detected_reached_layer[0] = u64::from(bytes[14]);
    t.detected_partial_path[1] = dyadic(bytes[15]);
    t.detected_scatter_sum = u64::from(bytes[0]) + u64::from(bytes[15]);
    t
}

fn grid_spec() -> GridSpec {
    GridSpec::cubic(4, Vec3::new(-2.0, -2.0, 0.0), Vec3::new(2.0, 2.0, 4.0))
}

/// Deposit dyadic weights into a grid at voxel centres selected by `cells`.
fn grid_from(cells: &[(u8, u8)]) -> VisitGrid {
    let mut g = VisitGrid::new(grid_spec());
    let n = grid_spec().len();
    for &(idx, w) in cells {
        g.deposit(grid_spec().centre_of(usize::from(idx) % n), dyadic(w));
    }
    g
}

proptest! {
    #[test]
    fn merge_is_associative_bit_for_bit(
        a in any::<[u8; 16]>(), b in any::<[u8; 16]>(), c in any::<[u8; 16]>()
    ) {
        let (ta, tb, tc) = (tally_from(&a), tally_from(&b), tally_from(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ta.clone();
        left.merge(&tb);
        left.merge(&tc);
        // a ⊕ (b ⊕ c)
        let mut bc = tb.clone();
        bc.merge(&tc);
        let mut right = ta.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_order_insensitive_bit_for_bit(
        a in any::<[u8; 16]>(), b in any::<[u8; 16]>()
    ) {
        let (ta, tb) = (tally_from(&a), tally_from(&b));
        let mut ab = ta.clone();
        ab.merge(&tb);
        let mut ba = tb.clone();
        ba.merge(&ta);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merging_split_batches_equals_one_accumulation(
        parts in proptest::collection::vec(any::<[u8; 16]>(), 1..6)
    ) {
        // Sequential accumulation: fold every worker tally into one
        // aggregate, one at a time (what the Sequential backend does).
        let mut sequential = Tally::new(LAYERS, None, None);
        for p in &parts {
            sequential.merge(&tally_from(p));
        }
        // Split reduction: merge the front and back halves separately,
        // then combine (what a tree/cluster reduction does).
        let mid = parts.len() / 2;
        let mut front = Tally::new(LAYERS, None, None);
        for p in &parts[..mid] {
            front.merge(&tally_from(p));
        }
        let mut back = Tally::new(LAYERS, None, None);
        for p in &parts[mid..] {
            back.merge(&tally_from(p));
        }
        front.merge(&back);
        prop_assert_eq!(sequential, front);
    }

    #[test]
    fn grid_scale_is_linear_over_merge(
        cells_a in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
        cells_b in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
        k_exp in -2i32..3
    ) {
        // k ∈ {0.25, 0.5, 1, 2, 4}: exact scaling for dyadic weights.
        let k = (2.0f64).powi(k_exp);
        let (ga, gb) = (grid_from(&cells_a), grid_from(&cells_b));
        // scale(a ⊕ b, k)
        let mut merged = ga.clone();
        merged.merge(&gb);
        merged.scale(k);
        // scale(a, k) ⊕ scale(b, k)
        let mut sa = ga.clone();
        sa.scale(k);
        let mut sb = gb.clone();
        sb.scale(k);
        sa.merge(&sb);
        prop_assert_eq!(merged, sa);
    }

    #[test]
    fn histogram_merge_adds_counts_exactly(
        counts_a in proptest::collection::vec(0u64..1000, 8),
        counts_b in proptest::collection::vec(0u64..1000, 8),
        overflow_a in 0u64..100, overflow_b in 0u64..100
    ) {
        let mut a = PathHistogram::new(100.0, 8);
        a.counts.copy_from_slice(&counts_a);
        a.overflow = overflow_a;
        let mut b = PathHistogram::new(100.0, 8);
        b.counts.copy_from_slice(&counts_b);
        b.overflow = overflow_b;
        let total = a.total() + b.total();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.total(), total);
    }
}

/// The cell storage every grid and profile had before [`Cells`]: `len`
/// cells from `+0.0`, with exactly the parent's arithmetic.
#[derive(Debug, Clone, PartialEq)]
struct Dense(Vec<f64>);

impl Dense {
    fn add(&mut self, i: usize, w: f64) {
        self.0[i] += w;
    }
    fn merge(&mut self, other: &Dense) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }
    fn scale(&mut self, factor: f64) {
        for v in &mut self.0 {
            *v *= factor;
        }
    }
    fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
    fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }
}

/// Cell values and weights: both zeros, NaN, a subnormal, ordinary values.
const VALUES: [f64; 7] = [0.0, -0.0, f64::NAN, 5e-324, 1.5, -2.25, 1e300];
/// Scale factors: k > 0, -k, both zeros, infinity, NaN.
const FACTORS: [f64; 7] = [0.5, 3.0, -2.0, 0.0, -0.0, f64::INFINITY, f64::NAN];

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// The wire bytes of a store.
fn encoded(cells: &Cells) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_cells(cells);
    e.finish()
}

/// A store through the wire and back.
fn round_trip(cells: &Cells) -> Cells {
    let bytes = encoded(cells);
    let mut d = Decoder::new(&bytes).expect("header");
    let back = d.get_cells(Some(cells.len())).expect("canonical runs");
    d.finish().expect("nothing after the runs");
    back
}

/// Every observation of `cells` equals the reference's, to the bit.
fn agrees(cells: &Cells, dense: &Dense) -> Result<(), String> {
    let n = dense.0.len();
    prop_assert_eq!(cells.len(), n);
    prop_assert_eq!(bits(cells.to_vec()), bits(dense.0.clone()));
    prop_assert_eq!(bits(cells.iter()), bits(dense.0.clone()));
    prop_assert_eq!(bits((0..n).map(|i| cells.get(i))), bits(dense.0.clone()));
    prop_assert_eq!(cells.sum().to_bits(), dense.sum().to_bits());
    prop_assert_eq!(cells.max().to_bits(), dense.max().to_bits());
    // The codec sees the same cells either way: a touched store of the
    // reference's values encodes to the same bytes.
    prop_assert_eq!(encoded(cells), encoded(&Cells::from(dense.0.clone())));
    Ok(())
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

    /// Random operation sequences over three stores and their dense
    /// references: after every step each store reads exactly as its
    /// reference, and `==` between any two stores is the references' `==`.
    #[test]
    fn cells_match_the_dense_vector_bit_for_bit(
        len in 1usize..6,
        ops in proptest::collection::vec(any::<[u8; 4]>(), 1..48),
    ) {
        let mut lazy = [Cells::new(len), Cells::new(len), Cells::new(len)];
        let mut dense = [Dense(vec![0.0; len]), Dense(vec![0.0; len]), Dense(vec![0.0; len])];
        for [op, x, y, pick] in ops {
            let (a, b) = (usize::from(x) % 3, usize::from(y) % 3);
            match op % 7 {
                0 | 1 => {
                    let (i, w) = (usize::from(y) % len, VALUES[usize::from(pick) % VALUES.len()]);
                    lazy[a].add(i, w);
                    dense[a].add(i, w);
                }
                2 => {
                    let (other, other_dense) = (lazy[b].clone(), dense[b].clone());
                    lazy[a].merge(&other);
                    dense[a].merge(&other_dense);
                }
                3 => {
                    let k = FACTORS[usize::from(pick) % FACTORS.len()];
                    lazy[a].scale(k);
                    dense[a].scale(k);
                }
                4 => lazy[a] = round_trip(&lazy[a]),
                5 => lazy[a] = Cells::from(lazy[a].to_vec()),
                _ => {
                    lazy[a] = Cells::new(len);
                    dense[a] = Dense(vec![0.0; len]);
                }
            }
            for (cells, reference) in lazy.iter().zip(&dense) {
                agrees(cells, reference)?;
            }
            for x in 0..3 {
                for y in 0..3 {
                    prop_assert_eq!((x, y, lazy[x] == lazy[y]), (x, y, dense[x] == dense[y]));
                }
            }
        }
    }
}

/// What the store is for: nothing is allocated until a write can change a
/// bit, and the operations a task that deposited nothing goes through —
/// clone, merge, encode, decode — leave it that way.
#[test]
fn cells_stay_untouched_until_a_write_can_change_a_bit() {
    let mut cells = Cells::new(125_000);
    cells.add(7, 0.0);
    cells.add(7, -0.0);
    cells.scale(2.0);
    cells.scale(0.0);
    let mut other = cells.clone();
    other.merge(&cells);
    let back = round_trip(&other);
    assert!(![&cells, &other, &back].iter().any(|c| c.is_touched()));
    assert_eq!((back.touched(), back.sum().to_bits(), back.max()), (None, 0, 0.0));
    assert_eq!(encoded(&back).len(), 5 + 16);
    // The first write that changes a bit materialises the store ...
    cells.add(7, 0.25);
    assert_eq!(cells.touched().map(|c| (c.len(), c[7])), Some((125_000, 0.25)));
    // ... and so does a scale whose product with +0.0 is not +0.0.
    for k in [-1.0, f64::INFINITY, f64::NAN] {
        let mut scaled = Cells::new(3);
        scaled.scale(k);
        assert!(scaled.is_touched(), "{k}");
    }
    // Equality is by value: untouched equals touched-but-zero.
    let mut zeroed = Cells::new(3);
    zeroed.add(1, 1.0);
    zeroed.add(1, -1.0);
    assert!(zeroed.is_touched() && zeroed == Cells::new(3) && Cells::new(3) == zeroed);
    assert_ne!(Cells::new(3), Cells::new(4));
}

/// The engine-level version of the split-batch property, on real photon
/// transport: per-task tallies merged as one group must equal the same
/// tallies folded one at a time — counts exactly, floats to 1e-9 relative
/// (the slack that regrouping float sums is allowed, and documented, to
/// introduce; the engine avoids even that by fixing the merge order).
#[test]
fn split_batch_merge_matches_sequential_on_real_transport() {
    let scenario = Scenario::new(
        semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
        Source::Delta,
        Detector::new(1.0, 0.5),
    )
    .with_photons(2_000)
    .with_tasks(4)
    .with_seed(99);
    let sim = scenario.simulation();
    let factory = StreamFactory::new(scenario.seed);

    // One tally per task, exactly as every backend produces them.
    let per_task: Vec<Tally> = scenario
        .batches()
        .iter()
        .enumerate()
        .map(|(i, &batch)| {
            let mut rng = factory.stream(i as u64);
            let mut tally = sim.new_tally();
            sim.run_stream(batch, &mut rng, &mut tally, None);
            tally
        })
        .collect();

    // Fold in task order (the engine's contract) ...
    let mut folded = sim.new_tally();
    for t in &per_task {
        folded.merge(t);
    }
    // ... and check it against the actual backend output, bit-for-bit.
    let report = Sequential.run(&scenario).expect("valid scenario");
    assert_eq!(folded, report.result.tally);

    // Split reduction: counts must agree exactly, floats within 1e-9.
    let mut front = sim.new_tally();
    front.merge(&per_task[0]);
    front.merge(&per_task[1]);
    let mut back = sim.new_tally();
    back.merge(&per_task[2]);
    back.merge(&per_task[3]);
    front.merge(&back);
    assert_eq!(front.launched, folded.launched);
    assert_eq!(front.detected, folded.detected);
    assert_eq!(front.reflected, folded.reflected);
    assert_eq!(front.roulette_killed, folded.roulette_killed);
    assert_eq!(front.detected_scatter_sum, folded.detected_scatter_sum);
    assert_eq!(front.detected_reached_layer, folded.detected_reached_layer);
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    assert!(close(front.detected_weight, folded.detected_weight));
    assert!(close(front.reflected_weight, folded.reflected_weight));
    assert!(close(front.total_absorbed(), folded.total_absorbed()));
    assert!(close(front.detected_path_sum, folded.detected_path_sum));
}
