//! Property tests for the voxel DDA traversal and the layered↔voxel
//! correspondence. Runs in the fast loop.

use lumen_photon::Vec3;
use lumen_tissue::presets::{adult_head, voxelized, AdultHeadConfig};
use lumen_tissue::{LayeredTissue, OpticalProperties, TissueGeometry, VoxelMaterial, VoxelTissue};
use proptest::prelude::*;

/// A 6×5×4 grid with an irregular checker of three materials, pitch
/// (0.4, 0.5, 0.6), origin (-1.2, -1.25) — deliberately anisotropic so
/// axis mix-ups cannot cancel out.
fn checker() -> VoxelTissue {
    let materials = vec![
        VoxelMaterial::new("A", OpticalProperties::new(0.01, 10.0, 0.9, 1.4)),
        VoxelMaterial::new("B", OpticalProperties::new(0.02, 20.0, 0.8, 1.5)),
        VoxelMaterial::new("C", OpticalProperties::new(0.05, 5.0, 0.0, 1.33)),
    ];
    VoxelTissue::from_fn((6, 5, 4), (-1.2, -1.25), (0.4, 0.5, 0.6), materials, 1.0, |c| {
        let ix = ((c.x + 1.2) / 0.4) as usize;
        let iy = ((c.y + 1.25) / 0.5) as usize;
        let iz = (c.z / 0.6) as usize;
        ((ix + 2 * iy + iz) % 3) as u16
    })
    .unwrap()
}

/// Walk a ray through the grid via repeated `boundary_hit` calls, exactly
/// as the transport loop does, collecting each hop.
fn walk(t: &VoxelTissue, mut pos: Vec3, dir: Vec3) -> Vec<(f64, Option<usize>)> {
    let mut region = t
        .voxel_of(pos, dir)
        .map(|(ix, iy, iz)| usize::from(t.material_at(ix, iy, iz)))
        .expect("walk starts inside the grid");
    let mut hops = Vec::new();
    for _ in 0..1000 {
        let hit = t.boundary_hit(pos, dir, region);
        hops.push((hit.distance, hit.next_region));
        pos += dir * hit.distance;
        match hit.next_region {
            Some(next) => region = next,
            None => return hops,
        }
    }
    panic!("ray failed to leave a finite grid within 1000 material changes");
}

proptest! {
    /// The DDA never yields positions outside the grid (within face
    /// tolerance) and every ray eventually exits.
    #[test]
    fn dda_never_escapes_the_grid(
        fx in 0.02f64..0.98, fy in 0.02f64..0.98, fz in 0.02f64..0.98,
        ux in -1.0f64..1.0, uy in -1.0f64..1.0, uz in -1.0f64..1.0,
    ) {
        prop_assume!(ux != 0.0 || uy != 0.0 || uz != 0.0);
        let t = checker();
        let (lo, hi) = t.bounds();
        let start = Vec3::new(
            lo.x + fx * (hi.x - lo.x),
            lo.y + fy * (hi.y - lo.y),
            lo.z + fz * (hi.z - lo.z),
        );
        let dir = Vec3::new(ux, uy, uz).renormalize();
        let mut pos = start;
        let eps = 1e-9;
        for (distance, next) in walk(&t, start, dir) {
            pos += dir * distance;
            if next.is_some() {
                // Interior hits stay inside the bounds.
                prop_assert!(pos.x >= lo.x - eps && pos.x <= hi.x + eps, "x = {}", pos.x);
                prop_assert!(pos.y >= lo.y - eps && pos.y <= hi.y + eps, "y = {}", pos.y);
                prop_assert!(pos.z >= lo.z - eps && pos.z <= hi.z + eps, "z = {}", pos.z);
            }
        }
    }

    /// Per-call distances are non-negative and finite, and the cumulative
    /// boundary distances along a ray are monotonically non-decreasing.
    #[test]
    fn dda_distances_are_monotone(
        fx in 0.02f64..0.98, fy in 0.02f64..0.98, fz in 0.02f64..0.98,
        ux in -1.0f64..1.0, uy in -1.0f64..1.0, uz in -1.0f64..1.0,
    ) {
        prop_assume!(ux != 0.0 || uy != 0.0 || uz != 0.0);
        let t = checker();
        let (lo, hi) = t.bounds();
        let start = Vec3::new(
            lo.x + fx * (hi.x - lo.x),
            lo.y + fy * (hi.y - lo.y),
            lo.z + fz * (hi.z - lo.z),
        );
        let dir = Vec3::new(ux, uy, uz).renormalize();
        let mut cumulative = 0.0;
        let mut previous = 0.0;
        for (distance, _) in walk(&t, start, dir) {
            prop_assert!(distance.is_finite() && distance >= 0.0, "distance {distance}");
            cumulative += distance;
            prop_assert!(cumulative >= previous);
            previous = cumulative;
        }
        // The whole walk cannot exceed the grid diagonal (plus tolerance).
        prop_assert!(cumulative <= (hi - lo).norm() + 1e-6, "walked {cumulative}");
    }

    /// `voxelized(stack, dx)` assigns every voxel the material of the layer
    /// containing its centre — palette indices equal layer indices.
    #[test]
    fn voxelized_agrees_with_layer_at_every_centre(
        dx in 0.3f64..2.0,
        scalp in 3.0f64..10.0,
        skull in 5.0f64..10.0,
    ) {
        let cfg = AdultHeadConfig { scalp_mm: scalp, skull_mm: skull, ..Default::default() };
        let head = adult_head(cfg);
        let grid = voxelized(&head, dx, 8.0, 30.0).unwrap();
        let (nx, ny, nz) = grid.dims();
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let centre = grid.centre(ix, iy, iz);
                    let expect = head.layer_at(centre.z).expect("inside the stack");
                    prop_assert_eq!(usize::from(grid.material_at(ix, iy, iz)), expect);
                }
            }
        }
        // And the palettes line up name-for-name.
        for (i, layer) in head.layers().iter().enumerate() {
            prop_assert_eq!(grid.region_name(i), layer.name.as_str());
        }
    }
}

#[test]
fn voxelized_depth_beyond_finite_stack_is_an_error() {
    let slab = LayeredTissue::stack(
        vec![("only".into(), 5.0, OpticalProperties::new(0.1, 10.0, 0.9, 1.4))],
        1.0,
    )
    .unwrap();
    assert!(voxelized(&slab, 0.5, 5.0, 5.0).is_ok());
    assert!(voxelized(&slab, 0.5, 5.0, 6.0).is_err());
    assert!(voxelized(&slab, -0.5, 5.0, 5.0).is_err());
    // A pitch that does not divide the depth is still legal: ceil-rounding
    // pushes the deepest voxel centre past the stack bottom (z = 5.0 at
    // dx = 0.4), and that sliver inherits the bottom layer.
    let rounded = voxelized(&slab, 0.4, 5.0, 5.0).unwrap();
    let (_, _, nz) = rounded.dims();
    assert_eq!(nz, 13);
    assert_eq!(rounded.material_at(0, 0, nz - 1), 0);
}

#[test]
fn walk_region_sequence_matches_cell_materials() {
    // A straight-down walk through the checker visits exactly the material
    // run-length sequence of the column of voxels it traverses.
    let t = checker();
    let dir = Vec3::PLUS_Z;
    let start = Vec3::new(0.1, 0.1, 0.0);
    let (ix, iy, _) = t.voxel_of(start, dir).unwrap();
    let column: Vec<usize> =
        (0..t.dims().2).map(|iz| usize::from(t.material_at(ix, iy, iz))).collect();
    let mut expected_changes: Vec<Option<usize>> = Vec::new();
    let mut current = column[0];
    for &m in &column[1..] {
        if m != current {
            expected_changes.push(Some(m));
            current = m;
        }
    }
    expected_changes.push(None); // bottom exit
    let got: Vec<Option<usize>> = walk(&t, start, dir).iter().map(|&(_, n)| n).collect();
    assert_eq!(got, expected_changes);
}

// --- Interior bound and step-bounded walk --------------------------------
//
// The engine skips the DDA when its step is at most half of
// `min_boundary_distance`, and passes its step as `boundary_hit_within`'s
// limit otherwise. Both are exact only if the bound really is a lower bound
// on the walk's distance (with the factor-2 margin) and the bounded walk
// agrees with the full one wherever the answer matters.

/// SplitMix64: deterministic probe positions and grids without a dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn dir(&mut self) -> Vec3 {
        loop {
            let v = Vec3::new(
                2.0 * self.unit() - 1.0,
                2.0 * self.unit() - 1.0,
                2.0 * self.unit() - 1.0,
            );
            if v.norm() > 0.1 {
                return v.renormalize();
            }
        }
    }
}

/// The uniform-block flag by definition: all 27 cells of the block centred
/// on `(ix, iy, iz)` exist and share its material.
fn brute_uniform(t: &VoxelTissue, ix: usize, iy: usize, iz: usize) -> bool {
    let (nx, ny, nz) = t.dims();
    if ix == 0 || iy == 0 || iz == 0 || ix + 1 >= nx || iy + 1 >= ny || iz + 1 >= nz {
        return false;
    }
    let m = t.material_at(ix, iy, iz);
    (iz - 1..=iz + 1)
        .all(|z| (iy - 1..=iy + 1).all(|y| (ix - 1..=ix + 1).all(|x| t.material_at(x, y, z) == m)))
}

/// A small random grid: a background with a few random boxes and one odd
/// voxel painted over it, so uniform blocks, one-voxel shells and isolated
/// cells all occur. Anisotropic pitch and an off-centre origin.
fn random_grid(seed: u64) -> VoxelTissue {
    let mut mix = Mix(seed);
    let dims = (3 + mix.below(5), 3 + mix.below(5), 3 + mix.below(5));
    let pitch = (0.3 + 0.7 * mix.unit(), 0.3 + 0.7 * mix.unit(), 0.3 + 0.7 * mix.unit());
    let origin = (-2.0 * mix.unit(), -2.0 * mix.unit());
    let kinds = 1 + mix.below(3);
    let materials = (0..kinds)
        .map(|k| {
            VoxelMaterial::new(
                format!("M{k}"),
                OpticalProperties::new(0.01 * (k + 1) as f64, 10.0, 0.9, 1.3 + 0.05 * k as f64),
            )
        })
        .collect();
    let (nx, ny, nz) = dims;
    let mut cells = vec![0u16; nx * ny * nz];
    let mut paint = |lo: (usize, usize, usize), hi: (usize, usize, usize), m: u16| {
        for iz in lo.2..hi.2 {
            for iy in lo.1..hi.1 {
                for ix in lo.0..hi.0 {
                    cells[(iz * ny + iy) * nx + ix] = m;
                }
            }
        }
    };
    for _ in 0..mix.below(4) {
        let lo = (mix.below(nx), mix.below(ny), mix.below(nz));
        let hi = (
            lo.0 + 1 + mix.below(nx - lo.0),
            lo.1 + 1 + mix.below(ny - lo.1),
            lo.2 + 1 + mix.below(nz - lo.2),
        );
        paint(lo, hi, mix.below(kinds) as u16);
    }
    let odd = (mix.below(nx), mix.below(ny), mix.below(nz));
    paint(odd, (odd.0 + 1, odd.1 + 1, odd.2 + 1), mix.below(kinds) as u16);
    VoxelTissue::new(dims, origin, pitch, materials, cells, 1.0).unwrap()
}

/// Probe points in voxel `(ix, iy, iz)`: its centre, a random interior
/// point, and a point on one of its faces together with that point one ulp
/// either side of the face.
fn probe_points(t: &VoxelTissue, (ix, iy, iz): (usize, usize, usize), mix: &mut Mix) -> Vec<Vec3> {
    let c = t.centre(ix, iy, iz);
    let (dx, dy, dz) = t.voxel_mm();
    let inside = Vec3::new(
        c.x + (mix.unit() - 0.5) * dx,
        c.y + (mix.unit() - 0.5) * dy,
        c.z + (mix.unit() - 0.5) * dz,
    );
    let (x0, y0) = t.origin();
    let mut on_face = inside;
    let side = mix.below(2) as f64;
    match mix.below(3) {
        0 => on_face.x = x0 + (ix as f64 + side) * dx,
        1 => on_face.y = y0 + (iy as f64 + side) * dy,
        _ => on_face.z = (iz as f64 + side) * dz,
    }
    let nudged = |f: fn(f64) -> f64| Vec3::new(f(on_face.x), f(on_face.y), f(on_face.z));
    vec![c, inside, on_face, nudged(f64::next_up), nudged(f64::next_down)]
}

/// Check the bound and the bounded walk at `pos` for a photon in `region`.
fn check_point(t: &VoxelTissue, pos: Vec3, region: usize, dirs: &[Vec3]) -> Result<(), String> {
    let bound = t.min_boundary_distance(pos, region);
    for &dir in dirs {
        let hit = t.boundary_hit(pos, dir, region);
        if hit.distance.is_nan() || 0.5 * bound > hit.distance {
            return Err(format!(
                "bound {bound} vs walk {} at {pos:?} along {dir:?} in region {region}",
                hit.distance
            ));
        }
        let d = hit.distance;
        for limit in
            [0.0, 0.5 * d, d.next_down(), d, d.next_up(), 2.0 * d + 1.0, bound, f64::INFINITY]
        {
            let within = t.boundary_hit_within(pos, dir, region, limit);
            let ok = if d < limit { within == hit } else { within.distance >= limit };
            if !ok {
                return Err(format!(
                    "limit {limit}: {within:?} vs full {hit:?} at {pos:?} along {dir:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Every check above at every probe point of `cells`, both for the cell's
/// own material and for a region it does not hold.
fn check_cells(
    t: &VoxelTissue,
    cells: impl IntoIterator<Item = (usize, usize, usize)>,
    mix: &mut Mix,
) -> Result<(), String> {
    let axes = [Vec3::PLUS_Z, -Vec3::PLUS_Z, Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, -1.0, 0.0)];
    for (ix, iy, iz) in cells {
        if t.is_uniform_block(ix, iy, iz) != brute_uniform(t, ix, iy, iz) {
            return Err(format!("uniform flag wrong at ({ix}, {iy}, {iz})"));
        }
        let own = usize::from(t.material_at(ix, iy, iz));
        let other = (own + 1) % t.region_count().max(2);
        let mut dirs: Vec<Vec3> = (0..6).map(|_| mix.dir()).collect();
        dirs.extend(axes);
        for pos in probe_points(t, (ix, iy, iz), mix) {
            check_point(t, pos, own, &dirs)?;
            if other < t.region_count() {
                check_point(t, pos, other, &dirs)?;
            }
        }
    }
    Ok(())
}

fn all_cells(t: &VoxelTissue) -> Vec<(usize, usize, usize)> {
    let (nx, ny, nz) = t.dims();
    (0..nz).flat_map(|iz| (0..ny).flat_map(move |iy| (0..nx).map(move |ix| (ix, iy, iz)))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// On random small grids: the uniform flag equals the 27-cell check,
    /// half the interior bound never exceeds the walk's distance, and the
    /// step-bounded walk agrees with the full one below its limit.
    #[test]
    fn interior_bound_and_bounded_walk_are_sound_on_random_grids(seed in any::<u64>()) {
        let t = random_grid(seed);
        if let Err(e) = check_cells(&t, all_cells(&t), &mut Mix(seed ^ 1)) {
            prop_assert!(false, "grid {seed}: {e}");
        }
    }
}

#[test]
fn interior_bound_and_bounded_walk_are_sound_on_the_checker() {
    // No voxel of the checker has a uniform block: the bound is the plain
    // cell gap everywhere, including for regions the cell does not hold.
    let t = checker();
    assert!(all_cells(&t).into_iter().all(|(x, y, z)| !t.is_uniform_block(x, y, z)));
    check_cells(&t, all_cells(&t), &mut Mix(7)).unwrap();
}

#[test]
fn interior_bound_and_bounded_walk_are_sound_on_a_voxelized_head() {
    let t = voxelized(&adult_head(AdultHeadConfig::default()), 1.0, 8.0, 25.0).unwrap();
    let cells = all_cells(&t);
    assert!(cells.iter().any(|&(x, y, z)| t.is_uniform_block(x, y, z)));
    // Every flag, then the probes on a deterministic sample of cells.
    for &(x, y, z) in &cells {
        assert_eq!(t.is_uniform_block(x, y, z), brute_uniform(&t, x, y, z), "({x}, {y}, {z})");
    }
    let mut mix = Mix(11);
    let sample: Vec<_> = (0..400).map(|_| cells[mix.below(cells.len())]).collect();
    check_cells(&t, sample, &mut mix).unwrap();
}
