//! Dense voxelized tissue: a 3-D grid of material indices over a palette.
//!
//! Where [`LayeredTissue`](crate::LayeredTissue) can only vary with depth,
//! [`VoxelTissue`] expresses arbitrary lateral inhomogeneity — tumour
//! inclusions, curved skull, CSF channels — as an `nx × ny × nz` grid of
//! `u16` indices into a palette of named materials. The grid's top face sits
//! on the tissue surface z = 0 (sources and detectors live there, exactly as
//! for layered models); x/y extent and voxel pitch are free.
//!
//! Boundary queries use Amanatides–Woo DDA ray traversal, **skipping voxel
//! faces where the material does not change**: a photon inside a homogeneous
//! blob of voxels streams in one step to the first face where the material
//! index differs (where Fresnel physics applies) or to the grid's outer
//! surface. Region indices handed to the transport loop are palette indices,
//! so per-region tallies aggregate by material.
//!
//! Two things keep the transport loop from walking faces it cannot reach:
//! [`TissueGeometry::boundary_hit_within`] stops the walk at the photon's
//! sampled step length, and a per-voxel *uniform block* flag (the 3×3×3
//! block centred on the voxel is inside the grid and holds one material)
//! widens [`TissueGeometry::min_boundary_distance`] from the voxel's own
//! faces to the block's, so most interior steps skip the walk entirely.

use crate::error::GeometryError;
use crate::geometry::TissueGeometry;
use crate::model::BoundaryHit;
use lumen_photon::{check, Axis, DerivedOptics, OpticalProperties, Rule, Vec3};

/// One palette entry: a named homogeneous material.
#[derive(Debug, Clone, PartialEq)]
pub struct VoxelMaterial {
    /// Human-readable name ("Grey matter", "Tumour", ...).
    pub name: String,
    /// Optical properties of the material.
    pub optics: OpticalProperties,
}

impl VoxelMaterial {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, optics: OpticalProperties) -> Self {
        Self { name: name.into(), optics }
    }
}

/// Hard cap on total voxel count (64 Mi cells ≈ 192 MiB at 3 bytes a cell:
/// the `u16` material index plus its uniform-block flag): keeps a hostile
/// wire message or config file from aborting the process on allocation.
pub const MAX_CELLS: usize = 1 << 26;

/// Overflow-checked `nx·ny·nz`, bounded by [`MAX_CELLS`] — the single
/// guard shared by construction, the text parser, and the wire decoder,
/// so the cap cannot drift between trust boundaries.
pub fn checked_cell_count(nx: usize, ny: usize, nz: usize) -> Option<usize> {
    nx.checked_mul(ny).and_then(|v| v.checked_mul(nz)).filter(|&n| n <= MAX_CELLS)
}

/// Tolerance (in voxel units) when locating the voxel containing a point:
/// photons reflected at a face can land a few ulps outside the grid.
const FACE_EPS: f64 = 1e-9;

/// A dense voxel grid of materials occupying `z ∈ [0, nz·dz)`.
#[derive(Debug, Clone, PartialEq)]
pub struct VoxelTissue {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Lower x/y corner of the grid (mm); z always starts at the surface 0.
    x0: f64,
    y0: f64,
    /// Voxel edge lengths (mm).
    dx: f64,
    dy: f64,
    dz: f64,
    materials: Vec<VoxelMaterial>,
    /// Material index per voxel, x-fastest: `(iz·ny + iy)·nx + ix`.
    cells: Vec<u16>,
    /// Refractive index of the medium outside the grid.
    pub ambient_n: f64,
    /// Per-material transport constants, precomputed at construction (the
    /// palette is immutable after `new`, so this can never go stale).
    derived: Vec<DerivedOptics>,
    /// Cached `1/(dx, dy, dz)` for the interior fast-path bound (the pitch
    /// is immutable after `new`).
    inv_d: (f64, f64, f64),
    /// Per voxel, same order as `cells`: the 3×3×3 block centred on it lies
    /// inside the grid and holds one material (derived from `cells` at
    /// construction, so it can never go stale).
    uniform: Vec<bool>,
}

impl VoxelTissue {
    /// Build a validated voxel tissue.
    ///
    /// `dims` is `(nx, ny, nz)`, `origin` the lower `(x, y)` corner, and
    /// `voxel_mm` the `(dx, dy, dz)` pitch. `cells` holds one palette index
    /// per voxel in x-fastest order and must have exactly `nx·ny·nz`
    /// entries, each `< materials.len()`.
    pub fn new(
        dims: (usize, usize, usize),
        origin: (f64, f64),
        voxel_mm: (f64, f64, f64),
        materials: Vec<VoxelMaterial>,
        cells: Vec<u16>,
        ambient_n: f64,
    ) -> Result<Self, GeometryError> {
        let (nx, ny, nz) = dims;
        let (x0, y0) = origin;
        let (dx, dy, dz) = voxel_mm;
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(GeometryError::Empty("voxel per axis"));
        }
        let n_cells = checked_cell_count(nx, ny, nz)
            .ok_or(GeometryError::BadGrid("the voxel count exceeds the cell cap"))?;
        for (field, d) in [("voxel dx", dx), ("voxel dy", dy), ("voxel dz", dz)] {
            check(field, d, Rule::Positive)?;
        }
        check("origin x0", x0, Rule::Finite)?;
        check("origin y0", y0, Rule::Finite)?;
        check("ambient_n", ambient_n, Rule::Index)?;
        if materials.is_empty() {
            return Err(GeometryError::Empty("material"));
        }
        if materials.len() > usize::from(u16::MAX) + 1 {
            return Err(GeometryError::BadGrid("the palette exceeds the u16 index space"));
        }
        for m in &materials {
            m.optics
                .validate()
                .map_err(|error| GeometryError::Region { region: m.name.clone(), error })?;
        }
        if cells.len() != n_cells {
            return Err(GeometryError::BadGrid("the cell count does not match the dimensions"));
        }
        if cells.iter().any(|&c| usize::from(c) >= materials.len()) {
            return Err(GeometryError::BadGrid("a cell refers to a material outside the palette"));
        }
        let derived = materials.iter().map(|m| m.optics.derive()).collect();
        let inv_d = (1.0 / dx, 1.0 / dy, 1.0 / dz);
        let uniform = uniform_blocks(dims, &cells);
        Ok(Self {
            nx,
            ny,
            nz,
            x0,
            y0,
            dx,
            dy,
            dz,
            materials,
            cells,
            ambient_n,
            derived,
            inv_d,
            uniform,
        })
    }

    /// Build a grid by evaluating `material` at every voxel centre.
    pub fn from_fn(
        dims: (usize, usize, usize),
        origin: (f64, f64),
        voxel_mm: (f64, f64, f64),
        materials: Vec<VoxelMaterial>,
        ambient_n: f64,
        mut material: impl FnMut(Vec3) -> u16,
    ) -> Result<Self, GeometryError> {
        let (nx, ny, nz) = dims;
        let n_cells = checked_cell_count(nx, ny, nz)
            .ok_or(GeometryError::BadGrid("the voxel count exceeds the cell cap"))?;
        let (x0, y0) = origin;
        let (dx, dy, dz) = voxel_mm;
        let mut cells = Vec::with_capacity(n_cells);
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let centre = Vec3::new(
                        x0 + (ix as f64 + 0.5) * dx,
                        y0 + (iy as f64 + 0.5) * dy,
                        (iz as f64 + 0.5) * dz,
                    );
                    cells.push(material(centre));
                }
            }
        }
        Self::new(dims, origin, voxel_mm, materials, cells, ambient_n)
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Voxel pitch `(dx, dy, dz)` in mm.
    pub fn voxel_mm(&self) -> (f64, f64, f64) {
        (self.dx, self.dy, self.dz)
    }

    /// Lower `(x, y)` corner of the grid (mm).
    pub fn origin(&self) -> (f64, f64) {
        (self.x0, self.y0)
    }

    /// Axis-aligned bounds: lower corner (z = 0) and upper corner.
    pub fn bounds(&self) -> (Vec3, Vec3) {
        (
            Vec3::new(self.x0, self.y0, 0.0),
            Vec3::new(
                self.x0 + self.nx as f64 * self.dx,
                self.y0 + self.ny as f64 * self.dy,
                self.nz as f64 * self.dz,
            ),
        )
    }

    /// The material palette.
    pub fn materials(&self) -> &[VoxelMaterial] {
        &self.materials
    }

    /// Raw cell data, x-fastest.
    pub fn cells(&self) -> &[u16] {
        &self.cells
    }

    /// Material index of voxel `(ix, iy, iz)`.
    #[inline]
    pub fn material_at(&self, ix: usize, iy: usize, iz: usize) -> u16 {
        self.cells[(iz * self.ny + iy) * self.nx + ix]
    }

    /// True when the 3×3×3 block of voxels centred on `(ix, iy, iz)` lies
    /// inside the grid and holds a single material.
    #[inline]
    pub fn is_uniform_block(&self, ix: usize, iy: usize, iz: usize) -> bool {
        self.uniform[(iz * self.ny + iy) * self.nx + ix]
    }

    /// Centre of voxel `(ix, iy, iz)` (mm).
    pub fn centre(&self, ix: usize, iy: usize, iz: usize) -> Vec3 {
        Vec3::new(
            self.x0 + (ix as f64 + 0.5) * self.dx,
            self.y0 + (iy as f64 + 0.5) * self.dy,
            (iz as f64 + 0.5) * self.dz,
        )
    }

    /// Voxel index along one axis for coordinate `p`, with direction-aware
    /// tie-breaking on faces and an ε-clamp for floating-point overshoot.
    fn axis_cell(p: f64, lo: f64, d: f64, n: usize, dir: f64) -> Option<usize> {
        let f = (p - lo) / d;
        let mut i = f.floor();
        if f == i && dir < 0.0 {
            // Exactly on a face, moving toward lower indices: the photon
            // belongs to the voxel it is entering.
            i -= 1.0;
        }
        if i < 0.0 {
            if f > -FACE_EPS {
                i = 0.0;
            } else {
                return None;
            }
        } else if i >= n as f64 {
            if f < n as f64 + FACE_EPS {
                i = (n - 1) as f64;
            } else {
                return None;
            }
        }
        Some(i as usize)
    }

    /// The voxel containing `pos` for a photon travelling along `dir`, or
    /// `None` outside the grid.
    pub fn voxel_of(&self, pos: Vec3, dir: Vec3) -> Option<(usize, usize, usize)> {
        Some((
            Self::axis_cell(pos.x, self.x0, self.dx, self.nx, dir.x)?,
            Self::axis_cell(pos.y, self.y0, self.dy, self.ny, dir.y)?,
            Self::axis_cell(pos.z, 0.0, self.dz, self.nz, dir.z)?,
        ))
    }

    /// DDA setup for one axis: distance to the first face crossing, the
    /// per-voxel crossing increment, and the index step.
    fn axis_setup(p: f64, lo: f64, d: f64, i: usize, dirc: f64) -> (f64, f64, isize) {
        if dirc > 0.0 {
            let face = lo + (i as f64 + 1.0) * d;
            (((face - p) / dirc).max(0.0), d / dirc, 1)
        } else if dirc < 0.0 {
            let face = lo + i as f64 * d;
            (((face - p) / dirc).max(0.0), d / -dirc, -1)
        } else {
            (f64::INFINITY, f64::INFINITY, 0)
        }
    }
}

impl TissueGeometry for VoxelTissue {
    #[inline]
    fn region_count(&self) -> usize {
        self.materials.len()
    }

    fn region_name(&self, region: usize) -> &str {
        &self.materials[region].name
    }

    #[inline]
    fn optics(&self, region: usize) -> &OpticalProperties {
        &self.materials[region].optics
    }

    #[inline]
    fn derived(&self, region: usize) -> &DerivedOptics {
        &self.derived[region]
    }

    #[inline]
    fn ambient_n(&self) -> f64 {
        self.ambient_n
    }

    /// Perpendicular gap from `pos` to the nearest face of its containing
    /// voxel, minimised over the three axes — or, when that voxel's 3×3×3
    /// block is uniform and of material `region`, to the nearest face of
    /// the block. The DDA reports only faces into another material or out
    /// of the grid, and the block holds neither; a photon a rounding error
    /// across a face starts its walk in a neighbour, which is inside the
    /// block too. No unit direction closes a perpendicular gap faster than
    /// 1:1, so this lower bound lets the engine skip the whole traversal
    /// for interior steps. Returns `<= 0` outside the grid and for any
    /// non-finite coordinate (no fast path there).
    #[inline]
    fn min_boundary_distance(&self, pos: Vec3, region: usize) -> f64 {
        // Cell index and perpendicular gap (mm) to the nearer face of that
        // cell along one axis, or `None` unless `pos` is strictly inside
        // the grid's slab — written so that NaN fails too.
        let axis = |p: f64, lo: f64, d: f64, inv_d: f64, n: usize| -> Option<(usize, f64)> {
            let f = (p - lo) * inv_d;
            if !(f > 0.0 && f < n as f64) {
                return None;
            }
            let i = f.floor();
            let below = p - (lo + i * d);
            let above = (lo + (i + 1.0) * d) - p;
            Some((i as usize, below.min(above)))
        };
        let (Some((ix, gx)), Some((iy, gy)), Some((iz, gz))) = (
            axis(pos.x, self.x0, self.dx, self.inv_d.0, self.nx),
            axis(pos.y, self.y0, self.dy, self.inv_d.1, self.ny),
            axis(pos.z, 0.0, self.dz, self.inv_d.2, self.nz),
        ) else {
            return 0.0;
        };
        let cell = (iz * self.ny + iy) * self.nx + ix;
        if self.uniform[cell] && usize::from(self.cells[cell]) == region {
            (gx + self.dx).min(gy + self.dy).min(gz + self.dz)
        } else {
            gx.min(gy).min(gz)
        }
    }

    fn entry_region(&self, pos: Vec3) -> Option<usize> {
        let (ix, iy, iz) = self.voxel_of(Vec3::new(pos.x, pos.y, 0.0), Vec3::PLUS_Z)?;
        Some(usize::from(self.material_at(ix, iy, iz)))
    }

    /// Amanatides–Woo traversal from `pos` along `dir`, returning the first
    /// face where the material index differs from `region` (Fresnel
    /// happens there) or where the ray leaves the grid. Faces between
    /// same-material voxels are skipped, so homogeneous runs cost one call.
    #[inline]
    fn boundary_hit(&self, pos: Vec3, dir: Vec3, region: usize) -> BoundaryHit {
        self.boundary_hit_within(pos, dir, region, f64::INFINITY)
    }

    /// The same traversal, abandoned at the first face at or beyond
    /// `limit`: face distances along one walk never decrease, so every
    /// later face is at least as far. That face is returned as a crossing
    /// into `region` itself — a placeholder the caller ignores (see the
    /// trait's contract).
    fn boundary_hit_within(&self, pos: Vec3, dir: Vec3, region: usize, limit: f64) -> BoundaryHit {
        let Some((mut ix, mut iy, mut iz)) = self.voxel_of(pos, dir) else {
            // Floating-point overshoot has already carried the photon out of
            // the grid: report an immediate exit. The normal must be the
            // axis actually violated — a wrong axis would make the surface
            // physics reflect the wrong component and strand the photon
            // outside the grid.
            let (lo, hi) = self.bounds();
            let mut axis = Axis::Z;
            let mut worst = f64::MIN;
            for (a, p, l, h, d) in [
                (Axis::X, pos.x, lo.x, hi.x, self.dx),
                (Axis::Y, pos.y, lo.y, hi.y, self.dy),
                (Axis::Z, pos.z, lo.z, hi.z, self.dz),
            ] {
                // How far outside this axis' slab, in voxel units.
                let outside = (l - p).max(p - h) / d;
                if outside > worst {
                    worst = outside;
                    axis = a;
                }
            }
            return BoundaryHit {
                distance: 0.0,
                next_region: None,
                is_top_surface: axis == Axis::Z && pos.z <= 0.0,
                axis,
            };
        };
        let (mut tx, dtx, sx) = Self::axis_setup(pos.x, self.x0, self.dx, ix, dir.x);
        let (mut ty, dty, sy) = Self::axis_setup(pos.y, self.y0, self.dy, iy, dir.y);
        let (mut tz, dtz, sz) = Self::axis_setup(pos.z, 0.0, self.dz, iz, dir.z);
        loop {
            // Next face crossing; ties break x → y → z, deterministically.
            let (axis, t) = if tx <= ty && tx <= tz {
                (Axis::X, tx)
            } else if ty <= tz {
                (Axis::Y, ty)
            } else {
                (Axis::Z, tz)
            };
            if t >= limit {
                return BoundaryHit {
                    distance: t,
                    next_region: Some(region),
                    is_top_surface: false,
                    axis,
                };
            }
            let exited = match axis {
                Axis::X => {
                    let ni = ix as isize + sx;
                    tx += dtx;
                    if ni < 0 || ni >= self.nx as isize {
                        true
                    } else {
                        ix = ni as usize;
                        false
                    }
                }
                Axis::Y => {
                    let ni = iy as isize + sy;
                    ty += dty;
                    if ni < 0 || ni >= self.ny as isize {
                        true
                    } else {
                        iy = ni as usize;
                        false
                    }
                }
                Axis::Z => {
                    let ni = iz as isize + sz;
                    tz += dtz;
                    if ni < 0 || ni >= self.nz as isize {
                        true
                    } else {
                        iz = ni as usize;
                        false
                    }
                }
            };
            if exited {
                return BoundaryHit {
                    distance: t,
                    next_region: None,
                    is_top_surface: axis == Axis::Z && sz < 0,
                    axis,
                };
            }
            let m = usize::from(self.material_at(ix, iy, iz));
            if m != region {
                return BoundaryHit {
                    distance: t,
                    next_region: Some(m),
                    is_top_surface: false,
                    axis,
                };
            }
        }
    }

    fn validate(&self) -> Result<(), GeometryError> {
        // Construction enforces every invariant, and the finite grid means
        // even fully transparent media cannot stream forever.
        Ok(())
    }
}

/// The uniform-block flag of every cell (see [`VoxelTissue::is_uniform_block`]),
/// built by three separable widening passes: a cell's x-triple is uniform,
/// then its 3×3 xy-square (three uniform x-triples of one material), then
/// its 3×3×3 block (three uniform squares of one material). Each pass runs
/// over the whole array at once, which vectorizes; the cells it paired
/// across a row or plane edge are cleared afterwards, so cells on the
/// grid's outer shell stay `false`.
#[inline(never)]
fn uniform_blocks((nx, ny, nz): (usize, usize, usize), cells: &[u16]) -> Vec<bool> {
    let n = cells.len();
    let mut flags = vec![false; n];
    if nx < 3 || ny < 3 || nz < 3 {
        return flags;
    }
    let plane = nx * ny;
    // x: the cell and both x-neighbours share a material.
    let (c0, c1, c2) = (&cells[..n - 2], &cells[1..n - 1], &cells[2..]);
    for (k, f) in flags[1..n - 1].iter_mut().enumerate() {
        *f = (c0[k] == c1[k]) & (c1[k] == c2[k]);
    }
    for row in flags.chunks_exact_mut(nx) {
        row[0] = false;
        row[nx - 1] = false;
    }
    // y, into the scratch buffer: three uniform x-triples, one material.
    let mut square = vec![false; n];
    widen(&mut square[nx..n - nx], &flags, cells, nx);
    for p in square.chunks_exact_mut(plane) {
        p[..nx].fill(false);
        p[plane - nx..].fill(false);
    }
    // z, back into `flags`: three uniform squares, one material.
    widen(&mut flags[plane..n - plane], &square, cells, plane);
    flags[..plane].fill(false);
    flags[n - plane..].fill(false);
    flags
}

/// One widening pass: `out[k]` (the cell `stride` past `flags[k]`) is set
/// when that cell and its neighbours `stride` either side are all flagged
/// and share a material.
#[inline]
fn widen(out: &mut [bool], flags: &[bool], cells: &[u16], stride: usize) {
    // Equal-length views, so the indexed loop below needs no bounds checks.
    let n = out.len();
    let (f0, f1, f2) =
        (&flags[..n], &flags[stride..stride + n], &flags[2 * stride..2 * stride + n]);
    let (c0, c1, c2) =
        (&cells[..n], &cells[stride..stride + n], &cells[2 * stride..2 * stride + n]);
    for (k, o) in out.iter_mut().enumerate() {
        *o = f0[k] & f1[k] & f2[k] & (c0[k] == c1[k]) & (c1[k] == c2[k]);
    }
}

// --- Text format ---------------------------------------------------------
//
// A small self-describing format so voxel phantoms can be checked into a
// repo and loaded by the CLI (`geometry = voxel <path>`):
//
// ```text
// # comment
// voxels 4 4 2
// size 0.5 0.5 0.5
// origin -1 -1
// ambient 1.0
// material Background 0.01 10 0.9 1.4
// material Inclusion  0.30 10 0.9 1.4
// cells
// 16*0
// 12*0 1 3*0
// ```
//
// `cells` tokens are palette indices, optionally run-length encoded as
// `count*index`, x-fastest (x, then y, then z), exactly nx·ny·nz of them.

/// Material names are single whitespace-free tokens in the text format:
/// spaces become `_`, and the characters that would corrupt the format
/// (`_` itself, `#` comments, `%`) are percent-escaped, so
/// `parse_text(to_text(t)) == t` for any name without exotic whitespace.
fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => out.push_str("%25"),
            '_' => out.push_str("%5F"),
            '#' => out.push_str("%23"),
            c if c.is_whitespace() => out.push('_'),
            c => out.push(c),
        }
    }
    out
}

fn decode_name(token: &str) -> String {
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars();
    while let Some(c) = chars.next() {
        match c {
            '_' => out.push(' '),
            '%' => {
                let code: String = chars.by_ref().take(2).collect();
                match code.as_str() {
                    "25" => out.push('%'),
                    "5F" => out.push('_'),
                    "23" => out.push('#'),
                    other => {
                        out.push('%');
                        out.push_str(other);
                    }
                }
            }
            c => out.push(c),
        }
    }
    out
}

impl VoxelTissue {
    /// Serialise to the text format (run-length encoded cells).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "# lumen voxel tissue");
        let _ = writeln!(s, "voxels {} {} {}", self.nx, self.ny, self.nz);
        let _ = writeln!(s, "size {} {} {}", self.dx, self.dy, self.dz);
        let _ = writeln!(s, "origin {} {}", self.x0, self.y0);
        let _ = writeln!(s, "ambient {}", self.ambient_n);
        for m in &self.materials {
            let o = &m.optics;
            let _ = writeln!(
                s,
                "material {} {} {} {} {}",
                encode_name(&m.name),
                o.mu_a,
                o.mu_s,
                o.g,
                o.n
            );
        }
        let _ = writeln!(s, "cells");
        let mut run: Option<(u16, usize)> = None;
        let mut tokens: Vec<String> = Vec::new();
        for &c in self.cells.iter() {
            match run {
                Some((v, n)) if v == c => run = Some((v, n + 1)),
                Some((v, n)) => {
                    tokens.push(if n > 1 { format!("{n}*{v}") } else { v.to_string() });
                    run = Some((c, 1));
                }
                None => run = Some((c, 1)),
            }
        }
        if let Some((v, n)) = run {
            tokens.push(if n > 1 { format!("{n}*{v}") } else { v.to_string() });
        }
        for chunk in tokens.chunks(16) {
            let _ = writeln!(s, "{}", chunk.join(" "));
        }
        s
    }

    /// Parse the text format. Every structural problem is a
    /// [`GeometryError::Parse`] with a line number; the assembled grid then
    /// passes through [`VoxelTissue::new`] validation.
    pub fn parse_text(text: &str) -> Result<Self, GeometryError> {
        fn err(line: usize, reason: impl Into<String>) -> GeometryError {
            GeometryError::Parse { line, reason: reason.into() }
        }
        fn nums(line_no: usize, rest: &str, want: usize) -> Result<Vec<f64>, GeometryError> {
            let vals: Result<Vec<f64>, _> =
                rest.split_whitespace().map(|t| t.parse::<f64>()).collect();
            let vals = vals.map_err(|_| err(line_no, format!("expected {want} numbers")))?;
            if vals.len() != want {
                return Err(err(line_no, format!("expected {want} numbers, got {}", vals.len())));
            }
            Ok(vals)
        }

        let mut dims: Option<(usize, usize, usize)> = None;
        let mut size: Option<(f64, f64, f64)> = None;
        let mut origin = (0.0, 0.0);
        let mut ambient = 1.0;
        let mut materials: Vec<VoxelMaterial> = Vec::new();
        let mut cells: Vec<u16> = Vec::new();
        let mut in_cells = false;
        let mut expected_cells = 0usize;

        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if in_cells {
                for token in line.split_whitespace() {
                    let (count, value) = match token.split_once('*') {
                        Some((n, v)) => (
                            n.parse::<usize>()
                                .map_err(|_| err(line_no, format!("bad run length `{token}`")))?,
                            v.parse::<u16>()
                                .map_err(|_| err(line_no, format!("bad cell index `{token}`")))?,
                        ),
                        None => (
                            1,
                            token
                                .parse::<u16>()
                                .map_err(|_| err(line_no, format!("bad cell index `{token}`")))?,
                        ),
                    };
                    // `count` comes straight from the file; compare without
                    // `cells.len() + count`, which a hostile run length
                    // could overflow.
                    if count > expected_cells - cells.len() {
                        return Err(err(
                            line_no,
                            format!("more than the expected {expected_cells} cells"),
                        ));
                    }
                    cells.resize(cells.len() + count, value);
                }
                continue;
            }
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            match key {
                "voxels" => {
                    let v = nums(line_no, rest, 3)?;
                    if v.iter().any(|&n| n < 1.0 || n.fract() != 0.0 || n > MAX_CELLS as f64) {
                        return Err(err(line_no, "voxel counts must be positive integers"));
                    }
                    let (nx, ny, nz) = (v[0] as usize, v[1] as usize, v[2] as usize);
                    // Bound the product too, before `cells` sizing can
                    // overflow or allocate: same cap the wire decoder uses.
                    if checked_cell_count(nx, ny, nz).is_none() {
                        return Err(err(
                            line_no,
                            format!("{nx}x{ny}x{nz} voxels exceed the {MAX_CELLS}-cell cap"),
                        ));
                    }
                    dims = Some((nx, ny, nz));
                }
                "size" => {
                    let v = nums(line_no, rest, 3)?;
                    size = Some((v[0], v[1], v[2]));
                }
                "origin" => {
                    let v = nums(line_no, rest, 2)?;
                    origin = (v[0], v[1]);
                }
                "ambient" => {
                    ambient = nums(line_no, rest, 1)?[0];
                }
                "material" => {
                    let mut parts = rest.split_whitespace();
                    let name = decode_name(
                        parts.next().ok_or_else(|| err(line_no, "material needs a name"))?,
                    );
                    let vals: Result<Vec<f64>, _> = parts.map(|t| t.parse::<f64>()).collect();
                    let vals =
                        vals.map_err(|_| err(line_no, "material needs `name mu_a mu_s g n`"))?;
                    if vals.len() != 4 {
                        return Err(err(line_no, "material needs `name mu_a mu_s g n`"));
                    }
                    materials.push(VoxelMaterial::new(
                        name,
                        OpticalProperties { mu_a: vals[0], mu_s: vals[1], g: vals[2], n: vals[3] },
                    ));
                }
                "cells" => {
                    let (nx, ny, nz) =
                        dims.ok_or_else(|| err(line_no, "`voxels` must precede `cells`"))?;
                    expected_cells = nx * ny * nz;
                    in_cells = true;
                }
                other => return Err(err(line_no, format!("unknown directive `{other}`"))),
            }
        }

        let dims = dims.ok_or_else(|| err(0, "missing `voxels` directive"))?;
        let size = size.ok_or_else(|| err(0, "missing `size` directive"))?;
        if !in_cells {
            return Err(err(0, "missing `cells` block"));
        }
        Self::new(dims, origin, size, materials, cells, ambient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_photon::FieldError;

    fn two_mat() -> Vec<VoxelMaterial> {
        vec![
            VoxelMaterial::new("A", OpticalProperties::new(0.01, 10.0, 0.9, 1.4)),
            VoxelMaterial::new("B", OpticalProperties::new(0.02, 20.0, 0.9, 1.5)),
        ]
    }

    /// 4×4×4 grid, 0.5 mm pitch, centred on the origin: lower half (z) is
    /// material 0, deeper half is material 1 — a voxelized two-layer slab.
    fn slab() -> VoxelTissue {
        VoxelTissue::from_fn((4, 4, 4), (-1.0, -1.0), (0.5, 0.5, 0.5), two_mat(), 1.0, |c| {
            if c.z < 1.0 {
                0
            } else {
                1
            }
        })
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = slab();
        assert_eq!(t.dims(), (4, 4, 4));
        assert_eq!(t.region_count(), 2);
        assert_eq!(t.region_name(1), "B");
        assert_eq!(t.material_at(0, 0, 0), 0);
        assert_eq!(t.material_at(3, 3, 3), 1);
        let (lo, hi) = t.bounds();
        assert_eq!(lo, Vec3::new(-1.0, -1.0, 0.0));
        assert_eq!(hi, Vec3::new(1.0, 1.0, 2.0));
        assert_eq!(t.centre(0, 0, 0), Vec3::new(-0.75, -0.75, 0.25));
    }

    #[test]
    fn rejects_bad_grids() {
        let mk = |dims, cells: Vec<u16>| {
            VoxelTissue::new(dims, (0.0, 0.0), (1.0, 1.0, 1.0), two_mat(), cells, 1.0)
        };
        assert!(matches!(mk((0, 1, 1), vec![]), Err(GeometryError::Empty(_))));
        assert!(matches!(mk((1, 1, 1), vec![]), Err(GeometryError::BadGrid(_))));
        assert!(matches!(mk((1, 1, 1), vec![7]), Err(GeometryError::BadGrid(_))));
        assert!(matches!(
            VoxelTissue::new((1, 1, 1), (0.0, 0.0), (0.0, 1.0, 1.0), two_mat(), vec![0], 1.0),
            Err(GeometryError::Field(FieldError { field: "voxel dx", .. }))
        ));
        assert!(matches!(
            VoxelTissue::new((1, 1, 1), (0.0, 0.0), (1.0, 1.0, 1.0), vec![], vec![0], 1.0),
            Err(GeometryError::Empty(_))
        ));
        assert!(matches!(
            VoxelTissue::new((1, 1, 1), (0.0, 0.0), (1.0, 1.0, 1.0), two_mat(), vec![0], 0.5),
            Err(GeometryError::Field(_))
        ));
        // Oversized grids fail fast without allocating.
        assert!(matches!(
            VoxelTissue::new(
                (1 << 20, 1 << 20, 1 << 20),
                (0.0, 0.0),
                (1.0, 1.0, 1.0),
                two_mat(),
                vec![],
                1.0
            ),
            Err(GeometryError::BadGrid(_))
        ));
    }

    #[test]
    fn entry_region_and_lateral_misses() {
        let t = slab();
        assert_eq!(t.entry_region(Vec3::ZERO), Some(0));
        assert_eq!(t.entry_region(Vec3::new(-0.99, 0.99, 0.0)), Some(0));
        assert_eq!(t.entry_region(Vec3::new(1.5, 0.0, 0.0)), None);
        assert_eq!(t.entry_region(Vec3::new(0.0, -1.5, 0.0)), None);
    }

    #[test]
    fn dda_skips_same_material_faces() {
        let t = slab();
        // Straight down from the surface: first material change is at
        // z = 1.0 (two 0.5 mm voxels of material 0 crossed in one call).
        let hit = t.boundary_hit(Vec3::new(0.1, 0.1, 0.0), Vec3::PLUS_Z, 0);
        assert!((hit.distance - 1.0).abs() < 1e-12, "distance {}", hit.distance);
        assert_eq!(hit.next_region, Some(1));
        assert_eq!(hit.axis, Axis::Z);
        assert!(!hit.is_top_surface);
    }

    #[test]
    fn dda_exits_through_faces() {
        let t = slab();
        // Up and out through the top surface.
        let up = t.boundary_hit(Vec3::new(0.1, 0.1, 0.25), -Vec3::PLUS_Z, 0);
        assert!((up.distance - 0.25).abs() < 1e-12);
        assert_eq!(up.next_region, None);
        assert!(up.is_top_surface);
        assert_eq!(up.axis, Axis::Z);
        // Sideways through the +x wall: same material all the way.
        let side = t.boundary_hit(Vec3::new(0.1, 0.1, 0.25), Vec3::new(1.0, 0.0, 0.0), 0);
        assert!((side.distance - 0.9).abs() < 1e-12, "distance {}", side.distance);
        assert_eq!(side.next_region, None);
        assert!(!side.is_top_surface);
        assert_eq!(side.axis, Axis::X);
        // Down and out through the bottom (region 1 below z = 1).
        let down = t.boundary_hit(Vec3::new(0.1, 0.1, 1.75), Vec3::PLUS_Z, 1);
        assert!((down.distance - 0.25).abs() < 1e-12);
        assert_eq!(down.next_region, None);
        assert!(!down.is_top_surface);
    }

    #[test]
    fn oblique_traversal_reports_first_material_change() {
        let t = slab();
        let dir = Vec3::new(0.6, 0.0, 0.8);
        let hit = t.boundary_hit(Vec3::new(-0.9, 0.1, 0.0), dir, 0);
        // Material changes at z = 1.0 → t = 1.0 / 0.8 = 1.25; x moves by
        // 0.75 to -0.15, still inside.
        assert!((hit.distance - 1.25).abs() < 1e-12, "distance {}", hit.distance);
        assert_eq!(hit.next_region, Some(1));
        assert_eq!(hit.axis, Axis::Z);
    }

    #[test]
    fn mismatched_region_self_heals() {
        // A photon that transmitted at z = 1.0 but (by floating point)
        // landed a hair *before* the face is in a material-0 voxel while
        // its region already says 1. The next traversal must not re-fire
        // the same interface: it compares against `region`, so the first
        // crossing (into real material 1) is silently skipped.
        let t = slab();
        let pos = Vec3::new(0.1, 0.1, 1.0 - 1e-15);
        let hit = t.boundary_hit(pos, Vec3::PLUS_Z, 1);
        assert_eq!(hit.next_region, None, "should exit the bottom, not re-Fresnel");
        assert!(hit.distance > 0.9, "distance {}", hit.distance);
    }

    #[test]
    fn face_position_tie_breaking() {
        let t = slab();
        // Exactly on the z = 1.0 face: moving down belongs to the deeper
        // voxel, moving up to the shallower one.
        assert_eq!(t.voxel_of(Vec3::new(0.1, 0.1, 1.0), Vec3::PLUS_Z), Some((2, 2, 2)));
        assert_eq!(t.voxel_of(Vec3::new(0.1, 0.1, 1.0), -Vec3::PLUS_Z), Some((2, 2, 1)));
        // Tiny overshoot outside the grid is clamped back in.
        assert_eq!(t.voxel_of(Vec3::new(0.1, 0.1, -1e-18), Vec3::PLUS_Z), Some((2, 2, 0)));
        // A genuine escape is not.
        assert_eq!(t.voxel_of(Vec3::new(0.1, 0.1, -0.1), Vec3::PLUS_Z), None);
    }

    #[test]
    fn out_of_grid_overshoot_reports_the_violated_axis() {
        let t = slab();
        // Stranded beyond the +x wall: the exit normal must be X, so the
        // engine's reflection (if any) pushes the photon back toward the
        // grid instead of flipping z in place.
        let dir = Vec3::new(0.1, 0.0, 1.0).renormalize();
        let hit = t.boundary_hit(Vec3::new(1.0 + 1e-6, 0.1, 0.5), dir, 0);
        assert_eq!(hit.distance, 0.0);
        assert_eq!(hit.next_region, None);
        assert_eq!(hit.axis, Axis::X);
        assert!(!hit.is_top_surface);
        // Stranded above the top surface: Z, flagged as the top.
        let up = t.boundary_hit(Vec3::new(0.1, 0.1, -1e-6), -Vec3::PLUS_Z, 0);
        assert_eq!(up.axis, Axis::Z);
        assert!(up.is_top_surface);
    }

    #[test]
    fn non_finite_coordinates_get_no_interior_bound() {
        // A NaN axis used to drop out of the `min` over axes, so the other
        // two axes' gaps let such a photon skip the walk.
        let head = crate::presets::voxelized(
            &crate::presets::adult_head(crate::presets::AdultHeadConfig::default()),
            1.0,
            8.0,
            25.0,
        )
        .unwrap();
        for t in [slab(), head] {
            let inside = [0.3, 0.4, 0.6];
            assert!(t.min_boundary_distance(Vec3::new(0.3, 0.4, 0.6), 0) > 0.0);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for axis in 0..3 {
                    let mut c = inside;
                    c[axis] = bad;
                    let pos = Vec3::new(c[0], c[1], c[2]);
                    assert_eq!(t.min_boundary_distance(pos, 0), 0.0, "{pos:?}");
                }
            }
        }
    }

    #[test]
    fn text_round_trip() {
        let t = slab();
        let text = t.to_text();
        let parsed = VoxelTissue::parse_text(&text).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn awkward_material_names_round_trip() {
        // Underscores, comment characters, and escape characters in names
        // must survive to_text -> parse_text unchanged.
        let materials = vec![
            VoxelMaterial::new("grey_matter", OpticalProperties::new(0.01, 10.0, 0.9, 1.4)),
            VoxelMaterial::new("tumour#2", OpticalProperties::new(0.1, 10.0, 0.9, 1.4)),
            VoxelMaterial::new("50% lipid", OpticalProperties::new(0.02, 5.0, 0.8, 1.45)),
        ];
        let t =
            VoxelTissue::new((1, 1, 3), (0.0, 0.0), (1.0, 1.0, 1.0), materials, vec![0, 1, 2], 1.0)
                .unwrap();
        let parsed = VoxelTissue::parse_text(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn hostile_text_dimensions_fail_before_allocation() {
        // Each axis passes the per-axis cap, but the product overflows: the
        // parser must return a typed error, not panic or allocate.
        let n = MAX_CELLS;
        let hostile =
            format!("voxels {n} {n} {n}\nsize 1 1 1\nmaterial A 0.01 10 0.9 1.4\ncells\n0");
        assert!(matches!(VoxelTissue::parse_text(&hostile), Err(GeometryError::Parse { .. })));
        // A hostile run length that would overflow `cells.len() + count`.
        let rle = format!(
            "voxels 2 1 1\nsize 1 1 1\nmaterial A 0.01 10 0.9 1.4\ncells\n1*0 {}*0",
            u64::MAX
        );
        assert!(matches!(VoxelTissue::parse_text(&rle), Err(GeometryError::Parse { .. })));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(matches!(
            VoxelTissue::parse_text("bogus 1 2 3"),
            Err(GeometryError::Parse { line: 1, .. })
        ));
        let missing_cells = "voxels 1 1 1\nsize 1 1 1\nmaterial A 0.01 10 0.9 1.4";
        assert!(matches!(VoxelTissue::parse_text(missing_cells), Err(GeometryError::Parse { .. })));
        let too_many = "voxels 1 1 1\nsize 1 1 1\nmaterial A 0.01 10 0.9 1.4\ncells\n0 0";
        assert!(matches!(
            VoxelTissue::parse_text(too_many),
            Err(GeometryError::Parse { line: 5, .. })
        ));
        let bad_rle = "voxels 2 1 1\nsize 1 1 1\nmaterial A 0.01 10 0.9 1.4\ncells\nx*0";
        assert!(matches!(
            VoxelTissue::parse_text(bad_rle),
            Err(GeometryError::Parse { line: 5, .. })
        ));
    }

    #[test]
    fn parse_validates_assembled_grid() {
        // Cell index out of palette range: passes parsing, fails `new`.
        let bad = "voxels 1 1 1\nsize 1 1 1\nmaterial A 0.01 10 0.9 1.4\ncells\n3";
        assert!(matches!(VoxelTissue::parse_text(bad), Err(GeometryError::BadGrid(_))));
    }

    #[test]
    fn traversal_terminates_everywhere() {
        // Fire rays from every voxel centre in 26 directions; every call
        // must return a finite distance (the grid is finite).
        let t = slab();
        let mut dirs = Vec::new();
        for dx in [-1.0, 0.0, 1.0] {
            for dy in [-1.0, 0.0, 1.0] {
                for dz in [-1.0, 0.0, 1.0] {
                    if dx != 0.0 || dy != 0.0 || dz != 0.0 {
                        dirs.push(Vec3::new(dx, dy, dz).renormalize());
                    }
                }
            }
        }
        for iz in 0..4 {
            for iy in 0..4 {
                for ix in 0..4 {
                    let c = t.centre(ix, iy, iz);
                    let region = usize::from(t.material_at(ix, iy, iz));
                    for &dir in &dirs {
                        let hit = t.boundary_hit(c, dir, region);
                        assert!(hit.distance.is_finite());
                        assert!(hit.distance >= 0.0);
                    }
                }
            }
        }
    }
}
