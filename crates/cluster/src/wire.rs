//! Binary wire format for the DataManager ⇄ client protocol.
//!
//! The original platform shipped Java-serialized objects over TCP sockets.
//! In-process workers share the DataManager behind a lock and need no
//! serialization, but a multi-machine deployment does — so the protocol's
//! encoding substrate is implemented here from scratch: a compact
//! little-endian format with a magic header and version byte, covering
//! tasks, scenarios, path archives and full tallies (including optional
//! grids). No external serialization crate is needed.
//!
//! Format: all integers little-endian; `u64` lengths prefix sequences;
//! `Option<T>` is a presence byte then the payload; floats are IEEE-754
//! bit patterns. The dense `f64` storage of a tally's grids and profiles
//! is the one exception to "length then elements": its cell count is
//! already fixed by the binning that precedes it, and it is written as
//! zero-run-length runs ([`Encoder::put_sparse_f64`]), so a tally costs
//! what the task deposited rather than what the grid could hold.

use crate::protocol::SimTask;
use lumen_core::archive::{PathArchive, RecordOptions, CLASS_TRANSMITTED};
use lumen_core::engine::Scenario;
use lumen_core::radial::{CylinderGrid, RadialProfile, RadialSpec};
use lumen_core::tally::{GridSpec, PathHistogram, Tally, VisitGrid};
use lumen_core::{
    BoundaryMode, Detector, GateWindow, OpticalProperties, Precision, RouletteConfig,
    SimulationOptions, Source, Vec3,
};
use lumen_tissue::{Geometry, Layer, LayeredTissue, VoxelMaterial, VoxelTissue};

/// Magic bytes identifying a lumen wire message.
pub const MAGIC: [u8; 4] = *b"LMN1";
/// Wire format version. v7 writes the dense `f64` storage of every tally
/// attachment (path/absorption grids, A(r, z), R(r)) as zero-run-length
/// runs instead of one value per cell; scalar-only tallies, scenarios and
/// archives are byte-for-byte what v6 wrote after the header. v6 added the
/// engine `precision` tier byte to encoded simulation options: the fast
/// tier is not bit-compatible with the exact tier, so the tier must travel
/// with the scenario (and hence reach the canonical scenario hash — a
/// `Fast` result can never satisfy an `Exact` query). v5 added the scenario `task_offset` field (RNG
/// stream continuation, the basis of the service cache's incremental
/// top-up) and the service query/reply frames spoken by `lumend`
/// (`lumen_service`). v4 added path archives: tallies may carry a
/// [`PathArchive`] section, scenarios carry the archive `RecordOptions`,
/// and standalone archive messages ([`encode_archive`]) feed the
/// `reweight` backend. v3 added the `HELLO`/`PING` handshake frames to
/// the networked protocol (`crate::net`) — a connection now opens with a
/// version exchange, so a peer speaking v2 or earlier is rejected with a
/// typed `VersionMismatch` instead of a confusing mid-run decode error.
/// v2 added the geometry-kind tag to scenario messages (layered |
/// voxel); v1 scenarios carried a bare layer stack.
pub const VERSION: u8 = 7;

/// Encoding buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh encoder with the magic header.
    pub fn new() -> Self {
        let mut e = Self { buf: Vec::with_capacity(64) };
        e.buf.extend_from_slice(&MAGIC);
        e.buf.push(VERSION);
        e
    }

    /// Finish, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        self.put_f64_run(vs);
    }

    /// Bare bit patterns, no length: one resize, then a bulk copy.
    fn put_f64_run(&mut self, vs: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * vs.len(), 0);
        for (bytes, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            bytes.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Dense `f64` cells as zero-run-length runs: `u64` zero cells skipped,
    /// `u64` literal count, the literals — repeated until every cell is
    /// covered (the reader knows the cell count from the binning, so none
    /// is written). A cell is zero iff `to_bits() == 0`, which keeps
    /// `-0.0`, subnormals and NaN payloads as literals: the encoding is
    /// bit-lossless. Runs are maximal, so a cell vector has exactly one
    /// encoding: 16 bytes over the raw cells when none is zero, 16 bytes
    /// in all when every one is.
    pub fn put_sparse_f64(&mut self, cells: &[f64]) {
        let mut rest = cells;
        while !rest.is_empty() {
            let zeros = rest.iter().take_while(|v| v.to_bits() == 0).count();
            rest = &rest[zeros..];
            let literals = rest.iter().take_while(|v| v.to_bits() != 0).count();
            self.put_u64(zeros as u64);
            self.put_u64(literals as u64);
            self.put_f64_run(&rest[..literals]);
            rest = &rest[literals..];
        }
    }

    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Raw byte sequence: length prefix then the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// UTF-8 string: byte-length prefix then the bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Decoding cursor.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Wire decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// Ran out of bytes mid-message.
    Truncated,
    /// A length prefix that cannot possibly fit the remaining bytes.
    BadLength(u64),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// Bytes decoded but described an impossible value (bad enum tag,
    /// non-UTF-8 string, geometry that fails validation).
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadHeader => write!(f, "bad magic or version header"),
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadLength(n) => write!(f, "implausible length prefix {n}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            WireError::Invalid(reason) => write!(f, "invalid payload: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl<'a> Decoder<'a> {
    /// Open a decoder, checking the header.
    pub fn new(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < 5 || buf[..4] != MAGIC || buf[4] != VERSION {
            return Err(WireError::BadHeader);
        }
        Ok(Self { buf, pos: 5 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    fn checked_len(&self, n: u64, elem_bytes: usize) -> Result<usize, WireError> {
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(elem_bytes as u64).map(|b| b > remaining).unwrap_or(true) {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }

    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.get_u64()?;
        let n = self.checked_len(n, 8)?;
        Ok(self.take(n * 8)?.chunks_exact(8).map(f64_from_le).collect())
    }

    /// Read `cells` dense `f64` values written by
    /// [`Encoder::put_sparse_f64`], straight into the vector that becomes
    /// the grid's storage. `cells` is the checked product of the decoded
    /// binning (`None` when it overflowed). A sparse payload says nothing
    /// about how large its grid is, so the count is held to
    /// [`MAX_SPEC_CELLS`] before the one allocation this makes. Only the
    /// canonical encoding is accepted — every run but the first skips at
    /// least one zero, every run but the last carries at least one
    /// literal, no literal has all-zero bits — so re-encoding the result
    /// reproduces the input bytes.
    pub fn get_sparse_f64(&mut self, cells: Option<usize>) -> Result<Vec<f64>, WireError> {
        let n = checked_cells(cells)?;
        let mut data = vec![0.0; n];
        let mut pos = 0;
        while pos < n {
            let zeros = self.get_u64()?;
            let literals = self.get_u64()?;
            let left = (n - pos) as u64;
            if zeros > left {
                return Err(WireError::BadLength(zeros));
            }
            if literals > left - zeros {
                return Err(WireError::BadLength(literals));
            }
            if (zeros == 0 && pos > 0) || (literals == 0 && zeros < left) {
                return Err(WireError::Invalid("empty run inside a sparse array".into()));
            }
            pos += zeros as usize;
            let raw = self.take(self.checked_len(literals, 8)? * 8)?;
            for (cell, bytes) in data[pos..].iter_mut().zip(raw.chunks_exact(8)) {
                *cell = f64_from_le(bytes);
                if cell.to_bits() == 0 {
                    return Err(WireError::Invalid("zero literal in a sparse array".into()));
                }
            }
            pos += literals as usize;
        }
        Ok(data)
    }

    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.get_u64()?;
        let n = self.checked_len(n, 8)?;
        (0..n).map(|_| self.get_u64()).collect()
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.get_u64()?;
        let n = self.checked_len(n, 4)?;
        (0..n).map(|_| self.get_u32()).collect()
    }

    /// Raw byte sequence (see [`Encoder::put_bytes`]).
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.get_u64()?;
        let n = self.checked_len(n, 1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// UTF-8 string (see [`Encoder::put_str`]).
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let n = self.get_u64()?;
        let n = self.checked_len(n, 1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Invalid("string is not UTF-8".into()))
    }

    /// Assert the message is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes(self.buf.len() - self.pos));
        }
        Ok(())
    }
}

fn f64_from_le(bytes: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// Encode a task assignment.
pub fn encode_task(task: &SimTask) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(task.task_id);
    e.put_u64(task.photons);
    e.finish()
}

/// Decode a task assignment.
pub fn decode_task(bytes: &[u8]) -> Result<SimTask, WireError> {
    let mut d = Decoder::new(bytes)?;
    let task = SimTask { task_id: d.get_u64()?, photons: d.get_u64()? };
    d.finish()?;
    Ok(task)
}

/// The scalar portion of a tally (counts, weights, per-layer sums,
/// path/depth moments) — the head of every [`encode_tally`] message.
fn put_tally_scalars(e: &mut Encoder, t: &Tally) {
    e.put_u64(t.launched);
    e.put_u64(t.detected);
    e.put_u64(t.reflected);
    e.put_u64(t.transmitted);
    e.put_u64(t.roulette_killed);
    e.put_u64(t.fully_absorbed);
    e.put_u64(t.expired);
    e.put_u64(t.gate_rejected);
    e.put_u64(t.na_rejected);
    e.put_f64(t.specular_weight);
    e.put_f64(t.detected_weight);
    e.put_f64(t.reflected_weight);
    e.put_f64(t.transmitted_weight);
    e.put_f64_slice(&t.absorbed_by_layer);
    e.put_f64(t.detected_path_sum);
    e.put_f64(t.detected_path_sq_sum);
    e.put_f64(t.detected_weight_path_sum);
    e.put_f64(t.detected_depth_sum);
    e.put_f64(t.detected_depth_max);
    e.put_u64_slice(&t.detected_reached_layer);
    e.put_f64_slice(&t.detected_partial_path);
    e.put_u64(t.detected_scatter_sum);
}

fn put_vec3(e: &mut Encoder, v: Vec3) {
    e.put_f64(v.x);
    e.put_f64(v.y);
    e.put_f64(v.z);
}

fn get_vec3(d: &mut Decoder) -> Result<Vec3, WireError> {
    Ok(Vec3::new(d.get_f64()?, d.get_f64()?, d.get_f64()?))
}

fn put_grid_spec(e: &mut Encoder, s: &GridSpec) {
    e.put_u64(s.nx as u64);
    e.put_u64(s.ny as u64);
    e.put_u64(s.nz as u64);
    put_vec3(e, s.min);
    put_vec3(e, s.max);
}

fn get_grid_spec(d: &mut Decoder) -> Result<GridSpec, WireError> {
    let nx = d.get_u64()? as usize;
    let ny = d.get_u64()? as usize;
    let nz = d.get_u64()? as usize;
    let min = get_vec3(d)?;
    let max = get_vec3(d)?;
    Ok(GridSpec { nx, ny, nz, min, max })
}

/// A binning the core constructors refuse (empty, degenerate, non-finite).
fn invalid(e: lumen_core::ConfigError) -> WireError {
    WireError::Invalid(e.to_string())
}

fn put_visit_grid(e: &mut Encoder, g: &VisitGrid) {
    put_grid_spec(e, &g.spec);
    e.put_sparse_f64(g.data());
}

fn get_visit_grid(d: &mut Decoder) -> Result<VisitGrid, WireError> {
    let spec = get_grid_spec(d)?;
    VisitGrid::from_data(spec, d.get_sparse_f64(spec.checked_len())?).map_err(invalid)
}

fn put_radial_profile(e: &mut Encoder, p: &RadialProfile) {
    e.put_u64(p.spec.nr as u64);
    e.put_f64(p.spec.r_max);
    e.put_sparse_f64(p.weights());
    e.put_f64(p.overflow);
}

fn get_radial_profile(d: &mut Decoder) -> Result<RadialProfile, WireError> {
    let spec = RadialSpec { nr: d.get_u64()? as usize, r_max: d.get_f64()? };
    let weights = d.get_sparse_f64(Some(spec.nr))?;
    RadialProfile::from_weights(spec, weights, d.get_f64()?).map_err(invalid)
}

fn put_path_histogram(e: &mut Encoder, h: &PathHistogram) {
    e.put_f64(h.max_mm);
    e.put_u64_slice(&h.counts);
    e.put_u64(h.overflow);
}

#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn get_path_histogram(d: &mut Decoder) -> Result<PathHistogram, WireError> {
    let max_mm = d.get_f64()?;
    let counts = d.get_u64_vec()?;
    if !(max_mm > 0.0) || counts.is_empty() {
        return Err(WireError::BadLength(counts.len() as u64));
    }
    let mut h = PathHistogram::new(max_mm, counts.len());
    h.counts = counts;
    h.overflow = d.get_u64()?;
    Ok(h)
}

fn put_cylinder(e: &mut Encoder, g: &CylinderGrid) {
    e.put_u64(g.radial.nr as u64);
    e.put_f64(g.radial.r_max);
    e.put_u64(g.nz as u64);
    e.put_f64(g.z_max);
    e.put_sparse_f64(g.data());
    e.put_f64(g.overflow);
}

fn get_cylinder(d: &mut Decoder) -> Result<CylinderGrid, WireError> {
    let radial = RadialSpec { nr: d.get_u64()? as usize, r_max: d.get_f64()? };
    let nz = d.get_u64()? as usize;
    let z_max = d.get_f64()?;
    let data = d.get_sparse_f64(radial.nr.checked_mul(nz))?;
    CylinderGrid::from_data(radial, nz, z_max, data, d.get_f64()?).map_err(invalid)
}

fn put_option<T>(e: &mut Encoder, opt: Option<&T>, put: impl FnOnce(&mut Encoder, &T)) {
    match opt {
        Some(v) => {
            e.put_u8(1);
            put(e, v);
        }
        None => e.put_u8(0),
    }
}

fn get_option<T>(
    d: &mut Decoder,
    get: impl FnOnce(&mut Decoder) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match d.get_u8()? {
        0 => Ok(None),
        _ => Ok(Some(get(d)?)),
    }
}

/// Encode a complete tally, grids and all — what a worker returns over
/// the network.
pub fn encode_tally(t: &Tally) -> Vec<u8> {
    let mut e = Encoder::new();
    put_tally_scalars(&mut e, t);
    put_option(&mut e, t.path_grid.as_ref(), put_visit_grid);
    put_option(&mut e, t.absorption_grid.as_ref(), put_visit_grid);
    put_option(&mut e, t.path_histogram.as_ref(), put_path_histogram);
    put_option(&mut e, t.reflectance_r.as_ref(), put_radial_profile);
    put_option(&mut e, t.absorption_rz.as_ref(), put_cylinder);
    put_option(&mut e, t.archive.as_ref(), put_archive);
    e.finish()
}

/// Bytes `t` occupies with every cell of every attachment written out: its
/// scalar encoding plus, per grid or profile, the binning fields, a count
/// and 8 bytes a cell — the v6 length of [`encode_tally`], computed
/// without encoding anything. This is what a holder of the decoded tally
/// should charge for it: the encoded length says how much a task
/// deposited, not how much memory its grids hold. For a tally without
/// grids or profiles the two are equal.
pub fn tally_dense_len(t: &Tally) -> usize {
    const WORD: usize = 8;
    // A length-prefixed sequence of `n` elements.
    let seq = |n: usize, elem: usize| WORD + n * elem;
    let option = |body: Option<usize>| 1 + body.unwrap_or(0);
    let grid = |g: &VisitGrid| 9 * WORD + seq(g.data().len(), WORD);
    // Header, then 9 counts, 4 weights, 5 path/depth moments and the
    // scatter sum around the three per-layer sequences.
    MAGIC.len()
        + 1
        + 19 * WORD
        + seq(t.absorbed_by_layer.len(), WORD)
        + seq(t.detected_reached_layer.len(), WORD)
        + seq(t.detected_partial_path.len(), WORD)
        + option(t.path_grid.as_ref().map(grid))
        + option(t.absorption_grid.as_ref().map(grid))
        + option(t.path_histogram.as_ref().map(|h| 2 * WORD + seq(h.counts.len(), WORD)))
        + option(t.reflectance_r.as_ref().map(|p| 3 * WORD + seq(p.weights().len(), WORD)))
        + option(t.absorption_rz.as_ref().map(|g| 5 * WORD + seq(g.data().len(), WORD)))
        + option(t.archive.as_ref().map(|a| {
            let (n, per_region) = (a.class.len(), a.partial_path.len());
            // regions, the detected-only byte, launched, specular weight.
            3 * WORD + 1 + a.base.len() * 4 * WORD
                + seq(n, 1) // class
                + 5 * seq(n, WORD) // task, exit weight/radius, pathlength, max depth
                + seq(n, 4) // scatters
                + seq(per_region, WORD) // partial path
                + seq(per_region, 4) // collisions
                + seq(per_region, 1) // reached
        }))
}

/// Decode a complete tally.
pub fn decode_tally(bytes: &[u8]) -> Result<Tally, WireError> {
    let mut d = Decoder::new(bytes)?;
    let t = get_tally(&mut d)?;
    d.finish()?;
    Ok(t)
}

/// Every field is read straight into place: a struct expression evaluates
/// its fields in the order written, which here is the wire order of
/// [`encode_tally`].
fn get_tally(d: &mut Decoder) -> Result<Tally, WireError> {
    Ok(Tally {
        launched: d.get_u64()?,
        detected: d.get_u64()?,
        reflected: d.get_u64()?,
        transmitted: d.get_u64()?,
        roulette_killed: d.get_u64()?,
        fully_absorbed: d.get_u64()?,
        expired: d.get_u64()?,
        gate_rejected: d.get_u64()?,
        na_rejected: d.get_u64()?,
        specular_weight: d.get_f64()?,
        detected_weight: d.get_f64()?,
        reflected_weight: d.get_f64()?,
        transmitted_weight: d.get_f64()?,
        absorbed_by_layer: d.get_f64_vec()?,
        detected_path_sum: d.get_f64()?,
        detected_path_sq_sum: d.get_f64()?,
        detected_weight_path_sum: d.get_f64()?,
        detected_depth_sum: d.get_f64()?,
        detected_depth_max: d.get_f64()?,
        detected_reached_layer: d.get_u64_vec()?,
        detected_partial_path: d.get_f64_vec()?,
        detected_scatter_sum: d.get_u64()?,
        path_grid: get_option(d, get_visit_grid)?,
        absorption_grid: get_option(d, get_visit_grid)?,
        path_histogram: get_option(d, get_path_histogram)?,
        reflectance_r: get_option(d, get_radial_profile)?,
        absorption_rz: get_option(d, get_cylinder)?,
        archive: get_option(d, get_archive)?,
    })
}

// --- Path archive encoding -----------------------------------------------
//
// A recorded ensemble of escape events (`lumen_core::archive`) for the
// `reweight` backend. The SoA columns go on the wire as length-prefixed
// sequences; on decode every column length is cross-checked against the
// entry count so a hostile peer cannot desynchronise the columns, and the
// physical fields are validated (classes in range, weights and pathlengths
// finite and non-negative) before a `PathArchive` leaves the decoder.

/// Region cap for archives arriving over the wire. Generous — the paper's
/// head models have ≤ 6 regions and a 50³ voxel model a few thousand —
/// but it bounds the `regions × entries` matrix allocations against a
/// hostile header the same way [`MAX_SPEC_CELLS`] bounds grid specs.
pub const MAX_ARCHIVE_REGIONS: u64 = 1 << 12;

fn put_archive(e: &mut Encoder, a: &PathArchive) {
    e.put_u64(a.regions as u64);
    e.put_u8(u8::from(a.detected_only));
    for o in &a.base {
        put_optics(e, o);
    }
    e.put_u64(a.launched);
    e.put_f64(a.specular_weight);
    e.put_bytes(&a.class);
    e.put_u64_slice(&a.task);
    e.put_f64_slice(&a.exit_weight);
    e.put_f64_slice(&a.exit_radius);
    e.put_f64_slice(&a.pathlength);
    e.put_f64_slice(&a.max_depth);
    e.put_u32_slice(&a.scatters);
    e.put_f64_slice(&a.partial_path);
    e.put_u32_slice(&a.collisions);
    e.put_bytes(&a.reached);
}

fn get_archive(d: &mut Decoder) -> Result<PathArchive, WireError> {
    let regions = d.get_u64()?;
    if regions == 0 || regions > MAX_ARCHIVE_REGIONS {
        return Err(WireError::BadLength(regions));
    }
    let regions = regions as usize;
    // Read in wire order straight into place (every column's allocation is
    // bounded by the bytes that remain), then cross-check before it leaves.
    let a = PathArchive {
        regions,
        detected_only: d.get_u8()? != 0,
        base: (0..regions).map(|_| get_optics(d)).collect::<Result<_, _>>()?,
        launched: d.get_u64()?,
        specular_weight: d.get_f64()?,
        class: d.get_bytes()?,
        task: d.get_u64_vec()?,
        exit_weight: d.get_f64_vec()?,
        exit_radius: d.get_f64_vec()?,
        pathlength: d.get_f64_vec()?,
        max_depth: d.get_f64_vec()?,
        scatters: d.get_u32_vec()?,
        partial_path: d.get_f64_vec()?,
        collisions: d.get_u32_vec()?,
        reached: d.get_bytes()?,
    };

    let n = a.class.len();
    let per_region = n.checked_mul(regions).ok_or(WireError::BadLength(n as u64))?;
    if let Some(bad) = a.class.iter().find(|&&c| c > CLASS_TRANSMITTED) {
        return Err(WireError::Invalid(format!("archive entry class {bad} out of range")));
    }
    for (got, want, what) in [
        (a.task.len(), n, "task"),
        (a.exit_weight.len(), n, "exit weight"),
        (a.exit_radius.len(), n, "exit radius"),
        (a.pathlength.len(), n, "pathlength"),
        (a.max_depth.len(), n, "max depth"),
        (a.scatters.len(), n, "scatters"),
        (a.partial_path.len(), per_region, "partial path"),
        (a.collisions.len(), per_region, "collisions"),
        (a.reached.len(), per_region, "reached"),
    ] {
        if got != want {
            return Err(WireError::Invalid(format!(
                "archive {what} column has {got} values, expected {want}"
            )));
        }
    }
    for (vs, what) in [
        (&[a.specular_weight][..], "specular weight"),
        (&a.exit_weight, "exit weight"),
        (&a.exit_radius, "exit radius"),
        (&a.pathlength, "pathlength"),
        (&a.max_depth, "max depth"),
        (&a.partial_path, "partial path"),
    ] {
        if vs.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(WireError::Invalid(format!(
                "archive {what} must be finite and non-negative"
            )));
        }
    }
    Ok(a)
}

/// Encode a standalone path archive — the on-disk format behind the
/// `reweight <archive-file>` backend spec and the CLI's `archive` key.
pub fn encode_archive(a: &PathArchive) -> Vec<u8> {
    let mut e = Encoder::new();
    put_archive(&mut e, a);
    e.finish()
}

/// Decode a standalone path archive, rejecting truncated, desynchronised,
/// out-of-range, or non-finite payloads with typed errors and without
/// unbounded allocation.
pub fn decode_archive(bytes: &[u8]) -> Result<PathArchive, WireError> {
    let mut d = Decoder::new(bytes)?;
    let a = get_archive(&mut d)?;
    d.finish()?;
    Ok(a)
}

// --- Scenario encoding ---------------------------------------------------
//
// The experiment definition itself. The original platform shipped Java
// bytecode to the clients; encoding the full `Scenario` is our equivalent:
// a server can hand a connecting client everything it needs instead of
// relying on the out-of-band "same scenario, same seed" contract.

fn put_optics(e: &mut Encoder, o: &OpticalProperties) {
    e.put_f64(o.mu_a);
    e.put_f64(o.mu_s);
    e.put_f64(o.g);
    e.put_f64(o.n);
}

fn get_optics(d: &mut Decoder) -> Result<OpticalProperties, WireError> {
    Ok(OpticalProperties {
        mu_a: d.get_f64()?,
        mu_s: d.get_f64()?,
        g: d.get_f64()?,
        n: d.get_f64()?,
    })
}

fn put_tissue(e: &mut Encoder, t: &LayeredTissue) {
    e.put_f64(t.ambient_n);
    e.put_u64(t.layers().len() as u64);
    for layer in t.layers() {
        e.put_str(&layer.name);
        e.put_f64(layer.z_top);
        e.put_f64(layer.z_bottom);
        put_optics(e, &layer.optics);
    }
}

fn get_tissue(d: &mut Decoder) -> Result<LayeredTissue, WireError> {
    let ambient_n = d.get_f64()?;
    let n_layers = d.get_u64()?;
    // A layer costs at least its fixed-size fields on the wire.
    let n_layers = d.checked_len(n_layers, 8 * 6)?;
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let name = d.get_str()?;
        let z_top = d.get_f64()?;
        let z_bottom = d.get_f64()?;
        let optics = get_optics(d)?;
        layers.push(Layer { name, z_top, z_bottom, optics });
    }
    LayeredTissue::new(layers, ambient_n).map_err(|e| WireError::Invalid(e.to_string()))
}

fn put_voxel_tissue(e: &mut Encoder, t: &VoxelTissue) {
    e.put_f64(t.ambient_n);
    let (nx, ny, nz) = t.dims();
    e.put_u64(nx as u64);
    e.put_u64(ny as u64);
    e.put_u64(nz as u64);
    let (x0, y0) = t.origin();
    e.put_f64(x0);
    e.put_f64(y0);
    let (dx, dy, dz) = t.voxel_mm();
    e.put_f64(dx);
    e.put_f64(dy);
    e.put_f64(dz);
    e.put_u64(t.materials().len() as u64);
    for m in t.materials() {
        e.put_str(&m.name);
        put_optics(e, &m.optics);
    }
    // Cells in bulk, straight into the encoder buffer: one reserve, no
    // intermediate copy, no 2^26 bounds-checked calls.
    e.buf.reserve(t.cells().len() * 2);
    for &c in t.cells() {
        e.buf.extend_from_slice(&c.to_le_bytes());
    }
}

fn get_voxel_tissue(d: &mut Decoder) -> Result<VoxelTissue, WireError> {
    let ambient_n = d.get_f64()?;
    let nx = d.get_u64()?;
    let ny = d.get_u64()?;
    let nz = d.get_u64()?;
    // Cells are 2 bytes each on the wire: a hostile dimension triple that
    // cannot fit the remaining bytes (or the VoxelTissue cell cap) dies
    // here, before any allocation. Dimensions past u32 cannot pass the
    // cell cap, so the u64 → usize narrowing below is lossless.
    if nx > u32::MAX as u64 || ny > u32::MAX as u64 || nz > u32::MAX as u64 {
        return Err(WireError::BadLength(u64::MAX));
    }
    let n_cells = lumen_tissue::voxel::checked_cell_count(nx as usize, ny as usize, nz as usize)
        .ok_or(WireError::BadLength(u64::MAX))?;
    let n_cells = d.checked_len(n_cells as u64, 2)?;
    let x0 = d.get_f64()?;
    let y0 = d.get_f64()?;
    let dx = d.get_f64()?;
    let dy = d.get_f64()?;
    let dz = d.get_f64()?;
    let n_materials = d.get_u64()?;
    // A material costs at least its name-length prefix plus four floats.
    let n_materials = d.checked_len(n_materials, 8 * 5)?;
    let mut materials = Vec::with_capacity(n_materials);
    for _ in 0..n_materials {
        let name = d.get_str()?;
        materials.push(VoxelMaterial { name, optics: get_optics(d)? });
    }
    // Bulk-decode the cell block: `checked_len` already proved the bytes
    // are present, so one take + chunked conversion replaces 2^26
    // per-element bounds checks on large grids.
    let raw = d.take(n_cells * 2)?;
    let cells: Vec<u16> = raw.chunks_exact(2).map(|b| u16::from_le_bytes([b[0], b[1]])).collect();
    VoxelTissue::new(
        (nx as usize, ny as usize, nz as usize),
        (x0, y0),
        (dx, dy, dz),
        materials,
        cells,
        ambient_n,
    )
    .map_err(|e| WireError::Invalid(e.to_string()))
}

/// Encode a geometry value: a kind tag, then the kind-specific body.
pub fn put_geometry(e: &mut Encoder, g: &Geometry) {
    match g {
        Geometry::Layered(t) => {
            e.put_u8(0);
            put_tissue(e, t);
        }
        Geometry::Voxel(t) => {
            e.put_u8(1);
            put_voxel_tissue(e, t);
        }
    }
}

/// Decode a geometry value; construction re-validates, so a hostile peer
/// cannot smuggle an inconsistent stack or grid past the type system.
pub fn get_geometry(d: &mut Decoder) -> Result<Geometry, WireError> {
    match d.get_u8()? {
        0 => Ok(Geometry::Layered(get_tissue(d)?)),
        1 => Ok(Geometry::Voxel(get_voxel_tissue(d)?)),
        tag => Err(WireError::Invalid(format!("unknown geometry tag {tag}"))),
    }
}

fn put_source(e: &mut Encoder, s: &Source) {
    match *s {
        Source::Delta => e.put_u8(0),
        Source::Gaussian { radius } => {
            e.put_u8(1);
            e.put_f64(radius);
        }
        Source::Uniform { radius } => {
            e.put_u8(2);
            e.put_f64(radius);
        }
    }
}

fn get_source(d: &mut Decoder) -> Result<Source, WireError> {
    match d.get_u8()? {
        0 => Ok(Source::Delta),
        1 => Ok(Source::Gaussian { radius: d.get_f64()? }),
        2 => Ok(Source::Uniform { radius: d.get_f64()? }),
        tag => Err(WireError::Invalid(format!("unknown source tag {tag}"))),
    }
}

fn put_detector(e: &mut Encoder, det: &Detector) {
    e.put_f64(det.separation);
    e.put_f64(det.radius);
    e.put_u8(det.ring as u8);
    put_option(e, det.min_exit_cos.as_ref(), |e, &c| e.put_f64(c));
    e.put_f64(det.gate.min_mm);
    e.put_f64(det.gate.max_mm);
}

fn get_detector(d: &mut Decoder) -> Result<Detector, WireError> {
    Ok(Detector {
        separation: d.get_f64()?,
        radius: d.get_f64()?,
        ring: d.get_u8()? != 0,
        min_exit_cos: get_option(d, |d| d.get_f64())?,
        gate: GateWindow { min_mm: d.get_f64()?, max_mm: d.get_f64()? },
    })
}

/// Upper bound on cells in any decoded tally spec (grid voxels, histogram
/// bins, radial bins). A scenario carries bare specs with no data behind
/// them, and a tally's sparse grids ([`Decoder::get_sparse_f64`]) may
/// cover any number of cells in 16 bytes — without a cap, a ~100-byte
/// hostile message could request a 2M³-voxel grid and abort the process on
/// allocation. 2²⁴ cells (128 MiB of f64) is ~134× the paper's 50³
/// granularity.
pub const MAX_SPEC_CELLS: u64 = 1 << 24;

fn checked_cells(cells: Option<usize>) -> Result<usize, WireError> {
    match cells {
        Some(n) if (n as u64) <= MAX_SPEC_CELLS => Ok(n),
        Some(n) => Err(WireError::BadLength(n as u64)),
        None => Err(WireError::BadLength(u64::MAX)),
    }
}

fn get_bounded_grid_spec(d: &mut Decoder) -> Result<GridSpec, WireError> {
    let spec = get_grid_spec(d)?;
    checked_cells(spec.checked_len())?;
    Ok(spec)
}

fn put_options(e: &mut Encoder, o: &SimulationOptions) {
    e.put_u8(match o.boundary_mode {
        BoundaryMode::Probabilistic => 0,
        BoundaryMode::Classical => 1,
    });
    e.put_f64(o.roulette.threshold);
    e.put_f64(o.roulette.survival);
    e.put_u64(o.max_interactions as u64);
    put_option(e, o.path_grid.as_ref(), put_grid_spec);
    put_option(e, o.absorption_grid.as_ref(), put_grid_spec);
    put_option(e, o.path_histogram.as_ref(), |e, &(max_mm, bins)| {
        e.put_f64(max_mm);
        e.put_u64(bins as u64);
    });
    put_option(e, o.reflectance_profile.as_ref(), |e, spec| {
        e.put_u64(spec.nr as u64);
        e.put_f64(spec.r_max);
    });
    put_option(e, o.absorption_rz.as_ref(), |e, &(radial, nz, z_max)| {
        e.put_u64(radial.nr as u64);
        e.put_f64(radial.r_max);
        e.put_u64(nz as u64);
        e.put_f64(z_max);
    });
    e.put_u64(o.record_paths as u64);
    put_option(e, o.archive.as_ref(), |e, rec| e.put_u8(u8::from(rec.detected_only)));
    // v6: precision tier. Appended last so the options layout stays a
    // strict prefix of every earlier version's.
    e.put_u8(match o.precision {
        Precision::Exact => 0,
        Precision::Fast => 1,
    });
}

fn get_options(d: &mut Decoder) -> Result<SimulationOptions, WireError> {
    let boundary_mode = match d.get_u8()? {
        0 => BoundaryMode::Probabilistic,
        1 => BoundaryMode::Classical,
        tag => return Err(WireError::Invalid(format!("unknown boundary mode tag {tag}"))),
    };
    let roulette = RouletteConfig { threshold: d.get_f64()?, survival: d.get_f64()? };
    let max_interactions = u32::try_from(d.get_u64()?)
        .map_err(|_| WireError::Invalid("max_interactions exceeds u32".into()))?;
    let path_grid = get_option(d, get_bounded_grid_spec)?;
    let absorption_grid = get_option(d, get_bounded_grid_spec)?;
    let path_histogram =
        get_option(d, |d| Ok((d.get_f64()?, checked_cells(Some(d.get_u64()? as usize))?)))?;
    let reflectance_profile = get_option(d, |d| {
        Ok(RadialSpec { nr: checked_cells(Some(d.get_u64()? as usize))?, r_max: d.get_f64()? })
    })?;
    let absorption_rz = get_option(d, |d| {
        let radial = RadialSpec { nr: d.get_u64()? as usize, r_max: d.get_f64()? };
        let nz = d.get_u64()? as usize;
        checked_cells(radial.nr.checked_mul(nz))?;
        Ok((radial, nz, d.get_f64()?))
    })?;
    let record_paths = d.get_u64()? as usize;
    let archive = get_option(d, |d| Ok(RecordOptions { detected_only: d.get_u8()? != 0 }))?;
    let precision = match d.get_u8()? {
        0 => Precision::Exact,
        1 => Precision::Fast,
        tag => return Err(WireError::Invalid(format!("unknown precision tier tag {tag}"))),
    };
    Ok(SimulationOptions {
        boundary_mode,
        roulette,
        max_interactions,
        path_grid,
        absorption_grid,
        path_histogram,
        reflectance_profile,
        absorption_rz,
        record_paths,
        archive,
        precision,
    })
}

/// Encode a full experiment definition — geometry, source, detector,
/// options, photon budget, task split, and seed.
pub fn encode_scenario(s: &Scenario) -> Vec<u8> {
    encode_scenario_as(s, s.photons, s.tasks, s.task_offset)
}

/// [`encode_scenario`] of `s` with its three *execution* fields written
/// as `photons = 0`, `tasks = 1`, `task_offset = 0`: the bytes the
/// service hashes into a cache key, produced from the borrowed scenario
/// (a voxel geometry is thousands of cells; cloning it to zero three
/// integers would cost more than encoding it).
pub fn encode_scenario_normalized(s: &Scenario) -> Vec<u8> {
    encode_scenario_as(s, 0, 1, 0)
}

fn encode_scenario_as(s: &Scenario, photons: u64, tasks: u64, task_offset: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    put_geometry(&mut e, &s.tissue);
    put_source(&mut e, &s.source);
    put_detector(&mut e, &s.detector);
    put_options(&mut e, &s.options);
    e.put_u64(photons);
    e.put_u64(tasks);
    e.put_u64(s.seed);
    e.put_u64(task_offset);
    e.finish()
}

/// Decode a [`Scenario`]. Geometry is re-validated on decode, so a hostile
/// peer cannot smuggle an inconsistent layer stack past the type system.
pub fn decode_scenario(bytes: &[u8]) -> Result<Scenario, WireError> {
    let mut d = Decoder::new(bytes)?;
    let tissue = get_geometry(&mut d)?;
    let source = get_source(&mut d)?;
    let detector = get_detector(&mut d)?;
    let options = get_options(&mut d)?;
    let photons = d.get_u64()?;
    let tasks = d.get_u64()?;
    let seed = d.get_u64()?;
    let task_offset = d.get_u64()?;
    d.finish()?;
    let scenario =
        Scenario { tissue, source, detector, options, photons, tasks, seed, task_offset };
    scenario.validate().map_err(|e| WireError::Invalid(e.to_string()))?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn task_round_trip() {
        let t = SimTask { task_id: 42, photons: 1_000_000 };
        assert_eq!(decode_task(&encode_task(&t)).unwrap(), t);
    }

    #[test]
    fn tally_round_trip_preserves_everything() {
        let mut t = Tally::new(3, None, None);
        t.launched = 1000;
        t.detected = 10;
        t.reflected = 800;
        t.roulette_killed = 190;
        t.specular_weight = 27.5;
        t.detected_weight = 3.25;
        t.absorbed_by_layer = vec![1.5, 0.25, 0.0625];
        t.detected_path_sum = 512.0;
        t.detected_reached_layer = vec![10, 4, 1];
        t.detected_scatter_sum = 12345;
        let decoded = decode_tally(&encode_tally(&t)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn bad_header_is_rejected() {
        assert_eq!(decode_task(b"XXXX\x01rest"), Err(WireError::BadHeader));
        assert_eq!(decode_task(b""), Err(WireError::BadHeader));
        // Wrong version byte.
        let mut good = encode_task(&SimTask { task_id: 1, photons: 2 });
        good[4] = 99;
        assert_eq!(decode_task(&good), Err(WireError::BadHeader));
    }

    #[test]
    fn truncated_message_is_rejected() {
        let bytes = encode_task(&SimTask { task_id: 1, photons: 2 });
        for cut in 5..bytes.len() {
            assert!(decode_task(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_task(&SimTask { task_id: 1, photons: 2 });
        bytes.push(0);
        assert_eq!(decode_task(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocation() {
        // A tally message claiming 2^60 layers must fail fast.
        let mut e = Encoder::new();
        for _ in 0..9 {
            e.put_u64(1);
        }
        for _ in 0..4 {
            e.put_f64(0.0);
        }
        e.put_u64(1 << 60); // absurd layer count
        let bytes = e.finish();
        match decode_tally(&bytes) {
            Err(WireError::BadLength(n)) => assert_eq!(n, 1 << 60),
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    /// Small hand-built two-region archive exercising every column.
    fn sample_archive() -> PathArchive {
        let base = vec![
            OpticalProperties::new(0.05, 10.0, 0.9, 1.4),
            OpticalProperties::new(0.02, 15.0, 0.9, 1.4),
        ];
        let mut a = PathArchive::new(2, base, RecordOptions::default());
        a.on_launch(0.027);
        a.push(3, 0.75, 1.5, 42.0, 6.0, 17, &[30.0, 12.0], &[11, 6], &[true, true]);
        a.on_launch(0.027);
        a.push(0, 0.5, 9.0, 10.0, 2.0, 3, &[10.0, 0.0], &[3, 0], &[true, false]);
        a.on_launch(0.027);
        a.push_launch_miss(1.0, 25.0);
        a.stamp_task(4);
        a
    }

    #[test]
    fn archive_round_trip_preserves_everything() {
        let a = sample_archive();
        assert_eq!(decode_archive(&encode_archive(&a)).unwrap(), a);
        // And embedded in a tally.
        let mut t = Tally::new(2, None, None).with_archive(sample_archive());
        t.launched = 3;
        assert_eq!(decode_tally(&encode_tally(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_archive_is_rejected_at_every_cut() {
        let bytes = encode_archive(&sample_archive());
        for cut in 5..bytes.len() {
            assert!(decode_archive(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_archive(&long), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_archive_counts_are_rejected_without_allocation() {
        // Region count beyond the cap.
        let mut e = Encoder::new();
        e.put_u64(MAX_ARCHIVE_REGIONS + 1);
        match decode_archive(&e.finish()) {
            Err(WireError::BadLength(n)) => assert_eq!(n, MAX_ARCHIVE_REGIONS + 1),
            other => panic!("expected BadLength, got {other:?}"),
        }
        // Zero regions are meaningless.
        let mut e = Encoder::new();
        e.put_u64(0);
        assert_eq!(decode_archive(&e.finish()), Err(WireError::BadLength(0)));
        // A claimed 2^60-entry class column must fail before allocating.
        let a = sample_archive();
        let mut e = Encoder::new();
        e.put_u64(a.regions as u64);
        e.put_u8(0);
        for o in &a.base {
            put_optics(&mut e, o);
        }
        e.put_u64(a.launched);
        e.put_f64(a.specular_weight);
        e.put_u64(1 << 60); // hostile class-column length prefix
        match decode_archive(&e.finish()) {
            Err(WireError::BadLength(n)) => assert_eq!(n, 1 << 60),
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn desynchronised_archive_columns_are_rejected() {
        // Re-encode with a task column one entry short: the cross-check
        // must fail even though every column is self-consistent.
        let mut a = sample_archive();
        a.task.pop();
        let bytes = encode_archive(&a);
        assert!(matches!(decode_archive(&bytes), Err(WireError::Invalid(_))));
    }

    #[test]
    fn non_finite_and_negative_archive_physics_are_rejected() {
        for corrupt in [f64::NAN, f64::INFINITY, -1.0] {
            let mut a = sample_archive();
            a.pathlength[0] = corrupt;
            assert!(
                matches!(decode_archive(&encode_archive(&a)), Err(WireError::Invalid(_))),
                "pathlength {corrupt} must be rejected"
            );
            let mut a = sample_archive();
            a.partial_path[1] = corrupt;
            assert!(
                matches!(decode_archive(&encode_archive(&a)), Err(WireError::Invalid(_))),
                "partial path {corrupt} must be rejected"
            );
            let mut a = sample_archive();
            a.exit_weight[0] = corrupt;
            assert!(
                matches!(decode_archive(&encode_archive(&a)), Err(WireError::Invalid(_))),
                "exit weight {corrupt} must be rejected"
            );
        }
        let mut a = sample_archive();
        a.class[0] = CLASS_TRANSMITTED + 1;
        assert!(matches!(decode_archive(&encode_archive(&a)), Err(WireError::Invalid(_))));
    }

    #[test]
    fn archive_version_mismatch_is_rejected() {
        let mut bytes = encode_archive(&sample_archive());
        bytes[4] = VERSION - 1;
        assert_eq!(decode_archive(&bytes), Err(WireError::BadHeader));
    }

    #[test]
    fn options_archive_flag_survives_scenario_round_trip() {
        use lumen_core::engine::Scenario;
        use lumen_core::{Detector, Source};
        use lumen_tissue::presets::semi_infinite_phantom;
        let mut s = Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(1.0, 0.5),
        );
        s.options.archive = Some(RecordOptions { detected_only: true });
        let decoded = decode_scenario(&encode_scenario(&s)).unwrap();
        assert_eq!(decoded.options.archive, Some(RecordOptions { detected_only: true }));
        s.options.archive = None;
        let decoded = decode_scenario(&encode_scenario(&s)).unwrap();
        assert_eq!(decoded.options.archive, None);
    }

    /// A tally carrying every attachment, each with a few deposits (so its
    /// dense arrays are sparse) and an overflow.
    fn full_tally() -> Tally {
        let spec = GridSpec::cubic(5, Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, 1.0, 2.0));
        let mut t = Tally::new(2, Some(spec), Some(spec))
            .with_path_histogram(100.0, 8)
            .with_reflectance_profile(RadialSpec { nr: 6, r_max: 3.0 })
            .with_absorption_rz(RadialSpec { nr: 4, r_max: 2.0 }, 3, 6.0);
        t.launched = 500;
        t.detected = 7;
        t.absorbed_by_layer = vec![1.25, 0.5];
        t.detected_reached_layer = vec![7, 3];
        t.path_grid.as_mut().unwrap().deposit(Vec3::new(0.1, 0.2, 0.3), 2.5);
        t.absorption_grid.as_mut().unwrap().deposit(Vec3::new(-0.5, 0.0, 1.5), 0.75);
        t.path_histogram.as_mut().unwrap().record(42.0);
        t.path_histogram.as_mut().unwrap().record(250.0); // overflow
        t.reflectance_r.as_mut().unwrap().record(1.1, 0.25);
        t.reflectance_r.as_mut().unwrap().record(9.0, 0.5); // overflow
        t.absorption_rz.as_mut().unwrap().deposit(0.6, 2.2, 0.125);
        t
    }

    #[test]
    fn full_tally_round_trip_with_all_grids() {
        let t = full_tally();
        let bytes = encode_tally(&t);
        let decoded = decode_tally(&bytes).unwrap();
        assert_eq!(decoded, t);
        assert_eq!(encode_tally(&decoded), bytes);
    }

    #[test]
    fn full_tally_round_trip_without_grids() {
        let mut t = Tally::new(1, None, None);
        t.launched = 10;
        let decoded = decode_tally(&encode_tally(&t)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn full_tally_rejects_truncation_at_every_prefix() {
        let bytes = encode_tally(&full_tally());
        for cut in 0..bytes.len() {
            assert!(decode_tally(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
        let mut long = bytes;
        long.push(0);
        assert_eq!(decode_tally(&long), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn scalar_tally_keeps_its_v6_length() {
        // 5 header bytes, 19 fixed words, three per-layer sequences (count
        // + one word a layer), six absent-attachment bytes: what v6 wrote
        // for the five-layer adult head (`cluster.wire.tally_bytes.scalar`).
        let t = Tally::new(5, None, None);
        assert_eq!(5 + 19 * 8 + 3 * (8 + 5 * 8) + 6, 307);
        assert_eq!(encode_tally(&t).len(), 307);
        assert_eq!(tally_dense_len(&t), 307);
    }

    #[test]
    fn sparse_array_costs_sixteen_bytes_empty_and_sixteen_over_dense() {
        let len = |cells: &[f64]| {
            let mut e = Encoder::new();
            e.put_sparse_f64(cells);
            e.finish().len() - 5
        };
        assert_eq!(len(&[0.0; 1000]), 16);
        assert_eq!(len(&[1.0; 1000]), 16 + 8 * 1000);
        // zeros, a literal run, trailing zeros: two run headers.
        let mut cells = [0.0; 1000];
        cells[10..13].copy_from_slice(&[1.0, -0.0, f64::NAN]);
        assert_eq!(len(&cells), 2 * 16 + 3 * 8);
        // The paper's 50^3 grid with nothing in it: ~100 bytes of tally
        // attachment, not a megabyte.
        let spec = GridSpec::cubic(50, Vec3::new(-6.0, -6.0, 0.0), Vec3::new(12.0, 6.0, 9.0));
        let with = Tally::new(1, Some(spec), None);
        let without = encode_tally(&Tally::new(1, None, None)).len();
        assert_eq!(encode_tally(&with).len() - without, 9 * 8 + 16);
        // Its resident footprint is what v6 shipped for it.
        assert_eq!(tally_dense_len(&with), 1_000_291);
    }

    #[test]
    fn dense_length_is_the_encoded_length_with_every_cell_written_out() {
        // No dense f64 attachment: equal to the byte, archive and
        // histogram included.
        let mut t = Tally::new(2, None, None).with_archive(sample_archive());
        t = t.with_path_histogram(100.0, 8);
        assert_eq!(tally_dense_len(&t), encode_tally(&t).len());
        // Every cell of all four dense attachments a literal: one 16-byte
        // run header each where the dense layout has an 8-byte count.
        let full = full_tally();
        let ones = |n: usize| vec![1.0; n];
        let mut t = full.clone();
        let spec = full.path_grid.as_ref().unwrap().spec;
        t.path_grid = Some(VisitGrid::from_data(spec, ones(125)).unwrap());
        t.absorption_grid = t.path_grid.clone();
        let radial = full.reflectance_r.as_ref().unwrap().spec;
        t.reflectance_r = Some(RadialProfile::from_weights(radial, ones(6), 0.0).unwrap());
        let rz = full.absorption_rz.as_ref().unwrap();
        t.absorption_rz =
            Some(CylinderGrid::from_data(rz.radial, rz.nz, rz.z_max, ones(12), 0.0).unwrap());
        assert_eq!(tally_dense_len(&t) + 4 * 8, encode_tally(&t).len());
        // And the footprint does not depend on what the cells hold.
        assert_eq!(tally_dense_len(&t), tally_dense_len(&full));
    }

    /// Decode `n` cells from hand-written runs.
    fn sparse_from(
        n: Option<usize>,
        runs: impl FnOnce(&mut Encoder),
    ) -> Result<Vec<f64>, WireError> {
        let mut e = Encoder::new();
        runs(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes)?;
        let cells = d.get_sparse_f64(n)?;
        d.finish()?;
        Ok(cells)
    }

    fn run(e: &mut Encoder, zeros: u64, literals: &[f64]) {
        e.put_u64(zeros);
        e.put_u64(literals.len() as u64);
        literals.iter().for_each(|&v| e.put_f64(v));
    }

    #[test]
    fn sparse_array_cell_count_is_capped_before_allocation() {
        let over = MAX_SPEC_CELLS + 1;
        let claim = |n| sparse_from(n, |e| run(e, over, &[]));
        assert_eq!(claim(Some(over as usize)), Err(WireError::BadLength(over)));
        assert_eq!(claim(None), Err(WireError::BadLength(u64::MAX)));
        // The cap itself is a legal (if large) grid: 16 bytes in, 128 MiB
        // of untouched zero pages out.
        let at_cap = sparse_from(Some(MAX_SPEC_CELLS as usize), |e| run(e, MAX_SPEC_CELLS, &[]));
        assert_eq!(at_cap.map(|cells| cells.len()), Ok(MAX_SPEC_CELLS as usize));
    }

    #[test]
    fn hostile_tally_cannot_claim_a_huge_grid_in_a_few_hundred_bytes() {
        // Every dense attachment, claimed at one cell over the cap (or at
        // a product that overflows) and "covered" by a single zero run.
        let over = MAX_SPEC_CELLS + 1;
        // `absent` attachments, then one whose binning claims `cells`.
        let claim = |absent: usize, cells: u64, binning: &dyn Fn(&mut Encoder)| {
            let mut e = Encoder::new();
            put_tally_scalars(&mut e, &Tally::new(1, None, None));
            (0..absent).for_each(|_| e.put_u8(0));
            e.put_u8(1);
            binning(&mut e);
            run(&mut e, cells, &[]);
            let bytes = e.finish();
            assert!(bytes.len() < 300, "{} bytes", bytes.len());
            let got = decode_tally(&bytes);
            assert!(matches!(got, Err(WireError::BadLength(_))), "attachment {absent}: {got:?}");
        };
        let (min, max) = (Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        claim(0, over, &|e| {
            put_grid_spec(e, &GridSpec { nx: over as usize, ny: 1, nz: 1, min, max })
        });
        claim(1, over, &|e| {
            put_grid_spec(e, &GridSpec { nx: 1, ny: over as usize, nz: 1, min, max })
        });
        claim(3, over, &|e| {
            e.put_u64(over); // radial bins
            e.put_f64(1.0);
        });
        claim(4, 1 << 40, &|e| {
            for _ in 0..2 {
                e.put_u64(1 << 40); // 2^40 radial bins x 2^40 depth bins
                e.put_f64(1.0);
            }
        });
    }

    #[test]
    fn sparse_runs_that_overflow_or_overrun_are_rejected() {
        let n = Some(10);
        // Skip past the end; literals past the end; both at once with
        // counts whose sum wraps a u64.
        assert_eq!(sparse_from(n, |e| run(e, 11, &[])), Err(WireError::BadLength(11)));
        assert_eq!(sparse_from(n, |e| run(e, 8, &[1.0; 3])), Err(WireError::BadLength(3)));
        for (zeros, literals) in [(u64::MAX, u64::MAX), (5, u64::MAX - 2), (u64::MAX - 2, 5)] {
            let got = sparse_from(n, |e| {
                e.put_u64(zeros);
                e.put_u64(literals);
            });
            assert!(matches!(got, Err(WireError::BadLength(_))), "({zeros}, {literals}): {got:?}");
        }
        // A second run that overruns what the first left.
        let got = sparse_from(n, |e| {
            run(e, 2, &[1.0; 4]);
            run(e, 3, &[1.0; 2]);
        });
        assert_eq!(got, Err(WireError::BadLength(2)));
        // A literal count the cells allow but the message does not hold.
        let got = sparse_from(n, |e| {
            e.put_u64(0);
            e.put_u64(10);
            (0..3).for_each(|_| e.put_f64(1.0));
        });
        assert_eq!(got, Err(WireError::BadLength(10)));
        // Too few runs: the cells are not covered.
        assert_eq!(sparse_from(n, |e| run(e, 2, &[1.0; 4])), Err(WireError::Truncated));
    }

    #[test]
    fn non_canonical_sparse_arrays_are_rejected() {
        let n = Some(6);
        let invalid = |got: Result<Vec<f64>, WireError>| matches!(got, Err(WireError::Invalid(_)));
        // An empty run up front; a literal run split in two (a zero-length
        // skip mid-stream); a zero run split in two (a zero-length literal
        // run mid-stream); a literal that is all-zero bits.
        assert!(invalid(sparse_from(n, |e| {
            run(e, 0, &[]);
            run(e, 6, &[]);
        })));
        assert!(invalid(sparse_from(n, |e| {
            run(e, 0, &[1.0; 3]);
            run(e, 0, &[1.0; 3]);
        })));
        assert!(invalid(sparse_from(n, |e| {
            run(e, 2, &[]);
            run(e, 2, &[1.0; 2]);
        })));
        assert!(invalid(sparse_from(n, |e| run(e, 2, &[1.0, 0.0, 1.0, 1.0]))));
        // The canonical spellings of the same arrays are fine, and -0.0 is
        // a literal like any other.
        assert_eq!(sparse_from(n, |e| run(e, 6, &[])), Ok(vec![0.0; 6]));
        assert_eq!(sparse_from(n, |e| run(e, 0, &[1.0; 6])), Ok(vec![1.0; 6]));
        let cells = sparse_from(n, |e| run(e, 5, &[-0.0])).unwrap();
        assert_eq!(cells[5].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn hostile_binning_is_an_error_not_a_panic() {
        // Binnings the core constructors assert on: each must come back as
        // a typed error from the validated `from_data` path.
        let spec = GridSpec::cubic(2, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        let degenerate = GridSpec { max: Vec3::ZERO, ..spec };
        let not_a_number = GridSpec { min: Vec3::new(f64::NAN, 0.0, 0.0), ..spec };
        for bad in [GridSpec { nx: 0, ..spec }, degenerate, not_a_number] {
            let mut e = Encoder::new();
            put_tally_scalars(&mut e, &Tally::new(1, None, None));
            e.put_u8(1);
            put_grid_spec(&mut e, &bad);
            if bad.nx > 0 {
                run(&mut e, 8, &[]);
            }
            (0..5).for_each(|_| e.put_u8(0));
            assert!(matches!(decode_tally(&e.finish()), Err(WireError::Invalid(_))), "{bad:?}");
        }
        for (nr, r_max, nz, z_max) in [
            (0u64, 1.0, 2u64, 1.0),
            (2, f64::INFINITY, 2, 1.0),
            (2, -1.0, 2, 1.0),
            (2, 1.0, 0, 1.0),
            (2, 1.0, 2, f64::NAN),
        ] {
            let mut e = Encoder::new();
            put_tally_scalars(&mut e, &Tally::new(1, None, None));
            (0..4).for_each(|_| e.put_u8(0));
            e.put_u8(1);
            e.put_u64(nr);
            e.put_f64(r_max);
            e.put_u64(nz);
            e.put_f64(z_max);
            if nr * nz > 0 {
                run(&mut e, nr * nz, &[]);
            }
            e.put_f64(0.0); // overflow
            e.put_u8(0); // no archive
            let got = decode_tally(&e.finish());
            assert!(matches!(got, Err(WireError::Invalid(_))), "({nr}, {r_max}, {nz}, {z_max})");
        }
    }

    #[test]
    fn scenario_round_trip_minimal() {
        use lumen_tissue::presets::semi_infinite_phantom;
        let s = Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.5, 1.4),
            Source::Delta,
            Detector::new(3.0, 1.0),
        )
        .with_photons(123_456)
        .with_tasks(17)
        .with_seed(99);
        let decoded = decode_scenario(&encode_scenario(&s)).unwrap();
        assert_eq!(decoded, s);
    }

    /// The layered head with every optional field of the detector and the
    /// options set but the archive (which classical boundaries exclude).
    fn every_option_scenario() -> Scenario {
        use lumen_tissue::presets::{adult_head, AdultHeadConfig};
        let mut options = SimulationOptions {
            boundary_mode: BoundaryMode::Classical,
            roulette: RouletteConfig { threshold: 0.005, survival: 0.2 },
            max_interactions: 500_000,
            ..Default::default()
        };
        options.path_grid =
            Some(GridSpec::cubic(20, Vec3::new(-3.0, -3.0, 0.0), Vec3::new(9.0, 3.0, 9.0)));
        options.absorption_grid =
            Some(GridSpec::cubic(10, Vec3::new(-5.0, -5.0, 0.0), Vec3::new(5.0, 5.0, 10.0)));
        options.path_histogram = Some((600.0, 30));
        options.reflectance_profile = Some(RadialSpec { nr: 25, r_max: 12.5 });
        options.absorption_rz = Some((RadialSpec { nr: 8, r_max: 4.0 }, 16, 32.0));
        options.record_paths = 7;
        Scenario::new(
            adult_head(AdultHeadConfig::default()),
            Source::Gaussian { radius: 1.5 },
            Detector::ring(30.0, 2.0)
                .with_gate(GateWindow::new(10.0, 900.0).unwrap())
                .with_numerical_aperture(0.5, 1.0),
        )
        .with_options(options)
        .with_photons(1_000_000)
        .with_tasks(64)
        .with_seed(2006)
        .with_task_offset(192)
    }

    #[test]
    fn scenario_round_trip_with_every_option() {
        let s = every_option_scenario();
        let bytes = encode_scenario(&s);
        let decoded = decode_scenario(&bytes).unwrap();
        assert_eq!(decoded, s);
        // The round-tripped scenario is immediately runnable.
        assert!(decoded.validate().is_ok());
    }

    fn plain_scenario() -> Scenario {
        use lumen_tissue::presets::semi_infinite_phantom;
        Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(2.0, 0.5),
        )
    }

    #[test]
    fn precision_tier_survives_scenario_round_trip() {
        for precision in [Precision::Exact, Precision::Fast] {
            let mut s = plain_scenario();
            s.options.precision = precision;
            let decoded = decode_scenario(&encode_scenario(&s)).unwrap();
            assert_eq!(decoded.options.precision, precision);
            assert_eq!(decoded, s);
            assert!(decoded.validate().is_ok());
        }
    }

    #[test]
    fn hostile_precision_tag_is_rejected() {
        let mut bytes = encode_scenario(&plain_scenario());
        // The precision byte is the last options byte, just before the
        // four u64 budget fields (photons, tasks, seed, task_offset).
        let idx = bytes.len() - 4 * 8 - 1;
        assert_eq!(bytes[idx], 0, "expected the Exact tier tag at the precision offset");
        bytes[idx] = 7;
        match decode_scenario(&bytes) {
            Err(WireError::Invalid(reason)) => {
                assert!(reason.contains("precision"), "{reason}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn scenario_from_older_or_newer_version_is_rejected() {
        // A v5 peer's scenario lacks the precision byte; parsing it as v6
        // would shift the budget fields by one byte. Both directions must
        // die at the header check, not mid-decode.
        for wrong in [VERSION - 1, VERSION + 1] {
            let mut bytes = encode_scenario(&plain_scenario());
            bytes[4] = wrong;
            assert_eq!(decode_scenario(&bytes), Err(WireError::BadHeader));
        }
    }

    #[test]
    fn scenario_rejects_truncation_and_trailing_bytes() {
        use lumen_tissue::presets::semi_infinite_phantom;
        let s = Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(2.0, 0.5),
        );
        let mut bytes = encode_scenario(&s);
        assert!(decode_scenario(&bytes[..bytes.len() - 1]).is_err());
        bytes.push(0);
        assert_eq!(decode_scenario(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn scenario_decode_revalidates_geometry() {
        use lumen_tissue::presets::semi_infinite_phantom;
        let mut s = Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(2.0, 0.5),
        );
        s.detector.radius = -1.0; // encodes fine, must not decode
        match decode_scenario(&encode_scenario(&s)) {
            Err(WireError::Invalid(reason)) => assert!(reason.contains("radius"), "{reason}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn scenario_rejects_oversized_tally_specs() {
        use lumen_core::radial::RadialSpec;
        use lumen_tissue::presets::semi_infinite_phantom;
        // A tiny message must not be able to request a gigantic tally: a
        // 2_000_000^3-voxel grid or a u64::MAX-bin histogram would abort
        // the process on allocation when the scenario is run.
        let base = Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(2.0, 0.5),
        );
        let mut huge_grid = base.clone();
        huge_grid.options.path_grid = Some(GridSpec {
            nx: 2_000_000,
            ny: 2_000_000,
            nz: 2_000_000,
            min: Vec3::new(-1.0, -1.0, 0.0),
            max: Vec3::new(1.0, 1.0, 2.0),
        });
        assert!(matches!(
            decode_scenario(&encode_scenario(&huge_grid)),
            Err(WireError::BadLength(_))
        ));
        let mut huge_hist = base.clone();
        huge_hist.options.path_histogram = Some((100.0, u32::MAX as usize));
        assert!(matches!(
            decode_scenario(&encode_scenario(&huge_hist)),
            Err(WireError::BadLength(_))
        ));
        let mut huge_rz = base;
        huge_rz.options.absorption_rz =
            Some((RadialSpec { nr: 1 << 20, r_max: 4.0 }, 1 << 20, 32.0));
        assert!(matches!(
            decode_scenario(&encode_scenario(&huge_rz)),
            Err(WireError::BadLength(_))
        ));
    }

    fn voxel_scenario() -> Scenario {
        use lumen_tissue::presets::{head_with_inclusion, AdultHeadConfig};
        Scenario::new(
            head_with_inclusion(
                AdultHeadConfig::default(),
                2.0,
                6.0,
                24.0,
                Vec3::new(3.0, 0.0, 16.0),
                4.0,
            )
            .expect("inclusion phantom builds"),
            Source::Delta,
            Detector::new(10.0, 2.0),
        )
        .with_photons(10_000)
        .with_tasks(16)
        .with_seed(2006)
    }

    #[test]
    fn v7_bytes_are_pinned() {
        // The byte oracle for the format itself: a layered and a voxel
        // scenario with every option set, and a tally with all six
        // attachments. A codec refactor must leave these digests alone; a
        // deliberate layout change bumps `VERSION` and re-pins them.
        use lumen_core::sha256;
        let layered = every_option_scenario();
        let mut voxel = Scenario { tissue: voxel_scenario().tissue, ..layered.clone() };
        voxel.options.boundary_mode = BoundaryMode::Probabilistic;
        voxel.options.archive = Some(RecordOptions { detected_only: true });
        for (scenario, digest) in [
            (&layered, "947ffb7be77a6009631cc5ebfe1d94acf460a56e2dabefe2a270033d95e2a1c2"),
            (&voxel, "802ff6769bb79eb94eed8551f9bf58376a4f0de0d541e97050e3052b31299964"),
        ] {
            let bytes = encode_scenario(scenario);
            assert_eq!(sha256::hex(&bytes), digest);
            assert_eq!(encode_scenario(&decode_scenario(&bytes).unwrap()), bytes);
        }
        let bytes = encode_tally(&full_tally().with_archive(sample_archive()));
        assert_eq!(
            sha256::hex(&bytes),
            "b1d1e444634fcfbcf60151b4fd11a7d9f96edfce4614cf08d596976f77273260"
        );
        assert_eq!(encode_tally(&decode_tally(&bytes).unwrap()), bytes);
    }

    #[test]
    fn voxel_scenario_round_trip() {
        let s = voxel_scenario();
        let decoded = decode_scenario(&encode_scenario(&s)).unwrap();
        assert_eq!(decoded, s);
        assert!(decoded.validate().is_ok());
        // The voxel payload really is in there: grid + palette survive.
        let grid = decoded.tissue.as_voxel().expect("voxel geometry");
        assert_eq!(grid.materials().len(), 6);
        assert_eq!(grid.dims(), (6, 6, 12));
    }

    #[test]
    fn voxel_scenario_rejects_truncation_and_trailing_bytes() {
        let bytes = encode_scenario(&voxel_scenario());
        // Cut in the header, the palette, the cells, and the tail.
        for cut in [3, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_scenario(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_scenario(&padded), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_voxel_dimensions_fail_before_allocation() {
        // A ~100-byte message claiming a 2^20³-cell grid must die on the
        // length check, not in the allocator.
        let mut e = Encoder::new();
        e.put_u8(1); // geometry tag: voxel
        e.put_f64(1.0); // ambient
        e.put_u64(1 << 20);
        e.put_u64(1 << 20);
        e.put_u64(1 << 20);
        let bytes = e.finish();
        match decode_scenario(&bytes) {
            Err(WireError::BadLength(_)) | Err(WireError::Truncated) => {}
            other => panic!("expected BadLength/Truncated, got {other:?}"),
        }
        // Overflowing u64 entirely is also caught.
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_f64(1.0);
        e.put_u64(u64::MAX);
        e.put_u64(u64::MAX);
        e.put_u64(2);
        let bytes = e.finish();
        assert!(matches!(decode_scenario(&bytes), Err(WireError::BadLength(_))));
    }

    #[test]
    fn hostile_voxel_cells_are_revalidated() {
        // Corrupt one cell to point past the palette: decode must fail
        // through VoxelTissue::new validation, not panic later.
        let s = voxel_scenario();
        let bytes = encode_scenario(&s);
        // Cells are the last geometry bytes before the source tag; flip the
        // final cell (little-endian u16) to a huge palette index by
        // re-encoding the prefix to find its offset.
        let mut e = Encoder::new();
        put_geometry(&mut e, &s.tissue);
        let geom_end = e.finish().len();
        let mut poisoned = bytes.clone();
        poisoned[geom_end - 2] = 0xFF;
        poisoned[geom_end - 1] = 0xFF;
        assert!(matches!(decode_scenario(&poisoned), Err(WireError::Invalid(_))));
    }

    #[test]
    fn bad_geometry_tag_is_rejected() {
        let mut e = Encoder::new();
        e.put_u8(9); // no such geometry kind
        let bytes = e.finish();
        assert!(matches!(decode_scenario(&bytes), Err(WireError::Invalid(_))));
    }

    #[test]
    fn scenario_rejects_bad_enum_tags() {
        use lumen_tissue::presets::semi_infinite_phantom;
        let s = Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Uniform { radius: 1.0 },
            Detector::new(2.0, 0.5),
        );
        let bytes = encode_scenario(&s);
        // The source tag sits right after the geometry block; find it by
        // re-encoding with a poisoned tag instead of hunting offsets.
        let mut e = Encoder::new();
        put_geometry(&mut e, &s.tissue);
        let tag_pos = e.finish().len();
        let mut poisoned = bytes.clone();
        poisoned[tag_pos] = 0xEE;
        assert!(matches!(decode_scenario(&poisoned), Err(WireError::Invalid(_))));
    }

    proptest! {
        #[test]
        fn scenario_round_trips_across_phantoms(
            mu_a in 0.001f64..2.0,
            mu_s in 0.5f64..50.0,
            g in -0.9f64..0.95,
            n in 1.0f64..1.6,
            photons in 1u64..10_000_000,
            tasks in 1u64..256,
            seed in any::<u64>(),
        ) {
            use lumen_tissue::presets::semi_infinite_phantom;
            let s = Scenario::new(
                semi_infinite_phantom(mu_a, mu_s, g, n),
                Source::Delta,
                Detector::new(3.0, 1.0),
            )
            .with_photons(photons)
            .with_tasks(tasks)
            .with_seed(seed);
            prop_assert_eq!(decode_scenario(&encode_scenario(&s)).unwrap(), s);
        }
    }

    proptest! {
        #[test]
        fn task_round_trips(id in any::<u64>(), photons in any::<u64>()) {
            let t = SimTask { task_id: id, photons };
            prop_assert_eq!(decode_task(&encode_task(&t)).unwrap(), t);
        }

        #[test]
        fn tally_round_trips(
            launched in 0u64..1_000_000,
            detected in 0u64..1000,
            weights in proptest::collection::vec(0.0f64..100.0, 1..6)
        ) {
            let mut t = Tally::new(weights.len(), None, None);
            t.launched = launched;
            t.detected = detected;
            t.absorbed_by_layer = weights.clone();
            t.detected_reached_layer = vec![0; weights.len()];
            let decoded = decode_tally(&encode_tally(&t)).unwrap();
            prop_assert_eq!(decoded, t);
        }
    }

    /// Sixty cells from raw draws: `mode` 0 leaves every cell zero, 1 fills
    /// one in eight, 2 fills all, 3 alternates; a filled cell takes one of
    /// the bit patterns a lossy codec would mangle, never all-zero bits.
    fn cells_from(mode: u8, raw: &[u64]) -> Vec<f64> {
        raw.iter()
            .enumerate()
            .map(|(i, &r)| {
                let filled = match mode % 4 {
                    0 => false,
                    1 => r % 8 == 0,
                    2 => true,
                    _ => i % 2 == 0,
                };
                let bits = match (r >> 3) % 5 {
                    _ if !filled => 0,
                    0 => (-0.0f64).to_bits(),
                    1 => (r >> 12) | 1,                         // subnormal
                    2 => 0x7ff0_0000_0000_0000 | (r >> 12) | 1, // NaN, any payload
                    3 => r | 1,                                 // any bits at all
                    _ => 1.5f64.to_bits(),
                };
                f64::from_bits(bits)
            })
            .collect()
    }

    fn bits(cells: &[f64]) -> Vec<u64> {
        cells.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn dense_attachments_round_trip_bit_for_bit_and_re_encode_identically(
            modes in any::<[u8; 4]>(),
            raw in proptest::collection::vec(any::<u64>(), 240),
            overflow in any::<u64>(),
        ) {
            let cells: Vec<Vec<f64>> =
                (0..4).map(|k| cells_from(modes[k], &raw[60 * k..60 * (k + 1)])).collect();
            let spec = GridSpec {
                nx: 3, ny: 4, nz: 5, min: Vec3::new(-1.0, -1.0, 0.0), max: Vec3::new(1.0, 1.0, 2.0),
            };
            let overflow = f64::from_bits(overflow);
            let mut t = Tally::new(1, None, None);
            t.path_grid = Some(VisitGrid::from_data(spec, cells[0].clone()).unwrap());
            t.absorption_grid = Some(VisitGrid::from_data(spec, cells[1].clone()).unwrap());
            let radial = RadialSpec { nr: 60, r_max: 3.0 };
            t.reflectance_r =
                Some(RadialProfile::from_weights(radial, cells[2].clone(), overflow).unwrap());
            let radial = RadialSpec { nr: 6, r_max: 2.0 };
            t.absorption_rz =
                Some(CylinderGrid::from_data(radial, 10, 6.0, cells[3].clone(), overflow).unwrap());

            let bytes = encode_tally(&t);
            let back = decode_tally(&bytes).unwrap();
            prop_assert_eq!(bits(back.path_grid.as_ref().unwrap().data()), bits(&cells[0]));
            prop_assert_eq!(bits(back.absorption_grid.as_ref().unwrap().data()), bits(&cells[1]));
            let profile = back.reflectance_r.as_ref().unwrap();
            prop_assert_eq!(bits(profile.weights()), bits(&cells[2]));
            prop_assert_eq!(profile.overflow.to_bits(), overflow.to_bits());
            let rz = back.absorption_rz.as_ref().unwrap();
            prop_assert_eq!(bits(rz.data()), bits(&cells[3]));
            prop_assert_eq!(rz.overflow.to_bits(), overflow.to_bits());
            prop_assert_eq!(encode_tally(&back), bytes);
        }

        #[test]
        fn sparse_array_round_trips_at_any_length(
            mode in any::<u8>(),
            raw in proptest::collection::vec(any::<u64>(), 1..200),
        ) {
            let cells = cells_from(mode, &raw);
            let mut e = Encoder::new();
            e.put_sparse_f64(&cells);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes).unwrap();
            let back = d.get_sparse_f64(Some(cells.len())).unwrap();
            prop_assert!(d.finish().is_ok());
            prop_assert_eq!(bits(&back), bits(&cells));
        }
    }
}
