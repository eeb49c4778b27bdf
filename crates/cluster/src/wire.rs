//! Binary wire format for the DataManager ⇄ client protocol.
//!
//! The original platform shipped Java-serialized objects over TCP sockets,
//! where one class definition is the format. In-process workers share the
//! DataManager behind a lock and need no serialization, but a multi-machine
//! deployment does — so the protocol's encoding substrate is implemented
//! here from scratch: a compact little-endian format with a magic header
//! and version byte, covering tasks, scenarios, path archives and full
//! tallies (including optional grids). No external serialization crate is
//! needed.
//!
//! Format: all integers little-endian; `u64` lengths prefix sequences;
//! `Option<T>` is a presence byte then the payload; a `bool` or presence
//! byte is `0` or `1` and nothing else, so every accepted message
//! re-encodes to itself; floats are IEEE-754 bit patterns. The dense `f64`
//! storage of a tally's grids and profiles (a [`Cells`] store) is the one
//! exception to "length then elements": its cell count is already fixed by
//! the binning that precedes it, and it is written as zero-run-length runs
//! ([`Encoder::put_cells`]), so a tally costs what the task deposited
//! rather than what the grid could hold.
//!
//! # One description per type
//!
//! A type's layout is its [`Wire`] impl, and each type has exactly one,
//! which [`encode`] and [`decode`] are both written against:
//!
//! * a plain record is a `wire_record!` field list — its fields in wire
//!   order, each written and read by its own `Wire` impl — and a record
//!   with a validity rule names it (`checked by OpticalProperties::validate`),
//!   so a value decoded anywhere is refused exactly as its owner refuses it
//!   (a `RadialSpec`'s rule names the binning it serves, so its owners —
//!   `Scenario::validate` and the two radial tallies' constructors — check it);
//! * a fieldless enum is a `wire_tags!` list of tag bytes;
//! * a type whose decode has something to *check* — a cap before an
//!   allocation, a validating constructor, a cross-check between columns —
//!   has a hand-written `impl Wire` that makes the check.
//!
//! To change the format: edit the one list (or impl), bump [`VERSION`] and
//! add a row below, then re-pin `wire::tests::v7_bytes_are_pinned` and
//! `lumen_service::hash`'s `key_values_are_pinned` — every cache key
//! changes, by design, because the version byte is hashed with the
//! scenario.
//!
//! # Versions
//!
//! A connection opens with a version exchange (`crate::net`), so peers on
//! different rows never get as far as a payload.
//!
//! | v | change |
//! |---|--------|
//! | 7 | the dense `f64` storage of every tally attachment (path/absorption grids, A(r, z), R(r)) is zero-run-length runs, not one value per cell; scalar-only tallies, scenarios and archives are byte-for-byte v6 after the header |
//! | 6 | the engine `precision` tier byte, last in the simulation options: the fast tier is not bit-compatible with the exact tier, so the tier travels with the scenario and reaches the canonical scenario hash |
//! | 5 | the scenario `task_offset` field (RNG stream continuation, the basis of the service cache's top-up) and the query/reply frames spoken by `lumend` (`lumen_service`) |
//! | 4 | path archives: a tally may carry a [`PathArchive`], scenarios carry the archive `RecordOptions`, standalone archive messages ([`encode_archive`]) feed the `reweight` backend |
//! | 3 | `HELLO`/`PING` handshake frames: an older peer is rejected with a typed `VersionMismatch` instead of a mid-run decode error |
//! | 2 | the geometry-kind tag on scenarios (layered or voxel) |
//! | 1 | scenarios carry a bare layer stack |

use crate::protocol::SimTask;
use lumen_core::archive::{PathArchive, RecordOptions, CLASS_TRANSMITTED};
use lumen_core::engine::Scenario;
use lumen_core::radial::{CylinderGrid, RadialProfile, RadialSpec};
use lumen_core::tally::{Cells, GridSpec, PathHistogram, Tally, VisitGrid, MAX_TALLY_CELLS};
use lumen_core::{
    check, BoundaryMode, Detector, GateWindow, OpticalProperties, Precision, RouletteConfig, Rule,
    SimulationOptions, Source, Vec3,
};
use lumen_tissue::{Geometry, Layer, LayeredTissue, VoxelMaterial, VoxelTissue};

/// Magic bytes identifying a lumen wire message.
pub const MAGIC: [u8; 4] = *b"LMN1";
/// Wire format version (the [module](self#versions) keeps the table).
pub const VERSION: u8 = 7;

/// Encoding buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
    /// Bytes the dense layout (a count, then 8 bytes a cell) of every
    /// touched store [`Encoder::put_cells`] wrote so far would have taken
    /// beyond the runs written — what [`tally_held_len`] adds to the buffer
    /// length.
    dense_extra: isize,
}

impl Encoder {
    /// Fresh encoder with the magic header.
    pub fn new() -> Self {
        let mut e = Self { buf: Vec::with_capacity(64), dense_extra: 0 };
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

    /// A cell store as zero-run-length runs: `u64` zero cells skipped,
    /// `u64` literal count, the literals — repeated until every cell is
    /// covered (the reader knows the cell count from the binning, so none
    /// is written). A cell is zero iff `to_bits() == 0`, which keeps
    /// `-0.0`, subnormals and NaN payloads as literals: the encoding is
    /// bit-lossless. Runs are maximal, so the cells have exactly one
    /// encoding: 16 bytes over the raw cells when none is zero, 16 bytes
    /// in all when every one is — which is all an untouched store costs,
    /// written without looking at a cell.
    pub fn put_cells(&mut self, cells: &Cells) {
        let Some(cells) = cells.touched() else {
            if !cells.is_empty() {
                self.put_u64(cells.len() as u64);
                self.put_u64(0);
            }
            return;
        };
        let start = self.buf.len();
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
        self.dense_extra += (8 + 8 * cells.len()) as isize - (self.buf.len() - start) as isize;
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

    /// Read a store of `cells` cells written by [`Encoder::put_cells`],
    /// straight into the store that becomes the grid's storage. `cells` is
    /// the checked product of the decoded binning (`None` when it
    /// overflowed). A sparse payload says nothing about how large its grid
    /// is, so the count is held to [`MAX_TALLY_CELLS`] before the store can
    /// allocate — which it does only at the first literal: all-zero cells
    /// decode untouched, at no cost in the cell count. Only the canonical
    /// encoding is accepted — every run but the first skips at least one
    /// zero, every run but the last carries at least one literal, no
    /// literal has all-zero bits — so re-encoding the result reproduces the
    /// input bytes.
    pub fn get_cells(&mut self, cells: Option<usize>) -> Result<Cells, WireError> {
        let n = match cells {
            Some(n) if n <= MAX_TALLY_CELLS => n,
            other => return Err(WireError::BadLength(other.map_or(u64::MAX, |n| n as u64))),
        };
        let mut store = Cells::new(n);
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
            if raw.chunks_exact(8).any(|bytes| bytes == [0; 8]) {
                return Err(WireError::Invalid("zero literal in a sparse array".into()));
            }
            store.write(pos, raw.chunks_exact(8).map(f64_from_le));
            pos += literals as usize;
        }
        Ok(store)
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

// --- One description per type ---------------------------------------------

/// A type with a wire layout: `put` appends it to a message, `get` reads it
/// back and makes every check the type needs before a value leaves the
/// decoder. The two are written side by side so a layout is stated once.
pub trait Wire: Sized {
    /// Append this value.
    fn put(&self, e: &mut Encoder);
    /// Read one value.
    fn get(d: &mut Decoder) -> Result<Self, WireError>;
}

/// A whole message: header, `value`.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    value.put(&mut e);
    e.finish()
}

/// A whole message read back: header, one `T`, nothing after it.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Decoder::new(bytes)?;
    let value = T::get(&mut d)?;
    d.finish()?;
    Ok(value)
}

/// `Wire` by an existing [`Encoder`]/[`Decoder`] method pair (`*` where the
/// encoder method takes the value rather than a slice of it).
macro_rules! wire_by_methods {
    ($($ty:ty => $put:ident($($deref:tt)?) / $get:ident),+ $(,)?) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Encoder) {
                e.$put($($deref)? self);
            }
            #[inline]
            fn get(d: &mut Decoder) -> Result<Self, WireError> {
                d.$get()
            }
        }
    )+};
}

wire_by_methods! {
    u8 => put_u8(*) / get_u8,
    u32 => put_u32(*) / get_u32,
    u64 => put_u64(*) / get_u64,
    f64 => put_f64(*) / get_f64,
    String => put_str() / get_str,
    Vec<u8> => put_bytes() / get_bytes,
    Vec<u32> => put_u32_slice() / get_u32_vec,
    Vec<u64> => put_u64_slice() / get_u64_vec,
    Vec<f64> => put_f64_slice() / get_f64_vec,
}

impl Wire for usize {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put_u64(*self as u64);
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let n = d.get_u64()?;
        usize::try_from(n).map_err(|_| WireError::BadLength(n))
    }
}

/// One byte, `0` or `1`: anything else would decode to a value that
/// re-encodes to different bytes.
impl Wire for bool {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put_u8(u8::from(*self));
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            byte => Err(bad_flag(byte)),
        }
    }
}

#[cold]
fn bad_flag(byte: u8) -> WireError {
    WireError::Invalid(format!("flag byte must be 0 or 1, got {byte}"))
}

#[cold]
fn unknown_tag(what: &str, tag: u8) -> WireError {
    WireError::Invalid(format!("unknown {what} tag {tag}"))
}

/// A presence flag, then the payload if there is one.
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        // The flag is matched here, not read through `bool::get`: branching
        // on a `Result<bool>` cost a scalar tally's six absent attachments
        // 30 ns of its 125 ns decode.
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            byte => Err(bad_flag(byte)),
        }
    }
}

/// A tuple is its members in order.
macro_rules! wire_tuple {
    ($($member:ident . $at:tt),+) => {
        impl<$($member: Wire),+> Wire for ($($member,)+) {
            #[inline]
            fn put(&self, e: &mut Encoder) {
                $(self.$at.put(e);)+
            }
            #[inline]
            fn get(d: &mut Decoder) -> Result<Self, WireError> {
                Ok(($($member::get(d)?,)+))
            }
        }
    };
}
wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

/// A record whose layout is its fields in the order listed, each by its own
/// [`Wire`] impl. A struct expression evaluates its fields in the order
/// written, so `get` reads every field straight into place. A type with a
/// validity rule names it after `checked by`, and a decoded value that
/// breaks it is `Invalid` wherever the record appears — inside a scenario,
/// an archive or a tally alike.
macro_rules! wire_record {
    ($ty:ty { $($field:ident),+ $(,)? } $(checked by $check:path)?) => {
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Encoder) {
                $(self.$field.put(e);)+
            }
            #[inline]
            fn get(d: &mut Decoder) -> Result<Self, WireError> {
                let value = Self { $($field: Wire::get(d)?),+ };
                $($check(&value).map_err(invalid)?;)?
                Ok(value)
            }
        }
    };
}

/// A fieldless enum as one tag byte; an unlisted tag is `Invalid`, naming
/// `$what`.
macro_rules! wire_tags {
    ($ty:ident, $what:literal { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Encoder) {
                e.put_u8(match self {
                    $($ty::$variant => $tag,)+
                });
            }
            #[inline]
            fn get(d: &mut Decoder) -> Result<Self, WireError> {
                match d.get_u8()? {
                    $($tag => Ok($ty::$variant),)+
                    tag => Err(unknown_tag($what, tag)),
                }
            }
        }
    };
}

/// A counted run of records: the count, then each.
fn put_seq<T: Wire>(e: &mut Encoder, items: &[T]) {
    e.put_u64(items.len() as u64);
    items.iter().for_each(|item| item.put(e));
}

/// Read a [`put_seq`] run. `min_bytes` is the least one record can occupy,
/// which holds the count (and the allocation it sizes) to the bytes that
/// remain.
fn get_seq<T: Wire>(d: &mut Decoder, min_bytes: usize) -> Result<Vec<T>, WireError> {
    let n = d.get_u64()?;
    let n = d.checked_len(n, min_bytes)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::get(d)?);
    }
    Ok(items)
}

/// A value the owning crate's constructor or validator refuses.
fn invalid(e: impl std::fmt::Display) -> WireError {
    WireError::Invalid(e.to_string())
}

wire_record!(SimTask { task_id, photons });
wire_record!(Vec3 { x, y, z });
wire_record!(OpticalProperties { mu_a, mu_s, g, n } checked by OpticalProperties::validate);
wire_record!(GridSpec { nx, ny, nz, min, max } checked by GridSpec::validate);
wire_record!(RadialSpec { nr, r_max });
wire_record!(GateWindow { min_mm, max_mm } checked by GateWindow::validate);
wire_record!(
    Detector { separation, radius, ring, min_exit_cos, gate } checked by Detector::validate
);
wire_record!(RouletteConfig { threshold, survival } checked by RouletteConfig::validate);
wire_record!(RecordOptions { detected_only });
wire_record!(Layer { name, z_top, z_bottom, optics } checked by Layer::validate);
wire_record!(VoxelMaterial { name, optics });
wire_tags!(BoundaryMode, "boundary mode" { Probabilistic = 0, Classical = 1 });
wire_tags!(Precision, "precision tier" { Exact = 0, Fast = 1 });

// Counts, weights, per-layer sums and path/depth moments, then the six
// optional attachments.
wire_record!(Tally {
    launched,
    detected,
    reflected,
    transmitted,
    roulette_killed,
    fully_absorbed,
    expired,
    gate_rejected,
    na_rejected,
    specular_weight,
    detected_weight,
    reflected_weight,
    transmitted_weight,
    absorbed_by_layer,
    detected_path_sum,
    detected_path_sq_sum,
    detected_weight_path_sum,
    detected_depth_sum,
    detected_depth_max,
    detected_reached_layer,
    detected_partial_path,
    detected_scatter_sum,
    path_grid,
    absorption_grid,
    path_histogram,
    reflectance_r,
    absorption_rz,
    archive,
});

// --- Tally attachments ------------------------------------------------------
//
// Each is its binning, then its storage, and decodes through the core
// constructor that validates both: a binning the constructor refuses (empty,
// degenerate, non-finite) is `Invalid`, never a panic.

impl Wire for VisitGrid {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        self.spec.put(e);
        e.put_cells(self.cells());
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let spec = GridSpec::get(d)?;
        VisitGrid::from_cells(spec, d.get_cells(spec.checked_len())?).map_err(invalid)
    }
}

impl Wire for RadialProfile {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        self.spec.put(e);
        e.put_cells(self.cells());
        e.put_f64(self.overflow);
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let spec = RadialSpec::get(d)?;
        let cells = d.get_cells(Some(spec.nr))?;
        RadialProfile::from_cells(spec, cells, d.get_f64()?).map_err(invalid)
    }
}

impl Wire for PathHistogram {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put_f64(self.max_mm);
        e.put_u64_slice(&self.counts);
        e.put_u64(self.overflow);
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let max_mm = d.get_f64()?;
        let counts = d.get_u64_vec()?;
        PathHistogram::from_counts(max_mm, counts, d.get_u64()?).map_err(invalid)
    }
}

impl Wire for CylinderGrid {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        self.radial.put(e);
        self.nz.put(e);
        e.put_f64(self.z_max);
        e.put_cells(self.cells());
        e.put_f64(self.overflow);
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let radial = RadialSpec::get(d)?;
        let nz = usize::get(d)?;
        let z_max = d.get_f64()?;
        let cells = d.get_cells(radial.nr.checked_mul(nz))?;
        CylinderGrid::from_cells(radial, nz, z_max, cells, d.get_f64()?).map_err(invalid)
    }
}

/// Encode a task assignment.
pub fn encode_task(task: &SimTask) -> Vec<u8> {
    encode(task)
}

/// Decode a task assignment.
pub fn decode_task(bytes: &[u8]) -> Result<SimTask, WireError> {
    decode(bytes)
}

/// Encode a complete tally, grids and all — what a worker returns over
/// the network.
pub fn encode_tally(t: &Tally) -> Vec<u8> {
    encode(t)
}

/// Decode a complete tally.
pub fn decode_tally(bytes: &[u8]) -> Result<Tally, WireError> {
    decode(bytes)
}

/// Bytes a holder of `t` should charge for it: its encoded length, except
/// that every *touched* cell store (one holding storage) counts as a count
/// and 8 bytes a cell — the v6 dense layout — because that is what it
/// occupies in memory however few of its cells are non-zero. An untouched
/// store holds nothing beyond its binning and is charged its 16 encoded
/// bytes, and a tally without grids or profiles is charged exactly
/// [`encode_tally`]'s length. It is derived from the one layout there is:
/// the tally is encoded, and the encoder has counted what each touched
/// store's runs saved.
pub fn tally_held_len(t: &Tally) -> usize {
    let mut e = Encoder::new();
    t.put(&mut e);
    (e.buf.len() as isize + e.dense_extra) as usize
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
/// hostile header the same way [`MAX_TALLY_CELLS`] bounds tally stores.
pub const MAX_ARCHIVE_REGIONS: u64 = 1 << 12;

impl Wire for PathArchive {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        self.regions.put(e);
        self.detected_only.put(e);
        // One per region: `regions` is their count.
        self.base.iter().for_each(|o| o.put(e));
        self.launched.put(e);
        self.specular_weight.put(e);
        self.class.put(e);
        self.task.put(e);
        self.exit_weight.put(e);
        self.exit_radius.put(e);
        self.pathlength.put(e);
        self.max_depth.put(e);
        self.scatters.put(e);
        self.partial_path.put(e);
        self.collisions.put(e);
        self.reached.put(e);
    }

    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let regions = d.get_u64()?;
        if regions == 0 || regions > MAX_ARCHIVE_REGIONS {
            return Err(WireError::BadLength(regions));
        }
        let regions = regions as usize;
        // Read in wire order straight into place (every column's allocation is
        // bounded by the bytes that remain), then cross-check before it leaves.
        let a = PathArchive {
            regions,
            detected_only: Wire::get(d)?,
            base: (0..regions).map(|_| Wire::get(d)).collect::<Result<_, _>>()?,
            launched: Wire::get(d)?,
            specular_weight: Wire::get(d)?,
            class: Wire::get(d)?,
            task: Wire::get(d)?,
            exit_weight: Wire::get(d)?,
            exit_radius: Wire::get(d)?,
            pathlength: Wire::get(d)?,
            max_depth: Wire::get(d)?,
            scatters: Wire::get(d)?,
            partial_path: Wire::get(d)?,
            collisions: Wire::get(d)?,
            reached: Wire::get(d)?,
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
            (&[a.specular_weight][..], "archive specular weight"),
            (&a.exit_weight, "archive exit weight"),
            (&a.exit_radius, "archive exit radius"),
            (&a.pathlength, "archive pathlength"),
            (&a.max_depth, "archive max depth"),
            (&a.partial_path, "archive partial path"),
        ] {
            vs.iter().try_for_each(|&v| check(what, v, Rule::NonNegative)).map_err(invalid)?;
        }
        Ok(a)
    }
}

/// Encode a standalone path archive — the on-disk format behind the
/// `reweight <archive-file>` backend spec and the CLI's `archive` key.
pub fn encode_archive(a: &PathArchive) -> Vec<u8> {
    encode(a)
}

/// Decode a standalone path archive, rejecting truncated, desynchronised,
/// out-of-range, or non-finite payloads with typed errors and without
/// unbounded allocation.
pub fn decode_archive(bytes: &[u8]) -> Result<PathArchive, WireError> {
    decode(bytes)
}

// --- Scenario encoding ---------------------------------------------------
//
// The experiment definition itself. The original platform shipped Java
// bytecode to the clients; encoding the full `Scenario` is our equivalent:
// a server can hand a connecting client everything it needs instead of
// relying on the out-of-band "same scenario, same seed" contract.
// Construction re-validates every geometry, so a hostile peer cannot
// smuggle an inconsistent stack or grid past the type system.

impl Wire for LayeredTissue {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put_f64(self.ambient_n);
        put_seq(e, self.layers());
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let ambient_n = d.get_f64()?;
        // A layer costs at least its fixed-size fields on the wire.
        let layers = get_seq(d, 8 * 6)?;
        LayeredTissue::new(layers, ambient_n).map_err(invalid)
    }
}

impl Wire for VoxelTissue {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put_f64(self.ambient_n);
        self.dims().put(e);
        self.origin().put(e);
        self.voxel_mm().put(e);
        put_seq(e, self.materials());
        // Cells in bulk, straight into the encoder buffer: one reserve, no
        // intermediate copy, no 2^26 bounds-checked calls.
        e.buf.reserve(self.cells().len() * 2);
        for &c in self.cells() {
            e.buf.extend_from_slice(&c.to_le_bytes());
        }
    }

    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let ambient_n = d.get_f64()?;
        // Cells are 2 bytes each on the wire: a hostile dimension triple that
        // cannot fit the remaining bytes (or the VoxelTissue cell cap) dies
        // here, before any allocation.
        let dims = <(usize, usize, usize)>::get(d)?;
        let n_cells = lumen_tissue::voxel::checked_cell_count(dims.0, dims.1, dims.2)
            .ok_or(WireError::BadLength(u64::MAX))?;
        let n_cells = d.checked_len(n_cells as u64, 2)?;
        let origin = Wire::get(d)?;
        let voxel_mm = Wire::get(d)?;
        // A material costs at least its name-length prefix plus four floats.
        let materials = get_seq(d, 8 * 5)?;
        // Bulk-decode the cell block: `checked_len` already proved the bytes
        // are present, so one take + chunked conversion replaces 2^26
        // per-element bounds checks on large grids. The loop is written out
        // because `collect()` compiled to an out-of-line `from_iter` with a
        // run-time chunk size here (7.2 µs against 5.2 µs for 6,400 cells).
        let raw = d.take(n_cells * 2)?;
        let mut cells = vec![0u16; n_cells];
        for (cell, b) in cells.iter_mut().zip(raw.chunks_exact(2)) {
            *cell = u16::from_le_bytes([b[0], b[1]]);
        }
        VoxelTissue::new(dims, origin, voxel_mm, materials, cells, ambient_n).map_err(invalid)
    }
}

/// A kind tag, then the kind-specific body.
impl Wire for Geometry {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        match self {
            Geometry::Layered(t) => {
                e.put_u8(0);
                t.put(e);
            }
            Geometry::Voxel(t) => {
                e.put_u8(1);
                t.put(e);
            }
        }
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Geometry::Layered(Wire::get(d)?)),
            1 => Ok(Geometry::Voxel(Wire::get(d)?)),
            tag => Err(unknown_tag("geometry", tag)),
        }
    }
}

/// A kind tag, then the radius of the kinds that have one.
impl Wire for Source {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        match *self {
            Source::Delta => e.put_u8(0),
            Source::Gaussian { radius } => (1u8, radius).put(e),
            Source::Uniform { radius } => (2u8, radius).put(e),
        }
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Source::Delta),
            1 => Ok(Source::Gaussian { radius: d.get_f64()? }),
            2 => Ok(Source::Uniform { radius: d.get_f64()? }),
            tag => Err(unknown_tag("source", tag)),
        }
    }
}

impl Wire for SimulationOptions {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        self.boundary_mode.put(e);
        self.roulette.put(e);
        e.put_u64(self.max_interactions as u64);
        self.path_grid.put(e);
        self.absorption_grid.put(e);
        self.path_histogram.put(e);
        self.reflectance_profile.put(e);
        self.absorption_rz.put(e);
        self.record_paths.put(e);
        self.archive.put(e);
        // v6: precision tier. Appended last so the options layout stays a
        // strict prefix of every earlier version's.
        self.precision.put(e);
    }

    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        Ok(SimulationOptions {
            boundary_mode: Wire::get(d)?,
            roulette: Wire::get(d)?,
            max_interactions: u32::try_from(d.get_u64()?)
                .map_err(|_| WireError::Invalid("max_interactions exceeds u32".into()))?,
            // The tally specs are bare binnings, held to the cell cap by
            // `Scenario::validate` before anything is sized from them.
            path_grid: Wire::get(d)?,
            absorption_grid: Wire::get(d)?,
            path_histogram: Wire::get(d)?,
            reflectance_profile: Wire::get(d)?,
            absorption_rz: Wire::get(d)?,
            record_paths: Wire::get(d)?,
            archive: Wire::get(d)?,
            precision: Wire::get(d)?,
        })
    }
}

/// The one scenario writer: `s` with its three *execution* fields as given.
#[inline]
fn scenario_as(e: &mut Encoder, s: &Scenario, photons: u64, tasks: u64, task_offset: u64) {
    s.tissue.put(e);
    s.source.put(e);
    s.detector.put(e);
    s.options.put(e);
    e.put_u64(photons);
    e.put_u64(tasks);
    e.put_u64(s.seed);
    e.put_u64(task_offset);
}

impl Wire for Scenario {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        scenario_as(e, self, self.photons, self.tasks, self.task_offset);
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let scenario = Scenario {
            tissue: Wire::get(d)?,
            source: Wire::get(d)?,
            detector: Wire::get(d)?,
            options: Wire::get(d)?,
            photons: Wire::get(d)?,
            tasks: Wire::get(d)?,
            seed: Wire::get(d)?,
            task_offset: Wire::get(d)?,
        };
        scenario.validate().map_err(invalid)?;
        Ok(scenario)
    }
}

/// Encode a full experiment definition — geometry, source, detector,
/// options, photon budget, task split, and seed.
pub fn encode_scenario(s: &Scenario) -> Vec<u8> {
    encode(s)
}

/// [`encode_scenario`] of `s` with its three *execution* fields written
/// as `photons = 0`, `tasks = 1`, `task_offset = 0`: the bytes the
/// service hashes into a cache key, produced from the borrowed scenario
/// (a voxel geometry is thousands of cells; cloning it to zero three
/// integers would cost more than encoding it).
pub fn encode_scenario_normalized(s: &Scenario) -> Vec<u8> {
    let mut e = Encoder::new();
    scenario_as(&mut e, s, 0, 1, 0);
    e.finish()
}

/// Decode a [`Scenario`]. Geometry is re-validated on decode, so a hostile
/// peer cannot smuggle an inconsistent layer stack past the type system.
pub fn decode_scenario(bytes: &[u8]) -> Result<Scenario, WireError> {
    decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What every framed message owes its reader, whatever it carries: the
    /// value back, the same bytes from re-encoding it, an error for every
    /// strict prefix, for one byte too many, for a neighbouring version and
    /// for a wrong magic.
    fn assert_framed<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = encode(value);
        let back: T = decode(&bytes).expect("round trip");
        assert_eq!(&back, value);
        assert_eq!(encode(&back), bytes);
        for cut in 0..bytes.len() {
            assert!(decode::<T>(&bytes[..cut]).is_err(), "{cut}-byte prefix of {value:?}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode::<T>(&long), Err(WireError::TrailingBytes(1)));
        for (at, byte) in [(4, VERSION - 1), (4, VERSION + 1), (0, b'X')] {
            let mut bad = bytes.clone();
            bad[at] = byte;
            assert_eq!(decode::<T>(&bad), Err(WireError::BadHeader));
        }
    }

    #[test]
    fn every_message_kind_is_framed() {
        assert_framed(&SimTask { task_id: 42, photons: 1_000_000 });
        assert_framed(&scalar_tally());
        assert_framed(&Tally::new(1, None, None));
        assert_framed(&full_tally());
        assert_framed(&full_tally().with_archive(sample_archive()));
        assert_framed(&sample_archive());
        for precision in [Precision::Exact, Precision::Fast] {
            let mut plain = plain_scenario().with_photons(123_456).with_tasks(17).with_seed(99);
            plain.options.precision = precision;
            assert_framed(&plain);
        }
        assert_framed(&every_option_scenario());
        assert_framed(&archiving(every_option_scenario()));
        assert_framed(&voxel_scenario());
    }

    /// A tally without attachments, its scalars and per-layer sums set.
    fn scalar_tally() -> Tally {
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
        t
    }

    /// The scalar head of a one-layer tally message, for a test to append
    /// hand-written attachments to.
    fn scalar_head() -> Encoder {
        let mut e = Encoder::new();
        Tally::new(1, None, None).put(&mut e);
        e.buf.truncate(e.buf.len() - 6); // the six absent-attachment bytes
        e
    }

    /// `s` recording a path archive (which classical boundaries exclude).
    fn archiving(mut s: Scenario) -> Scenario {
        s.options.boundary_mode = BoundaryMode::Probabilistic;
        s.options.archive = Some(RecordOptions { detected_only: true });
        s
    }

    #[test]
    fn flag_bytes_are_zero_or_one() {
        // A `bool` and an `Option` presence byte, each found as the first
        // byte that moves when its field is switched on. Read leniently,
        // a `2` there would decode and re-encode as `1`.
        let plain = plain_scenario();
        let mut ring = plain.clone();
        ring.detector.ring = true;
        let mut aperture = plain.clone();
        aperture.detector.min_exit_cos = Some(0.5);
        for switched in [ring, aperture] {
            let (off, mut on) = (encode(&plain), encode(&switched));
            let at = off.iter().zip(&on).position(|(a, b)| a != b).expect("one byte moves");
            assert_eq!((off[at], on[at]), (0, 1));
            on[at] = 2;
            match decode::<Scenario>(&on) {
                Err(WireError::Invalid(reason)) => assert!(reason.contains("flag"), "{reason}"),
                other => panic!("expected Invalid, got {other:?}"),
            }
        }
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
            o.put(&mut e);
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
        // The recording run's base optics: a NaN `mu_a` that decoded would
        // make every reweighting ratio NaN.
        for (mu_a, g) in [(f64::NAN, 0.9), (-1.0, 0.9), (0.05, 2.0)] {
            let mut a = sample_archive();
            a.base[0].mu_a = mu_a;
            a.base[0].g = g;
            assert!(
                matches!(decode_archive(&encode_archive(&a)), Err(WireError::Invalid(_))),
                "base mu_a {mu_a}, g {g} must be rejected"
            );
        }
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
    fn scalar_tally_keeps_its_v6_length() {
        // 5 header bytes, 19 fixed words, three per-layer sequences (count
        // + one word a layer), six absent-attachment bytes: what v6 wrote
        // for the five-layer adult head (`cluster.wire.tally_bytes.scalar`).
        let t = Tally::new(5, None, None);
        assert_eq!(5 + 19 * 8 + 3 * (8 + 5 * 8) + 6, 307);
        assert_eq!(encode_tally(&t).len(), 307);
        assert_eq!(tally_held_len(&t), 307);
    }

    #[test]
    fn sparse_array_costs_sixteen_bytes_empty_and_sixteen_over_dense() {
        let len = |cells: &[f64]| {
            let mut e = Encoder::new();
            e.put_cells(&cells.to_vec().into());
            e.finish().len() - 5
        };
        assert_eq!(len(&[0.0; 1000]), 16);
        assert_eq!(len(&[1.0; 1000]), 16 + 8 * 1000);
        // zeros, a literal run, trailing zeros: two run headers.
        let mut cells = [0.0; 1000];
        cells[10..13].copy_from_slice(&[1.0, -0.0, f64::NAN]);
        assert_eq!(len(&cells), 2 * 16 + 3 * 8);
        // An untouched store is the all-zero encoding, to the byte.
        let mut e = Encoder::new();
        e.put_cells(&Cells::new(1000));
        assert_eq!(e.finish().len() - 5, 16);
        // The paper's 50^3 grid with nothing in it: ~100 bytes of tally
        // attachment, not a megabyte.
        let spec = GridSpec::cubic(50, Vec3::new(-6.0, -6.0, 0.0), Vec3::new(12.0, 6.0, 9.0));
        let untouched = Tally::new(1, Some(spec), None);
        let without = encode_tally(&Tally::new(1, None, None)).len();
        assert_eq!(encode_tally(&untouched).len() - without, 9 * 8 + 16);
        // Untouched, it holds nothing but its binning and is charged its
        // encoding; touched (a deposit and its exact undo leave every cell
        // zero), its resident footprint is what v6 shipped for it.
        assert_eq!(tally_held_len(&untouched), encode_tally(&untouched).len());
        let mut touched = untouched.clone();
        let grid = touched.path_grid.as_mut().unwrap();
        grid.deposit(spec.centre_of(0), 1.0);
        grid.deposit(spec.centre_of(0), -1.0);
        assert!(grid.cells().is_touched() && touched == untouched);
        assert_eq!(encode_tally(&touched), encode_tally(&untouched));
        assert_eq!(tally_held_len(&touched), 1_000_291);
    }

    #[test]
    fn dense_length_is_the_encoded_length_with_every_cell_written_out() {
        // No dense f64 attachment: equal to the byte, archive and
        // histogram included.
        let mut t = Tally::new(2, None, None).with_archive(sample_archive());
        t = t.with_path_histogram(100.0, 8);
        assert_eq!(tally_held_len(&t), encode_tally(&t).len());
        // Every cell of all four dense attachments a literal: one 16-byte
        // run header each where the dense layout has an 8-byte count.
        let full = full_tally();
        let ones = |n: usize| Cells::from(vec![1.0; n]);
        let mut t = full.clone();
        let spec = full.path_grid.as_ref().unwrap().spec;
        t.path_grid = Some(VisitGrid::from_cells(spec, ones(125)).unwrap());
        t.absorption_grid = t.path_grid.clone();
        let radial = full.reflectance_r.as_ref().unwrap().spec;
        t.reflectance_r = Some(RadialProfile::from_cells(radial, ones(6), 0.0).unwrap());
        let rz = full.absorption_rz.as_ref().unwrap();
        t.absorption_rz =
            Some(CylinderGrid::from_cells(rz.radial, rz.nz, rz.z_max, ones(12), 0.0).unwrap());
        assert_eq!(tally_held_len(&t) + 4 * 8, encode_tally(&t).len());
        // And the footprint does not depend on what the cells hold.
        assert_eq!(tally_held_len(&t), tally_held_len(&full));
    }

    /// Decode `n` cells from hand-written runs.
    fn sparse_from(n: Option<usize>, runs: impl FnOnce(&mut Encoder)) -> Result<Cells, WireError> {
        let mut e = Encoder::new();
        runs(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes)?;
        let cells = d.get_cells(n)?;
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
        let over = MAX_TALLY_CELLS as u64 + 1;
        let claim = |n| sparse_from(n, |e| run(e, over, &[]));
        assert_eq!(claim(Some(over as usize)), Err(WireError::BadLength(over)));
        assert_eq!(claim(None), Err(WireError::BadLength(u64::MAX)));
        // The cap itself is a legal (if large) grid: 16 bytes in, an
        // untouched store out — no allocation at all.
        let at_cap = sparse_from(Some(MAX_TALLY_CELLS), |e| run(e, MAX_TALLY_CELLS as u64, &[]));
        let at_cap = at_cap.unwrap();
        assert_eq!((at_cap.len(), at_cap.is_touched()), (MAX_TALLY_CELLS, false));
    }

    #[test]
    fn hostile_tally_cannot_claim_a_huge_grid_in_a_few_hundred_bytes() {
        // Every dense attachment, claimed at one cell over the cap (or at
        // a product that overflows) and "covered" by a single zero run.
        // A grid spec breaks `GridSpec::validate`'s cap as it decodes; a
        // radial binning is held to the cap by `get_cells`.
        let over = MAX_TALLY_CELLS as u64 + 1;
        let grid_cap = |e: &WireError| matches!(e, WireError::Invalid(m) if m.starts_with("grid voxels exceed"));
        let bad_length = |e: &WireError| matches!(e, WireError::BadLength(_));
        // `absent` attachments, then one whose binning claims `cells`.
        let claim = |absent: usize,
                     cells: u64,
                     refused: &dyn Fn(&WireError) -> bool,
                     binning: &dyn Fn(&mut Encoder)| {
            let mut e = scalar_head();
            (0..absent).for_each(|_| e.put_u8(0));
            e.put_u8(1);
            binning(&mut e);
            run(&mut e, cells, &[]);
            let bytes = e.finish();
            assert!(bytes.len() < 300, "{} bytes", bytes.len());
            let got = decode_tally(&bytes);
            assert!(got.as_ref().is_err_and(refused), "attachment {absent}: {got:?}");
        };
        let (min, max) = (Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        claim(0, over, &grid_cap, &|e| {
            GridSpec { nx: over as usize, ny: 1, nz: 1, min, max }.put(e)
        });
        claim(1, over, &grid_cap, &|e| {
            GridSpec { nx: 1, ny: over as usize, nz: 1, min, max }.put(e)
        });
        claim(3, over, &bad_length, &|e| {
            e.put_u64(over); // radial bins
            e.put_f64(1.0);
        });
        claim(4, 1 << 40, &bad_length, &|e| {
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
        let invalid = |got: Result<Cells, WireError>| matches!(got, Err(WireError::Invalid(_)));
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
        assert_eq!(sparse_from(n, |e| run(e, 6, &[])), Ok(Cells::new(6)));
        assert_eq!(sparse_from(n, |e| run(e, 0, &[1.0; 6])), Ok(vec![1.0; 6].into()));
        let cells = sparse_from(n, |e| run(e, 5, &[-0.0])).unwrap();
        assert_eq!(cells.get(5).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn hostile_binning_is_an_error_not_a_panic() {
        // Binnings the core constructors assert on: each must come back as
        // a typed error from the validated `from_cells` path.
        let spec = GridSpec::cubic(2, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        let degenerate = GridSpec { max: Vec3::ZERO, ..spec };
        let not_a_number = GridSpec { min: Vec3::new(f64::NAN, 0.0, 0.0), ..spec };
        for bad in [GridSpec { nx: 0, ..spec }, degenerate, not_a_number] {
            let mut e = scalar_head();
            e.put_u8(1);
            bad.put(&mut e);
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
            let mut e = scalar_head();
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
                .with_numerical_aperture(0.5, 1.0)
                .unwrap(),
        )
        .with_options(options)
        .with_photons(1_000_000)
        .with_tasks(64)
        .with_seed(2006)
        .with_task_offset(192)
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
        // A single layer `[0, NaN)` or `[0, -5)` that decoded would run,
        // and report every photon reflected.
        let s = plain_scenario();
        let optics = OpticalProperties::new(0.1, 10.0, 0.0, 1.0);
        for z_bottom in [f64::NAN, -5.0] {
            let layer = Layer { name: "slab".into(), z_top: 0.0, z_bottom, optics };
            let bytes = scenario_with_layers(&s, 1.0, &[layer]);
            match decode_scenario(&bytes) {
                Err(WireError::Invalid(reason)) => assert!(reason.contains("slab"), "{reason}"),
                other => panic!("[0, {z_bottom}) must not decode, got {other:?}"),
            }
        }
    }

    /// `s` encoded with its geometry written by `tissue` instead — how a
    /// test ships a geometry its constructor refuses.
    fn scenario_with_tissue(s: &Scenario, tissue: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut e = Encoder::new();
        tissue(&mut e);
        s.source.put(&mut e);
        s.detector.put(&mut e);
        s.options.put(&mut e);
        for v in [s.photons, s.tasks, s.seed, s.task_offset] {
            e.put_u64(v);
        }
        e.finish()
    }

    /// `s` with a layer stack written field by field.
    fn scenario_with_layers(s: &Scenario, ambient_n: f64, layers: &[Layer]) -> Vec<u8> {
        scenario_with_tissue(s, |e| {
            e.put_u8(0);
            e.put_f64(ambient_n);
            put_seq(e, layers);
        })
    }

    #[test]
    fn nan_gate_edges_do_not_decode() {
        for (min_mm, max_mm) in [(f64::NAN, 50.0), (0.0, f64::NAN)] {
            let mut s = plain_scenario();
            s.detector.gate = GateWindow { min_mm, max_mm }; // encodes fine, must not decode
            assert!(s.validate().is_err());
            match decode_scenario(&encode_scenario(&s)) {
                Err(WireError::Invalid(reason)) => assert!(reason.contains("gate"), "{reason}"),
                other => panic!("expected Invalid, got {other:?}"),
            }
        }
    }

    /// The probes every field meets: NaN, ±∞, −0.0, the smallest
    /// subnormal, and each bound with its neighbour one ulp either side.
    fn probes(bounds: &[f64]) -> Vec<f64> {
        let mut probes = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324];
        for &b in bounds {
            probes.extend([b.next_down(), b, b.next_up()]);
        }
        probes
    }

    /// `(the owner accepts, the decoder accepts)` for a field of
    /// [`every_option_scenario`] set by `set`. The owner is
    /// `Scenario::validate`.
    fn via_scenario(set: impl FnOnce(&mut Scenario)) -> (bool, bool) {
        let mut s = every_option_scenario();
        set(&mut s);
        (s.validate().is_ok(), decode_scenario(&encode_scenario(&s)).is_ok())
    }

    /// The same for a field of a two-layer stack `[0, 2.5)`, `[2.5, ∞)` or
    /// its ambient index. The owner is `LayeredTissue::new`, then
    /// `Scenario::validate`; the decoder gets the fields as they are.
    fn via_layers(set: impl FnOnce(&mut [Layer], &mut f64)) -> (bool, bool) {
        let optics = OpticalProperties::new(0.02, 12.0, 0.9, 1.4);
        let layer =
            |name: &str, z_top, z_bottom| Layer { name: name.into(), z_top, z_bottom, optics };
        let mut layers = [layer("top", 0.0, 2.5), layer("bottom", 2.5, f64::INFINITY)];
        let mut ambient_n = 1.0;
        set(&mut layers, &mut ambient_n);
        let s = every_option_scenario();
        let bytes = scenario_with_layers(&s, ambient_n, &layers);
        let built = LayeredTissue::new(layers.to_vec(), ambient_n)
            .map(|t| Scenario { tissue: t.into(), ..s });
        if let Ok(built) = &built {
            assert_eq!(encode_scenario(built), bytes, "the hand-written stack is the real layout");
        }
        (built.is_ok_and(|s| s.validate().is_ok()), decode_scenario(&bytes).is_ok())
    }

    /// The fields `VoxelTissue::new` takes besides its shape and cells.
    struct VoxelParts {
        origin: (f64, f64),
        pitch: (f64, f64, f64),
        material: OpticalProperties,
        ambient_n: f64,
    }

    /// The same for a field of a 2×2×2 one-material voxel grid. The owner
    /// is `VoxelTissue::new`, then `Scenario::validate`.
    fn via_voxels(set: impl FnOnce(&mut VoxelParts)) -> (bool, bool) {
        let mut p = VoxelParts {
            origin: (-1.25, -0.75),
            pitch: (0.5, 0.625, 0.75),
            material: OpticalProperties::new(0.02, 12.0, 0.9, 1.4),
            ambient_n: 1.0,
        };
        set(&mut p);
        let materials = [VoxelMaterial::new("bulk", p.material)];
        let s = every_option_scenario();
        let bytes = scenario_with_tissue(&s, |e| {
            e.put_u8(1);
            e.put_f64(p.ambient_n);
            (2usize, 2usize, 2usize).put(e);
            p.origin.put(e);
            p.pitch.put(e);
            put_seq(e, &materials);
            e.buf.extend_from_slice(&[0; 16]);
        });
        let grid = VoxelTissue::new(
            (2, 2, 2),
            p.origin,
            p.pitch,
            materials.to_vec(),
            vec![0; 8],
            p.ambient_n,
        );
        let built = grid.map(|t| Scenario { tissue: t.into(), ..s });
        if let Ok(built) = &built {
            assert_eq!(encode_scenario(built), bytes, "the hand-written grid is the real layout");
        }
        (built.is_ok_and(|s| s.validate().is_ok()), decode_scenario(&bytes).is_ok())
    }

    /// The same for the base optics of [`sample_archive`]; the owner is
    /// `OpticalProperties::validate`.
    fn via_archive(set: impl FnOnce(&mut OpticalProperties)) -> (bool, bool) {
        let mut a = sample_archive();
        set(&mut a.base[0]);
        (a.base[0].validate().is_ok(), decode_archive(&encode_archive(&a)).is_ok())
    }

    /// The same for an attachment of [`full_tally`]: `set` writes the field
    /// and answers whether the attachment's own constructor accepts it.
    fn via_tally(set: impl FnOnce(&mut Tally) -> bool) -> (bool, bool) {
        let mut t = full_tally();
        let owner = set(&mut t);
        (owner, decode_tally(&encode_tally(&t)).is_ok())
    }

    /// Every `f64` field a decoder can reach, with the rule that governs it
    /// (the field's [`Rule`](lumen_core::Rule), or the two-field rule of its
    /// owner with the other field at its base value). For each probe, the
    /// owner and the decoder must both agree with the rule.
    #[test]
    fn every_decodable_field_is_refused_exactly_as_its_owner_refuses_it() {
        use lumen_core::Rule::*;
        type Row = (&'static str, &'static [f64], fn(f64) -> bool, fn(f64) -> (bool, bool));
        #[rustfmt::skip]
        let rows: &[Row] = &[
            // A layer's optics and extents, and the stack's ambient index.
            ("layer mu_a", &[0.0], |v| NonNegative.accepts(v), |v| via_layers(|l, _| l[0].optics.mu_a = v)),
            ("layer mu_s", &[0.0], |v| NonNegative.accepts(v), |v| via_layers(|l, _| l[0].optics.mu_s = v)),
            ("layer g", &[-1.0, 1.0], |v| Anisotropy.accepts(v), |v| via_layers(|l, _| l[0].optics.g = v)),
            ("layer n", &[1.0], |v| Index.accepts(v), |v| via_layers(|l, _| l[1].optics.n = v)),
            ("first z_top", &[0.0], |v| v == 0.0, |v| via_layers(|l, _| l[0].z_top = v)),
            ("next z_top", &[2.5], |v| NonNegative.accepts(v) && (v - 2.5).abs() <= 1e-9, |v| via_layers(|l, _| l[1].z_top = v)),
            ("last z_bottom", &[2.5], |v| v > 2.5, |v| via_layers(|l, _| l[1].z_bottom = v)),
            ("layered ambient_n", &[1.0], |v| Index.accepts(v), |v| via_layers(|_, n| *n = v)),
            // A voxel material, pitch, origin and ambient index.
            ("material mu_a", &[0.0], |v| NonNegative.accepts(v), |v| via_voxels(|p| p.material.mu_a = v)),
            ("material mu_s", &[0.0], |v| NonNegative.accepts(v), |v| via_voxels(|p| p.material.mu_s = v)),
            ("material g", &[-1.0, 1.0], |v| Anisotropy.accepts(v), |v| via_voxels(|p| p.material.g = v)),
            ("material n", &[1.0], |v| Index.accepts(v), |v| via_voxels(|p| p.material.n = v)),
            ("voxel dx", &[0.0], |v| Positive.accepts(v), |v| via_voxels(|p| p.pitch.0 = v)),
            ("voxel dy", &[0.0], |v| Positive.accepts(v), |v| via_voxels(|p| p.pitch.1 = v)),
            ("voxel dz", &[0.0], |v| Positive.accepts(v), |v| via_voxels(|p| p.pitch.2 = v)),
            ("origin x0", &[], |v| Finite.accepts(v), |v| via_voxels(|p| p.origin.0 = v)),
            ("origin y0", &[], |v| Finite.accepts(v), |v| via_voxels(|p| p.origin.1 = v)),
            ("voxel ambient_n", &[1.0], |v| Index.accepts(v), |v| via_voxels(|p| p.ambient_n = v)),
            // The detector, its gate (10, 900), the source and roulette.
            ("detector separation", &[0.0], |v| NonNegative.accepts(v), |v| via_scenario(|s| s.detector.separation = v)),
            ("detector radius", &[0.0], |v| Positive.accepts(v), |v| via_scenario(|s| s.detector.radius = v)),
            ("min_exit_cos", &[0.0, 1.0], |v| Cosine.accepts(v), |v| via_scenario(|s| s.detector.min_exit_cos = Some(v))),
            ("gate min_mm", &[0.0, 900.0], |v| NonNegative.accepts(v) && v < 900.0, |v| via_scenario(|s| s.detector.gate.min_mm = v)),
            ("gate max_mm", &[10.0], |v| v > 10.0, |v| via_scenario(|s| s.detector.gate.max_mm = v)),
            ("gaussian radius", &[0.0], |v| Positive.accepts(v), |v| via_scenario(|s| s.source = Source::Gaussian { radius: v })),
            ("uniform radius", &[0.0], |v| Positive.accepts(v), |v| via_scenario(|s| s.source = Source::Uniform { radius: v })),
            ("roulette threshold", &[0.0, 1.0], |v| OpenUnit.accepts(v), |v| via_scenario(|s| s.options.roulette.threshold = v)),
            ("roulette survival", &[0.0, 1.0], |v| Probability.accepts(v), |v| via_scenario(|s| s.options.roulette.survival = v)),
            // Tally specs in the options; path_grid spans (-3, -3, 0)..(9, 3, 9).
            ("reflectance r_max", &[0.0], |v| Positive.accepts(v), |v| via_scenario(|s| s.options.reflectance_profile.as_mut().unwrap().r_max = v)),
            ("absorption_rz r_max", &[0.0], |v| Positive.accepts(v), |v| via_scenario(|s| s.options.absorption_rz.as_mut().unwrap().0.r_max = v)),
            ("absorption_rz z_max", &[0.0], |v| Positive.accepts(v), |v| via_scenario(|s| s.options.absorption_rz.as_mut().unwrap().2 = v)),
            ("path_histogram max_mm", &[0.0], |v| Positive.accepts(v), |v| via_scenario(|s| s.options.path_histogram.as_mut().unwrap().0 = v)),
            ("path_grid min.x", &[9.0], |v| v < 9.0, |v| via_scenario(|s| s.options.path_grid.as_mut().unwrap().min.x = v)),
            ("path_grid min.y", &[3.0], |v| v < 3.0, |v| via_scenario(|s| s.options.path_grid.as_mut().unwrap().min.y = v)),
            ("path_grid min.z", &[9.0], |v| v < 9.0, |v| via_scenario(|s| s.options.path_grid.as_mut().unwrap().min.z = v)),
            ("path_grid max.x", &[-3.0], |v| v > -3.0, |v| via_scenario(|s| s.options.path_grid.as_mut().unwrap().max.x = v)),
            ("path_grid max.y", &[-3.0], |v| v > -3.0, |v| via_scenario(|s| s.options.path_grid.as_mut().unwrap().max.y = v)),
            ("path_grid max.z", &[0.0], |v| v > 0.0, |v| via_scenario(|s| s.options.path_grid.as_mut().unwrap().max.z = v)),
            ("absorption_grid max.z", &[0.0], |v| v > 0.0, |v| via_scenario(|s| s.options.absorption_grid.as_mut().unwrap().max.z = v)),
            // An archive's base optics, outside any scenario.
            ("archive base mu_a", &[0.0], |v| NonNegative.accepts(v), |v| via_archive(|o| o.mu_a = v)),
            ("archive base mu_s", &[0.0], |v| NonNegative.accepts(v), |v| via_archive(|o| o.mu_s = v)),
            ("archive base g", &[-1.0, 1.0], |v| Anisotropy.accepts(v), |v| via_archive(|o| o.g = v)),
            ("archive base n", &[1.0], |v| Index.accepts(v), |v| via_archive(|o| o.n = v)),
            // Tally attachments; the grids span (-1, -1, 0)..(1, 1, 2).
            ("histogram max_mm", &[0.0], |v| Positive.accepts(v), |v| via_tally(|t| {
                let h = t.path_histogram.as_mut().unwrap();
                h.max_mm = v;
                PathHistogram::from_counts(v, h.counts.clone(), h.overflow).is_ok()
            })),
            ("profile r_max", &[0.0], |v| Positive.accepts(v), |v| via_tally(|t| {
                let p = t.reflectance_r.as_mut().unwrap();
                p.spec.r_max = v;
                RadialProfile::from_cells(p.spec, p.cells().clone(), p.overflow).is_ok()
            })),
            ("cylinder r_max", &[0.0], |v| Positive.accepts(v), |v| via_tally(|t| {
                let g = t.absorption_rz.as_mut().unwrap();
                g.radial.r_max = v;
                CylinderGrid::from_cells(g.radial, g.nz, g.z_max, g.cells().clone(), g.overflow).is_ok()
            })),
            ("cylinder z_max", &[0.0], |v| Positive.accepts(v), |v| via_tally(|t| {
                let g = t.absorption_rz.as_mut().unwrap();
                g.z_max = v;
                CylinderGrid::from_cells(g.radial, g.nz, g.z_max, g.cells().clone(), g.overflow).is_ok()
            })),
            ("visit grid min.x", &[1.0], |v| v < 1.0, |v| via_tally(|t| {
                let g = t.path_grid.as_mut().unwrap();
                g.spec.min.x = v;
                VisitGrid::from_cells(g.spec, g.cells().clone()).is_ok()
            })),
            ("visit grid max.z", &[0.0], |v| v > 0.0, |v| via_tally(|t| {
                let g = t.absorption_grid.as_mut().unwrap();
                g.spec.max.z = v;
                VisitGrid::from_cells(g.spec, g.cells().clone()).is_ok()
            })),
        ];
        let mut disagreements = Vec::new();
        for &(field, bounds, rule, outcome) in rows {
            for v in probes(bounds) {
                let (owner, decoder) = outcome(v);
                if (owner, decoder) != (rule(v), rule(v)) {
                    disagreements.push(format!(
                        "{field} = {v:e}: rule {}, owner {owner}, decoder {decoder}",
                        rule(v)
                    ));
                }
            }
        }
        assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
    }

    #[test]
    fn scenario_rejects_oversized_tally_specs() {
        use lumen_core::radial::RadialSpec;
        use lumen_tissue::presets::semi_infinite_phantom;
        // A tiny message must not be able to request a gigantic tally: a
        // 2_000_000^3-voxel grid or a u64::MAX-bin histogram would abort
        // the process on allocation when the scenario is run. Each is
        // refused by the tally cell cap that `Scenario::validate` applies.
        let over_cap = |s: &Scenario, what: &str| match decode_scenario(&encode_scenario(s)) {
            Err(WireError::Invalid(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected Invalid, got {other:?}"),
        };
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
        over_cap(&huge_grid, "grid voxels exceed");
        let mut huge_hist = base.clone();
        huge_hist.options.path_histogram = Some((100.0, u32::MAX as usize));
        over_cap(&huge_hist, "path_histogram bins exceed");
        let mut huge_rz = base;
        huge_rz.options.absorption_rz =
            Some((RadialSpec { nr: 1 << 20, r_max: 4.0 }, 1 << 20, 32.0));
        over_cap(&huge_rz, "absorption_rz cells exceed");
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
        s.tissue.put(&mut e);
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
        s.tissue.put(&mut e);
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
            t.path_grid = Some(VisitGrid::from_cells(spec, cells[0].clone().into()).unwrap());
            t.absorption_grid = Some(VisitGrid::from_cells(spec, cells[1].clone().into()).unwrap());
            let radial = RadialSpec { nr: 60, r_max: 3.0 };
            t.reflectance_r =
                Some(RadialProfile::from_cells(radial, cells[2].clone().into(), overflow).unwrap());
            let radial = RadialSpec { nr: 6, r_max: 2.0 };
            t.absorption_rz =
                Some(CylinderGrid::from_cells(radial, 10, 6.0, cells[3].clone().into(), overflow).unwrap());

            let bytes = encode_tally(&t);
            let back = decode_tally(&bytes).unwrap();
            prop_assert_eq!(bits(&back.path_grid.as_ref().unwrap().cells().to_vec()), bits(&cells[0]));
            prop_assert_eq!(bits(&back.absorption_grid.as_ref().unwrap().cells().to_vec()), bits(&cells[1]));
            let profile = back.reflectance_r.as_ref().unwrap();
            prop_assert_eq!(bits(&profile.cells().to_vec()), bits(&cells[2]));
            prop_assert_eq!(profile.overflow.to_bits(), overflow.to_bits());
            let rz = back.absorption_rz.as_ref().unwrap();
            prop_assert_eq!(bits(&rz.cells().to_vec()), bits(&cells[3]));
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
            e.put_cells(&cells.clone().into());
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes).unwrap();
            let back = d.get_cells(Some(cells.len())).unwrap();
            prop_assert!(d.finish().is_ok());
            prop_assert_eq!(bits(&back.to_vec()), bits(&cells));
            // All-zero cells decode untouched.
            prop_assert_eq!(back.is_touched(), cells.iter().any(|v| v.to_bits() != 0));
        }
    }

    /// Change one byte of `sample`'s encoding (flip a bit, add one, zero it
    /// or replace it). Most mutants are refused; one the decoder accepts
    /// must be exactly what its value re-encodes to.
    fn one_byte_mutant_is_refused_or_canonical<T: Wire>(
        sample: &T,
        (at, how, random): (usize, u8, u8),
    ) -> Result<(), String> {
        let mut bytes = encode(sample);
        let at = at % bytes.len();
        bytes[at] = match how % 4 {
            0 => bytes[at] ^ (1 << (random % 8)),
            1 => bytes[at].wrapping_add(1),
            2 => 0,
            _ => random,
        };
        match decode::<T>(&bytes) {
            Ok(value) if encode(&value) != bytes => Err(format!(
                "byte {at} set to {} is accepted and re-encodes differently",
                bytes[at]
            )),
            _ => Ok(()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn every_accepted_message_is_the_canonical_one(
            mutation in (any::<usize>(), any::<u8>(), any::<u8>()),
        ) {
            // The three samples `v7_bytes_are_pinned` pins. Were a mutant
            // accepted under a second spelling, two byte strings would name
            // one value and nothing keyed on received bytes could be trusted.
            let layered = every_option_scenario();
            let voxel = Scenario { tissue: voxel_scenario().tissue, ..archiving(layered.clone()) };
            let tally = full_tally().with_archive(sample_archive());
            prop_assert_eq!(one_byte_mutant_is_refused_or_canonical(&layered, mutation), Ok(()));
            prop_assert_eq!(one_byte_mutant_is_refused_or_canonical(&voxel, mutation), Ok(()));
            prop_assert_eq!(one_byte_mutant_is_refused_or_canonical(&tally, mutation), Ok(()));
        }
    }
}
