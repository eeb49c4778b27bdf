//! Minimal `key = value` experiment-configuration format and parser.
//!
//! No external parser crates: the format is lines of `key = value`, with
//! `#` comments and blank lines ignored. Keys are case-sensitive. This is
//! the file a user writes to describe an experiment:
//!
//! ```text
//! # NIRS sweep on the adult head
//! tissue    = adult_head
//! source    = gaussian 1.5
//! detector  = ring 30 2
//! gate      = 0 1000
//! na        = 0.5
//! photons   = 200000
//! seed      = 42
//! tasks     = 64
//! path_grid = 50 40
//! backend   = rayon
//! ```
//!
//! The file maps 1:1 onto a `lumen_core::engine::Scenario` plus a backend
//! spec; unknown keys are named errors, not silent no-ops.

use lumen_core::{
    Detector, GateWindow, Geometry, GridSpec, OpticalProperties, Precision, RecordOptions,
    Scenario, Simulation, SimulationOptions, Source, Vec3, VoxelTissue,
};
use lumen_tissue::presets::{
    adult_head, homogeneous_white_matter, neonatal_head, semi_infinite_phantom, voxelized,
    AdultHeadConfig,
};
use std::collections::BTreeMap;

/// Every key the format understands; anything else is a named error
/// rather than a silent no-op (a typo like `photon = 1e6` used to be
/// ignored and run the default budget).
pub const KNOWN_KEYS: &[&str] = &[
    "tissue",
    "geometry",
    "source",
    "detector",
    "gate",
    "na",
    "path_grid",
    "path_histogram",
    "photons",
    "seed",
    "tasks",
    "backend",
    "archive_record",
    "precision",
];

/// A parsed configuration file: ordered key → value map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    entries: BTreeMap<String, String>,
}

/// Parse or semantic errors with enough context to fix the file.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Line had no `=` separator.
    BadLine { line_no: usize, text: String },
    /// Same key twice.
    DuplicateKey { line_no: usize, key: String },
    /// A key the format does not know.
    UnknownKey { line_no: usize, key: String },
    /// Key required but absent.
    Missing(&'static str),
    /// Value failed to parse.
    BadValue { key: String, value: String, expected: &'static str },
    /// The values parse but describe a configuration the engine refuses;
    /// the engine's error names the field and its rule.
    Invalid(lumen_core::ConfigError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadLine { line_no, text } => {
                write!(f, "line {line_no}: expected `key = value`, got `{text}`")
            }
            ConfigError::DuplicateKey { line_no, key } => {
                write!(f, "line {line_no}: duplicate key `{key}`")
            }
            ConfigError::UnknownKey { line_no, key } => {
                write!(
                    f,
                    "line {line_no}: unknown key `{key}` (known keys: {})",
                    KNOWN_KEYS.join(", ")
                )
            }
            ConfigError::Missing(key) => write!(f, "missing required key `{key}`"),
            ConfigError::BadValue { key, value, expected } => {
                write!(f, "key `{key}`: cannot parse `{value}` (expected {expected})")
            }
            ConfigError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    fn bad(key: &str, value: impl Into<String>, expected: &'static str) -> Self {
        ConfigError::BadValue { key: key.into(), value: value.into(), expected }
    }

    fn invalid(e: impl Into<lumen_core::ConfigError>) -> Self {
        ConfigError::Invalid(e.into())
    }
}

impl Config {
    /// Parse configuration text.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::BadLine { line_no, text: raw.trim().to_string() });
            };
            let key = key.trim().to_string();
            let value = value.trim().to_string();
            if !KNOWN_KEYS.contains(&key.as_str()) {
                return Err(ConfigError::UnknownKey { line_no, key });
            }
            if entries.contains_key(&key) {
                return Err(ConfigError::DuplicateKey { line_no, key });
            }
            entries.insert(key, value);
        }
        Ok(Self { entries })
    }

    /// Raw value lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|s| s.as_str())
    }

    fn parse_num<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ConfigError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| ConfigError::bad(key, v, expected)),
        }
    }

    /// Photon budget (required).
    pub fn photons(&self) -> Result<u64, ConfigError> {
        self.parse_num::<u64>("photons", "positive integer")?.ok_or(ConfigError::Missing("photons"))
    }

    /// Experiment seed (default 42).
    pub fn seed(&self) -> Result<u64, ConfigError> {
        Ok(self.parse_num::<u64>("seed", "integer")?.unwrap_or(42))
    }

    /// Task count for the parallel driver (default 64).
    pub fn tasks(&self) -> Result<u64, ConfigError> {
        Ok(self.parse_num::<u64>("tasks", "positive integer")?.unwrap_or(64))
    }

    /// Backend spec (default `rayon`): `sim [machines]` predicts the run
    /// through `lumen_cluster::des::predict`; anything else is resolved by
    /// `lumen_cluster::backend::from_spec` over the full vocabulary
    /// `sequential | rayon [threads] | cluster [workers] [failure_rate] |
    /// tcp <addr> [min_clients] [lease_timeout_s] | reweight <archive-file>`.
    pub fn backend(&self) -> &str {
        self.get("backend").unwrap_or("rayon")
    }

    /// The `archive_record` key: `<path> [detected_only]`. Turns on path
    /// archiving for the run and names the file the encoded archive is
    /// written to; that file is what `backend = reweight <path>` replays.
    pub fn archive_record(&self) -> Result<Option<(String, RecordOptions)>, ConfigError> {
        let Some(spec) = self.get("archive_record") else { return Ok(None) };
        let mut parts = spec.split_whitespace();
        let bad = |expected| ConfigError::bad("archive_record", spec, expected);
        let path = parts.next().ok_or_else(|| bad("`<path> [detected_only]`"))?;
        let detected_only = match parts.next() {
            None => false,
            Some("detected_only") => true,
            Some(_) => return Err(bad("`<path> [detected_only]`")),
        };
        if parts.next().is_some() {
            return Err(bad("`<path> [detected_only]`"));
        }
        Ok(Some((path.to_string(), RecordOptions { detected_only })))
    }

    /// The `precision` key: `exact` (default) or `fast`. Selects the
    /// transport kernel tier — `fast` runs the batched SoA kernel with
    /// polynomial approximations (see the engine's `Precision` docs for
    /// the reproducibility trade-off and the options it rejects).
    pub fn precision(&self) -> Result<Precision, ConfigError> {
        match self.get("precision") {
            None | Some("exact") => Ok(Precision::Exact),
            Some("fast") => Ok(Precision::Fast),
            Some(other) => Err(ConfigError::bad("precision", other, "`exact` or `fast`")),
        }
    }

    /// Build the full [`Scenario`] — the config format maps onto it 1:1.
    pub fn scenario(&self) -> Result<Scenario, ConfigError> {
        let sim = self.build_simulation()?;
        Ok(Scenario::from_simulation(&sim, self.photons()?, self.seed()?).with_tasks(self.tasks()?))
    }

    /// Build the full simulation this config describes.
    pub fn build_simulation(&self) -> Result<Simulation, ConfigError> {
        let tissue = self.geometry()?;
        let source = self.source()?;
        let detector = self.detector()?;
        let mut options = SimulationOptions::default();
        if let Some(spec) = self.path_grid(&detector)? {
            options.path_grid = Some(spec);
        }
        if let Some((max_mm, bins)) = self.path_histogram()? {
            options.path_histogram = Some((max_mm, bins));
        }
        if let Some((_, record)) = self.archive_record()? {
            options.archive = Some(record);
        }
        options.precision = self.precision()?;
        let sim = Simulation { tissue, source, detector, options };
        sim.validate().map_err(ConfigError::invalid)?;
        Ok(sim)
    }

    /// Resolve the `geometry` key (default `layered`):
    ///
    /// * `layered` — the `tissue` preset as-is;
    /// * `voxel <path>` — a voxel grid loaded from the text format written
    ///   by `VoxelTissue::to_text` (no `tissue` key needed);
    /// * `voxelized <dx> <half_width_mm> <depth_mm>` — the `tissue` preset
    ///   voxelized at pitch `dx` over the given extent.
    fn geometry(&self) -> Result<Geometry, ConfigError> {
        let spec = self.get("geometry").unwrap_or("layered");
        let mut parts = spec.split_whitespace();
        let kind = parts.next().unwrap_or("");
        match kind {
            "layered" => Ok(Geometry::Layered(self.tissue()?)),
            "voxel" => {
                let path = parts.next().ok_or(ConfigError::bad(
                    "geometry",
                    spec,
                    "`voxel <path-to-grid-file>`",
                ))?;
                let text = std::fs::read_to_string(path).map_err(|e| {
                    ConfigError::bad(
                        "geometry",
                        format!("{path}: {e}"),
                        "a readable voxel grid file",
                    )
                })?;
                let grid = VoxelTissue::parse_text(&text).map_err(ConfigError::invalid)?;
                Ok(Geometry::Voxel(grid))
            }
            "voxelized" => {
                let nums: Vec<f64> = parts.filter_map(|p| p.parse().ok()).collect();
                let [dx, half_width, depth] = nums.as_slice() else {
                    return Err(ConfigError::bad(
                        "geometry",
                        spec,
                        "`voxelized <dx> <half_width_mm> <depth_mm>`",
                    ));
                };
                let grid = voxelized(&self.tissue()?, *dx, *half_width, *depth)
                    .map_err(ConfigError::invalid)?;
                Ok(Geometry::Voxel(grid))
            }
            _ => Err(ConfigError::bad(
                "geometry",
                spec,
                "layered | voxel <path> | voxelized <dx> <half_width> <depth>",
            )),
        }
    }

    fn tissue(&self) -> Result<lumen_tissue::LayeredTissue, ConfigError> {
        let spec = self.get("tissue").ok_or(ConfigError::Missing("tissue"))?;
        let mut parts = spec.split_whitespace();
        let kind = parts.next().unwrap_or("");
        match kind {
            "adult_head" => Ok(adult_head(AdultHeadConfig::default())),
            "neonatal_head" => Ok(neonatal_head()),
            "white_matter" => Ok(homogeneous_white_matter()),
            "phantom" => {
                let nums: Vec<f64> = parts.filter_map(|p| p.parse().ok()).collect();
                if nums.len() != 4 {
                    return Err(ConfigError::bad(
                        "tissue",
                        spec,
                        "`phantom <mu_a> <mu_s> <g> <n>`",
                    ));
                }
                let optics =
                    OpticalProperties { mu_a: nums[0], mu_s: nums[1], g: nums[2], n: nums[3] };
                optics.validate().map_err(ConfigError::invalid)?;
                Ok(semi_infinite_phantom(optics.mu_a, optics.mu_s, optics.g, optics.n))
            }
            _ => Err(ConfigError::bad(
                "tissue",
                spec,
                "adult_head | neonatal_head | white_matter | phantom ...",
            )),
        }
    }

    fn source(&self) -> Result<Source, ConfigError> {
        let spec = self.get("source").unwrap_or("delta");
        let mut parts = spec.split_whitespace();
        let kind = parts.next().unwrap_or("");
        let radius = parts.next().and_then(|p| p.parse::<f64>().ok());
        match (kind, radius) {
            ("delta", None) => Ok(Source::Delta),
            ("gaussian", Some(radius)) => Ok(Source::Gaussian { radius }),
            ("uniform", Some(radius)) => Ok(Source::Uniform { radius }),
            _ => Err(ConfigError::bad(
                "source",
                spec,
                "delta | gaussian <radius> | uniform <radius>",
            )),
        }
    }

    fn detector(&self) -> Result<Detector, ConfigError> {
        let spec = self.get("detector").ok_or(ConfigError::Missing("detector"))?;
        let mut parts = spec.split_whitespace();
        let kind = parts.next().unwrap_or("");
        let nums: Vec<f64> = parts.filter_map(|p| p.parse().ok()).collect();
        let mut det = match (kind, nums.as_slice()) {
            ("disc", [sep, radius]) => Detector::new(*sep, *radius),
            ("ring", [sep, half]) => Detector::ring(*sep, *half),
            _ => {
                return Err(ConfigError::bad(
                    "detector",
                    spec,
                    "disc <separation> <radius> | ring <separation> <half_width>",
                ))
            }
        };
        if let Some(gate) = self.get("gate") {
            let nums: Vec<f64> = gate.split_whitespace().filter_map(|p| p.parse().ok()).collect();
            let window = match nums.as_slice() {
                [lo, hi] => GateWindow::new(*lo, *hi).map_err(ConfigError::invalid)?,
                _ => return Err(ConfigError::bad("gate", gate, "`<min_mm> <max_mm>`")),
            };
            det = det.with_gate(window);
        }
        if let Some(na) = self.parse_num::<f64>("na", "number in (0, 1]")? {
            det =
                det.with_numerical_aperture(na, 1.0).map_err(|e| ConfigError::Invalid(e.into()))?;
        }
        Ok(det)
    }

    fn path_grid(&self, detector: &Detector) -> Result<Option<GridSpec>, ConfigError> {
        let Some(spec) = self.get("path_grid") else { return Ok(None) };
        let nums: Vec<f64> = spec.split_whitespace().filter_map(|p| p.parse().ok()).collect();
        match nums.as_slice() {
            [granularity, depth] => {
                let margin = detector.separation.max(1.0);
                Ok(Some(GridSpec::cubic(
                    *granularity as usize,
                    Vec3::new(-margin, -margin, 0.0),
                    Vec3::new(detector.separation + margin, margin, *depth),
                )))
            }
            _ => Err(ConfigError::bad("path_grid", spec, "`<granularity> <depth_mm>`")),
        }
    }

    fn path_histogram(&self) -> Result<Option<(f64, usize)>, ConfigError> {
        let Some(spec) = self.get("path_histogram") else { return Ok(None) };
        let nums: Vec<f64> = spec.split_whitespace().filter_map(|p| p.parse().ok()).collect();
        match nums.as_slice() {
            [max_mm, bins] => Ok(Some((*max_mm, *bins as usize))),
            _ => Err(ConfigError::bad("path_histogram", spec, "`<max_mm> <bins>`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# a full experiment
tissue    = adult_head
source    = gaussian 1.5
detector  = ring 30 2
gate      = 0 1000
na        = 0.5
photons   = 1000
seed      = 7
tasks     = 8
path_grid = 20 30
path_histogram = 500 25
"#;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(FULL).unwrap();
        assert_eq!(cfg.photons().unwrap(), 1000);
        assert_eq!(cfg.seed().unwrap(), 7);
        assert_eq!(cfg.tasks().unwrap(), 8);
        let sim = cfg.build_simulation().unwrap();
        assert_eq!(sim.tissue.len(), 5);
        assert!(matches!(sim.source, Source::Gaussian { radius } if radius == 1.5));
        assert!(sim.detector.ring);
        assert!(sim.detector.min_exit_cos.is_some());
        assert!(sim.options.path_grid.is_some());
        assert_eq!(sim.options.path_histogram, Some((500.0, 25)));
    }

    #[test]
    fn minimal_config_with_defaults() {
        let cfg =
            Config::parse("tissue = white_matter\ndetector = disc 6 1\nphotons = 10").unwrap();
        let sim = cfg.build_simulation().unwrap();
        assert!(matches!(sim.source, Source::Delta));
        assert_eq!(cfg.seed().unwrap(), 42);
        assert!(sim.detector.gate.is_open());
    }

    #[test]
    fn phantom_tissue() {
        let cfg =
            Config::parse("tissue = phantom 0.1 10 0.9 1.4\ndetector = disc 2 1\nphotons = 1")
                .unwrap();
        let sim = cfg.build_simulation().unwrap();
        assert_eq!(sim.tissue.optics(0).mu_a, 0.1);
        assert_eq!(sim.tissue.optics(0).g, 0.9);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let cfg = Config::parse("# hi\n\n  tissue = white_matter # inline\n").unwrap();
        assert_eq!(cfg.get("tissue"), Some("white_matter"));
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            Config::parse("this is not a kv line"),
            Err(ConfigError::BadLine { line_no: 1, .. })
        ));
        assert!(matches!(
            Config::parse("seed = 1\nseed = 2"),
            Err(ConfigError::DuplicateKey { line_no: 2, .. })
        ));
        let cfg = Config::parse("tissue = white_matter\ndetector = disc 6 1").unwrap();
        assert_eq!(cfg.photons(), Err(ConfigError::Missing("photons")));
        let bad = Config::parse("tissue = jelly\ndetector = disc 6 1\nphotons = 1").unwrap();
        assert!(matches!(bad.build_simulation(), Err(ConfigError::BadValue { .. })));
        let bad_det =
            Config::parse("tissue = white_matter\ndetector = disc 6\nphotons = 1").unwrap();
        assert!(bad_det.build_simulation().is_err());
        let bad_gate =
            Config::parse("tissue = white_matter\ndetector = disc 6 1\ngate = 9 1\nphotons = 1")
                .unwrap();
        assert!(matches!(
            bad_gate.build_simulation(),
            Err(ConfigError::Invalid(lumen_core::ConfigError::BadGate { .. }))
        ));
    }

    #[test]
    fn engine_refusals_keep_their_type() {
        let field = |text: &str| match Config::parse(text).unwrap().build_simulation() {
            Err(ConfigError::Invalid(lumen_core::ConfigError::Field(e))) => e.field,
            other => panic!("expected a field error, got {other:?}"),
        };
        let base = "tissue = white_matter\nphotons = 1\n";
        assert_eq!(field(&format!("{base}detector = disc 6 1\nna = 0")), "na");
        assert_eq!(field(&format!("{base}detector = disc 6 1\nna = nan")), "na");
        assert_eq!(field(&format!("{base}detector = disc 6 0")), "detector radius");
        assert_eq!(field("tissue = phantom 0.1 10 2 1.4\ndetector = disc 6 1"), "g");
        let fast_grid = Config::parse(&format!(
            "{base}detector = disc 6 1\nprecision = fast\npath_grid = 10 10"
        ))
        .unwrap();
        let err = fast_grid.build_simulation().unwrap_err();
        assert!(matches!(err, ConfigError::Invalid(lumen_core::ConfigError::Unsupported(_))));
        assert!(err.to_string().starts_with("the fast precision tier"), "{err}");
    }

    #[test]
    fn bad_numeric_value() {
        let cfg = Config::parse("photons = many").unwrap();
        assert!(matches!(cfg.photons(), Err(ConfigError::BadValue { .. })));
    }

    #[test]
    fn unknown_keys_are_named_errors() {
        // A typo used to be silently ignored; now it names the line.
        match Config::parse("tissue = white_matter\nphoton = 100\n") {
            Err(ConfigError::UnknownKey { line_no, key }) => {
                assert_eq!(line_no, 2);
                assert_eq!(key, "photon");
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        let msg = ConfigError::UnknownKey { line_no: 2, key: "photon".into() }.to_string();
        assert!(msg.contains("known keys"), "{msg}");
    }

    #[test]
    fn geometry_defaults_to_layered() {
        let cfg =
            Config::parse("tissue = white_matter\ndetector = disc 6 1\nphotons = 10").unwrap();
        let sim = cfg.build_simulation().unwrap();
        assert_eq!(sim.tissue.kind(), "layered");
    }

    #[test]
    fn geometry_voxelized_converts_the_preset() {
        let cfg = Config::parse(
            "tissue = phantom 0.05 10 0.9 1.4\ngeometry = voxelized 1 5 4\n\
             detector = disc 2 1\nphotons = 10",
        )
        .unwrap();
        let sim = cfg.build_simulation().unwrap();
        assert_eq!(sim.tissue.kind(), "voxel");
        let grid = sim.tissue.as_voxel().unwrap();
        assert_eq!(grid.dims(), (10, 10, 4));
        assert_eq!(grid.materials().len(), 1);
    }

    #[test]
    fn geometry_voxel_loads_a_grid_file() {
        use lumen_tissue::{VoxelMaterial, VoxelTissue};
        let grid = VoxelTissue::from_fn(
            (4, 4, 3),
            (-2.0, -2.0),
            (1.0, 1.0, 1.0),
            vec![
                VoxelMaterial::new("A", lumen_core::OpticalProperties::new(0.01, 10.0, 0.9, 1.4)),
                VoxelMaterial::new("B", lumen_core::OpticalProperties::new(0.1, 10.0, 0.9, 1.4)),
            ],
            1.0,
            |c| u16::from(c.z > 1.0),
        )
        .unwrap();
        let dir = std::env::temp_dir().join("lumen_cli_geometry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.voxels");
        std::fs::write(&path, grid.to_text()).unwrap();
        let cfg = Config::parse(&format!(
            "geometry = voxel {}\ndetector = disc 2 1\nphotons = 10",
            path.display()
        ))
        .unwrap();
        let sim = cfg.build_simulation().unwrap();
        assert_eq!(sim.tissue.as_voxel(), Some(&grid));
        // The `tissue` key is not needed when a grid file is given.
        assert!(cfg.get("tissue").is_none());
    }

    #[test]
    fn geometry_errors_are_named() {
        let missing = Config::parse(
            "geometry = voxel /nonexistent/grid.voxels\ndetector = disc 2 1\nphotons = 10",
        )
        .unwrap();
        assert!(matches!(
            missing.build_simulation(),
            Err(ConfigError::BadValue { ref key, .. }) if key == "geometry"
        ));
        let unknown = Config::parse(
            "geometry = blob\ntissue = white_matter\ndetector = disc 2 1\nphotons = 10",
        )
        .unwrap();
        assert!(unknown.build_simulation().is_err());
        let bad_voxelized = Config::parse(
            "geometry = voxelized -1 5 4\ntissue = white_matter\ndetector = disc 2 1\nphotons = 10",
        )
        .unwrap();
        assert!(bad_voxelized.build_simulation().is_err());
    }

    #[test]
    fn backend_key_defaults_to_rayon() {
        let cfg =
            Config::parse("tissue = white_matter\ndetector = disc 6 1\nphotons = 10").unwrap();
        assert_eq!(cfg.backend(), "rayon");
        let cfg = Config::parse(
            "tissue = white_matter\ndetector = disc 6 1\nphotons = 10\nbackend = cluster 4",
        )
        .unwrap();
        assert_eq!(cfg.backend(), "cluster 4");
        // The elastic TCP knobs pass through verbatim for from_spec.
        let cfg = Config::parse(
            "tissue = white_matter\ndetector = disc 6 1\nphotons = 10\n\
             backend = tcp 127.0.0.1:7878 3 45",
        )
        .unwrap();
        assert_eq!(cfg.backend(), "tcp 127.0.0.1:7878 3 45");
    }

    #[test]
    fn archive_record_key_enables_recording() {
        let cfg = Config::parse(
            "tissue = white_matter\ndetector = disc 6 1\nphotons = 10\n\
             archive_record = /tmp/run.lmna",
        )
        .unwrap();
        assert_eq!(
            cfg.archive_record().unwrap(),
            Some(("/tmp/run.lmna".into(), RecordOptions { detected_only: false }))
        );
        let sim = cfg.build_simulation().unwrap();
        assert_eq!(sim.options.archive, Some(RecordOptions { detected_only: false }));

        let cfg = Config::parse(
            "tissue = white_matter\ndetector = disc 6 1\nphotons = 10\n\
             archive_record = /tmp/run.lmna detected_only",
        )
        .unwrap();
        assert_eq!(
            cfg.archive_record().unwrap(),
            Some(("/tmp/run.lmna".into(), RecordOptions { detected_only: true }))
        );

        let bad = Config::parse(
            "tissue = white_matter\ndetector = disc 6 1\nphotons = 10\n\
             archive_record = /tmp/run.lmna everything",
        )
        .unwrap();
        assert!(matches!(bad.archive_record(), Err(ConfigError::BadValue { .. })));

        let absent =
            Config::parse("tissue = white_matter\ndetector = disc 6 1\nphotons = 10").unwrap();
        assert_eq!(absent.archive_record().unwrap(), None);
        assert_eq!(absent.build_simulation().unwrap().options.archive, None);
    }

    #[test]
    fn precision_key_selects_the_tier() {
        let fast = Config::parse(
            "tissue = white_matter\ndetector = disc 6 1\nphotons = 10\nprecision = fast",
        )
        .unwrap();
        assert_eq!(fast.precision().unwrap(), Precision::Fast);
        assert_eq!(fast.build_simulation().unwrap().options.precision, Precision::Fast);

        let exact = Config::parse(
            "tissue = white_matter\ndetector = disc 6 1\nphotons = 10\nprecision = exact",
        )
        .unwrap();
        assert_eq!(exact.precision().unwrap(), Precision::Exact);

        let default =
            Config::parse("tissue = white_matter\ndetector = disc 6 1\nphotons = 10").unwrap();
        assert_eq!(default.build_simulation().unwrap().options.precision, Precision::Exact);

        let bad = Config::parse(
            "tissue = white_matter\ndetector = disc 6 1\nphotons = 10\nprecision = sloppy",
        )
        .unwrap();
        assert!(matches!(bad.precision(), Err(ConfigError::BadValue { .. })));
    }

    #[test]
    fn scenario_maps_one_to_one() {
        let cfg = Config::parse(FULL).unwrap();
        let scenario = cfg.scenario().unwrap();
        assert_eq!(scenario.photons, 1000);
        assert_eq!(scenario.seed, 7);
        assert_eq!(scenario.tasks, 8);
        assert_eq!(scenario.tissue.len(), 5);
        assert!(scenario.options.path_grid.is_some());
        assert!(scenario.validate().is_ok());
        // The scenario and the legacy simulation agree field-for-field.
        let sim = cfg.build_simulation().unwrap();
        assert_eq!(scenario.simulation(), sim);
    }
}
