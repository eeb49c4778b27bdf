//! Terminal and file renderers for 2-D fields.
//!
//! `render_ascii` produces the figures in the examples' terminal output
//! (log-scaled density → character ramp); `write_pgm` writes a portable
//! graymap any image viewer can open, for the benchmark harness to save
//! Fig 3/4 equivalents.

use crate::projection::Projection2D;
use std::io::Write;
use std::path::Path;

/// Character ramp from empty to dense.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Render the field as ASCII art, one text row per z row (depth grows
/// downward, like the paper's figures). Density is log-compressed so the
/// banana's faint wings stay visible next to the bright source column.
pub fn render_ascii(field: &Projection2D) -> String {
    let max = field.max_value();
    let mut out = String::with_capacity((field.nx + 1) * field.nz);
    if max <= 0.0 {
        for _ in 0..field.nz {
            out.extend(std::iter::repeat_n(' ', field.nx));
            out.push('\n');
        }
        return out;
    }
    let log_max = (1.0 + max).ln();
    for iz in 0..field.nz {
        for ix in 0..field.nx {
            let v = field.at(ix, iz);
            let t = if v <= 0.0 { 0.0 } else { (1.0 + v).ln() / log_max };
            let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Write the field as an 8-bit binary PGM (P5), log-scaled like the ASCII
/// renderer.
pub fn write_pgm(field: &Projection2D, path: &Path) -> std::io::Result<()> {
    let max = field.max_value();
    let log_max = if max > 0.0 { (1.0 + max).ln() } else { 1.0 };
    let mut bytes = Vec::with_capacity(field.nx * field.nz);
    for iz in 0..field.nz {
        for ix in 0..field.nx {
            let v = field.at(ix, iz);
            let t = if v <= 0.0 { 0.0 } else { (1.0 + v).ln() / log_max };
            bytes.push((t * 255.0).round() as u8);
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "P5")?;
    writeln!(f, "{} {}", field.nx, field.nz)?;
    writeln!(f, "255")?;
    f.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Projection2D {
        let mut f = Projection2D {
            nx: 4,
            nz: 3,
            x_min: 0.0,
            x_max: 4.0,
            z_min: 0.0,
            z_max: 3.0,
            values: vec![0.0; 12],
        };
        f.values[4 + 1] = 100.0; // (1, 1)
        f.values[2 * 4 + 2] = 1.0; // (2, 2)
        f
    }

    #[test]
    fn ascii_has_right_shape() {
        let s = render_ascii(&field());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.chars().count() == 4));
    }

    #[test]
    fn ascii_brightest_at_max() {
        let s = render_ascii(&field());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].as_bytes()[1], b'@');
        assert_eq!(lines[0].as_bytes()[0], b' ');
    }

    #[test]
    fn ascii_empty_field_is_blank() {
        let f = Projection2D {
            nx: 3,
            nz: 2,
            x_min: 0.0,
            x_max: 1.0,
            z_min: 0.0,
            z_max: 1.0,
            values: vec![0.0; 6],
        };
        let s = render_ascii(&f);
        assert!(s.chars().all(|c| c == ' ' || c == '\n'));
    }

    #[test]
    fn pgm_round_trip_header() {
        let dir = std::env::temp_dir().join("lumen_test_pgm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.pgm");
        write_pgm(&field(), &path).unwrap();
        let data = std::fs::read(&path).unwrap();
        let text = String::from_utf8_lossy(&data[..11]);
        assert!(text.starts_with("P5\n4 3\n255"), "{text}");
        // 12 pixel bytes after the header.
        assert_eq!(data.len(), data.len() - 12 + 12);
        std::fs::remove_file(&path).ok();
    }
}
