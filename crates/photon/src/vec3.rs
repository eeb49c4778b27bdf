//! Minimal 3-D vector algebra, tailored to transport kernels.
//!
//! `Vec3` is `Copy`, 24 bytes, and all operations are `#[inline]`; photon
//! state updates are the innermost loop of the whole system.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A coordinate axis — the normal direction of an axis-aligned interface.
///
/// The layered geometry only ever presents z-normal boundaries, but voxelized
/// geometries expose x- and y-normal voxel faces to the transport loop, so
/// boundary physics is parameterised by the normal axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Axis {
    X,
    Y,
    /// The depth axis; horizontal interfaces (the layered-tissue case).
    #[default]
    Z,
}

/// A 3-component double-precision vector (position or direction).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit vector along +z — the into-tissue direction for a normally
    /// incident source (tissue occupies z ≥ 0 by convention).
    pub const PLUS_Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Normalised copy; returns `None` for (near-)zero vectors.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Re-normalise a direction that should already be unit length,
    /// correcting accumulated floating-point drift.
    #[inline]
    pub fn renormalize(self) -> Vec3 {
        self.normalized().unwrap_or(Vec3::PLUS_Z)
    }

    /// True if this is a unit vector to within `tol`.
    #[inline]
    pub fn is_unit(self, tol: f64) -> bool {
        (self.norm_squared() - 1.0).abs() <= tol
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Component along the given axis.
    #[inline]
    pub fn component(self, axis: Axis) -> f64 {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
            Axis::Z => self.z,
        }
    }

    /// Copy with the given axis component replaced.
    #[inline]
    pub fn with_component(self, axis: Axis, v: f64) -> Vec3 {
        match axis {
            Axis::X => Vec3::new(v, self.y, self.z),
            Axis::Y => Vec3::new(self.x, v, self.z),
            Axis::Z => Vec3::new(self.x, self.y, v),
        }
    }

    /// Copy with the given axis component negated — specular reflection
    /// off an interface whose normal is that axis.
    #[inline]
    pub fn reflect(self, axis: Axis) -> Vec3 {
        self.with_component(axis, -self.component(axis))
    }

    /// Radial distance from the z-axis (source axis), √(x²+y²).
    #[inline]
    pub fn radial(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        self.x -= rhs.x;
        self.y -= rhs.y;
        self.z -= rhs.z;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Vec3::new(-3.0, 7.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn radial_ignores_z() {
        let v = Vec3::new(3.0, 4.0, 99.0);
        assert!((v.radial() - 5.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn normalization_yields_unit_vectors(
            x in -1e3f64..1e3, y in -1e3f64..1e3, z in -1e3f64..1e3
        ) {
            let v = Vec3::new(x, y, z);
            if let Some(u) = v.normalized() {
                prop_assert!(u.is_unit(1e-10));
            }
        }

        #[test]
        fn dot_is_symmetric(
            ax in -10f64..10.0, ay in -10f64..10.0, az in -10f64..10.0,
            bx in -10f64..10.0, by in -10f64..10.0, bz in -10f64..10.0
        ) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert!((a.dot(b) - b.dot(a)).abs() < 1e-9);
        }

        #[test]
        fn triangle_inequality(
            ax in -10f64..10.0, ay in -10f64..10.0, az in -10f64..10.0,
            bx in -10f64..10.0, by in -10f64..10.0, bz in -10f64..10.0
        ) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }
    }
}
