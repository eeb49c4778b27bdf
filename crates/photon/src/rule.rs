//! The single-field validity rules, each written once.
//!
//! Every validator in this crate, `lumen-tissue` and `lumen-core` states a
//! field's rule as a [`Rule`] and asks [`check`], so a constructor, a
//! `validate` method and the wire decoder cannot disagree about which
//! values a field may hold. A failure is one [`FieldError`] naming the
//! field, the value and the rule. Rules that relate two fields (a gate's
//! `min < max`, a grid's corner order, a layer stack's contiguity) belong
//! to the type that owns both fields.

/// What a single `f64` field must satisfy. Every rule refuses NaN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Finite.
    Finite,
    /// Finite and ≥ 0 (`-0.0` passes).
    NonNegative,
    /// Finite and > 0.
    Positive,
    /// A Henyey–Greenstein anisotropy: in [−1, 1].
    Anisotropy,
    /// A refractive index: finite and ≥ 1.
    Index,
    /// A probability that may be certain: in (0, 1].
    Probability,
    /// Strictly between 0 and 1: in (0, 1).
    OpenUnit,
    /// A cosine bound: in [0, 1].
    Cosine,
}

impl Rule {
    /// Whether `value` satisfies the rule.
    #[inline]
    pub fn accepts(self, value: f64) -> bool {
        match self {
            Rule::Finite => value.is_finite(),
            Rule::NonNegative => value >= 0.0 && value.is_finite(),
            Rule::Positive => value > 0.0 && value.is_finite(),
            Rule::Anisotropy => (-1.0..=1.0).contains(&value),
            Rule::Index => value >= 1.0 && value.is_finite(),
            Rule::Probability => value > 0.0 && value <= 1.0,
            Rule::OpenUnit => value > 0.0 && value < 1.0,
            Rule::Cosine => (0.0..=1.0).contains(&value),
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rule::Finite => "finite",
            Rule::NonNegative => "finite and >= 0",
            Rule::Positive => "finite and > 0",
            Rule::Anisotropy => "in [-1, 1]",
            Rule::Index => "finite and >= 1",
            Rule::Probability => "in (0, 1]",
            Rule::OpenUnit => "in (0, 1)",
            Rule::Cosine => "in [0, 1]",
        })
    }
}

/// A field whose value breaks its [`Rule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldError {
    /// The field, as its owner names it (`"mu_a"`, `"detector radius"`).
    pub field: &'static str,
    /// The refused value.
    pub value: f64,
    /// The rule it breaks.
    pub rule: Rule,
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} must be {}, got {}", self.field, self.rule, self.value)
    }
}

impl std::error::Error for FieldError {}

/// `Ok` when `value` satisfies `rule`, else the [`FieldError`] naming
/// `field`.
#[inline]
pub fn check(field: &'static str, value: f64, rule: Rule) -> Result<(), FieldError> {
    if rule.accepts(value) {
        Ok(())
    } else {
        Err(FieldError { field, value, rule })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each rule against the probes every decoder test uses, written out
    /// as a table rather than re-derived from `accepts`.
    #[test]
    fn every_rule_at_its_edges() {
        const TINY: f64 = 5e-324;
        let probes =
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, TINY, -1.0, 0.5, 1.0, 1.5, -1.5];
        #[rustfmt::skip]
        let table = [
            //                    NaN    +inf   -inf   -0.0   tiny   -1     0.5    1      1.5    -1.5
            (Rule::Finite,      [false, false, false, true,  true,  true,  true,  true,  true,  true ]),
            (Rule::NonNegative, [false, false, false, true,  true,  false, true,  true,  true,  false]),
            (Rule::Positive,    [false, false, false, false, true,  false, true,  true,  true,  false]),
            (Rule::Anisotropy,  [false, false, false, true,  true,  true,  true,  true,  false, false]),
            (Rule::Index,       [false, false, false, false, false, false, false, true,  true,  false]),
            (Rule::Probability, [false, false, false, false, true,  false, true,  true,  false, false]),
            (Rule::OpenUnit,    [false, false, false, false, true,  false, true,  false, false, false]),
            (Rule::Cosine,      [false, false, false, true,  true,  false, true,  true,  false, false]),
        ];
        for (rule, expected) in table {
            for (v, want) in probes.into_iter().zip(expected) {
                assert_eq!(rule.accepts(v), want, "{rule:?} on {v}");
                assert_eq!(check("x", v, rule).is_ok(), want, "{rule:?} on {v}");
            }
        }
        // One ulp either side of each closed or open bound.
        assert!(!Rule::Index.accepts(1.0f64.next_down()));
        assert!(Rule::Anisotropy.accepts(-1.0) && !Rule::Anisotropy.accepts((-1.0f64).next_down()));
        assert!(Rule::OpenUnit.accepts(1.0f64.next_down()));
        assert!(!Rule::Probability.accepts(1.0f64.next_up()));
        assert!(Rule::Positive.accepts(f64::MAX) && Rule::Finite.accepts(f64::MIN));
    }

    #[test]
    fn the_error_names_field_rule_and_value() {
        let err = check("mu_a", f64::NAN, Rule::NonNegative).unwrap_err();
        assert_eq!((err.field, err.rule), ("mu_a", Rule::NonNegative));
        assert!(err.value.is_nan());
        assert_eq!(err.to_string(), "mu_a must be finite and >= 0, got NaN");
        assert_eq!(
            check("na", 0.0, Rule::Positive).unwrap_err().to_string(),
            "na must be finite and > 0, got 0"
        );
    }
}
