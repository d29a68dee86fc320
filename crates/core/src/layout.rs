//! Row-group layout notation.
//!
//! §4.1 of the paper describes row groups with a notation "such as
//! `R-R-R`, where 'R' indicates a retention-profiled row and '-'
//! indicates a distance of one DRAM row". We extend the notation with
//! `A`, marking the gap position where the experiment will place an
//! aggressor row (the paper's `R-R` group, for instance, hammers the row
//! *between* the two profiled rows — our `RAR`).

use std::fmt;
use std::str::FromStr;

/// A parsed row-group layout: which offsets (in *physical* row space,
/// relative to the group base) are retention-profiled and which hold
/// aggressors.
///
/// # Example
///
/// ```
/// use utrr_core::RowGroupLayout;
///
/// let layout: RowGroupLayout = "RRARR".parse().unwrap();
/// assert_eq!(layout.profiled(), &[0, 1, 3, 4]);
/// assert_eq!(layout.aggressors(), &[2]);
/// assert_eq!(layout.span(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowGroupLayout {
    profiled: Vec<u32>,
    aggressors: Vec<u32>,
    span: u32,
}

impl RowGroupLayout {
    /// Builds a layout from explicit offsets.
    ///
    /// # Panics
    ///
    /// Panics if a profiled offset collides with an aggressor offset.
    pub fn new(profiled: Vec<u32>, aggressors: Vec<u32>, span: u32) -> Self {
        for a in &aggressors {
            assert!(!profiled.contains(a), "offset {a} is both profiled and aggressor");
        }
        RowGroupLayout { profiled, aggressors, span }
    }

    /// The paper's `R-R` group with the aggressor in the gap: `RAR`.
    pub fn single_aggressor_pair() -> Self {
        "RAR".parse().expect("static layout parses")
    }

    /// Profiled rows at distance 1 and 2 on both sides of one aggressor:
    /// `RRARR`, used to count how many neighbours TRR refreshes
    /// (Observation A2 / B2).
    pub fn neighbor_probe() -> Self {
        "RRARR".parse().expect("static layout parses")
    }

    /// Offsets of retention-profiled rows relative to the group base.
    pub fn profiled(&self) -> &[u32] {
        &self.profiled
    }

    /// Offsets of aggressor positions relative to the group base.
    pub fn aggressors(&self) -> &[u32] {
        &self.aggressors
    }

    /// Total number of physical rows the group occupies.
    pub fn span(&self) -> u32 {
        self.span
    }
}

impl fmt::Display for RowGroupLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for offset in 0..self.span {
            let c = if self.profiled.contains(&offset) {
                'R'
            } else if self.aggressors.contains(&offset) {
                'A'
            } else {
                '-'
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Error parsing a layout string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLayoutError {
    bad_char: Option<char>,
}

impl fmt::Display for ParseLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bad_char {
            Some(c) => write!(f, "invalid layout character {c:?} (expected R, A, or -)"),
            None => write!(f, "layout must contain at least one profiled row"),
        }
    }
}

impl std::error::Error for ParseLayoutError {}

impl FromStr for RowGroupLayout {
    type Err = ParseLayoutError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut profiled = Vec::new();
        let mut aggressors = Vec::new();
        for (i, c) in s.chars().enumerate() {
            match c {
                'R' => profiled.push(i as u32),
                'A' => aggressors.push(i as u32),
                '-' => {}
                other => return Err(ParseLayoutError { bad_char: Some(other) }),
            }
        }
        if profiled.is_empty() {
            return Err(ParseLayoutError { bad_char: None });
        }
        Ok(RowGroupLayout { profiled, aggressors, span: s.chars().count() as u32 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_notation() {
        let l: RowGroupLayout = "R-R".parse().unwrap();
        assert_eq!(l.profiled(), &[0, 2]);
        assert!(l.aggressors().is_empty());
        assert_eq!(l.span(), 3);
    }

    #[test]
    fn parses_aggressor_positions() {
        let l: RowGroupLayout = "RAR".parse().unwrap();
        assert_eq!(l.profiled(), &[0, 2]);
        assert_eq!(l.aggressors(), &[1]);
    }

    #[test]
    fn parses_rrr_rrr() {
        let l: RowGroupLayout = "RRRARRR".parse().unwrap();
        assert_eq!(l.profiled(), &[0, 1, 2, 4, 5, 6]);
        assert_eq!(l.aggressors(), &[3]);
        assert_eq!(l.span(), 7);
    }

    #[test]
    fn rejects_garbage() {
        let err = "RXR".parse::<RowGroupLayout>().unwrap_err();
        assert!(err.to_string().contains("'X'"));
        assert!("---".parse::<RowGroupLayout>().is_err());
        assert!("A".parse::<RowGroupLayout>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for s in ["RAR", "RRARR", "R-R-R", "R--A--R"] {
            let l: RowGroupLayout = s.parse().unwrap();
            assert_eq!(l.to_string(), s);
        }
    }

    #[test]
    #[should_panic(expected = "both profiled and aggressor")]
    fn new_rejects_collisions() {
        let _ = RowGroupLayout::new(vec![0, 1], vec![1], 2);
    }

    #[test]
    fn presets_match_expectations() {
        assert_eq!(RowGroupLayout::single_aggressor_pair().to_string(), "RAR");
        assert_eq!(RowGroupLayout::neighbor_probe().to_string(), "RRARR");
    }
}
