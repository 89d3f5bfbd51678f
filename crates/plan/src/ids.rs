//! Identifiers for plan elements.

use std::fmt;

/// Identifies a physical operator node within one query plan. Stable across
/// re-optimization *of the same node* is not required — the optimizer remaps
/// ids when it replans — but ids are unique within a plan and the event
/// system routes by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Identifies a fragment within one query plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentId(pub u32);

impl fmt::Display for FragmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frag{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(OpId(3).to_string(), "op3");
        assert_eq!(FragmentId(1).to_string(), "frag1");
    }

    #[test]
    fn ordering_by_number() {
        assert!(OpId(2) < OpId(10));
        assert!(FragmentId(0) < FragmentId(1));
    }
}
