//! The static power-delivery hierarchy (§2.1).
//!
//! A data center's budget is partitioned top-down: the utility feed and
//! UPS capacity split into dozens of row-level PDUs (~200 kW each),
//! each feeding ~20 rack PDUs of 8–10 kW. This module models that tree
//! and validates that every partition fits its parent.

/// One node in the power-delivery tree.
#[derive(Debug, Clone)]
pub struct PowerNode {
    /// Display name ("dc", "row3", "rack3.7", …).
    pub name: String,
    /// Capacity of this node's feed, in watts.
    pub capacity_w: f64,
    /// Children fed from this node (empty for leaf rack PDUs).
    pub children: Vec<PowerNode>,
}

/// A violation found by [`PowerNode::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionError {
    /// Node whose children over-commit it.
    pub node: String,
    /// Sum of the children's capacities, in watts.
    pub children_w: f64,
    /// The node's own capacity, in watts.
    pub capacity_w: f64,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: children need {:.0} W but the feed provides {:.0} W",
            self.node, self.children_w, self.capacity_w
        )
    }
}

impl std::error::Error for PartitionError {}

impl PowerNode {
    /// Builds a leaf node (a rack PDU).
    pub fn leaf(name: impl Into<String>, capacity_w: f64) -> Self {
        assert!(capacity_w > 0.0 && capacity_w.is_finite(), "bad capacity");
        Self {
            name: name.into(),
            capacity_w,
            children: Vec::new(),
        }
    }

    /// Builds an interior node from its children.
    pub fn over(name: impl Into<String>, capacity_w: f64, children: Vec<PowerNode>) -> Self {
        assert!(capacity_w > 0.0 && capacity_w.is_finite(), "bad capacity");
        Self {
            name: name.into(),
            capacity_w,
            children,
        }
    }

    /// Checks that every node's children fit within its capacity;
    /// returns every violation found (empty = valid).
    pub fn validate(&self) -> Vec<PartitionError> {
        let mut errors = Vec::new();
        self.validate_into(&mut errors);
        errors
    }

    fn validate_into(&self, errors: &mut Vec<PartitionError>) {
        if !self.children.is_empty() {
            let children_w: f64 = self.children.iter().map(|c| c.capacity_w).sum();
            if children_w > self.capacity_w + 1e-9 {
                errors.push(PartitionError {
                    node: self.name.clone(),
                    children_w,
                    capacity_w: self.capacity_w,
                });
            }
            for c in &self.children {
                c.validate_into(errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overcommit_is_detected_at_every_level() {
        // A row feed smaller than its racks.
        let bad_row = PowerNode::over(
            "row0",
            15_000.0,
            vec![
                PowerNode::leaf("rack0", 10_000.0),
                PowerNode::leaf("rack1", 10_000.0),
            ],
        );
        let dc = PowerNode::over("dc", 100_000.0, vec![bad_row]);
        let errors = dc.validate();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].node, "row0");
        assert_eq!(errors[0].children_w, 20_000.0);
        assert!(errors[0].to_string().contains("row0"));
    }

    #[test]
    #[should_panic(expected = "bad capacity")]
    fn rejects_bad_capacity() {
        let _ = PowerNode::leaf("x", 0.0);
    }
}
