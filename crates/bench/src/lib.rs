//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see `DESIGN.md` for the index); this
//! library holds the bits they share: ASCII bar rendering and table
//! formatting.

pub mod figures;

/// Renders a horizontal ASCII bar of proportional width.
///
/// # Example
///
/// ```
/// assert_eq!(veal_bench::bar(2.0, 4.0, 8), "####");
/// assert_eq!(veal_bench::bar(4.0, 4.0, 8), "########");
/// ```
#[must_use]
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// Renders a fraction in `0.00`..`1.00` as a percentage cell.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:5.1}%", 100.0 * fraction)
}

/// Prints a horizontal rule sized for `width` columns.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_clamps_to_width() {
        assert_eq!(bar(10.0, 4.0, 8).len(), 8);
        assert_eq!(bar(0.0, 4.0, 8), "");
        assert_eq!(bar(1.0, 0.0, 8), "");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.0%");
    }
}
