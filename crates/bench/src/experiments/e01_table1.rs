//! E1 — Table 1: logic-cell counts across FPGA generations.
//!
//! Regenerates the paper's only table verbatim from the part catalog, plus
//! the growth factors the surrounding text quotes ("about 50%" for the
//! smallest parts, "3x" for the largest — the exact quotient is 4.3).

use crate::harness::Run;
use crate::report::{ExperimentReport, Json};
use crate::table::TextTable;
use apiary_resources::catalog::{table1_growth_factors, table1_rows};

/// Runs the experiment; returns the structured report.
pub fn report(_run: Run) -> ExperimentReport {
    let mut t = TextTable::new(&["Family", "Year Released", "Part Number", "Logic Cells"]);
    let rows = table1_rows();
    for p in &rows {
        t.row_owned(vec![
            p.family.name().to_string(),
            p.year.to_string(),
            p.number.to_string(),
            format_cells(p.logic_cells),
        ]);
    }
    let (small, large) = table1_growth_factors();
    let rendered = format!(
        "E1 / Table 1: Logic cell counts, smallest and largest parts per generation\n\n{}\n\
         Growth, smallest parts (XC7V585T -> VU3P):  {:.2}x  (paper: \"about 50%\")\n\
         Growth, largest parts  (XC7VH870T -> VU29P): {:.2}x  (paper: \"3x\")\n",
        t.render(),
        small,
        large
    );
    let metrics = Json::obj()
        .set("parts", rows.len())
        .set(
            "max_logic_cells",
            rows.iter().map(|p| p.logic_cells).max().unwrap_or(0),
        )
        .set("growth_smallest", (small * 100.0).round() / 100.0)
        .set("growth_largest", (large * 100.0).round() / 100.0);
    ExperimentReport::new(
        "E1",
        "Table 1: logic-cell counts across FPGA generations",
        0,
        metrics,
        rendered,
    )
}

fn format_cells(n: u64) -> String {
    // Thousands separators, as in the paper.
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_values() {
        let out = report(Run::QUICK).rendered;
        for needle in [
            "582,720",
            "876,160",
            "862,000",
            "3,780,000",
            "XC7V585T",
            "VU29P",
            "Virtex 7",
            "Virtex Ultrascale+",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn growth_factors_reported() {
        let out = report(Run::QUICK).rendered;
        assert!(out.contains("1.48x"));
        assert!(out.contains("4.31x"));
    }
}
