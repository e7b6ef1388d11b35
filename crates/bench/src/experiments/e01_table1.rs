//! E1 — Table 1: logic-cell counts across FPGA generations.
//!
//! Regenerates the paper's only table verbatim from the part catalog, plus
//! the growth factors the surrounding text quotes ("about 50%" for the
//! smallest parts, "3x" for the largest — the exact quotient is 4.3).

use crate::harness::Run;
use crate::report::{round, rows_json, table, ExperimentReport, Json, Row};
use apiary_resources::catalog::{table1_growth_factors, table1_rows};

/// Runs the experiment; returns the structured report.
pub fn report(_run: Run) -> ExperimentReport {
    let parts = table1_rows();
    let rows: Vec<Row> = parts
        .iter()
        .map(|p| {
            Row::new()
                .both("family", "Family", p.family.name())
                .both("year", "Year Released", u32::from(p.year))
                .both("part", "Part Number", p.number)
                .cell(
                    "logic_cells",
                    "Logic Cells",
                    p.logic_cells,
                    thousands(p.logic_cells),
                )
        })
        .collect();
    let (small, large) = table1_growth_factors();
    let rendered = format!(
        "E1 / Table 1: Logic cell counts, smallest and largest parts per generation\n\n{}\n\
         Growth, smallest parts (XC7V585T -> VU3P):  {:.2}x  (paper: \"about 50%\")\n\
         Growth, largest parts  (XC7VH870T -> VU29P): {:.2}x  (paper: \"3x\")\n",
        table(&rows),
        small,
        large
    );
    let metrics = Json::obj()
        .set("parts", parts.len())
        .set(
            "max_logic_cells",
            parts.iter().map(|p| p.logic_cells).max().unwrap_or(0),
        )
        .set("growth_smallest", round(small, 2))
        .set("growth_largest", round(large, 2))
        .set("table1", rows_json(&rows));
    ExperimentReport::new(
        "E1",
        "Table 1: logic-cell counts across FPGA generations",
        0,
        metrics,
        rendered,
    )
}

/// `n` with thousands separators, as the paper prints a cell count.
fn thousands(n: u64) -> String {
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
