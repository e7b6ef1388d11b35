//! `compare <a.json> <b.json>`: every (workload, end-to-end metric) of two
//! `--out` reports against the bounds, one row each.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The repetitions of a run spread wider than the bound, so the runs
    /// cannot tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` is `b` worse (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let base = a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    }
}

pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by(better, a, b) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric(result: &Json, name: &str) -> Option<(f64, f64)> {
    let m = result.get("metrics")?.get(name)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    ))
}

/// Prints the comparison; `Ok(true)` when no row is `worse`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let results = |j: &Json, path: &str| {
        j.get("results")
            .cloned()
            .ok_or_else(|| format!("{path}: no `results` (not an --out report)"))
    };
    let (ra, rb) = (results(&a, path_a)?, results(&b, path_b)?);
    let mut clean = true;
    let mut rows = 0;
    println!(
        "{:<14} {:<5} {:<24} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "clock", "metric", "a", "b", "b/a", "bound"
    );
    for w in &WORKLOADS {
        let (Some(wa), Some(wb)) = (ra.get(w.name), rb.get(w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) = (metric(wa, m.name), metric(wb, m.name)) else {
                continue;
            };
            let v = verdict(m.better, m.bound, va, vb, sa.max(sb));
            clean &= v != Verdict::Worse;
            rows += 1;
            println!(
                "{:<14} {:<5} {:<24} {:>16.6} {:>16.6} {:>9.4} {:>6.0}%  {}",
                w.name,
                if m.simulated { "sim" } else { "host" },
                m.name,
                va,
                vb,
                vb / va,
                m.bound * 100.0,
                v.as_str()
            );
        }
        let digest = |r: &Json| {
            r.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let seed = |r: &Json| r.get("seed").and_then(Json::as_f64);
        let same = digest(wa).is_some() && digest(wa) == digest(wb);
        println!(
            "{:<14} sim_digest {}: a {} b {}{}",
            w.name,
            if same { "identical" } else { "differs" },
            digest(wa).unwrap_or_default(),
            digest(wb).unwrap_or_default(),
            if seed(wa) != seed(wb) {
                "  (different seeds)"
            } else if same {
                ""
            } else {
                "  (same seed: the simulation changed)"
            }
        );
    }
    if rows == 0 {
        return Err("the reports share no (workload, end-to-end metric) pair".to_string());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // Lower is better: 8 % up is inside a 10 % bound, 12 % is not.
        assert_eq!(verdict(Lower, 0.10, 100.0, 108.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(Lower, 0.10, 100.0, 112.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.10, 100.0, 50.0, 0.0), Verdict::Ok);
        // Higher is better.
        assert_eq!(verdict(Higher, 0.10, 100.0, 92.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(Higher, 0.10, 100.0, 88.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(Higher, 0.10, 100.0, 150.0, 0.0), Verdict::Ok);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(verdict(Lower, 0.10, 100.0, 130.0, 0.2), Verdict::Unresolved);
        assert_eq!(verdict(Lower, 0.10, 100.0, 100.0, 0.2), Verdict::Unresolved);
    }
}
