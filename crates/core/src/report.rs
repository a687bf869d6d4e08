//! Shared text rendering for the experiment reports.
//!
//! Every experiment prints the same header/claim/series/verdict layout so
//! `EXPERIMENTS.md` and regression diffs stay uniform.

use crate::experiment::ExperimentSpec;
use gossip_stats::series::Series;

/// Renders the standard experiment header.
pub fn header(spec: &ExperimentSpec) -> String {
    format!(
        "==================================================================\n\
         {id} — {}\n\
         claim    : {}\n\
         workload : {}\n\
         run      : gossip experiment --id {id}\n\
         ------------------------------------------------------------------",
        spec.paper_item,
        spec.claim,
        spec.workload,
        id = spec.id,
    )
}

/// Renders a results table with a caption.
pub fn table(caption: &str, series: &Series) -> String {
    format!("{caption}\n{series}")
}

/// Renders a one-line verdict: did the measured shape match the claim?
pub fn verdict(ok: bool, detail: &str) -> String {
    if ok {
        format!("VERDICT: REPRODUCED — {detail}")
    } else {
        format!("VERDICT: MISMATCH — {detail}")
    }
}

/// Formats a measured-vs-predicted pair with their ratio.
pub fn comparison(name: &str, measured: f64, predicted: f64) -> String {
    let ratio = if predicted != 0.0 {
        measured / predicted
    } else {
        f64::NAN
    };
    format!(
        "{name}: measured = {measured:.4}, predicted scale = {predicted:.4}, ratio = {ratio:.4}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment;

    #[test]
    fn header_contains_id_and_bin() {
        let spec = experiment::find("E7").unwrap();
        let h = header(&spec);
        assert!(h.contains("E7"));
        assert!(h.contains("gossip experiment --id E7"));
        assert!(h.contains("Theorem 1.7(ii)"));
    }

    #[test]
    fn verdict_text() {
        assert!(verdict(true, "slope 1.02").starts_with("VERDICT: REPRODUCED"));
        assert!(verdict(false, "slope 3.0").starts_with("VERDICT: MISMATCH"));
    }

    #[test]
    fn comparison_ratio() {
        let s = comparison("T", 10.0, 5.0);
        assert!(s.contains("ratio = 2.0000"));
    }

    #[test]
    fn table_includes_caption_and_columns() {
        let mut s = Series::new("n", vec!["t".into()]);
        s.push(2.0, vec![4.0]);
        let out = table("spread time", &s);
        assert!(out.contains("spread time"));
        assert!(out.contains('t'));
    }
}
