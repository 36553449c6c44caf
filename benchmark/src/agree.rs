//! `agree A B`: do two result sets of the same commit agree?
//!
//! A result set is what `run` and `trace` print: `workload metric value
//! unit` lines, note lines, and one `workload checks attempted N failed M`
//! line closing each workload's block. Metric by metric:
//!
//! * host-time end-to-end metrics must lie within their bound of each
//!   other; per-layer host times only show their spread;
//! * simulated metrics, counts and digests cover the exact rounds, which
//!   every run gets through however fast the machine, and must be
//!   identical;
//! * no check may have failed.
//!
//! Metrics that read 0 in both sets (layers a workload does not exercise)
//! are left out of the report.

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::{find, Kind};

/// One workload's block of one mode (untraced or traced).
#[derive(Debug, Default, Clone, PartialEq)]
struct Block {
    /// name → (printed value, unit), in print order.
    values: Vec<(String, String, String)>,
    attempted: u64,
    failed: u64,
}

type ResultSet = BTreeMap<(String, bool), Block>;

fn parse(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let mut open: BTreeMap<String, Block> = BTreeMap::new();
    for line in text.lines() {
        let t: Vec<&str> = line.split_whitespace().collect();
        match t.as_slice() {
            [w, "checks", "attempted", a, "failed", f] => {
                let mut block = open.remove(*w).unwrap_or_default();
                block.attempted = a.parse().map_err(|_| format!("bad line: {line}"))?;
                block.failed = f.parse().map_err(|_| format!("bad line: {line}"))?;
                let traced =
                    block.values.iter().any(|(n, ..)| find(n).is_some_and(|m| m.bound.is_none()));
                set.insert((w.to_string(), traced), block);
            }
            [w, name, value, unit] => open.entry(w.to_string()).or_default().values.push((
                name.to_string(),
                value.to_string(),
                unit.to_string(),
            )),
            [] => {}
            _ => return Err(format!("not a result-set line: {line}")),
        }
    }
    if set.is_empty() {
        return Err("no closed workload block found".into());
    }
    Ok(set)
}

/// Prints a markdown report; `Ok(true)` when the two sets agree.
pub fn agree(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let (a, b) = (parse(&read(a_path)?)?, parse(&read(b_path)?)?);
    let (text, ok) = compare(&a, &b);
    print!("{text}");
    Ok(ok)
}

fn compare(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = a.keys().eq(b.keys());
    if !all_ok {
        out.push_str("The two sets do not hold the same workloads and modes.\n\n");
    }
    for (key, block_a) in a {
        let Some(block_b) = b.get(key) else { continue };
        let (workload, traced) = key;
        out.push_str(&format!(
            "### {workload}, {} run — ops attempted {} / {}, failed {} / {}\n\n",
            if *traced { "traced" } else { "untraced" },
            block_a.attempted,
            block_b.attempted,
            block_a.failed,
            block_b.failed
        ));
        all_ok &= block_a.failed == 0 && block_b.failed == 0;
        out.push_str(
            "| metric | A | B | unit | spread | rule | verdict |\n|---|---|---|---|---|---|---|\n",
        );
        for (name, va, unit) in &block_a.values {
            let vb = block_b.values.iter().find(|(n, ..)| n == name).map(|(_, v, _)| v);
            if va == "0" && vb.is_some_and(|vb| vb == "0") {
                continue; // a layer this workload does not exercise
            }
            let Some(vb) = vb else {
                out.push_str(&format!("| {name} | {va} | missing | {unit} | | | FAIL |\n"));
                all_ok = false;
                continue;
            };
            let (spread, rule, ok) = judge(name, va, vb);
            all_ok &= ok != Some(false);
            let verdict = match ok {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "shown",
            };
            out.push_str(&format!(
                "| {name} | {va} | {vb} | {unit} | {spread} | {rule} | {verdict} |\n"
            ));
        }
        out.push('\n');
    }
    out.push_str(if all_ok { "**The two sets agree.**\n" } else { "**The two sets DISAGREE.**\n" });
    (out, all_ok)
}

/// (spread, rule applied, verdict — `None` when the pair is only shown).
fn judge(name: &str, va: &str, vb: &str) -> (String, String, Option<bool>) {
    let exact = |rule: &str| (String::new(), rule.to_string(), Some(va == vb));
    let Some(def) = find(name) else {
        // A note: digests must match, sample counts are only shown.
        return if name.ends_with("_digest") {
            exact("identical")
        } else {
            (String::new(), "note".into(), None)
        };
    };
    let (Ok(x), Ok(y)) = (va.parse::<f64>(), vb.parse::<f64>()) else {
        return (String::new(), "number".into(), Some(false));
    };
    let low = x.abs().min(y.abs());
    let spread = if x == y { 0.0 } else { (x - y).abs() / low };
    let shown = format!("{:.2}%", spread * 100.0);
    match (def.kind, def.bound) {
        (Kind::Exact, _) => exact("identical"),
        (Kind::Host, Some(bound)) => {
            (shown, format!("within {:.1}%", bound * 100.0), Some(spread <= bound))
        }
        (Kind::Host, None) => (shown, "host time, no bound".into(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "w setup_s 1.0 s\nw op_ms_p50 100 ms\nw sim_accuracy_mean 0.78 ratio\n\
                     w prediction_digest 0xab -\nw op_samples 90 -\nw checks attempted 95 failed 0\n";

    #[test]
    fn a_set_agrees_with_itself() {
        let a = parse(A).unwrap();
        let (text, ok) = compare(&a, &a);
        assert!(ok, "{text}");
        assert!(text.contains("| identical |"));
    }

    #[test]
    fn host_times_get_their_bound_and_digests_none() {
        let a = parse(A).unwrap();
        let bound = find("op_ms_p50").and_then(|m| m.bound).unwrap();
        // p50 just inside its bound, and another op count.
        let near = A
            .replace("100 ms", &format!("{} ms", 100.0 * (1.0 + bound) - 1.0))
            .replace("95 failed", "96 failed");
        assert!(compare(&a, &parse(&near).unwrap()).1);
        let far = A.replace("100 ms", &format!("{} ms", 100.0 * (1.0 + bound) + 1.0));
        assert!(!compare(&a, &parse(&far).unwrap()).1);
        let digest = A.replace("0xab", "0xac");
        assert!(!compare(&a, &parse(&digest).unwrap()).1);
        // A simulated metric may not move at all, whatever the op counts.
        let sim = near.replace("0.78", "0.7800001");
        assert!(!compare(&a, &parse(&sim).unwrap()).1);
        let failed = A.replace("failed 0", "failed 1");
        assert!(!compare(&a, &parse(&failed).unwrap()).1);
    }

    #[test]
    fn malformed_sets_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("w setup_s 1.0 s\n").is_err(), "block never closed");
        assert!(parse("one two\n").is_err());
    }
}
