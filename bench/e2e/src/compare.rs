//! `compare A.json B.json`: one row per metric and workload with each
//! side's median and quartiles and a verdict, A being the parent and B
//! the change.
//!
//! * **improved**: B wins at least nine tenths of the pairs (ties count
//!   for neither) and the medians differ, in B's favour, by more than A's
//!   interquartile distance;
//! * **unresolved**: either side's interquartile distance, as a share of
//!   its median, exceeds the metric's bound, unless every B run reads
//!   better, or every one worse, than every A run;
//! * **regressed**: B's median is worse than A's by more than the bound;
//! * **unchanged**: none of the above.
//!
//! Bounds come from BENCHMARK.json in the working directory; metrics
//! without one (the per-layer readings) get medians only. Runs pair up
//! only by the `pair` index `abs-e2e pair` records (which alternates the
//! side that runs first). Sets run one after the other, even on the same
//! seeds, have no pairs: they can show a regression or an unresolved
//! spread, never a gain. Reports whose host or inputs differ
//! are refused unless `--cross-host` is given.

use crate::report::{self, Better, RunReport};
use crate::stats::quartiles;
use std::process::ExitCode;

/// A comparison's outcome for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is reliably better.
    Improved,
    /// Within the bound.
    Unchanged,
    /// B is worse by more than the bound.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Improved => "improved",
            Self::Unchanged => "unchanged",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Applies the rules in the module docs. `pairs` holds matched `(a, b)`
/// values; `a` and `b` every run of each side (at least two each).
#[must_use]
pub fn verdict(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    better: Better,
    bound: f64,
) -> Option<Verdict> {
    let [a1, am, a3] = quartiles(a)?;
    let [b1, bm, b3] = quartiles(b)?;
    // Positive when `to` reads better than `from`.
    let gain = |from: f64, to: f64| match better {
        Better::Lower => from - to,
        Better::Higher => to - from,
    };
    let wins = pairs.iter().filter(|&&(pa, pb)| gain(pa, pb) > 0.0).count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && gain(am, bm) > a3 - a1 {
        return Some(Verdict::Improved);
    }
    let noisy = (a3 - a1) / am.abs() > bound || (b3 - b1) / bm.abs() > bound;
    let all_better = b.iter().all(|&y| a.iter().all(|&x| gain(x, y) > 0.0));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| gain(x, y) < 0.0));
    if noisy && !all_better && !all_worse {
        return Some(Verdict::Unresolved);
    }
    if -gain(am, bm) / am.abs() > bound {
        return Some(Verdict::Regressed);
    }
    Some(Verdict::Unchanged)
}

/// `(better, bound)` of every BENCHMARK.json end-to-end metric.
fn bounds() -> Result<Vec<(String, Better, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m["name"]
                .as_str()
                .ok_or("end_to_end entry without a name")?;
            let better = if m["better"] == "higher" {
                Better::Higher
            } else {
                Better::Lower
            };
            let bound = m["bound"].as_f64().ok_or(format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// Matches runs of one workload across the two sides by the pair index
/// `abs-e2e pair` records. Only those runs alternated which side went
/// first; runs that merely share a seed were made one set after the other
/// and are not pairs, so they can never show a gain.
fn pair_up<'r>(a: &[&'r RunReport], b: &[&'r RunReport]) -> Vec<(&'r RunReport, &'r RunReport)> {
    a.iter()
        .filter_map(|ra| {
            let (index, _) = ra.pair?;
            let rb = b
                .iter()
                .find(|rb| rb.pair.is_some_and(|(i, _)| i == index))?;
            Some((*ra, *rb))
        })
        .collect()
}

/// Why two sets may not be compared, if they may not.
fn fingerprint_mismatch(a: &[RunReport], b: &[RunReport]) -> Option<String> {
    let first = &a.first()?.fingerprint;
    if let Some(r) = a.iter().chain(b).find(|r| !r.fingerprint.same_host(first)) {
        return Some(format!(
            "host differs: {} × {} ({}) vs {} × {} ({})",
            first.nproc,
            first.cpu,
            first.flip_kernel,
            r.fingerprint.nproc,
            r.fingerprint.cpu,
            r.fingerprint.flip_kernel
        ));
    }
    for ra in a {
        for rb in b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed)
        {
            if (&ra.fingerprint.inputs, &ra.fingerprint.storage)
                != (&rb.fingerprint.inputs, &rb.fingerprint.storage)
            {
                return Some(format!(
                    "{} seed {}: the inputs differ",
                    ra.workload, ra.seed
                ));
            }
        }
    }
    None
}

/// The `compare` subcommand.
///
/// # Errors
/// Unreadable inputs, or fingerprints that differ without
/// `--cross-host`.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (flags, files): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));
    if let Some(f) = flags.iter().find(|f| **f != "--cross-host") {
        return Err(format!("compare: unknown option {f}"));
    }
    let cross_host = !flags.is_empty();
    let [path_a, path_b] = files.as_slice() else {
        return Err("compare needs two report files: A (parent) and B (change)".into());
    };
    let (set_a, set_b) = (report::read_set(path_a)?, report::read_set(path_b)?);
    if let Some(why) = fingerprint_mismatch(&set_a, &set_b) {
        if !cross_host {
            return Err(format!(
                "refusing to compare: {why} (pass --cross-host to override)"
            ));
        }
        eprintln!("abs-e2e: comparing across hosts: {why}");
    }
    let bounds = bounds()?;
    let mut workloads: Vec<&str> = Vec::new();
    for r in &set_a {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    println!(
        "{:<12} {:<28} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "Δ", "wins"
    );
    let mut regressed = false;
    for w in workloads {
        let a: Vec<&RunReport> = set_a.iter().filter(|r| r.workload == w).collect();
        let b: Vec<&RunReport> = set_b.iter().filter(|r| r.workload == w).collect();
        let pairs = pair_up(&a, &b);
        for (name, _) in &a[0].metrics {
            let values = |side: &[&RunReport]| -> Vec<f64> {
                side.iter().filter_map(|r| r.metric(name)).collect()
            };
            let (va, vb) = (values(&a), values(&b));
            let (Some(qa), Some(qb)) = (quartiles(&va), quartiles(&vb)) else {
                continue;
            };
            let matched: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(ra, rb)| Some((ra.metric(name)?, rb.metric(name)?)))
                .collect();
            let bound = bounds.iter().find(|(n, _, _)| n == name);
            let better = bound.map_or_else(
                || report::find(name).map_or(Better::Lower, |s| s.better),
                |b| b.1,
            );
            let gain = |x: f64, y: f64| {
                if better == Better::Lower {
                    x - y
                } else {
                    y - x
                }
            };
            let wins = matched.iter().filter(|&&(x, y)| gain(x, y) > 0.0).count();
            let label = match bound {
                Some(&(_, better, bound)) => {
                    verdict(&va, &vb, &matched, better, bound).map_or("-", Verdict::label)
                }
                None => "(no bound)",
            };
            regressed |= label == "regressed";
            let fmt = |q: [f64; 3]| format!("{:.4e} [{:.3e}, {:.3e}]", q[1], q[0], q[2]);
            println!(
                "{w:<12} {name:<28} {:>30} {:>30} {:>+7.2}% {:>3}/{:<2}  {label}",
                fmt(qa),
                fmt(qb),
                (qb[1] - qa[1]) / qa[1].abs() * 100.0,
                wins,
                matched.len()
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (f64::from(i) / 9.0 - 0.5))
            .collect()
    }

    fn paired(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = runs(1.0, 0.04);
        let b = runs(1.01, 0.04);
        assert_eq!(
            verdict(&a, &b, &paired(&a, &b), Better::Lower, 0.10),
            Some(Verdict::Unchanged)
        );
    }

    #[test]
    fn improvement_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread() {
        let a = runs(1.0, 0.04);
        let b = runs(0.8, 0.04);
        let pairs = paired(&a, &b);
        assert_eq!(
            verdict(&a, &b, &pairs, Better::Lower, 0.10),
            Some(Verdict::Improved)
        );
        // The same numbers read as a rate: B is now the worse side.
        assert_eq!(
            verdict(&a, &b, &pairs, Better::Higher, 0.10),
            Some(Verdict::Regressed)
        );
        // Eight wins in ten is not enough, whatever the medians say.
        let mut shuffled = pairs.clone();
        shuffled[0].1 = 2.0;
        shuffled[1].1 = 2.0;
        let b2: Vec<f64> = shuffled.iter().map(|p| p.1).collect();
        assert_ne!(
            verdict(&a, &b2, &shuffled, Better::Lower, 0.10),
            Some(Verdict::Improved)
        );
        // A gap inside A's own interquartile distance is not a gain.
        let wide = runs(1.0, 0.5);
        let close: Vec<f64> = wide.iter().map(|x| x - 0.05).collect();
        assert_ne!(
            verdict(&wide, &close, &paired(&wide, &close), Better::Lower, 0.5),
            Some(Verdict::Improved)
        );
    }

    #[test]
    fn worse_than_the_bound_regresses() {
        let a = runs(1.0, 0.02);
        let b = runs(1.15, 0.02);
        assert_eq!(
            verdict(&a, &b, &paired(&a, &b), Better::Lower, 0.10),
            Some(Verdict::Regressed)
        );
        let b = runs(1.08, 0.02);
        assert_eq!(
            verdict(&a, &b, &paired(&a, &b), Better::Lower, 0.10),
            Some(Verdict::Unchanged)
        );
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_the_runs_separate() {
        let a = runs(1.0, 0.6);
        let b = runs(1.05, 0.6);
        assert_eq!(
            verdict(&a, &b, &paired(&a, &b), Better::Lower, 0.10),
            Some(Verdict::Unresolved)
        );
        // Noisy, but every B run is worse than every A run.
        let b = runs(2.0, 0.6);
        assert_eq!(
            verdict(&a, &b, &paired(&a, &b), Better::Lower, 0.10),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict(&[1.0], &[1.0], &[], Better::Lower, 0.10), None);
    }

    #[test]
    fn only_alternated_pairs_can_show_a_gain() {
        // Ten seeds per side; B is 20 % faster on every one of them.
        let set = |latency: f64, paired: bool, first: bool| -> Vec<RunReport> {
            (0..10u64)
                .map(|i| RunReport {
                    workload: "dense-rate".into(),
                    seed: i + 1,
                    traced: false,
                    fingerprint: crate::report::Fingerprint::host(),
                    attempted: 1,
                    failed: 0,
                    wrong: Vec::new(),
                    metrics: vec![("latency_p50_s".into(), latency + 0.001 * i as f64)],
                    details: serde_json::Value::Null,
                    pair: paired.then_some((i, first == (i % 2 == 0))),
                })
                .collect()
        };
        let judge = |a: &[RunReport], b: &[RunReport]| {
            let (ra, rb): (Vec<&RunReport>, Vec<&RunReport>) =
                (a.iter().collect(), b.iter().collect());
            let latency = |r: &RunReport| r.metric("latency_p50_s").unwrap();
            let pairs: Vec<(f64, f64)> = pair_up(&ra, &rb)
                .into_iter()
                .map(|(x, y)| (latency(x), latency(y)))
                .collect();
            let values = |s: &[RunReport]| -> Vec<f64> { s.iter().map(latency).collect() };
            let v = verdict(&values(a), &values(b), &pairs, Better::Lower, 0.10);
            (pairs.len(), v)
        };
        // The same seeds run one set after the other: no pairs, no gain.
        let (a, b) = (set(1.0, false, true), set(0.8, false, false));
        assert_eq!(judge(&a, &b), (0, Some(Verdict::Unchanged)));
        // The same runs made by `pair`, alternating which side went first.
        let (a, b) = (set(1.0, true, true), set(0.8, true, false));
        assert_eq!(judge(&a, &b), (10, Some(Verdict::Improved)));
    }
}
