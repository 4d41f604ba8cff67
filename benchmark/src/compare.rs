//! `--compare A B`: one row per (workload, end-to-end metric) with both
//! medians, both rounds' quartiles and the bound, and a non-zero exit
//! when B is worse than A by more than the bound or has lost a metric.
//!
//! Result files from different hosts are not compared: a 2-core
//! baseline gating a 16-core run (or the reverse) says nothing about
//! the code.

use crate::host::HostInfo;
use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound.
    Breach,
    /// Present in A, missing from B.
    Dropped,
    /// Present in B only: nothing to compare against yet.
    New,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Option<(f64, f64, f64)>,
    pub b: Option<(f64, f64, f64)>,
    pub bound: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// The host blocks differ; nothing was compared.
    HostsDiffer(HostInfo, HostInfo),
    Compared(Vec<Row>),
}

fn host_of(file: &Value) -> Result<HostInfo, String> {
    file.get("provenance")
        .and_then(|p| p.get("host"))
        .and_then(HostInfo::from_json)
        .ok_or_else(|| "result file has no provenance.host block".to_string())
}

fn metric_of(file: &Value, workload: &str, metric: &str) -> Option<(f64, f64, f64, String)> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let f = |k: &str| m.get(k).and_then(Value::as_f64);
    Some((
        f("value")?,
        f("q1")?,
        f("q3")?,
        m.get("unit")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
    ))
}

/// `(workload, metric)` pairs of a file, in file order.
fn pairs(file: &Value) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (w, body) in file
        .get("workloads")
        .and_then(Value::as_object)
        .unwrap_or_default()
    {
        for (m, _) in body
            .get("end_to_end")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            out.push((w.clone(), m.clone()));
        }
    }
    out
}

/// Compares baseline `a` with candidate `b`. Bounds and directions are
/// the baseline's: a candidate cannot loosen the gate it is held to.
///
/// # Errors
///
/// A result file without a host block.
pub fn compare(a: &Value, b: &Value) -> Result<Outcome, String> {
    let (host_a, host_b) = (host_of(a)?, host_of(b)?);
    if host_a != host_b {
        return Ok(Outcome::HostsDiffer(host_a, host_b));
    }
    let mut keys = pairs(a);
    for k in pairs(b) {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let rows = keys
        .into_iter()
        .map(|(workload, metric)| {
            let (ma, mb) = (
                metric_of(a, &workload, &metric),
                metric_of(b, &workload, &metric),
            );
            let spec = a
                .get("bounds")
                .and_then(|x| x.get(&metric))
                .or_else(|| b.get("bounds")?.get(&metric));
            let bound = spec
                .and_then(|s| s.get("bound"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let lower_is_better =
                spec.and_then(|s| s.get("better")).and_then(Value::as_str) == Some("lower");
            let (worse_by, verdict) = match (&ma, &mb) {
                (Some(x), Some(y)) => {
                    let worse = if x.0 == 0.0 {
                        0.0
                    } else if lower_is_better {
                        (y.0 - x.0) / x.0.abs()
                    } else {
                        (x.0 - y.0) / x.0.abs()
                    };
                    (
                        worse,
                        if worse > bound {
                            Verdict::Breach
                        } else {
                            Verdict::Ok
                        },
                    )
                }
                (Some(_), None) => (0.0, Verdict::Dropped),
                _ => (0.0, Verdict::New),
            };
            Row {
                unit: ma
                    .as_ref()
                    .or(mb.as_ref())
                    .map(|m| m.3.clone())
                    .unwrap_or_default(),
                workload,
                metric,
                a: ma.map(|m| (m.0, m.1, m.2)),
                b: mb.map(|m| (m.0, m.1, m.2)),
                bound,
                worse_by,
                verdict,
            }
        })
        .collect();
    Ok(Outcome::Compared(rows))
}

/// Whether `rows` hold a breach or a dropped metric.
pub fn breached(rows: &[Row]) -> bool {
    rows.iter()
        .any(|r| matches!(r.verdict, Verdict::Breach | Verdict::Dropped))
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<22} {:<16} {:>14} {:>27} {:>14} {:>27} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound", "worse"
    );
    let cell = |m: &Option<(f64, f64, f64)>| match m {
        Some((v, q1, q3)) => (format!("{v:.6}"), format!("{q1:.6}..{q3:.6}")),
        None => ("-".into(), "-".into()),
    };
    for r in rows {
        let ((a, aq), (b, bq)) = (cell(&r.a), cell(&r.b));
        println!(
            "{:<22} {:<16} {:>14} {:>27} {:>14} {:>27} {:>6.1}% {:>7.1}%  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            a,
            aq,
            b,
            bq,
            r.bound * 100.0,
            r.worse_by * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Breach => "BREACH",
                Verdict::Dropped => "DROPPED",
                Verdict::New => "new",
            }
        );
    }
}

/// Edits member `i` of an object's `(key, value)` list.
type Edit<'a> = &'a mut dyn FnMut(&mut Vec<(String, Value)>, usize);

fn replace(v: &mut Value, path: &[&str], f: Edit) {
    let Value::Obj(pairs) = v else { return };
    let Some(i) = pairs.iter().position(|(k, _)| k == path[0]) else {
        return;
    };
    if path.len() == 1 {
        f(pairs, i);
    } else {
        replace(&mut pairs[i].1, &path[1..], f);
    }
}

/// The gate gating itself: a synthetic 30 % slowdown must breach (the
/// widest bound the contract allows is 25 %), a
/// dropped metric must be flagged, an identical file must pass, and a
/// different host must be refused. Returns what went wrong, if anything.
pub fn self_test(base: &Value) -> Result<(), String> {
    let first = pairs(base).into_iter().find(|(_, m)| m == "iters_per_s");
    let (workload, metric) = first.ok_or("self-test: base file has no iters_per_s metric")?;
    let path = [
        "workloads",
        workload.as_str(),
        "end_to_end",
        metric.as_str(),
    ];

    match compare(base, base)? {
        Outcome::Compared(rows) if !rows.is_empty() && !breached(&rows) => {}
        other => {
            return Err(format!(
                "self-test: a file compared with itself did not pass: {other:?}"
            ))
        }
    }

    let mut slower = base.clone();
    replace(
        &mut slower,
        &[path.as_slice(), &["value"]].concat(),
        &mut |pairs, i| {
            if let Value::Num(x) = &mut pairs[i].1 {
                *x *= 0.7;
            }
        },
    );
    match compare(base, &slower)? {
        Outcome::Compared(rows) => {
            let hit: Vec<&Row> = rows
                .iter()
                .filter(|r| r.verdict == Verdict::Breach)
                .collect();
            let on_target =
                hit.len() == 1 && hit[0].workload == workload && hit[0].metric == metric;
            if !on_target || (hit[0].worse_by - 0.3).abs() > 1e-9 {
                return Err(format!(
                    "self-test: a 30 % slowdown of {workload}.{metric} gave {hit:?}"
                ));
            }
        }
        other => return Err(format!("self-test: unexpected {other:?}")),
    }

    let mut dropped = base.clone();
    replace(&mut dropped, &path, &mut |pairs, i| {
        pairs.remove(i);
    });
    match compare(base, &dropped)? {
        Outcome::Compared(rows) => {
            let hit: Vec<&Row> = rows
                .iter()
                .filter(|r| r.verdict == Verdict::Dropped)
                .collect();
            if hit.len() != 1 || hit[0].metric != metric || !breached(&rows) {
                return Err(format!(
                    "self-test: dropping {workload}.{metric} gave {hit:?}"
                ));
            }
        }
        other => return Err(format!("self-test: unexpected {other:?}")),
    }

    let mut elsewhere = base.clone();
    replace(
        &mut elsewhere,
        &["provenance", "host", "nproc"],
        &mut |pairs, i| {
            pairs[i].1 = Value::Num(16.0);
        },
    );
    match compare(base, &elsewhere)? {
        Outcome::HostsDiffer(..) => Ok(()),
        other => Err(format!(
            "self-test: a 16-core host was compared anyway: {other:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_file, Contract, RunInfo, WorkloadResult};
    use crate::workload::{EdgeKind, Round, Sample, Workload};

    pub(crate) fn synthetic() -> Value {
        let results: Vec<WorkloadResult> = [Workload::Fir(EdgeKind::Ring), Workload::DesApp1]
            .into_iter()
            .map(|w| {
                let mut r = WorkloadResult::new(w);
                let samples = |raw: [f64; 2]| {
                    raw.iter()
                        .map(|&raw| Sample {
                            raw,
                            host_speed: 1.0,
                        })
                        .collect()
                };
                r.rounds.push(Round {
                    iters_per_s: samples([1000.0, 1100.0]),
                    latency_us: samples([40.0, 44.0]),
                    setup_s: samples([0.001, 0.002]),
                    buffer_bytes: 4096,
                    attempted: 5,
                    ..Round::default()
                });
                r
            })
            .collect();
        let host = HostInfo {
            nproc: 2,
            cpu_model: "test".into(),
            kernel: "k".into(),
            rustc: "r".into(),
            features: "f".into(),
        };
        let run = RunInfo {
            seed: 1,
            seconds: 1.0,
            rounds: 1,
            quick: true,
            trace: "0",
        };
        result_file(&results, &Contract::load(), &host, &run)
    }

    #[test]
    fn gate_self_test_passes_on_a_synthetic_result() {
        assert_eq!(self_test(&synthetic()), Ok(()));
    }

    #[test]
    fn direction_and_bound_come_from_the_baseline() {
        let base = synthetic();
        let path = [
            "workloads",
            "des_app1",
            "end_to_end",
            "latency_p50_us",
            "value",
        ];
        // Latency is lower-is-better: +30 % breaches, −30 % does not.
        for (factor, want) in [
            (1.3, Verdict::Breach),
            (0.7, Verdict::Ok),
            (1.05, Verdict::Ok),
        ] {
            let mut other = base.clone();
            replace(&mut other, &path, &mut |pairs, i| {
                if let Value::Num(x) = &mut pairs[i].1 {
                    *x *= factor;
                }
            });
            let Outcome::Compared(rows) = compare(&base, &other).unwrap() else {
                panic!("hosts equal")
            };
            let row = rows
                .iter()
                .find(|r| r.workload == "des_app1" && r.metric == "latency_p50_us")
                .unwrap();
            assert_eq!(row.verdict, want, "factor {factor}");
        }
    }

    #[test]
    fn a_metric_only_the_candidate_has_is_new_not_a_breach() {
        let base = synthetic();
        let mut fewer = base.clone();
        replace(&mut fewer, &["workloads", "des_app1"], &mut |pairs, i| {
            pairs.remove(i);
        });
        let Outcome::Compared(rows) = compare(&fewer, &base).unwrap() else {
            panic!("hosts equal")
        };
        assert!(rows.iter().any(|r| r.verdict == Verdict::New));
        assert!(!breached(&rows));
    }

    #[test]
    fn a_file_without_a_host_block_is_an_error() {
        assert!(compare(&Value::Null, &synthetic()).is_err());
    }
}
