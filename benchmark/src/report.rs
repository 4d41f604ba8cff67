//! From rounds to named metrics: the contract (`BENCHMARK.json`), the
//! result file, the printed table and the contract's one-line summary.

use crate::host::{self, HostInfo};
use crate::json::{obj, parse, Value};
use crate::stats;
use crate::workload::{Layer, Round, Sample, Workload};

/// `BENCHMARK.json`, compiled in: the binary and the contract it is
/// checked against cannot drift apart.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening of the median as a share of the baseline
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(v: &Value) -> Vec<MetricSpec> {
    v.as_array()
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            MetricSpec {
                name: s("name"),
                unit: s("unit"),
                lower_is_better: s("better") == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

impl Contract {
    pub fn load() -> Contract {
        let v = parse(CONTRACT).expect("BENCHMARK.json is valid JSON");
        Contract {
            end_to_end: metric_specs(v.get("end_to_end").unwrap_or(&Value::Null)),
            per_layer: metric_specs(v.get("per_layer").unwrap_or(&Value::Null)),
        }
    }
}

/// One end-to-end metric of one workload.
///
/// `value` is the median of the run's samples — calibrated samples on
/// the serial workloads (see [`Sample`]) — with both quartiles, the raw
/// (uncalibrated) median and the median host speed beside it. The
/// median, not a quartile on the "good" side: a shared host disturbs a
/// run in both directions (a vCPU taken away mid-segment slows a
/// sample; minutes during which the two vCPUs share a physical core
/// halve `fir2k_ring`'s round trip), and over ten-run studies the
/// good-side quartile latched onto whichever rare mode covered a
/// quarter of a run (56 % run-to-run spread on that round trip, 3 % for
/// the median).
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind the quartiles.
    pub n: usize,
    /// Median of the samples as the clock read them.
    pub raw_median: f64,
    /// Median host speed over the samples (1 = reference host).
    pub host_speed: f64,
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    pub workload: Workload,
    pub rounds: Vec<Round>,
    pub layers: Vec<Layer>,
    /// Checks made by the traced round (they count like any other).
    pub traced: Round,
}

impl WorkloadResult {
    pub fn new(workload: Workload) -> WorkloadResult {
        WorkloadResult {
            workload,
            rounds: Vec::new(),
            layers: Vec::new(),
            traced: Round::default(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum::<u64>() + self.traced.attempted
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum::<u64>() + self.traced.failed
    }

    pub fn notes(&self) -> Vec<&String> {
        let mut notes: Vec<&String> = self
            .rounds
            .iter()
            .chain([&self.traced])
            .flat_map(|r| &r.notes)
            .collect();
        notes.sort();
        notes.dedup();
        notes
    }

    /// The end-to-end metrics, empty if no end-to-end round ran.
    pub fn end_to_end(&self) -> Vec<EndToEnd> {
        if self.rounds.is_empty() {
            return Vec::new();
        }
        let metric = |name, unit, pick: fn(&Round) -> &Vec<Sample>, is_rate: bool| {
            let samples: Vec<&Sample> = self.rounds.iter().flat_map(pick).collect();
            let calibrated = |s: &&Sample| {
                if is_rate {
                    s.calibrated_rate()
                } else {
                    s.calibrated_time()
                }
            };
            let (q1, value, q3) =
                stats::quartiles(&samples.iter().map(calibrated).collect::<Vec<_>>());
            EndToEnd {
                name,
                value,
                unit,
                q1,
                q3,
                n: samples.len(),
                raw_median: stats::median(&samples.iter().map(|s| s.raw).collect::<Vec<_>>()),
                host_speed: stats::median(
                    &samples.iter().map(|s| s.host_speed).collect::<Vec<_>>(),
                ),
            }
        };
        let bytes = self.rounds.last().map_or(0, |r| r.buffer_bytes) as f64;
        vec![
            metric("iters_per_s", "1/s", |r| &r.iters_per_s, true),
            metric("latency_p50_us", "us", |r| &r.latency_us, false),
            // A build takes microseconds to milliseconds and a round
            // makes dozens to thousands: one sample per round, their
            // median.
            metric("setup_s", "s", |r| &r.setup_s, false),
            EndToEnd {
                name: "buffer_bytes",
                value: bytes,
                unit: "B",
                q1: bytes,
                q3: bytes,
                n: self.rounds.len(),
                raw_median: bytes,
                host_speed: 1.0,
            },
        ]
    }

    /// The per-layer metrics the contract names, in its order, as
    /// `(name, value, unit)`. A layer this workload does not exercise
    /// reads 0 (the README says which apply where).
    pub fn per_layer(&self, contract: &Contract) -> Vec<(String, f64, String)> {
        if self.layers.is_empty() {
            return Vec::new();
        }
        contract
            .per_layer
            .iter()
            .map(|spec| {
                let value = self
                    .layers
                    .iter()
                    .find(|l| l.name == spec.name)
                    .map_or(0.0, |l| l.value);
                (spec.name.clone(), value, spec.unit.clone())
            })
            .collect()
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    obj([("value", Value::from(value)), ("unit", Value::from(unit))])
}

/// The contract's last stdout line for one workload.
pub fn summary_line(result: &WorkloadResult, contract: &Contract) -> String {
    let mut metrics: Vec<(String, Value)> = Vec::new();
    for m in result.end_to_end() {
        metrics.push((m.name.to_string(), metric_value(m.value, m.unit)));
    }
    for (name, value, unit) in result.per_layer(contract) {
        metrics.push((name, metric_value(value, &unit)));
    }
    obj([
        ("correct", Value::from(result.failed() == 0)),
        ("attempted", Value::from(result.attempted().max(1))),
        ("failed", Value::from(result.failed())),
        ("metrics", Value::Obj(metrics)),
    ])
    .compact()
}

/// Parameters of the run, for the provenance block.
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
    pub quick: bool,
    pub trace: &'static str,
}

/// The result file: provenance, the bounds in force, and per workload
/// every metric with its spread.
pub fn result_file(
    results: &[WorkloadResult],
    contract: &Contract,
    host: &HostInfo,
    run: &RunInfo,
) -> Value {
    let counts = results.iter().map(|r| {
        let (throughput, latency) = r.workload.counts(run.quick);
        (
            r.workload.name(),
            obj([
                ("iterations_per_segment", Value::from(throughput)),
                ("latency_iterations_per_segment", Value::from(latency)),
                (
                    "segments",
                    Value::from(r.rounds.iter().map(|x| x.iters_per_s.len()).sum::<usize>()),
                ),
                (
                    "latency_segments",
                    Value::from(r.rounds.iter().map(|x| x.latency_us.len()).sum::<usize>()),
                ),
                (
                    "setup_samples",
                    Value::from(r.rounds.iter().map(|x| x.setup_s.len()).sum::<usize>()),
                ),
            ]),
        )
    });
    let provenance = obj([
        ("host", host.to_json()),
        ("commit", Value::from(host::commit())),
        ("seed", Value::from(run.seed)),
        ("seconds_per_workload", Value::from(run.seconds)),
        ("rounds", Value::from(run.rounds)),
        ("quick", Value::from(run.quick)),
        ("trace", Value::from(run.trace)),
        ("counts", obj(counts)),
    ]);
    let bounds = obj(contract.end_to_end.iter().map(|m| {
        (
            m.name.clone(),
            obj([
                ("unit", Value::from(m.unit.as_str())),
                (
                    "better",
                    Value::from(if m.lower_is_better { "lower" } else { "higher" }),
                ),
                ("bound", Value::from(m.bound.unwrap_or(0.0))),
            ]),
        )
    }));
    let workloads = obj(results.iter().map(|r| {
        let e2e = obj(r.end_to_end().into_iter().map(|m| {
            (
                m.name,
                obj([
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit)),
                    ("q1", Value::from(m.q1)),
                    ("q3", Value::from(m.q3)),
                    ("n", Value::from(m.n)),
                    ("raw_median", Value::from(m.raw_median)),
                    ("host_speed", Value::from(m.host_speed)),
                ]),
            )
        }));
        let layers = obj(r
            .per_layer(contract)
            .into_iter()
            .map(|(name, value, unit)| (name, metric_value(value, &unit))));
        (
            r.workload.name(),
            obj([
                ("correct", Value::from(r.failed() == 0)),
                ("ops_attempted", Value::from(r.attempted())),
                ("ops_failed", Value::from(r.failed())),
                (
                    "failed_ops_share",
                    Value::from(r.failed() as f64 / r.attempted().max(1) as f64),
                ),
                (
                    "failures",
                    Value::Arr(
                        r.notes()
                            .into_iter()
                            .map(|n| Value::from(n.as_str()))
                            .collect(),
                    ),
                ),
                ("end_to_end", e2e),
                ("per_layer", layers),
            ]),
        )
    }));
    obj([
        ("schema", Value::from("spi-benchmark/1")),
        ("provenance", provenance),
        ("bounds", bounds),
        ("workloads", workloads),
    ])
}

/// Six significant digits, whatever the magnitude (`setup_s` is
/// microseconds, `iters_per_s` millions).
fn number(x: f64) -> String {
    if x == 0.0 || (1e-3..1e9).contains(&x.abs()) {
        let digits = (5 - x.abs().max(1e-3).log10().floor() as i32).clamp(0, 8) as usize;
        format!("{x:.digits$}")
    } else {
        format!("{x:.5e}")
    }
}

/// Every metric by name and unit, for the human reading the run.
pub fn print_table(results: &[WorkloadResult], contract: &Contract) {
    for r in results {
        println!();
        println!(
            "== {}  (ops attempted {}, failed {}, failed_ops_share {})",
            r.workload.name(),
            r.attempted(),
            r.failed(),
            r.failed() as f64 / r.attempted().max(1) as f64
        );
        for note in r.notes() {
            println!("   FAILED: {note}");
        }
        for m in r.end_to_end() {
            println!(
                "   {:<44} {:>16} {:<6} q1 {} q3 {} (spread {:.1} %)  n={}  raw median {} at host speed {:.3}",
                m.name,
                number(m.value),
                m.unit,
                number(m.q1),
                number(m.q3),
                if m.value == 0.0 { 0.0 } else { (m.q3 - m.q1) / m.value.abs() * 100.0 },
                m.n,
                number(m.raw_median),
                m.host_speed
            );
        }
        // Only the layers this workload exercises; the summary line
        // and the result file carry the contract's full list.
        for (name, value, unit) in r.per_layer(contract) {
            if r.layers.iter().any(|l| l.name == name) {
                println!("   {name:<44} {:>16} {unit}", number(value));
            }
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{layer, EdgeKind};

    fn sample_result() -> WorkloadResult {
        let mut r = WorkloadResult::new(Workload::Fir(EdgeKind::Ring));
        for k in 0..3 {
            // The host ran at half speed throughout: calibrated rates
            // are twice the raw ones, calibrated times half.
            let at_half_speed = |raw: &[f64]| {
                raw.iter()
                    .map(|&raw| Sample {
                        raw,
                        host_speed: 0.5,
                    })
                    .collect()
            };
            r.rounds.push(Round {
                iters_per_s: at_half_speed(&[50.0 + k as f64, 55.0 + k as f64, 45.0 + k as f64]),
                latency_us: at_half_speed(&[80.0, 82.0, 78.0, 1000.0]),
                setup_s: at_half_speed(&[4e-5]),
                buffer_bytes: 131072,
                attempted: 10,
                failed: 0,
                notes: vec![],
            });
        }
        r.layers.push(layer("pe1.wait_share", 0.01, "ratio"));
        r
    }

    #[test]
    fn contract_is_well_formed_and_names_every_workload() {
        let c = Contract::load();
        let file = parse(CONTRACT).unwrap();
        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let e2e: Vec<&str> = c.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            e2e,
            ["iters_per_s", "latency_p50_us", "setup_s", "buffer_bytes"]
        );
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(!c.per_layer.is_empty() && c.per_layer.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(seen.insert(&m.name), "{} is named twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
        }
    }

    #[test]
    fn end_to_end_metrics_match_the_contract_in_name_unit_and_order() {
        let c = Contract::load();
        let got = sample_result().end_to_end();
        assert_eq!(got.len(), c.end_to_end.len());
        for (m, spec) in got.iter().zip(&c.end_to_end) {
            assert_eq!((m.name, m.unit), (spec.name.as_str(), spec.unit.as_str()));
            assert!(m.value > 0.0);
        }
        // Medians, calibrated to host speed 1.
        assert_eq!((got[0].value, got[0].n), (102.0, 9));
        assert!(got[0].q1 < got[0].value && got[0].value < got[0].q3);
        assert_eq!((got[0].raw_median, got[0].host_speed), (51.0, 0.5));
        assert_eq!((got[1].value, got[1].raw_median), (40.5, 81.0));
        assert_eq!(
            (got[2].value, got[2].n),
            (2e-5, 3),
            "one set-up sample per round"
        );
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let c = Contract::load();
        let v = parse(&summary_line(&sample_result(), &c)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), c.end_to_end.len() + c.per_layer.len());
        let wait = v.get("metrics").unwrap().get("pe1.wait_share").unwrap();
        assert_eq!(wait.get("value").and_then(Value::as_f64), Some(0.01));
        assert_eq!(wait.get("unit").and_then(Value::as_str), Some("ratio"));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect_and_is_listed() {
        let mut r = sample_result();
        r.traced
            .check(false, || "fir2k_ring: a frame differs".into());
        assert_eq!((r.attempted(), r.failed()), (31, 1));
        let c = Contract::load();
        let line = parse(&summary_line(&r, &c)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let host = HostInfo::detect();
        let run = RunInfo {
            seed: 1,
            seconds: 1.0,
            rounds: 3,
            quick: true,
            trace: "both",
        };
        let file = result_file(&[r], &c, &host, &run);
        let w = file.get("workloads").unwrap().get("fir2k_ring").unwrap();
        assert_eq!(w.get("ops_failed").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            w.get("failures")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(parse(&file.pretty()).unwrap(), file);
    }
}
