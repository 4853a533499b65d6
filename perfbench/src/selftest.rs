//! The benchmark's self-test (`cargo test --release --manifest-path
//! perfbench/Cargo.toml`): the metric lists agree with the code, and a
//! tiny-size run of every workload prints every metric they name.

use std::collections::BTreeMap;

use crate::measure::{self, Outcome};
use crate::schema::{self, Metric};
use crate::workloads::{Size, Workload, ALL};

/// A parsed JSON value: just enough JSON to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not needed here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\t\r".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    b"null" => Json::Null,
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    t => Json::Num(
                        std::str::from_utf8(t)
                            .expect("utf-8")
                            .parse()
                            .unwrap_or_else(|e| panic!("bad number at byte {start}: {e}")),
                    ),
                }
            }
        }
    }
}

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json"))
}

/// `BENCHMARK.json` and `schema.json` list the code's metrics, in order;
/// `BENCHMARK.json` with the same units and a bound on each end-to-end
/// metric. Every workload is gated.
#[test]
fn benchmark_json_matches_schema() {
    let b = benchmark_json();
    let described = Json::parse(include_str!("../schema.json"));
    for (key, metrics) in [
        ("end_to_end", schema::END_TO_END),
        ("per_layer", schema::PER_LAYER),
    ] {
        for doc in [&b, &described] {
            let listed = doc.get(key).arr();
            let names: Vec<&str> = listed.iter().map(|j| j.get("name").str()).collect();
            let want: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{key}");
        }
        for (j, m) in b.get(key).arr().iter().zip(metrics) {
            assert_eq!(j.get("unit").str(), m.unit, "{}", m.name);
            if key == "end_to_end" {
                let Json::Num(bound) = j.get("bound") else {
                    panic!("{}: bound is not a number", m.name)
                };
                assert!(*bound > 0.0 && *bound <= 0.25, "{}: bound {bound}", m.name);
            }
        }
    }
    let gated: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let all: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
    assert_eq!(gated, all);
}

fn check(outcome: &Outcome, metrics: &[Metric], label: &str) {
    assert!(outcome.attempted >= 1, "{label}: nothing attempted");
    assert_eq!(outcome.failed, 0, "{label}: {:#?}", outcome.log);
    let printed: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let mut want: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let mut got = printed.clone();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want, "{label}: printed metrics");
    for (name, v) in &outcome.metrics {
        assert!(v.is_finite(), "{label}: {name} = {v}");
    }
    let line = crate::result_json(outcome, metrics);
    let parsed = Json::parse(&line);
    assert_eq!(parsed.get("correct"), &Json::Bool(true));
    for m in metrics {
        assert_eq!(parsed.get("metrics").get(m.name).get("unit").str(), m.unit);
    }
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("{name} not printed"))
}

/// The smoke run: every workload, untraced and traced, at tiny size.
#[test]
fn tiny_runs_print_every_metric() {
    for wl in ALL {
        let (plain, _) = measure::untraced(wl, 7, 1, Size::Tiny).expect("untraced smoke run");
        check(&plain, schema::END_TO_END, wl.name());
        for name in [
            "wall_s",
            "setup_s",
            "peak_rss_mb",
            "virtual_s",
            "latency_p99_s",
        ] {
            assert!(value(&plain, name) > 0.0, "{}: {name}", wl.name());
        }

        let (traced, spans) = measure::traced(wl, 7, 1, Size::Tiny).expect("traced smoke run");
        check(&traced, schema::PER_LAYER, wl.name());
        assert!(spans.json("{}").contains("\"runner.verify\""));
        // Layer counters appear exactly on the workloads that use the layer.
        let coll = value(&traced, "mpiio.coll_rounds") > 0.0;
        assert_eq!(coll, wl == Workload::Coll1k, "{}: mpiio", wl.name());
        let steals = value(&traced, "shard.steals_requested") > 0.0;
        assert_eq!(steals, wl == Workload::Shards4m, "{}: shard", wl.name());
        let offered = value(&traced, "service.offered") > 0.0;
        assert_eq!(offered, wl == Workload::SvcList, "{}: service", wl.name());
        assert!(value(&traced, "des.events") > 0.0);
        assert!(value(&traced, "des.drive_ns_per_event") > 0.0);
    }
}
