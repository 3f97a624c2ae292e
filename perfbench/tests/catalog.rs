//! The benchmark's own checks: seeded inputs are byte-deterministic, the
//! printed metrics are exactly those `BENCHMARK.json` declares, and a
//! corrupted output element counts as a failed operation.

use perfbench::gen::{self, Rng};
use perfbench::lib_stream::LibStream;
use perfbench::region_mix::{self, Mix, RegionMix};
use perfbench::report::{self, Metric};
use perfbench::trace::Spans;
use perfbench::{run, Bench, Workload};
use std::time::{Duration, Instant};

/// A minimal JSON value, enough to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input");
    v
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
            "expected {} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn declared(section: &Json) -> Vec<(String, String, String, Option<f64>)> {
    section
        .arr()
        .iter()
        .map(|m| {
            let bound = match m {
                Json::Obj(f) => f.iter().find(|(k, _)| k == "bound").map(|(_, v)| match v {
                    Json::Num(n) => *n,
                    _ => panic!("bound is a number"),
                }),
                _ => panic!("metric is an object"),
            };
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
                bound,
            )
        })
        .collect()
}

fn catalog(metrics: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
    metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn generator_is_byte_deterministic() {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(gen::vector(7, 1, 4096)), bits(gen::vector(7, 1, 4096)));
    assert_ne!(bits(gen::vector(7, 1, 4096)), bits(gen::vector(8, 1, 4096)));
    let ops = |seed| {
        let mix = Mix::new(seed);
        let (mut r, mut w) = (Rng::new(seed, 10), Rng::new(seed, 11));
        let reads: Vec<_> = (0..2000).map(|_| mix.read(&mut r)).collect();
        let writes: Vec<_> = (0..2000).map(|_| mix.write(&mut w)).collect();
        (reads, writes)
    };
    assert_eq!(ops(3), ops(3));
    assert_ne!(ops(3), ops(4));
}

#[test]
fn catalog_matches_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(
        declared(bench.get("end_to_end")),
        catalog(report::END_TO_END)
    );
    assert_eq!(declared(bench.get("per_layer")), catalog(report::PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_printed_metric_is_declared_and_every_declared_one_printed() {
    let bench = benchmark_json();
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (rep, _) = run(workload, 1, Duration::from_millis(300), trace);
            let out = rep.render(trace);
            let result = parse(out.lines().last().expect("a result line"));
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{}: {out}",
                workload.name()
            );
            let printed: Vec<(String, String)> = match result.get("metrics") {
                Json::Obj(f) => f
                    .iter()
                    .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                    .collect(),
                _ => panic!("metrics is an object"),
            };
            let want: Vec<(String, String)> = declared(bench.get(section))
                .into_iter()
                .map(|(n, u, _, _)| (n, u))
                .collect();
            assert_eq!(printed, want, "{} trace={trace}", workload.name());
        }
    }
}

#[test]
fn corrupted_stream_element_is_a_failed_op() {
    let mut bench = LibStream::setup(5);
    let mut sp = Spans::new(false, Instant::now(), 0);
    let mut clean = report::Report::default();
    bench.measure(Duration::from_millis(20), &mut sp, &mut clean);
    assert!(clean.correct());
    bench.corrupt_a();
    let mut rep = report::Report::default();
    bench.measure(Duration::from_millis(20), &mut sp, &mut rep);
    assert!(
        rep.failed >= 1,
        "a corrupted A element must fail the check of the Copy that reads it"
    );
    assert!(!rep.correct());
}

#[test]
fn corrupted_region_mix_cells_are_failed_ops() {
    let mut bench = RegionMix::setup(5);
    let mut sp = Spans::new(false, Instant::now(), 0);
    let mut rep = report::Report::default();
    bench.measure(Duration::from_millis(50), &mut sp, &mut rep);
    bench.verify(&mut rep);
    assert!(rep.correct());
    // One writer-half cell: only the end-of-run replay can see it.
    bench.corrupt(region_mix::ROWS - 1, region_mix::COLS - 1);
    let mut rep = report::Report::default();
    bench.verify(&mut rep);
    assert_eq!(
        rep.failed, 1,
        "the replay check must catch one corrupted cell"
    );
}
