//! Exporter well-formedness: write every artifact through the public
//! sink API, then parse each one back (with a minimal in-test JSON
//! parser — the crate itself is dependency-free) and assert the schema
//! and row/event counts round-trip.

use std::path::PathBuf;

use chrome_telemetry::attrib::STAGE_COUNT;
use chrome_telemetry::diff::CsvTable;
use chrome_telemetry::{
    EpochRecord, EventKind, ServiceLevel, SpanBuilder, Stage, TelemetryConfig, TelemetrySink,
};

// ---------------------------------------------------------------- JSON

/// A minimal JSON value — just enough to validate our own exporters.
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
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.s.len() && self.s[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'"' => '"',
                        b'\\' => '\\',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("bad array at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("bad object at byte {}", self.i)),
            }
        }
    }
}

fn parse_json(text: &str) -> Json {
    let mut p = Parser::new(text);
    let v = p.value().expect("valid JSON");
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing garbage after JSON value");
    v
}

// ------------------------------------------------------------- fixture

const CORES: usize = 2;
const EPOCHS: usize = 3;
const SPANS: usize = 4;

fn record(epoch: u64) -> EpochRecord {
    EpochRecord {
        epoch,
        end_cycle: (epoch + 1) * 10_000,
        camat: vec![3.5; CORES],
        amat: vec![4.25; CORES],
        obstructed: vec![false; CORES],
        llc_active: vec![100 * (epoch + 1); CORES],
        llc_accesses: vec![40; CORES],
        l1_mshr_occupancy: vec![1; CORES],
        l2_mshr_occupancy: vec![2; CORES],
        demand_accesses: 500,
        demand_misses: 50,
        ..Default::default()
    }
}

fn span(core: u32, start: u64) -> chrome_telemetry::RequestSpan {
    let mut b = SpanBuilder::start(core, 0x400, 7, false, start);
    b.mark(Stage::L1Lookup, start + 4);
    b.mark(Stage::L1MshrWait, start + 10);
    b.mark(Stage::L2Lookup, start + 20);
    b.finish(ServiceLevel::L2, Stage::FillWait, start + 32, false)
}

/// Export the full artifact set through the sink and return the files.
fn export_all() -> (PathBuf, Vec<PathBuf>) {
    let sink = TelemetrySink::recording(TelemetryConfig {
        profile: true,
        ..TelemetryConfig::default()
    });
    for e in 0..EPOCHS as u64 {
        sink.push_epoch(record(e));
        sink.emit(e * 10_000, 0, EventKind::EpochBoundary { epoch: e });
    }
    for i in 0..SPANS as u64 {
        let s = span((i % CORES as u64) as u32, i * 100);
        sink.record_span(s);
    }
    let dir = std::env::temp_dir().join(format!("chrome_tl_roundtrip_{}", std::process::id()));
    let files = sink.export(&dir, "rt").expect("export succeeds");
    (dir, files)
}

fn read(dir: &std::path::Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

// --------------------------------------------------------------- tests

#[test]
fn exported_artifacts_roundtrip() {
    let (dir, files) = export_all();
    assert_eq!(files.len(), 5, "epochs csv+jsonl, trace, attrib csv+txt");

    // -- epoch CSV: header width matches every row, row count matches
    let csv = read(&dir, "rt_epochs.csv");
    let table = CsvTable::parse(&csv).expect("well-formed epoch CSV");
    assert_eq!(table.rows(), EPOCHS);
    // 2 id columns + 7 per-core blocks + 13 scalar columns
    assert_eq!(table.headers().len(), 2 + 7 * CORES + 13);
    assert_eq!(table.headers()[0], "epoch");
    assert_eq!(table.headers()[1], "end_cycle");
    for name in ["camat0", "amat1", "llc_active0", "l1_mshr1", "l2_mshr0"] {
        assert!(table.column_index(name).is_some(), "missing column {name}");
    }
    let actives = table
        .numeric_column(table.column_index("llc_active0").unwrap())
        .expect("numeric column");
    assert_eq!(actives, vec![100.0, 200.0, 300.0]);

    // -- epoch JSONL: one parseable object per epoch with the full keys
    let jsonl = read(&dir, "rt_epochs.jsonl");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), EPOCHS);
    for line in lines {
        let obj = parse_json(line);
        for key in [
            "epoch",
            "end_cycle",
            "camat",
            "amat",
            "obstructed",
            "llc_active",
            "llc_accesses",
            "l1_mshr_occupancy",
            "l2_mshr_occupancy",
            "demand_accesses",
        ] {
            assert!(obj.get(key).is_some(), "jsonl missing {key}");
        }
        assert_eq!(obj.get("camat").unwrap().as_arr().unwrap().len(), CORES);
    }

    // -- Chrome trace: valid JSON, expected event population
    let trace = parse_json(&read(&dir, "rt_trace.json"));
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let by_cat = |cat: &str| {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some(cat))
            .count()
    };
    assert_eq!(by_cat("epoch"), EPOCHS);
    assert_eq!(by_cat("policy"), EPOCHS, "one boundary event per epoch");
    assert_eq!(by_cat("request"), SPANS);
    // each synthetic span has 4 nonzero stages
    assert_eq!(by_cat("stage"), SPANS * 4);
    for ev in events {
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "trace event missing {key}");
        }
    }
    // stage slices tile their request exactly
    let requests: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("request"))
        .collect();
    for req in requests {
        let (ts, dur) = (
            req.get("ts").unwrap().as_num().unwrap(),
            req.get("dur").unwrap().as_num().unwrap(),
        );
        let covered: f64 = events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some("stage")
                    && e.get("tid") == req.get("tid")
                    && e.get("ts").unwrap().as_num().unwrap() >= ts
                    && e.get("ts").unwrap().as_num().unwrap() < ts + dur
            })
            .map(|e| e.get("dur").unwrap().as_num().unwrap())
            .sum();
        assert_eq!(covered, dur, "stage slices must tile the request span");
    }

    // -- attribution CSV: one row per (core, kind) plus the roll-up
    let attrib = read(&dir, "rt_attrib.csv");
    let table = CsvTable::parse(&attrib).expect("well-formed attrib CSV");
    assert_eq!(table.rows(), 2 * CORES + 1);
    assert_eq!(
        table.headers().len(),
        5 + 4 + STAGE_COUNT,
        "id columns + served-by levels + stages"
    );
    let last = table.rows() - 1;
    assert_eq!(table.cell(last, 0), Some("all"));
    assert_eq!(table.cell(last, 1), Some("total"));

    // -- attribution text report mentions every stage
    let txt = read(&dir, "rt_attrib.txt");
    for stage in Stage::ALL {
        assert!(
            txt.contains(stage.name()),
            "report missing {}",
            stage.name()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
