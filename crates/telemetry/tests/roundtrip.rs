//! Exporter well-formedness: write every artifact through the public
//! sink API, then parse each one back (with the workspace JSON reader,
//! a dev-dependency only — the crate itself is dependency-free) and
//! assert the schema and row/event counts round-trip.

use std::path::PathBuf;

use chrome_exec::json::{self, JsonValue};
use chrome_telemetry::attrib::STAGE_COUNT;
use chrome_telemetry::diff::CsvTable;
use chrome_telemetry::{
    EpochRecord, EventKind, ServiceLevel, SpanBuilder, Stage, TelemetryConfig, TelemetrySink,
};

fn parse_json(text: &str) -> JsonValue {
    json::parse(text).expect("valid JSON")
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
    let sink = TelemetrySink::recording(TelemetryConfig { profile: true });
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
    let requests: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("request"))
        .collect();
    for req in requests {
        let (ts, dur) = (
            req.get("ts").unwrap().as_f64().unwrap(),
            req.get("dur").unwrap().as_f64().unwrap(),
        );
        let covered: f64 = events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some("stage")
                    && e.get("tid") == req.get("tid")
                    && e.get("ts").unwrap().as_f64().unwrap() >= ts
                    && e.get("ts").unwrap().as_f64().unwrap() < ts + dur
            })
            .map(|e| e.get("dur").unwrap().as_f64().unwrap())
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
